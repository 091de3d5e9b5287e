// Clocks, quantiles, CPU time, memory and allocation counts: the measuring
// primitives every phase of the benchmark shares.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Quantile q in [0, 1] with linear interpolation between order statistics;
// 0 for an empty sample. Sorts `v` in place.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// Mean of the best `share` of `v` (at least one value): its largest values
// when `higher`, else its smallest. 0 for an empty sample.
double BestShareMean(std::vector<double> v, double share, bool higher);

// Quantile q of a server queue-wait histogram, interpolated linearly inside
// the bucket that holds rank q * count (the histogram itself only knows
// bucket bounds). 0 for an empty histogram.
double HistogramQuantileMicros(const grandma::serve::HistogramSnapshot& h, double q);

// Median cost of one steady_clock read pair, subtracted from every span.
double ClockOverheadNs();

// Keeps the generator (the calling thread) and the server's workers on
// separate CPUs, so the scheduler cannot stack them on one. Placement k
// (modulo the CPU count) puts the calling thread on the k-th allowed CPU,
// counting down from the highest, and every other thread of the process on
// the rest; threads started afterwards inherit the calling thread's CPU
// until the next Place(). A no-op when the process may use fewer CPUs than
// shards + 1.
class CpuSplit {
 public:
  explicit CpuSplit(std::size_t shards);
  void Place(std::size_t k) const;

 private:
  std::vector<int> cpus_;  // empty when disabled
};

double ThreadCpuSeconds();
double ProcessCpuSeconds();
double PeakRssMb();

// Global operator new is replaced in alloc_count.cc; while counting is on,
// every allocation on any thread is counted.
void SetAllocCounting(bool on);
std::uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
