#include "measure.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <functional>

namespace perfbench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double BestShareMean(std::vector<double> v, double share, bool higher) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t n = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(share * static_cast<double>(v.size()))), 1, v.size());
  if (higher) {
    std::sort(v.begin(), v.end(), std::greater<>());
  } else {
    std::sort(v.begin(), v.end());
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(n);
}

double HistogramQuantileMicros(const grandma::serve::HistogramSnapshot& h, double q) {
  if (h.count == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0.0 && seen + n >= target) {
      const double lo = i == 0 ? 0.0 : grandma::serve::LatencyBucketUpperMicros(i - 1);
      const double hi = grandma::serve::LatencyBucketUpperMicros(i);
      return lo + (hi - lo) * std::clamp((target - seen) / n, 0.0, 1.0);
    }
    seen += n;
  }
  return grandma::serve::LatencyBucketUpperMicros(h.buckets.size() - 1);
}

double ClockOverheadNs() {
  std::vector<double> pairs;
  pairs.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t a = NowNs();
    const std::int64_t b = NowNs();
    pairs.push_back(static_cast<double>(b - a));
  }
  return Median(std::move(pairs));
}

CpuSplit::CpuSplit(std::size_t shards) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      static_cast<std::size_t>(CPU_COUNT(&allowed)) < shards + 1) {
    return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus_.push_back(cpu);
    }
  }
}

void CpuSplit::Place(std::size_t k) const {
  if (cpus_.empty()) {
    return;
  }
  const int mine = cpus_[k % cpus_.size()];
  cpu_set_t caller;
  cpu_set_t rest;
  CPU_ZERO(&caller);
  CPU_ZERO(&rest);
  for (const int cpu : cpus_) {
    CPU_SET(cpu, cpu == mine ? &caller : &rest);
  }
  const pid_t self = gettid();
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0 && tid != self) {
        sched_setaffinity(tid, sizeof(rest), &rest);
      }
    }
    closedir(dir);
  }
  sched_setaffinity(0, sizeof(caller), &caller);
}

namespace {

double CpuSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
