// The end-to-end phases against a live RecognitionServer: one generator
// thread (the caller) drives a repeating schedule of the workload's inputs,
// in open-loop segments (events due on a fixed schedule at the workload's
// rate, latency timed from the due time) and closed-loop segments (kBlock
// submits as fast as the server accepts them) in turn. Every result is
// checked against the single-threaded reference in the result callback.
#ifndef PERFBENCH_SERVE_RUN_H_
#define PERFBENCH_SERVE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "inputs.h"
#include "measure.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "serve/touch_frontend.h"

namespace perfbench {

// One step of the schedule: a serve event (stroke workloads) or a whole
// contact group handed to the touch front end (touch_mixed).
struct Item {
  std::uint32_t session = 0;
  grandma::serve::EventType type = grandma::serve::EventType::kPoints;
  // Stroke index in Inputs::strokes, or group index in Inputs::groups.
  std::uint32_t unit = 0;
  std::uint32_t first = 0;  // kPoints: first point and point count
  std::uint32_t count = 0;
};

// The schedule is one lap over every stroke (or group), repeated. Each lap
// ends with every stroke closed; stroke ids are lap * units + unit.
struct Lap {
  std::vector<Item> items;
  // Points scheduled before item i within the lap; the open loop makes item
  // i due points_before[i] / rate after its lap's start.
  std::vector<std::uint64_t> points_before;
  std::uint64_t points = 0;
  std::size_t units = 0;
  // Per unit: the item that carries its end (touch: the group itself), and
  // the items that carry its points, in order.
  std::vector<std::uint32_t> end_item;
  std::vector<std::uint32_t> points_items_begin;  // units + 1 offsets
  std::vector<std::uint32_t> points_items;
};

// Interleaves the workload's sessions round robin, each session drawing
// strokes in turn, points_per_event points per kPoints event.
Lap BuildLap(const WorkloadSpec& spec, const Inputs& inputs);

// Both phases are cut into windows of this length. The shared host the
// benchmark was built on slows single CPUs by about a third for stretches
// lasting seconds (a busy thread gets all its CPU time, but does a third
// less in it), and how much of a run such stretches cover varies from run
// to run. A whole-run average moves with that share; the fast windows'
// figures do not, so the end-to-end figures are taken from them: the mean
// of the kFastShare highest window rates, and of the kFastShare lowest
// window medians of latency.
constexpr std::int64_t kWindowNs = 250'000'000;
constexpr double kFastShare = 0.05;
// A latency window with fewer samples is left out.
constexpr std::size_t kMinWindowSamples = 20;

struct ServeReport {
  // End to end.
  double peak_pps = 0.0;    // closed phase: the fastest windows' rate
  double closed_pps = 0.0;  // closed phase as a whole, including its drains
  std::size_t closed_windows = 0;
  // Open-loop latencies: fired strokes from the due time of the event
  // carrying the firing point; strokes (touch: answered groups) from the due
  // time of their end. Pooled over the phase; and the window figures.
  std::vector<double> fire_us;
  std::vector<double> end_us;
  double fire_p50_us = 0.0;  // the fastest windows' median
  double end_p50_us = 0.0;
  std::size_t open_windows = 0;
  std::uint64_t attempted = 0;  // strokes (touch: groups) submitted
  std::uint64_t failed = 0;     // missing, diverging, shed or expired answers
  std::uint64_t correct = 0;    // final answers equal to the generated truth
  double examined_sum = 0.0;    // share of each stroke seen at its fire (1 if none)
  std::uint64_t examined_n = 0;
  std::uint64_t fires = 0;
  std::uint64_t expected_fires = 0;
  bool balanced = false;  // events submitted == processed + shed + expired
  // Layers (filled on traced runs; the generator lateness always, in the
  // server's histogram type so its memory does not grow with the run).
  grandma::serve::HistogramSnapshot gen_late;
  std::vector<double> submit_ns;
  grandma::serve::HistogramSnapshot open_queue_wait;
  std::size_t open_queue_max_depth = 0;
  double allocs_per_event = 0.0;
  double worker_cpu_frac = 0.0;
  double gen_cpu_frac = 0.0;
  double sink_ns = 0.0;
  double touch_rejected_frac = 0.0;
  double touch_routed_single_frac = 0.0;
};

// Owns the result callback's state, so it must outlive the server it is
// passed to. Not copyable: the callback holds `this`.
class ServeRun {
 public:
  // The open and closed phases take open_seconds and closed_seconds in all,
  // alternating in `cycles` segments each.
  ServeRun(const WorkloadSpec& spec, const Inputs& inputs, bool traced, double open_seconds,
           double closed_seconds, std::size_t cycles);
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  grandma::serve::ServerOptions Options() const;
  grandma::serve::ResultSink Sink();
  const Lap& lap() const { return lap_; }

  // Runs warm-up, then open and closed segments in turn on `server` (built
  // with Options() and Sink()), then shuts it down and tallies. Cycle c (an
  // open and a closed segment) runs on `cpus` placement c.
  ServeReport Run(grandma::serve::RecognitionServer& server, const CpuSplit& cpus);

 private:
  struct alignas(64) Tally {
    std::uint64_t fires = 0;
    std::uint64_t ends = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t correct = 0;
    double examined = 0.0;
    double sink_ns = 0.0;
  };

  void OnResult(const grandma::serve::RecognitionResult& r);
  const Stroke* StrokeOf(std::uint32_t uid) const;
  std::uint32_t Uid(std::uint64_t lap, std::uint32_t unit) const {
    return static_cast<std::uint32_t>(lap * lap_.units + unit);
  }
  std::int64_t DueNs(std::uint64_t lap, std::size_t item) const;
  void SubmitItem(std::uint64_t lap, std::size_t item);
  // Open laps [first, last), paced from now.
  void RunOpen(std::uint64_t first, std::uint64_t last, ServeReport& rep);
  // Closed laps from `first` until `deadline`, appending window rates;
  // returns the lap after the last one run.
  std::uint64_t RunClosed(std::uint64_t first, std::int64_t deadline,
                          std::vector<double>& window_pps);
  void WaitDrained(const grandma::serve::RecognitionServer& server) const;

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const bool traced_;
  const double open_seconds_;
  const double closed_seconds_;
  const std::size_t cycles_;
  const bool touch_;
  Lap lap_;
  std::vector<Tally> tallies_;

  // Set before the first submit; read by the callback afterwards.
  grandma::serve::RecognitionServer* server_ = nullptr;
  std::unique_ptr<grandma::serve::TouchFrontEnd> front_end_;
  std::uint32_t open_first_uid_ = 0;
  std::uint32_t open_end_uid_ = 0;
  std::vector<std::int64_t> fire_ns_;
  std::vector<std::int64_t> end_ns_;
  std::vector<std::int64_t> lap_due_ns_;  // per open lap: when its first item is due
  double ns_per_point_ = 0.0;

  // Generator-thread accounting.
  std::uint64_t events_submitted_ = 0;
  std::uint64_t units_submitted_ = 0;
  std::uint64_t submit_errors_ = 0;
  std::uint64_t touch_correct_ = 0;
  std::uint64_t touch_mismatches_ = 0;
  grandma::serve::LatencyHistogram gen_late_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_RUN_H_
