// perfbench: runs one workload once and prints its metrics. See README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics (program tracing off, nothing
// timed inside the server's path but the benchmark's own result callback);
// --trace 1 prints the per-layer ledger. The last stdout line is the result
// object; the exit code is 0 only when every answer matched the reference
// and every accounting check held.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "ledger.h"
#include "linalg/simd.h"
#include "measure.h"
#include "serve/recognizer_bundle.h"
#include "serve/server.h"
#include "serve_run.h"

namespace {

using namespace perfbench;
namespace serve = grandma::serve;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || PERFBENCH_SANITIZED
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Set-up is repeated and its median reported, so one slow repetition (a
// page-fault burst, a descheduled thread) does not move setup_s. It is
// repeated before the serve run and again after it, so that one slow
// stretch of the host does not hold every repetition: each time at least
// kSetupMinReps times, then until kSetupBudgetS is spent or kSetupMaxReps.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 60;
constexpr double kSetupBudgetS = 0.5;

// The end-to-end run alternates its open and closed phases in cycles of
// about this length, each cycle on the next CPU placement, so that each
// phase samples the whole run and every CPU: the shared host slows single
// CPUs for stretches lasting seconds (serve_run.h).
constexpr double kCycleSeconds = 2.5;

// The band bench.ledger_gap_frac is expected in (README.md, "Reading the
// traced run"). The shadow calls of the traced replay evict the session
// state the real calls then miss on; with 4,096 sessions (gdp_mouse) that
// costs the traced lap up to ~50% more than the untraced one.
constexpr double kLedgerGapLow = -0.15;
constexpr double kLedgerGapHigh = 0.60;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--source-digest") {
        a.source_digest = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a.seconds >= 1.0 && a.seconds <= 60.0 &&
         (a.trace == 0 || a.trace == 1);
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Non-vacuity and accounting checks shared by both modes; prints why it
// fails.
bool ServeChecksHold(const ServeReport& r) {
  bool ok = true;
  auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
      ok = false;
    }
  };
  check(r.failed == 0, "every answer present and equal to the reference");
  check(r.balanced, "submitted == processed + shed + expired (and touch groups balanced)");
  check(r.examined_n > 0 && !r.end_us.empty(), "results were delivered");
  check(r.expected_fires == 0 || (r.fires > 0 && !r.fire_us.empty()),
        "eager fires were delivered");
  return ok;
}

int RunEndToEnd(const WorkloadSpec& spec, Inputs& inputs, const Args& args) {
  // The closed phase gets the larger share: its rate needs the longer
  // average (serve_run.cc).
  ServeRun run(spec, inputs, /*traced=*/false, 0.4 * args.seconds, 0.6 * args.seconds,
               static_cast<std::size_t>(std::lround(args.seconds / kCycleSeconds)));
  std::vector<double> setup_s;
  std::shared_ptr<const serve::RecognizerBundle> bundle;
  std::unique_ptr<serve::RecognitionServer> server;
  const CpuSplit cpus(spec.shards);
  // Each repetition on the next CPU, so that one slow CPU does not hold them
  // all. Leaves the last repetition's bundle and server in place.
  std::size_t placement = 0;
  auto set_up = [&] {
    double spent = 0.0;
    for (int rep = 0; rep < kSetupMaxReps && (rep < kSetupMinReps || spent < kSetupBudgetS);
         ++rep) {
      server.reset();
      cpus.Place(placement++);
      const std::int64_t start = NowNs();
      bundle = serve::RecognizerBundle::Train(inputs.training);
      server = std::make_unique<serve::RecognitionServer>(bundle, run.Options(), run.Sink());
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      spent += setup_s.back();
    }
    cpus.Place(0);
  };
  set_up();
  BuildReference(spec, bundle->recognizer(), inputs);
  ServeReport r = run.Run(*server, cpus);
  server.reset();
  set_up();
  server.reset();

  const bool ok = ServeChecksHold(r);
  std::vector<double>& fire = r.fire_us;
  std::vector<double>& end = r.end_us;
  const double fire_p99 = Quantile(fire, 0.99);
  const double end_p99 = Quantile(end, 0.99);
  // The p99s are printed here and reported by the traced run, but are not
  // end-to-end metrics: see README.md, "Why p99 is not gated".
  std::printf("# open loop: fires=%zu ends=%zu fire_p99_us=%.3f end_p99_us=%.3f "
              "(within one 60 Hz frame, 16 ms: %s); generator late p99=%.3f us; "
              "open windows=%zu; closed loop: windows=%zu, whole-phase rate=%.0f points/s; "
              "setup reps=%zu; failed_frac=%.6g\n",
              fire.size(), end.size(), fire_p99, end_p99,
              fire_p99 <= 16000.0 && end_p99 <= 16000.0 ? "yes" : "no",
              HistogramQuantileMicros(r.gen_late, 0.99), r.open_windows, r.closed_windows,
              r.closed_pps, setup_s.size(),
              Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)));
  PrintResult(ok, r.attempted, r.failed,
              {
                  {"setup_s", Median(setup_s), "s"},
                  {"peak_pps", r.peak_pps, "points/s"},
                  {"fire_p50_us", r.fire_p50_us, "us"},
                  {"end_p50_us", r.end_p50_us, "us"},
                  {"accuracy", Ratio(static_cast<double>(r.correct),
                                     static_cast<double>(r.attempted)),
                   "ratio"},
                  {"examined_frac", Ratio(r.examined_sum, static_cast<double>(r.examined_n)),
                   "ratio"},
                  {"answered_frac",
                   1.0 - Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
                   "ratio"},
                  {"rss_mb", PeakRssMb(), "MB"},
              });
  return ok ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, Inputs& inputs, const Args& args) {
  const CpuSplit cpus(spec.shards);
  cpus.Place(0);
  const double overhead = ClockOverheadNs();
  const auto bundle = serve::RecognizerBundle::Train(inputs.training);
  BuildReference(spec, bundle->recognizer(), inputs);
  ServeRun run(spec, inputs, /*traced=*/true, 0.35 * args.seconds, 0.35 * args.seconds,
               /*cycles=*/1);
  const LedgerReport l =
      RunLedger(spec, inputs, run.lap(), bundle, 0.3 * args.seconds, overhead);
  ServeReport r;
  {
    serve::RecognitionServer server(bundle, run.Options(), run.Sink());
    r = run.Run(server, cpus);
  }

  bool ok = ServeChecksHold(r);
  if (l.mismatches != 0) {
    std::fprintf(stderr, "perfbench: check failed: traced replay diverged %llu times\n",
                 static_cast<unsigned long long>(l.mismatches));
    ok = false;
  }
  if (r.expected_fires > 0 && l.fires == 0) {
    std::fprintf(stderr, "perfbench: check failed: traced replay saw no fires\n");
    ok = false;
  }
  const bool touch = spec.input == InputKind::kTouchMixed;
  std::vector<double>& submit = r.submit_ns;
  std::vector<double>& fire = r.fire_us;
  std::vector<double>& end = r.end_us;
  std::printf("# ledger: %llu traced laps, clock pair %.1f ns subtracted per span; "
              "ledger_gap_frac %.4f within its band [%.2f, %.2f]: %s\n",
              static_cast<unsigned long long>(l.laps), overhead, l.ledger_gap_frac,
              kLedgerGapLow, kLedgerGapHigh,
              l.ledger_gap_frac >= kLedgerGapLow && l.ledger_gap_frac <= kLedgerGapHigh ? "yes"
                                                                                     : "no");
  PrintResult(ok, r.attempted, r.failed,
              {
                  {"features.add_point_ns", l.features_add_point_ns, "ns"},
                  {"features.snapshot_ns", l.features_snapshot_ns, "ns"},
                  {"eager.fire_check_ns_per_row", l.eager_fire_check_ns_per_row, "ns"},
                  {"eager.add_span_ns_per_point", l.eager_add_span_ns_per_point, "ns"},
                  {"eager.rows_per_fire", l.eager_rows_per_fire, "count"},
                  {"eager.post_fire_point_frac", l.eager_post_fire_point_frac, "ratio"},
                  {"classify.fire_ns", l.classify_fire_ns, "ns"},
                  {"classify.end_ns", l.classify_end_ns, "ns"},
                  {"classify.nbest_ns", l.classify_nbest_ns, "ns"},
                  {"session.get_or_create_ns", l.session_get_or_create_ns, "ns"},
                  {"session.add_points_self_ns", l.session_add_points_self_ns, "ns"},
                  {"session.end_stroke_ns", l.session_end_stroke_ns, "ns"},
                  {"serve.submit_ns_p50", Quantile(submit, 0.5), "ns"},
                  {"serve.submit_ns_p99", Quantile(submit, 0.99), "ns"},
                  {"serve.queue_wait_us_p50", HistogramQuantileMicros(r.open_queue_wait, 0.5),
                   "us"},
                  {"serve.queue_wait_us_p99", HistogramQuantileMicros(r.open_queue_wait, 0.99),
                   "us"},
                  {"serve.queue_max_depth", static_cast<double>(r.open_queue_max_depth),
                   "count"},
                  {"serve.allocs_per_event", r.allocs_per_event, "count"},
                  {"serve.worker_cpu_frac", r.worker_cpu_frac, "ratio"},
                  {"touch.track_ns", l.touch_track_ns, "ns"},
                  {"touch.attributes_ns", l.touch_attributes_ns, "ns"},
                  {"touch.frontend_self_ns", l.touch_frontend_self_ns, "ns"},
                  {"touch.rejected_frac",
                   touch ? r.touch_rejected_frac : l.touch_rejected_frac, "ratio"},
                  {"touch.routed_single_frac",
                   touch ? r.touch_routed_single_frac : l.touch_routed_single_frac, "ratio"},
                  {"open.fire_p99_us", Quantile(fire, 0.99), "us"},
                  {"open.end_p99_us", Quantile(end, 0.99), "us"},
                  {"bench.gen_late_p99_us", HistogramQuantileMicros(r.gen_late, 0.99), "us"},
                  {"bench.gen_cpu_frac", r.gen_cpu_frac, "ratio"},
                  {"bench.sink_ns", r.sink_ns, "ns"},
                  {"bench.ledger_gap_frac", l.ledger_gap_frac, "ratio"},
              });
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S(1..60) --trace 0|1 "
                 "[--commit ID] [--source-digest HEX]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (kSanitized || !kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 kSanitized ? "sanitizer" : "unoptimized");
    return 3;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  if (spec->shards + 1 > nproc) {
    std::fprintf(stderr, "perfbench: %s needs %zu threads, the host has %u\n", spec->name,
                 spec->shards + 1, nproc);
    return 3;
  }
  std::printf("# stamp: {\"commit\": \"%s\", \"source_sha256\": \"%s\", \"simd_tier\": \"%s\", "
              "\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
              args.commit.c_str(), args.source_digest.c_str(),
              grandma::linalg::simd::TierName(grandma::linalg::simd::ActiveTier()), nproc,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::fflush(stdout);
  try {
    Inputs inputs = BuildInputs(*spec, args.seed);
    return args.trace == 0 ? RunEndToEnd(*spec, inputs, args) : RunTraced(*spec, inputs, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
