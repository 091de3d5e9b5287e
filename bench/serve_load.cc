// Load generator + throughput benchmark for the serve layer: replays
// synth-generated GDP stroke streams from thousands of simulated sessions
// through a RecognitionServer, end to end (points in -> eager/two-phase
// recognitions out), at worker-thread counts 1/2/4/8. Every recognition is
// checked against the single-threaded EagerStream reference — any divergence
// is a hard failure. A separate overload phase hammers a tiny-queue kShed
// server to measure the shed rate and verify the accounting balances.
// Writes BENCH_serve.json (throughput, queue depth, shed rate, tail
// latencies per thread count).
//
// Acceptance gates (exit nonzero on violation):
//   - zero correctness divergences at every thread count;
//   - overload accounting balances (processed + shed == submitted);
//   - >= 2x speedup at 4 worker threads over 1 — enforced only when the
//     host has >= 4 hardware threads (fewer cannot exhibit parallel
//     speedup) and the 1-thread run lasts >= 0.5 s (a run of a few ms, like
//     the ctest smoke load, measures thread start-up and scheduling noise).
//     A skipped gate is recorded with its reason in BENCH_serve.json.
//
// Flags: --sessions=N --strokes=N --batch=N (points per event)
//        --rate=N (paced aggregate points/sec; 0 = unpaced, the default)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "eager/eager_recognizer.h"
#include "geom/gesture.h"
#include "serve/event.h"
#include "serve/recognizer_bundle.h"
#include "serve/server.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace {

using namespace grandma;
using Clock = std::chrono::steady_clock;

struct Config {
  std::size_t sessions = 2000;
  std::size_t strokes_per_session = 2;
  std::size_t batch = 8;        // points per kPoints event
  double rate = 0.0;            // aggregate points/sec; 0 = unpaced
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
};

struct ReferenceOutcome {
  bool fired = false;
  std::size_t fired_at = 0;
  classify::ClassId eager_class = 0;
  classify::ClassId final_class = 0;
};

ReferenceOutcome Reference(const eager::EagerRecognizer& r, const geom::Gesture& g) {
  ReferenceOutcome out;
  eager::EagerStream stream(r);
  for (const auto& p : g) {
    if (stream.AddPoint(p)) {
      out.fired = true;
      out.fired_at = stream.fired_at();
      out.eager_class = stream.ClassifyNow().class_id;
    }
  }
  out.final_class = stream.ClassifyNow().class_id;
  return out;
}

struct RunResult {
  std::size_t threads = 0;
  std::size_t producers = 0;
  double wall_ms = 0.0;
  std::uint64_t points = 0;
  std::uint64_t recognitions = 0;  // kStrokeEnd + kEagerFire results
  std::uint64_t eager_fires = 0;
  std::uint64_t divergences = 0;
  double points_per_sec = 0.0;
  double recognitions_per_sec = 0.0;
  serve::ShardMetrics totals;
};

// One lossless (kBlock) throughput+correctness run at `threads` shards.
RunResult RunLoad(const std::shared_ptr<const serve::RecognizerBundle>& bundle,
                  const std::vector<geom::Gesture>& pool,
                  const std::vector<ReferenceOutcome>& reference, const Config& config,
                  std::size_t threads) {
  RunResult run;
  run.threads = threads;
  run.producers = threads;

  // Per-session result slots: a session is pinned to one shard, so its slot
  // has exactly one writer and needs no lock.
  std::vector<std::vector<serve::RecognitionResult>> results(config.sessions);

  serve::ServerOptions options;
  options.num_shards = threads;
  options.queue_capacity = 4096;
  options.overload = serve::OverloadPolicy::kBlock;
  serve::RecognitionServer server(bundle, options, [&](const serve::RecognitionResult& r) {
    results[static_cast<std::size_t>(r.session)].push_back(r);
  });

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < run.producers; ++p) {
    producers.emplace_back([&, p] {
      const double producer_rate =
          config.rate > 0.0 ? config.rate / static_cast<double>(run.producers) : 0.0;
      std::uint64_t sent_points = 0;
      const auto producer_start = Clock::now();
      for (std::size_t s = p; s < config.sessions; s += run.producers) {
        const serve::SessionId session = s;
        for (std::size_t k = 0; k < config.strokes_per_session; ++k) {
          const std::size_t stroke_index =
              (s * config.strokes_per_session + k) % pool.size();
          const auto& points = pool[stroke_index].points();
          const auto stroke_id = static_cast<serve::StrokeId>(k + 1);
          (void)server.Submit({session, serve::EventType::kStrokeBegin, stroke_id});
          for (std::size_t i = 0; i < points.size(); i += config.batch) {
            const std::size_t end = std::min(points.size(), i + config.batch);
            std::vector<geom::TimedPoint> batch(points.begin() + i, points.begin() + end);
            (void)server.Submit(
                {.session = session, .type = serve::EventType::kPoints, .stroke = stroke_id,
                 .points = std::move(batch)});
            sent_points += end - i;
            if (producer_rate > 0.0) {
              const auto due = producer_start +
                               std::chrono::duration<double>(
                                   static_cast<double>(sent_points) / producer_rate);
              std::this_thread::sleep_until(due);
            }
          }
          (void)server.Submit({session, serve::EventType::kStrokeEnd, stroke_id});
        }
        (void)server.Submit({session, serve::EventType::kSessionEnd, 0});
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  server.Shutdown();  // drains every accepted event
  const auto stop = Clock::now();

  run.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  run.totals = server.Metrics().Totals();
  run.points = run.totals.points_processed;

  // Compare against the single-threaded reference: final class, eager-fire
  // presence, fire point, and eager-moment class must all match.
  for (std::size_t s = 0; s < config.sessions; ++s) {
    const auto& got = results[s];
    std::size_t cursor = 0;
    for (std::size_t k = 0; k < config.strokes_per_session; ++k) {
      const ReferenceOutcome& want =
          reference[(s * config.strokes_per_session + k) % pool.size()];
      const std::size_t expect_count = want.fired ? 2 : 1;
      if (cursor + expect_count > got.size()) {
        ++run.divergences;
        break;
      }
      if (want.fired) {
        const serve::RecognitionResult& fire = got[cursor];
        if (fire.kind != serve::ResultKind::kEagerFire ||
            fire.classification.class_id != want.eager_class ||
            fire.points_seen != want.fired_at) {
          ++run.divergences;
        }
        ++run.eager_fires;
      }
      const serve::RecognitionResult& last = got[cursor + expect_count - 1];
      if (last.kind != serve::ResultKind::kStrokeEnd ||
          last.classification.class_id != want.final_class ||
          last.eager_fired != want.fired || last.fired_at != want.fired_at) {
        ++run.divergences;
      }
      cursor += expect_count;
      run.recognitions += expect_count;
    }
    if (cursor != got.size()) {
      ++run.divergences;  // spurious extra results
    }
  }

  const double wall_sec = run.wall_ms / 1000.0;
  run.points_per_sec = wall_sec > 0.0 ? static_cast<double>(run.points) / wall_sec : 0.0;
  run.recognitions_per_sec =
      wall_sec > 0.0 ? static_cast<double>(run.recognitions) / wall_sec : 0.0;
  return run;
}

struct OverloadResult {
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t processed = 0;
  double shed_rate = 0.0;
  bool balanced = false;
};

// Hammer a tiny-queue kShed server: sheds must be rejected cleanly and the
// accounting must balance exactly.
OverloadResult RunOverload(const std::shared_ptr<const serve::RecognizerBundle>& bundle,
                           const std::vector<geom::Gesture>& pool) {
  OverloadResult out;
  serve::ServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 64;
  options.overload = serve::OverloadPolicy::kShed;
  std::atomic<std::uint64_t> submitted{0};
  serve::RecognitionServer server(bundle, options, [](const serve::RecognitionResult&) {});

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kStrokesPerProducer = 250;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = 0; k < kStrokesPerProducer; ++k) {
        const serve::SessionId session = p * 10000 + k;
        const auto& points = pool[(p + k) % pool.size()].points();
        ++submitted;
        (void)server.Submit({session, serve::EventType::kStrokeBegin, 1});
        ++submitted;
        (void)server.Submit({.session = session, .type = serve::EventType::kPoints, .stroke = 1,
                             .points = points});
        ++submitted;
        (void)server.Submit({session, serve::EventType::kStrokeEnd, 1});
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  server.Shutdown();

  const serve::ShardMetrics totals = server.Metrics().Totals();
  out.submitted = submitted.load();
  out.shed = totals.events_shed;
  out.processed = totals.events_processed;
  out.shed_rate =
      out.submitted == 0 ? 0.0 : static_cast<double>(out.shed) / static_cast<double>(out.submitted);
  out.balanced = out.processed + out.shed == out.submitted;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sessions=", 0) == 0) {
      config.sessions = std::strtoull(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--strokes=", 0) == 0) {
      config.strokes_per_session = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--batch=", 0) == 0) {
      config.batch = std::max<std::size_t>(1, std::strtoull(arg.c_str() + 8, nullptr, 10));
    } else if (arg.rfind("--rate=", 0) == 0) {
      config.rate = std::strtod(arg.c_str() + 7, nullptr);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Trained once, shared immutably by every server in every run.
  const auto bundle = serve::RecognizerBundle::Train(synth::ToTrainingSet(
      synth::GenerateSet(synth::MakeGdpSpecs(), synth::NoiseModel{}, 10, 1991)));

  // Stroke pool replayed by the simulated sessions, plus its single-threaded
  // reference outcomes.
  std::vector<geom::Gesture> pool;
  for (const auto& batch : synth::GenerateSet(synth::MakeGdpSpecs(), synth::NoiseModel{},
                                              /*per_class=*/20, /*seed=*/42)) {
    for (const auto& sample : batch.samples) {
      pool.push_back(sample.gesture);
    }
  }
  std::vector<ReferenceOutcome> reference;
  reference.reserve(pool.size());
  for (const auto& g : pool) {
    reference.push_back(Reference(bundle->recognizer(), g));
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("=== serve_load: %zu sessions x %zu strokes, batch=%zu, rate=%s, %u hw threads ===\n",
              config.sessions, config.strokes_per_session, config.batch,
              config.rate > 0 ? std::to_string(config.rate).c_str() : "unpaced", hardware);
  std::printf("%8s %10s %12s %12s %10s %10s %9s %9s %9s\n", "threads", "wall_ms", "points/s",
              "recog/s", "maxdepth", "diverge", "p50_us", "p95_us", "p99_us");

  std::vector<RunResult> runs;
  bool ok = true;
  for (std::size_t threads : config.thread_counts) {
    RunResult run = RunLoad(bundle, pool, reference, config, threads);
    std::printf("%8zu %10.1f %12.0f %12.0f %10zu %10llu %9.1f %9.1f %9.1f\n", run.threads,
                run.wall_ms, run.points_per_sec, run.recognitions_per_sec,
                run.totals.queue_max_depth,
                static_cast<unsigned long long>(run.divergences),
                run.totals.queue_latency.PercentileMicros(0.50),
                run.totals.queue_latency.PercentileMicros(0.95),
                run.totals.queue_latency.PercentileMicros(0.99));
    if (run.divergences != 0) {
      std::printf("FAIL: %llu correctness divergences at %zu threads\n",
                  static_cast<unsigned long long>(run.divergences), threads);
      ok = false;
    }
    if (run.totals.events_shed != 0) {
      std::printf("FAIL: lossless run shed %llu events at %zu threads\n",
                  static_cast<unsigned long long>(run.totals.events_shed), threads);
      ok = false;
    }
    runs.push_back(std::move(run));
  }

  const OverloadResult overload = RunOverload(bundle, pool);
  std::printf("overload: submitted=%llu processed=%llu shed=%llu (%.1f%%) balanced=%s\n",
              static_cast<unsigned long long>(overload.submitted),
              static_cast<unsigned long long>(overload.processed),
              static_cast<unsigned long long>(overload.shed), 100.0 * overload.shed_rate,
              overload.balanced ? "yes" : "NO");
  if (!overload.balanced) {
    std::printf("FAIL: overload accounting does not balance\n");
    ok = false;
  }

  // Speedup gate: parallel speedup is only physically possible with >= 4
  // hardware threads, and only measurable when the 1-thread run is long
  // enough; otherwise record the measurement but skip the assertion.
  double speedup_4t = 0.0;
  const RunResult* base = nullptr;
  const RunResult* quad = nullptr;
  for (const RunResult& run : runs) {
    if (run.threads == 1) base = &run;
    if (run.threads == 4) quad = &run;
  }
  constexpr double kMinGateRunMs = 500.0;
  const bool long_run = base != nullptr && base->wall_ms >= kMinGateRunMs;
  const bool gate_enforced = hardware >= 4 && long_run;
  const char* gate = gate_enforced   ? "enforced"
                     : hardware < 4 ? "skipped_low_cores"
                                    : "skipped_short_run";
  if (base != nullptr && quad != nullptr && base->points_per_sec > 0.0) {
    speedup_4t = quad->points_per_sec / base->points_per_sec;
    std::printf("speedup at 4 threads: %.2fx (gate: %s)\n", speedup_4t,
                gate_enforced ? ">= 2x enforced" : gate);
    if (gate_enforced && speedup_4t < 2.0) {
      std::printf("FAIL: 4-thread speedup %.2fx < 2x\n", speedup_4t);
      ok = false;
    }
  }

  std::ofstream file("BENCH_serve.json");
  bench::JsonWriter json(file);
  json.BeginObject()
      .KV("bench", "serve_load")
      .KV("gesture_set", "fig10_gdp")
      .KV("sessions", config.sessions)
      .KV("strokes_per_session", config.strokes_per_session)
      .KV("points_per_event", config.batch)
      .KV("rate_points_per_sec", config.rate)
      .KV("hardware_concurrency", static_cast<std::uint64_t>(hardware))
      .KV("speedup_4t_over_1t", speedup_4t)
      // Not a silent skip: the artifact records that the gate didn't run and
      // why (too few cores, or a 1-thread run too short to measure).
      .KV("speedup_gate", gate)
      .KV("speedup_gate_cores", static_cast<std::uint64_t>(hardware));
  json.Key("runs").BeginArray();
  for (const RunResult& run : runs) {
    json.BeginObject()
        .KV("threads", run.threads)
        .KV("producers", run.producers)
        .KV("wall_ms", run.wall_ms)
        .KV("points", run.points)
        .KV("points_per_sec", run.points_per_sec)
        .KV("recognitions", run.recognitions)
        .KV("recognitions_per_sec", run.recognitions_per_sec)
        .KV("divergences", run.divergences)
        .KV("queue_capacity", run.totals.queue_capacity)
        .KV("queue_max_depth", run.totals.queue_max_depth)
        .KV("events_shed", run.totals.events_shed);
    json.Key("queue_latency").Raw(run.totals.queue_latency.ToJson());
    json.EndObject();
  }
  json.EndArray();
  json.Key("overload")
      .BeginObject()
      .KV("submitted", overload.submitted)
      .KV("processed", overload.processed)
      .KV("shed", overload.shed)
      .KV("shed_rate", overload.shed_rate)
      .KV("balanced", overload.balanced)
      .EndObject();
  json.EndObject();
  file.close();
  std::printf("wrote BENCH_serve.json\n");

  return ok ? 0 : 1;
}
