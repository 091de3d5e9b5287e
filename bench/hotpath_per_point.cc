// Before/after evidence for the zero-allocation recognition kernel and its
// SIMD/batched evaluator: replays the same GDP stroke pool through
//   legacy       — the pre-refactor per-point protocol, reconstructed
//                  faithfully from the allocating APIs it used:
//                  copy-returning Features(), FeatureMask::Project into a
//                  fresh Vector, and the AUC's full Classify (probability +
//                  Mahalanobis) just to test doneness;
//   kernel       — EagerStream::AddPoint, the span-based Workspace path,
//                  pinned to the scalar dispatch tier so the legacy-vs-kernel
//                  comparison stays an allocation story, not a SIMD one;
// and, over an *eval-dense* pool (every stroke truncated right after its
// fire point, so nearly every replayed point runs the AUC evaluator instead
// of coasting post-fire):
//   scalar_view  — per-point AddPoint, scalar tier: the pre-SoA view path;
//   batched_simd — EagerStream::AddSpan, best runtime dispatch tier: the
//                  path production serves, with the batched fire check
//                  (simd::FirstArgMaxInPrefix) over 16-point chunks.
// Reports per-point latency (p50/p95 over per-stroke samples) and heap
// allocations per point for each, into BENCH_hotpath.json (including the
// dispatch tier that was active, see docs/PERFORMANCE.md). Each gated pair
// (legacy/kernel, scalar_view/batched_simd) is timed interleaved stroke by
// stroke on one pinned thread, the order alternating every rep, so a slow
// stretch of the host slows both sides of a ratio alike.
//
// Exits nonzero when a gate fails:
//   - kernel and batched paths must allocate ZERO times per steady-state point;
//   - kernel p50 must be at least 1.5x faster than legacy (both scalar tier);
//   - batched_simd p50 must be at least 1.3x faster than scalar_view on the
//     dense pool — enforced only when a vector tier is active; on
//     scalar-only hardware or a GRANDMA_SIMD=OFF build the JSON records
//     "speedup_gate": "skipped_no_simd" instead.
//
// Flags: --reps=N (per-variant stroke replays; default 400, smoke uses less).
#include "support/counting_new.h"
//
#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "eager/eager_recognizer.h"
#include "features/extractor.h"
#include "features/feature_vector.h"
#include "linalg/simd.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace {

using namespace grandma;
using Clock = std::chrono::steady_clock;

eager::EagerRecognizer TrainGdp() {
  eager::EagerRecognizer r;
  synth::NoiseModel noise;
  r.Train(synth::ToTrainingSet(synth::GenerateSet(synth::MakeGdpSpecs(), noise, 10, 1991)));
  return r;
}

std::vector<geom::Gesture> StrokePool() {
  std::vector<geom::Gesture> pool;
  synth::NoiseModel noise;
  synth::Rng rng(7);
  for (const synth::PathSpec& spec : synth::MakeGdpSpecs()) {
    pool.push_back(synth::Generate(spec, noise, rng).gesture);
  }
  return pool;
}

// The eval-dense pool: each stroke truncated just past its fire point, so a
// replay spends its points in the pre-fire region where every AddPoint (or
// AddSpan row) runs the ambiguity evaluator. Full strokes would let the
// post-fire coast — extractor-only, no evaluation — dilute the very code
// path this comparison is about. Strokes that never fire stay whole.
std::vector<geom::Gesture> DensePool(const eager::EagerRecognizer& r,
                                     const std::vector<geom::Gesture>& pool) {
  std::vector<geom::Gesture> dense;
  eager::EagerStream stream(r);
  for (const geom::Gesture& g : pool) {
    for (const geom::TimedPoint& p : g) {
      (void)stream.AddPoint(p);
    }
    dense.push_back(stream.fired() ? g.Subgesture(stream.fired_at()) : g);
    stream.Reset();
  }
  return dense;
}

// One legacy stroke replay: the exact allocating call sequence the per-point
// loop performed before the kernel refactor, fire semantics included.
classify::Classification ReplayLegacy(const eager::EagerRecognizer& r, const geom::Gesture& g) {
  const features::FeatureMask& mask = r.full().mask();
  features::FeatureExtractor fx;
  bool fired = false;
  for (const geom::TimedPoint& p : g) {
    fx.AddPoint(p);
    if (fired || fx.point_count() < r.min_prefix_points()) {
      continue;
    }
    const linalg::Vector f = fx.Features();              // 13-entry copy
    const linalg::Vector masked = mask.Project(f);       // fresh Vector
    const classify::Classification c = r.auc().Classify(masked);  // full classify
    fired = r.auc().ClassInfo(c.class_id).complete;
  }
  return r.ClassifyFeatures(fx.Features());  // mouse-up, allocating flavor
}

// One per-point kernel stroke replay: the refactored AddPoint path.
classify::Classification ReplayKernel(eager::EagerStream& stream, const geom::Gesture& g) {
  for (const geom::TimedPoint& p : g) {
    (void)stream.AddPoint(p);
  }
  const classify::Classification c = stream.ClassifyNow();
  stream.Reset();
  return c;
}

// One batched stroke replay: the whole stroke in a single AddSpan call —
// the batched fire check over 16-point chunks internally.
classify::Classification ReplayBatched(eager::EagerStream& stream, const geom::Gesture& g) {
  eager::FireEvent fire;
  stream.AddSpan(std::span<const geom::TimedPoint>(g.points()), &fire);
  const classify::Classification c = stream.ClassifyNow();
  stream.Reset();
  return c;
}

struct VariantStats {
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double allocs_per_point = 0.0;
  std::uint64_t points = 0;
};

double Percentile(std::vector<double>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

// One variant of an interleaved pair: its replay and the dispatch tier it
// runs at.
template <typename Replay>
struct Variant {
  Replay replay;
  linalg::simd::Tier tier;
};

// One counted pass over the pool for allocations/point.
template <typename Replay>
double AllocsPerPoint(const std::vector<geom::Gesture>& pool, Replay& replay, double& checksum) {
  std::uint64_t counted_points = 0;
  const std::uint64_t allocs = grandma::testsupport::CountAllocations([&] {
    for (const geom::Gesture& g : pool) {
      checksum += replay(g).score;
      counted_points += g.size();
    }
  });
  return static_cast<double>(allocs) / static_cast<double>(counted_points);
}

// Times two variants interleaved stroke by stroke, so a slow stretch of the
// host lands on both: every rep replays each stroke once per variant, the
// order alternating between reps, each replay at its variant's tier (set
// outside the timed region). One ns/point sample per stroke replay, then one
// counted pass per variant for allocations/point.
template <typename ReplayA, typename ReplayB>
std::pair<VariantStats, VariantStats> MeasurePair(const std::vector<geom::Gesture>& pool,
                                                  std::size_t reps, Variant<ReplayA> a,
                                                  Variant<ReplayB> b) {
  namespace simd = linalg::simd;
  VariantStats stats_a;
  VariantStats stats_b;
  double checksum = 0.0;
  std::vector<double> samples_a;
  std::vector<double> samples_b;
  samples_a.reserve(reps * pool.size());
  samples_b.reserve(reps * pool.size());
  const auto time = [&](auto& replay, simd::Tier tier, const geom::Gesture& g,
                        std::vector<double>& samples, VariantStats& stats) {
    simd::ForceTier(tier);
    const Clock::time_point start = Clock::now();
    checksum += replay(g).score;
    const Clock::time_point stop = Clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
    samples.push_back(ns / static_cast<double>(g.size()));
    stats.points += g.size();
  };
  // Warm-up pass (sizes any lazy buffers, faults in code + data).
  for (const geom::Gesture& g : pool) {
    simd::ForceTier(a.tier);
    checksum += a.replay(g).score;
    simd::ForceTier(b.tier);
    checksum += b.replay(g).score;
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const geom::Gesture& g : pool) {
      if (rep % 2 == 0) {
        time(a.replay, a.tier, g, samples_a, stats_a);
        time(b.replay, b.tier, g, samples_b, stats_b);
      } else {
        time(b.replay, b.tier, g, samples_b, stats_b);
        time(a.replay, a.tier, g, samples_a, stats_a);
      }
    }
  }
  simd::ForceTier(a.tier);
  stats_a.allocs_per_point = AllocsPerPoint(pool, a.replay, checksum);
  simd::ForceTier(b.tier);
  stats_b.allocs_per_point = AllocsPerPoint(pool, b.replay, checksum);
  stats_a.p50_ns = Percentile(samples_a, 0.50);
  stats_a.p95_ns = Percentile(samples_a, 0.95);
  stats_b.p50_ns = Percentile(samples_b, 0.50);
  stats_b.p95_ns = Percentile(samples_b, 0.95);
  if (!(checksum == checksum)) {  // keep the work observable
    std::fprintf(stderr, "non-finite checksum\n");
  }
  return {stats_a, stats_b};
}

// Pins the calling thread to the CPU it is running on, so the interleaved
// variants share one core's caches and clock.
void PinToCurrentCpu() {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
}

void PrintVariant(const char* name, const VariantStats& v) {
  std::printf("  %-12s p50 %8.1f ns  p95 %8.1f ns  allocs/point %6.2f\n", name, v.p50_ns,
              v.p95_ns, v.allocs_per_point);
}

void WriteVariant(grandma::bench::JsonWriter& json, const char* key, const VariantStats& v) {
  json.Key(key)
      .BeginObject()
      .KV("p50_ns", v.p50_ns)
      .KV("p95_ns", v.p95_ns)
      .KV("allocs_per_point", v.allocs_per_point)
      .EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 400;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<std::size_t>(std::strtoul(argv[i] + 7, nullptr, 10));
    }
  }
  if (reps == 0) {
    reps = 1;
  }

  namespace simd = linalg::simd;
  const eager::EagerRecognizer r = TrainGdp();
  const std::vector<geom::Gesture> pool = StrokePool();
  const std::vector<geom::Gesture> dense = DensePool(r, pool);
  eager::EagerStream stream(r);

  PinToCurrentCpu();
  simd::ResetTier();
  const simd::Tier active = simd::ActiveTier();
  const auto replay_legacy = [&](const geom::Gesture& g) { return ReplayLegacy(r, g); };
  const auto replay_kernel = [&](const geom::Gesture& g) { return ReplayKernel(stream, g); };
  const auto replay_batched = [&](const geom::Gesture& g) { return ReplayBatched(stream, g); };

  // Legacy vs kernel at the scalar tier: this pair isolates the allocation
  // refactor's win, independent of what vector hardware the box has.
  const auto [legacy, kernel] =
      MeasurePair(pool, reps, Variant{replay_legacy, simd::Tier::kScalar},
                  Variant{replay_kernel, simd::Tier::kScalar});

  // Scalar view path over the dense pool, still pinned scalar (the baseline
  // the SoA/SIMD batched path is gated against), against the batched path at
  // the best tier the hardware (and build) supports.
  const auto [scalar_view, batched] =
      MeasurePair(dense, reps, Variant{replay_kernel, simd::Tier::kScalar},
                  Variant{replay_batched, active});
  simd::ResetTier();

  const double speedup_p50 = legacy.p50_ns / kernel.p50_ns;
  const double speedup_p95 = legacy.p95_ns / kernel.p95_ns;
  const double dense_speedup_p50 = scalar_view.p50_ns / batched.p50_ns;
  const bool simd_active = active != simd::Tier::kScalar;

  std::printf("hotpath per-point (GDP, %zu strokes x %zu reps, tier %s)\n", pool.size(), reps,
              simd::TierName(active));
  PrintVariant("legacy", legacy);
  PrintVariant("kernel", kernel);
  PrintVariant("scalar_view", scalar_view);
  PrintVariant("batched_simd", batched);
  std::printf("  speedup p50 %.2fx  p95 %.2fx  (kernel vs legacy, scalar tier)\n", speedup_p50,
              speedup_p95);
  std::printf("  speedup p50 %.2fx  (batched+%s vs scalar view, eval-dense)\n",
              dense_speedup_p50, simd::TierName(active));

  {
    std::ofstream file("BENCH_hotpath.json");
    grandma::bench::JsonWriter json(file);
    json.BeginObject()
        .KV("bench", "hotpath_per_point")
        .KV("strokes", static_cast<std::int64_t>(pool.size()))
        .KV("reps", static_cast<std::int64_t>(reps))
        .KV("simd_tier", simd::TierName(active));
    WriteVariant(json, "legacy", legacy);
    WriteVariant(json, "kernel", kernel);
    WriteVariant(json, "scalar_view_dense", scalar_view);
    WriteVariant(json, "batched_simd_dense", batched);
    json.KV("speedup_p50", speedup_p50).KV("speedup_p95", speedup_p95);
    json.KV("batched_speedup_p50", dense_speedup_p50);
    json.KV("speedup_gate", simd_active ? (dense_speedup_p50 >= 1.3 ? "pass" : "fail")
                                        : "skipped_no_simd");
    json.EndObject();
  }
  std::printf("wrote BENCH_hotpath.json\n");

  // The hard gates.
  int rc = 0;
  if (kernel.allocs_per_point != 0.0) {
    std::fprintf(stderr, "GATE FAILED: kernel path allocates (%.4f allocs/point)\n",
                 kernel.allocs_per_point);
    rc = 1;
  }
  if (batched.allocs_per_point != 0.0) {
    std::fprintf(stderr, "GATE FAILED: batched path allocates (%.4f allocs/point)\n",
                 batched.allocs_per_point);
    rc = 1;
  }
  if (speedup_p50 < 1.5) {
    std::fprintf(stderr, "GATE FAILED: p50 speedup %.2fx < 1.5x\n", speedup_p50);
    rc = 1;
  }
  if (simd_active) {
    if (dense_speedup_p50 < 1.3) {
      std::fprintf(stderr, "GATE FAILED: batched+SIMD p50 speedup %.2fx < 1.3x\n",
                   dense_speedup_p50);
      rc = 1;
    }
  } else {
    std::fprintf(stderr, "note: no vector tier active, batched-vs-scalar gate skipped\n");
  }
  return rc;
}
