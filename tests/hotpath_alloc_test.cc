// The allocation contract of the recognition hot path (ctest label
// `hotpath`): after warm-up, the steady-state per-point loop — EagerStream
// and serve::Session both — performs ZERO heap allocations, and so does the
// serve queue that carries events to the session. Enforced with
// the counting operator-new harness in tests/support/counting_new.h.
//
// Also pins down that the zero-allocation kernel path is bit-identical to
// the allocating compatibility path it replaced: same fire points, same
// Classification doubles, exactly.
#include "support/counting_new.h"
//
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "eager/eager_recognizer.h"
#include "features/extractor.h"
#include "obs/trace.h"
#include "personalize/user_delta.h"
#include "robust/fault_stats.h"
#include "serve/bounded_queue.h"
#include "serve/event.h"
#include "serve/session.h"
#include "serve/touch_frontend.h"
#include "synth/contact_synth.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma {
namespace {

using testsupport::CountAllocations;

const eager::EagerRecognizer& GdpRecognizer() {
  static const eager::EagerRecognizer* recognizer = [] {
    auto* r = new eager::EagerRecognizer;
    synth::NoiseModel noise;
    r->Train(synth::ToTrainingSet(synth::GenerateSet(synth::MakeGdpSpecs(), noise, 10, 1991)));
    return r;
  }();
  return *recognizer;
}

// The same GDP set trained on FeatureMask::GeometryOnly() (11 of 13
// features): the batched fire check then reads snapshot rows through a
// column list with a gap at the end.
const eager::EagerRecognizer& GeometryOnlyGdpRecognizer() {
  static const eager::EagerRecognizer* recognizer = [] {
    auto* r = new eager::EagerRecognizer;
    synth::NoiseModel noise;
    eager::EagerTrainOptions options;
    options.mask = features::FeatureMask::GeometryOnly();
    r->Train(synth::ToTrainingSet(synth::GenerateSet(synth::MakeGdpSpecs(), noise, 10, 1991)),
             options);
    return r;
  }();
  return *recognizer;
}

// Span lengths the AddSpan tests feed: 1-point events, every quad tail of
// the rows-in-lanes fire check, odd lengths straddling the 16-row chunk,
// and 0 for "the whole stroke at once".
constexpr std::array<std::size_t, 8> kSpanChunks = {0, 1, 2, 3, 4, 5, 7, 19};

// Feeds `g` to `stream` in spans of `chunk` points (0: one span).
template <typename OnSpan>
void FeedInSpans(eager::EagerStream& stream, const geom::Gesture& g, std::size_t chunk,
                 eager::FireEvent& fire, OnSpan on_span) {
  const auto& pts = g.points();
  const std::size_t step = chunk == 0 ? pts.size() : chunk;
  for (std::size_t i = 0; i < pts.size(); i += step) {
    const std::size_t len = std::min(step, pts.size() - i);
    stream.AddSpan(std::span<const geom::TimedPoint>(pts.data() + i, len), &fire);
    on_span();
  }
}

// A pool of strokes covering several GDP classes.
std::vector<geom::Gesture> StrokePool() {
  std::vector<geom::Gesture> pool;
  synth::NoiseModel noise;
  synth::Rng rng(7);
  const auto specs = synth::MakeGdpSpecs();
  for (std::size_t i = 0; i < specs.size(); i += 2) {
    pool.push_back(synth::Generate(specs[i], noise, rng).gesture);
  }
  return pool;
}

TEST(HotpathAllocTest, EagerStreamSteadyStateIsAllocationFree) {
  const eager::EagerRecognizer& r = GdpRecognizer();
  const std::vector<geom::Gesture> pool = StrokePool();
  eager::EagerStream stream(r);

  // Warm-up: one full stroke sizes the stream's Workspace score buffers and
  // exercises every branch (fire + mouse-up classification).
  for (const geom::TimedPoint& p : pool[0]) {
    (void)stream.AddPoint(p);
  }
  (void)stream.ClassifyNow();
  stream.Reset();

  // Steady state: >= 1000 points across the pool, with a ClassifyNow at each
  // eager fire and at each stroke end — the paper's full per-point protocol.
  std::size_t points = 0;
  classify::Classification last{};
  const std::uint64_t allocs = CountAllocations([&] {
    while (points < 1000) {
      for (const geom::Gesture& g : pool) {
        for (const geom::TimedPoint& p : g) {
          ++points;
          if (stream.AddPoint(p)) {
            last = stream.ClassifyNow();
          }
        }
        last = stream.ClassifyNow();
        stream.Reset();
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "after " << points << " points";
  EXPECT_GE(points, 1000u);
  EXPECT_LT(last.class_id, r.num_classes());
}

// Personalization must not regress the contract: an *adapted* user model is
// a plain EagerRecognizer rebuilt from shrunk means, so classifying through
// it allocates exactly as much as the base — nothing.
TEST(HotpathAllocTest, AdaptedModelSteadyStateIsAllocationFree) {
  const eager::EagerRecognizer& base = GdpRecognizer();
  const std::vector<geom::Gesture> pool = StrokePool();

  // Adapt a user on a few demonstrations of two classes (masked features,
  // exactly what ModelRegistry::AdaptUser feeds the delta).
  const auto& lin = base.full().linear();
  personalize::UserDelta delta(/*user=*/7, lin.num_classes(), lin.dimension());
  for (int rep = 0; rep < 3; ++rep) {
    for (classify::ClassId c = 0; c < 2; ++c) {
      const linalg::Vector masked =
          base.full().mask().Project(features::ExtractFeatures(pool[c % pool.size()]));
      delta.AddExample(c, masked.view());
    }
  }
  const eager::EagerRecognizer adapted = personalize::AdaptRecognizer(base, delta);
  ASSERT_TRUE(adapted.trained());

  eager::EagerStream stream(adapted);
  // Warm-up stroke sizes the workspace, as in the base-model variant.
  for (const geom::TimedPoint& p : pool[0]) {
    (void)stream.AddPoint(p);
  }
  (void)stream.ClassifyNow();
  stream.Reset();

  std::size_t points = 0;
  classify::Classification last{};
  const std::uint64_t allocs = CountAllocations([&] {
    while (points < 1000) {
      for (const geom::Gesture& g : pool) {
        for (const geom::TimedPoint& p : g) {
          ++points;
          if (stream.AddPoint(p)) {
            last = stream.ClassifyNow();
          }
        }
        last = stream.ClassifyNow();
        stream.Reset();
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "after " << points << " points through the adapted model";
  EXPECT_GE(points, 1000u);
  EXPECT_LT(last.class_id, adapted.num_classes());
}

TEST(HotpathAllocTest, ServeSessionSteadyStateIsAllocationFree) {
  const eager::EagerRecognizer& r = GdpRecognizer();
  const std::vector<geom::Gesture> pool = StrokePool();

  serve::Session session(/*id=*/1, r);
  // Results land in preallocated slots; the sink captures two pointers and
  // fits std::function's small-object buffer. Constructed before counting.
  std::array<serve::RecognitionResult, 8> slots;
  std::size_t slot = 0;
  serve::ResultSink sink = [&slots, &slot](const serve::RecognitionResult& res) {
    slots[slot % slots.size()] = res;
    ++slot;
  };

  // Warm-up stroke: sizes workspace buffers and the result slots' class_name
  // strings.
  session.BeginStroke(1, sink);
  session.AddPoints(1, std::span<const geom::TimedPoint>(pool[0].points()), sink);
  session.EndStroke(sink);

  std::size_t points = 0;
  serve::StrokeId stroke = 2;
  const std::uint64_t allocs = CountAllocations([&] {
    while (points < 1000) {
      for (const geom::Gesture& g : pool) {
        session.BeginStroke(stroke, sink);
        session.AddPoints(stroke, std::span<const geom::TimedPoint>(g.points()), sink);
        session.EndStroke(sink);
        ++stroke;
        points += g.size();
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "after " << points << " points, " << slot << " results";
  EXPECT_GE(points, 1000u);
  EXPECT_GT(slot, 0u);
  EXPECT_EQ(session.stats().points_seen, points + pool[0].size());
}

// The per-shard queue between Submit and the worker: after construction,
// pushing and popping events never touches the heap, across many trips
// around the ring. The events carry no points, so they own no heap memory
// themselves.
TEST(HotpathAllocTest, ServeQueueRoundTripIsAllocationFree) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::size_t kTrips = 12;
  serve::BoundedQueue<serve::ServeEvent> queue(kCapacity);
  std::vector<serve::ServeEvent> batch;
  batch.reserve(16);

  std::size_t pushed = 0;
  std::size_t popped = 0;
  const std::uint64_t allocs = CountAllocations([&] {
    for (std::size_t trip = 0; trip < kTrips; ++trip) {
      for (std::size_t i = 0; i < kCapacity; ++i) {
        pushed += queue.Push({i, serve::EventType::kStrokeBegin, 1, {}, {}}) ? 1 : 0;
      }
      while (popped < pushed) {
        popped += queue.PopBatch(batch, 16);
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "after " << popped << " events";
  EXPECT_EQ(pushed, kTrips * kCapacity);
  EXPECT_EQ(popped, pushed);
}

// RAII guard: tracing enabled at fine detail for the scope of one test, with
// everything reset on the way out so the untraced tests stay untraced.
class ScopedFineTracing {
 public:
  explicit ScopedFineTracing(obs::ClockMode clock) {
    obs::ResetAll();
    obs::SetClockMode(clock);
    obs::SetDetail(obs::Detail::kFine);
    obs::EnableTracing(true);
  }
  ScopedFineTracing(const ScopedFineTracing&) = delete;
  ScopedFineTracing& operator=(const ScopedFineTracing&) = delete;
  ~ScopedFineTracing() {
    obs::EnableTracing(false);
    obs::SetDetail(obs::Detail::kCoarse);
    obs::SetClockMode(obs::ClockMode::kReal);
    obs::ResetAll();
  }
};

// The tracing layer must preserve the zero-allocation contract: with spans
// compiled in, ENABLED, and at the most verbose detail, the steady-state
// per-point loop still never touches the heap. The per-thread ring buffer is
// acquired (one allocation) during warm-up; recording after that is
// array-slot writes only, even across ring wrap.
TEST(HotpathAllocTest, TracedEagerStreamSteadyStateIsAllocationFree) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "tracing compiled out: covered by the untraced variant";
  }
  const eager::EagerRecognizer& r = GdpRecognizer();
  const std::vector<geom::Gesture> pool = StrokePool();
  ScopedFineTracing tracing(obs::ClockMode::kVirtual);
  eager::EagerStream stream(r);

  // Warm-up acquires this thread's trace buffer and interns every span name
  // on the path (both are one-time, allocation-bearing cold paths).
  for (const geom::TimedPoint& p : pool[0]) {
    (void)stream.AddPoint(p);
  }
  (void)stream.ClassifyNow();
  stream.Reset();

  std::size_t points = 0;
  const std::uint64_t allocs = CountAllocations([&] {
    while (points < 1000) {
      for (const geom::Gesture& g : pool) {
        for (const geom::TimedPoint& p : g) {
          ++points;
          if (stream.AddPoint(p)) {
            (void)stream.ClassifyNow();
          }
        }
        (void)stream.ClassifyNow();
        stream.Reset();
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "after " << points << " traced points";
  EXPECT_GE(points, 1000u);
  // The spans really were recorded — the zero above is not vacuous.
  const auto threads = obs::CollectAll();
  ASSERT_FALSE(threads.empty());
  std::size_t recorded = 0;
  for (const auto& t : threads) {
    recorded += t.spans.size() + static_cast<std::size_t>(t.dropped);
  }
  EXPECT_GT(recorded, points) << "at least one span per point at fine detail";
}

TEST(HotpathAllocTest, TracedServeSessionSteadyStateIsAllocationFree) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "tracing compiled out: covered by the untraced variant";
  }
  const eager::EagerRecognizer& r = GdpRecognizer();
  const std::vector<geom::Gesture> pool = StrokePool();
  ScopedFineTracing tracing(obs::ClockMode::kReal);  // real clock: no
                                                     // allocation either

  serve::Session session(/*id=*/7, r);
  std::array<serve::RecognitionResult, 8> slots;
  std::size_t slot = 0;
  serve::ResultSink sink = [&slots, &slot](const serve::RecognitionResult& res) {
    slots[slot % slots.size()] = res;
    ++slot;
  };

  session.BeginStroke(1, sink);
  session.AddPoints(1, std::span<const geom::TimedPoint>(pool[0].points()), sink);
  session.EndStroke(sink);

  std::size_t points = 0;
  serve::StrokeId stroke = 2;
  const std::uint64_t allocs = CountAllocations([&] {
    while (points < 1000) {
      for (const geom::Gesture& g : pool) {
        session.BeginStroke(stroke, sink);
        session.AddPoints(stroke, std::span<const geom::TimedPoint>(g.points()), sink);
        session.EndStroke(sink);
        ++stroke;
        points += g.size();
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "after " << points << " traced points, " << slot << " results";
  EXPECT_GE(points, 1000u);
  EXPECT_FALSE(obs::CollectAll().empty());
}

// The batched ingest path (EagerStream::AddSpan + the batched fire check
// under it) must uphold the same contract: zero allocations per point in
// steady state, including the fire-event classification, for every span
// length and for a masked recognizer.
TEST(HotpathAllocTest, AddSpanSteadyStateIsAllocationFree) {
  const std::vector<geom::Gesture> pool = StrokePool();
  for (const eager::EagerRecognizer* r : {&GdpRecognizer(), &GeometryOnlyGdpRecognizer()}) {
    eager::EagerStream stream(*r);
    eager::FireEvent fire;

    // Warm-up: sizes the workspace score buffers.
    stream.AddSpan(std::span<const geom::TimedPoint>(pool[0].points()), &fire);
    (void)stream.ClassifyNow();
    stream.Reset();

    for (std::size_t chunk : kSpanChunks) {
      std::size_t points = 0;
      const std::uint64_t allocs = CountAllocations([&] {
        while (points < 1000) {
          for (const geom::Gesture& g : pool) {
            FeedInSpans(stream, g, chunk, fire, [] {});
            (void)stream.ClassifyNow();
            stream.Reset();
            points += g.size();
          }
        }
      });
      EXPECT_EQ(allocs, 0u) << "after " << points << " batched points, chunk=" << chunk
                            << " dim=" << r->auc().linear().dimension();
      EXPECT_GE(points, 1000u);
    }
  }
}

// The classifier's evaluator on its own, and the batched fire check that
// production runs instead of a multi-row evaluation (AddSpan over 4-point
// spans): after training, neither touches the heap.
TEST(HotpathAllocTest, EvaluateAllIntoIsAllocationFreePerPoint) {
  const eager::EagerRecognizer& r = GdpRecognizer();
  const auto& lin = r.full().linear();
  const std::size_t dim = lin.dimension();
  const std::size_t classes = lin.num_classes();
  const std::vector<double> features(dim, 0.25);
  std::vector<double> scores(classes);
  const geom::Gesture stroke = StrokePool().front();
  eager::EagerStream stream(r);
  eager::FireEvent fire;
  FeedInSpans(stream, stroke, 4, fire, [] {});  // sizes the workspace
  stream.Reset();
  const std::uint64_t allocs = CountAllocations([&] {
    for (int rep = 0; rep < 1000; ++rep) {
      lin.EvaluateAllInto(linalg::VecView(features.data(), dim),
                          linalg::MutVecView(scores.data(), classes));
    }
    for (int rep = 0; rep < 100; ++rep) {
      FeedInSpans(stream, stroke, 4, fire, [] {});
      stream.Reset();
    }
  });
  EXPECT_EQ(allocs, 0u);
}

// AddSpan must be observably indistinguishable from per-point AddPoint:
// same fire point, identical fire-time Classification doubles (==, not
// almost-equal), identical final classification — for whole-stroke spans, for
// every quad tail of the fire check, and for odd chunkings that straddle the
// internal batch boundary, on the full-feature and the GeometryOnly model.
TEST(HotpathAllocTest, AddSpanIsBitIdenticalToAddPointPath) {
  for (const eager::EagerRecognizer* r : {&GdpRecognizer(), &GeometryOnlyGdpRecognizer()}) {
    std::size_t fired_strokes = 0;
    for (const geom::Gesture& g : StrokePool()) {
      // Per-point reference, capturing the fire-time classification the way
      // serve's per-point path did (ClassifyNow at the firing point).
      eager::EagerStream reference(*r);
      bool ref_fired = false;
      classify::Classification ref_at_fire{};
      for (const geom::TimedPoint& p : g) {
        if (reference.AddPoint(p)) {
          ref_fired = true;
          ref_at_fire = reference.ClassifyNow();
        }
      }
      const classify::Classification ref_final = reference.ClassifyNow();
      fired_strokes += ref_fired ? 1 : 0;

      for (std::size_t chunk : kSpanChunks) {
        const std::size_t dim = r->auc().linear().dimension();
        eager::EagerStream stream(*r);
        eager::FireEvent fire;
        bool span_fired = false;
        classify::Classification span_at_fire{};
        FeedInSpans(stream, g, chunk, fire, [&] {
          if (fire.fired) {
            span_fired = true;
            span_at_fire = fire.classification;
          }
        });
        ASSERT_EQ(stream.fired(), reference.fired()) << "chunk=" << chunk << " dim=" << dim;
        EXPECT_EQ(stream.fired_at(), reference.fired_at()) << "chunk=" << chunk << " dim=" << dim;
        ASSERT_EQ(span_fired, ref_fired) << "chunk=" << chunk << " dim=" << dim;
        if (span_fired) {
          EXPECT_EQ(span_at_fire.class_id, ref_at_fire.class_id) << "chunk=" << chunk;
          EXPECT_EQ(span_at_fire.score, ref_at_fire.score) << "chunk=" << chunk;
          EXPECT_EQ(span_at_fire.probability, ref_at_fire.probability) << "chunk=" << chunk;
          EXPECT_EQ(span_at_fire.mahalanobis_squared, ref_at_fire.mahalanobis_squared)
              << "chunk=" << chunk;
        }
        const classify::Classification final = stream.ClassifyNow();
        EXPECT_EQ(final.class_id, ref_final.class_id) << "chunk=" << chunk << " dim=" << dim;
        EXPECT_EQ(final.score, ref_final.score) << "chunk=" << chunk << " dim=" << dim;
      }
    }
    // The fire path itself must be exercised, not only "never fired".
    EXPECT_GT(fired_strokes, 0u) << "dim=" << r->auc().linear().dimension();
  }
}

// The touch front end's per-group budget. One Submit is one whole gesture,
// so it allocates per group, not per point: the tracker's slots, one copy
// of each contact, the stable sort's buffer and the output group; the
// attribute pass's timeline, frames, active set and cursors (plus one merge
// buffer per extra contact). With a null server nothing is enqueued.
TEST(HotpathAllocTest, TouchFrontEndSubmitStaysWithinAllocationBudget) {
  const synth::NoiseModel noise;
  std::vector<geom::ContactGroup> two_finger;
  for (const synth::LabeledContactGroups& batch :
       synth::GenerateContactSet(synth::MakeTouchSpecs(), noise, 3, 42)) {
    two_finger.insert(two_finger.end(), batch.groups.begin(), batch.groups.end());
  }
  std::vector<geom::ContactGroup> one_contact;
  for (const synth::LabeledSamples& batch :
       synth::GenerateSet(synth::MakeGdpSpecs(), noise, 3, 43)) {
    for (const synth::GestureSample& sample : batch.samples) {
      one_contact.push_back(synth::AsContactGroup(sample.gesture));
    }
  }

  serve::TouchFrontEnd front_end(/*server=*/nullptr);
  // Warm-up: the first Submit of each shape pays any one-time costs.
  ASSERT_TRUE(front_end.Submit(1, 0, 1, two_finger.front()).ok());
  ASSERT_TRUE(front_end.Submit(1, 0, 2, one_contact.front()).ok());

  auto max_allocs = [&](const std::vector<geom::ContactGroup>& groups) {
    std::uint64_t worst = 0;
    serve::StrokeId stroke = 10;
    for (const geom::ContactGroup& g : groups) {
      bool ok = false;
      const std::uint64_t allocs =
          CountAllocations([&] { ok = front_end.Submit(1, 0, stroke++, g).ok(); });
      EXPECT_TRUE(ok) << g.ToString();
      worst = std::max(worst, allocs);
    }
    return worst;
  };
  const std::uint64_t two_finger_allocs = max_allocs(two_finger);
  const std::uint64_t one_contact_allocs = max_allocs(one_contact);
  EXPECT_LE(two_finger_allocs, 10u) << "over " << two_finger.size() << " two-finger groups";
  EXPECT_LE(one_contact_allocs, 8u) << "over " << one_contact.size() << " one-contact groups";
  const serve::TouchFrontEndStats stats = front_end.Stats();
  EXPECT_EQ(stats.groups_rejected, 0u);
  EXPECT_EQ(stats.faults.groups_clean, stats.groups_in);
}

// The front end merges every group's counters into its running totals.
TEST(HotpathAllocTest, FaultStatsMergeIsAllocationFree) {
  robust::FaultStats total;
  robust::FaultStats one;
  one.groups_tracked = 1;
  one.strokes_validated = 2;
  one.events_skipped_quarantined = 3;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 100; ++i) {
      total.Merge(one);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(total.groups_tracked, 100u);
  EXPECT_EQ(total.events_skipped_quarantined, 300u);
}

// The counting harness itself must see ordinary allocations, or the zero
// results above would be vacuous.
TEST(HotpathAllocTest, HarnessCountsAllocations) {
  std::vector<double> sink;
  const std::uint64_t allocs = CountAllocations([&] {
    sink.assign(64, 1.0);  // forces a real heap allocation the optimizer
                           // cannot elide (sink outlives the lambda)
  });
  EXPECT_GE(allocs, 1u);
}

// Bit-identity: the view-based kernel must reproduce the allocating
// compatibility path exactly — same fire point, identical Classification
// doubles (==, not almost-equal).
TEST(HotpathAllocTest, KernelPathIsBitIdenticalToLegacyPath) {
  const eager::EagerRecognizer& r = GdpRecognizer();
  for (const geom::Gesture& g : StrokePool()) {
    // Legacy replay: copy-returning snapshots + allocating classify calls.
    features::FeatureExtractor fx;
    bool legacy_fired = false;
    std::size_t legacy_fired_at = 0;
    for (const geom::TimedPoint& p : g) {
      fx.AddPoint(p);
      if (!legacy_fired && fx.point_count() >= r.min_prefix_points() &&
          r.UnambiguousFeatures(fx.Features())) {
        legacy_fired = true;
        legacy_fired_at = fx.point_count();
      }
    }
    const classify::Classification legacy = r.ClassifyFeatures(fx.Features());

    // Kernel replay.
    eager::EagerStream stream(r);
    for (const geom::TimedPoint& p : g) {
      (void)stream.AddPoint(p);
    }
    const classify::Classification kernel = stream.ClassifyNow();

    EXPECT_EQ(stream.fired(), legacy_fired);
    EXPECT_EQ(stream.fired_at(), legacy_fired_at);
    EXPECT_EQ(kernel.class_id, legacy.class_id);
    EXPECT_EQ(kernel.score, legacy.score);
    EXPECT_EQ(kernel.probability, legacy.probability);
    EXPECT_EQ(kernel.mahalanobis_squared, legacy.mahalanobis_squared);

    // The view snapshot matches the copy-returning shim bit for bit.
    const linalg::Vector copied = stream.Features();
    const linalg::VecView viewed = stream.FeaturesView();
    ASSERT_EQ(copied.size(), viewed.size());
    for (std::size_t i = 0; i < copied.size(); ++i) {
      EXPECT_EQ(copied[i], viewed[i]) << "feature " << i;
    }
  }
}

}  // namespace
}  // namespace grandma
