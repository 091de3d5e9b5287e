// Personalization wired into serving: ModelRegistry::AdaptUser /
// CurrentFor semantics, per-user model resolution at stroke boundaries in
// the live server, mid-stroke adapt isolation (the hot-swap pinning
// protocol applied to user models), and the user_* lifecycle metrics
// (ToJson keys, Merge, hit rate, balance invariants).
#include "serve/model_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "features/extractor.h"
#include "serve/server.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma::serve {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const RecognizerBundle> TrainBundle(std::uint64_t seed) {
  return RecognizerBundle::Train(synth::ToTrainingSet(
      synth::GenerateSet(synth::MakeUpDownSpecs(), synth::NoiseModel{},
                         /*per_class=*/8, seed)));
}

// Per-class samples; batch index == ClassId (ToTrainingSet preserves order).
std::vector<synth::LabeledSamples> Samples(std::size_t per_class, std::uint64_t seed) {
  return synth::GenerateSet(synth::MakeUpDownSpecs(), synth::NoiseModel{},
                            per_class, seed);
}

// Every '{' has a matching '}' etc. — the cheap well-formedness check the
// metrics tests use in lieu of a JSON parser.
bool BalancedJson(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    if (braces < 0 || brackets < 0) {
      return false;
    }
  }
  return braces == 0 && brackets == 0;
}

TEST(RegistryPersonalizationTest, DisabledRegistryServesBaseAndRejectsAdapt) {
  ModelRegistry registry(TrainBundle(1));
  EXPECT_FALSE(registry.personalization_enabled());
  const auto base = registry.Current();
  EXPECT_EQ(registry.CurrentFor(7).get(), base.get());
  const auto batches = Samples(1, 2);
  EXPECT_EQ(registry.AdaptUser(7, 0, batches[0].samples[0].gesture).code(),
            robust::StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Metrics().user_adapts, 0u);
}

TEST(RegistryPersonalizationTest, AdaptPublishesAdaptedModelForThatUserOnly) {
  ModelRegistry registry(TrainBundle(1));
  registry.EnablePersonalization({});
  EXPECT_TRUE(registry.personalization_enabled());
  EXPECT_THROW(registry.EnablePersonalization({}), std::logic_error);

  const auto base = registry.Current();
  // Anonymous user and un-adapted users keep the exact base pointer.
  EXPECT_EQ(registry.CurrentFor(0).get(), base.get());
  EXPECT_EQ(registry.CurrentFor(7).get(), base.get());

  const auto batches = Samples(2, 3);
  for (const auto& sample : batches[0].samples) {
    ASSERT_TRUE(registry.AdaptUser(7, 0, sample.gesture).ok());
  }
  const auto adapted = registry.CurrentFor(7);
  EXPECT_NE(adapted.get(), base.get());
  EXPECT_NE(adapted->version(), base->version());
  EXPECT_TRUE(adapted->recognizer().trained());
  // Other users are untouched.
  EXPECT_EQ(registry.CurrentFor(8).get(), base.get());
  EXPECT_EQ(registry.CurrentFor(0).get(), base.get());

  const auto m = registry.Metrics();
  EXPECT_EQ(m.user_adapts, 2u);
  EXPECT_GE(m.user_materializations, 1u);
  EXPECT_EQ(m.user_materialize_failed, 0u);
  EXPECT_EQ(m.user_models_resident, 1u);
  EXPECT_GT(m.user_delta_bytes, 0u);
}

TEST(RegistryPersonalizationTest, AdaptRejectsBadInputsTyped) {
  ModelRegistry registry(TrainBundle(1));
  registry.EnablePersonalization({});
  const auto batches = Samples(1, 4);
  const auto& gesture = batches[0].samples[0].gesture;
  // Anonymous user cannot be adapted.
  EXPECT_EQ(registry.AdaptUser(0, 0, gesture).code(),
            robust::StatusCode::kFailedPrecondition);
  // Class out of range.
  const auto bad_class = registry.AdaptUser(
      5, static_cast<classify::ClassId>(registry.Current()->num_classes()), gesture);
  EXPECT_EQ(bad_class.code(), robust::StatusCode::kInvalidArgument);
  // Too-short gesture.
  geom::Gesture tiny;
  tiny.AppendPoint({0.0, 0.0, 0.0});
  EXPECT_EQ(registry.AdaptUser(5, 0, tiny).code(),
            robust::StatusCode::kInvalidArgument);
  // Wrong-width feature vector.
  EXPECT_EQ(registry.AdaptUserFeatures(5, 0, linalg::Vector(3)).code(),
            robust::StatusCode::kInvalidArgument);
  // None of the failures left a delta behind.
  EXPECT_EQ(registry.CurrentFor(5).get(), registry.Current().get());
  EXPECT_EQ(registry.Metrics().user_adapts, 0u);
}

TEST(RegistryPersonalizationTest, HotSwapRebasesAdaptedModelsKeepingDeltas) {
  ModelRegistry registry(TrainBundle(1));
  registry.EnablePersonalization({});
  const auto batches = Samples(1, 5);
  ASSERT_TRUE(registry.AdaptUser(7, 0, batches[0].samples[0].gesture).ok());
  const auto adapted_v1 = registry.CurrentFor(7);

  // Swap the base: the user's delta survives and re-materializes against the
  // new base (new epoch), producing a different adapted bundle.
  registry.Swap(TrainBundle(2));
  const auto adapted_v2 = registry.CurrentFor(7);
  EXPECT_NE(adapted_v2.get(), adapted_v1.get());
  EXPECT_NE(adapted_v2->version(), adapted_v1->version());
  EXPECT_NE(adapted_v2.get(), registry.Current().get());  // still adapted
  EXPECT_GE(registry.Metrics().user_materializations, 2u);
}

// End-to-end: per-user resolution at stroke boundaries in the live server.
// Strokes are driven one at a time (wait for each kStrokeEnd before the next
// submit), so which model each stroke pins is deterministic.
TEST(ServerPersonalizationTest, StrokesPinTheSubmittingUsersModel) {
  auto registry = std::make_shared<ModelRegistry>(TrainBundle(1));
  registry->EnablePersonalization({});
  const auto base = registry->Current();

  const auto batches = Samples(3, 6);
  // User 7 demonstrates class 0 twice before the server sees traffic.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(registry->AdaptUser(7, 0, batches[0].samples[i].gesture).ok());
  }
  const auto adapted = registry->CurrentFor(7);
  ASSERT_NE(adapted->version(), base->version());

  std::mutex mu;
  std::vector<RecognitionResult> results;
  std::atomic<std::size_t> ends_seen{0};
  ServerOptions options;
  options.num_shards = 2;
  RecognitionServer server(registry, options, [&](const RecognitionResult& r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(r);
    }
    if (r.kind == ResultKind::kStrokeEnd) {
      ends_seen.fetch_add(1, std::memory_order_release);
    }
  });

  // stroke s even -> user 7 (adapted), odd -> user 8 (base).
  const auto& gesture = batches[0].samples[2].gesture;
  for (StrokeId s = 0; s < 6; ++s) {
    const UserId user = (s % 2 == 0) ? 7 : 8;
    const SessionId session = 100 + s;
    ASSERT_TRUE(
        server.Submit({session, EventType::kStrokeBegin, s, 0, {}, user}).ok());
    ASSERT_TRUE(server
                    .Submit({.session = session, .type = EventType::kPoints, .stroke = s,
                             .user = user, .points = gesture.points()})
                    .ok());
    ASSERT_TRUE(
        server.Submit({session, EventType::kStrokeEnd, s, 0, {}, user}).ok());
    while (ends_seen.load(std::memory_order_acquire) <= s) {
      std::this_thread::yield();
    }
  }
  server.Shutdown();

  std::size_t checked = 0;
  for (const auto& r : results) {
    const std::uint64_t expected =
        (r.stroke % 2 == 0) ? adapted->version() : base->version();
    EXPECT_EQ(r.model_version, expected) << "stroke " << r.stroke;
    ++checked;
  }
  EXPECT_GE(checked, 6u);

  const auto metrics = server.Metrics();
  EXPECT_GT(metrics.models.user_cache_hits, 0u);
  EXPECT_EQ(metrics.models.user_adapts, 2u);
}

// The pinning protocol applied to AdaptUser: a mid-stroke adapt never
// changes the version an open stroke reports; the new model lands at the
// next stroke boundary (exactly like a hot swap).
TEST(ServerPersonalizationTest, MidStrokeAdaptDoesNotMixModels) {
  auto registry = std::make_shared<ModelRegistry>(TrainBundle(1));
  registry->EnablePersonalization({});
  const auto batches = Samples(3, 7);
  ASSERT_TRUE(registry->AdaptUser(7, 0, batches[0].samples[0].gesture).ok());
  const auto before = registry->CurrentFor(7);

  std::vector<RecognitionResult> results;
  ResultSink sink = [&results](const RecognitionResult& r) { results.push_back(r); };
  const auto& gesture = batches[0].samples[1].gesture;
  const auto half = gesture.points().size() / 2;
  std::vector<geom::TimedPoint> first(gesture.points().begin(),
                                      gesture.points().begin() + half);
  std::vector<geom::TimedPoint> rest(gesture.points().begin() + half,
                                     gesture.points().end());

  Session session(7, before);
  session.BeginStroke(1, sink, registry->CurrentFor(7));
  session.AddPoints(1, first, sink);
  // Adapt mid-stroke: republished model must not leak into the open stroke.
  ASSERT_TRUE(registry->AdaptUser(7, 0, batches[0].samples[2].gesture).ok());
  const auto after = registry->CurrentFor(7);
  ASSERT_NE(after->version(), before->version());
  session.AddPoints(1, rest, sink);
  session.EndStroke(sink);
  // Next stroke pins the republished model.
  session.BeginStroke(2, sink, registry->CurrentFor(7));
  session.AddPoints(2, gesture.points(), sink);
  session.EndStroke(sink);

  ASSERT_GE(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.model_version,
              r.stroke == 1 ? before->version() : after->version())
        << "stroke " << r.stroke;
  }
}

// Satellite: the new lifecycle counters surface in ServerMetrics::ToJson and
// merge additively.
TEST(PersonalizationMetricsTest, ToJsonCarriesUserCountersAndHitRate) {
  auto registry = std::make_shared<ModelRegistry>(TrainBundle(1));
  PersonalizationOptions popts;
  popts.cache_max_entries = 2;
  popts.cache_shards = 1;
  registry->EnablePersonalization(popts);
  const auto batches = Samples(1, 8);
  for (UserId u = 1; u <= 4; ++u) {
    ASSERT_TRUE(registry->AdaptUser(u, 0, batches[0].samples[0].gesture).ok());
    registry->CurrentFor(u);
  }

  const auto m = registry->Metrics();
  EXPECT_EQ(m.user_adapts, 4u);
  EXPECT_GT(m.user_evictions, 0u);
  // No spill dir configured: every eviction drops its delta.
  EXPECT_EQ(m.user_evictions,
            m.user_spills_ok + m.user_spills_failed + m.user_evictions_dropped);
  EXPECT_EQ(m.user_spills_ok, 0u);
  EXPECT_GT(m.user_cache_hits, 0u);
  EXPECT_GT(m.UserHitRate(), 0.0);
  EXPECT_LE(m.UserHitRate(), 1.0);

  ServerOptions options;
  options.start_workers = false;
  RecognitionServer server(registry, options, {});
  const std::string json = server.Metrics().ToJson();
  EXPECT_TRUE(BalancedJson(json));
  for (const char* key :
       {"\"user_adapts\"", "\"user_cache_hits\"", "\"user_cache_misses\"",
        "\"user_materializations\"", "\"user_materialize_failed\"",
        "\"user_evictions\"", "\"user_spills_ok\"", "\"user_spills_failed\"",
        "\"user_evictions_dropped\"", "\"user_rehydrations\"",
        "\"user_rehydrate_failed\"", "\"user_models_resident\"",
        "\"user_delta_bytes\"", "\"user_hit_rate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(PersonalizationMetricsTest, MergeSumsUserCounters) {
  ModelLifecycleMetrics a;
  a.user_adapts = 1;
  a.user_cache_hits = 2;
  a.user_cache_misses = 3;
  a.user_materializations = 4;
  a.user_materialize_failed = 5;
  a.user_evictions = 6;
  a.user_spills_ok = 7;
  a.user_spills_failed = 8;
  a.user_evictions_dropped = 9;
  a.user_rehydrations = 10;
  a.user_rehydrate_failed = 11;
  a.user_models_resident = 12;
  a.user_delta_bytes = 13;
  ModelLifecycleMetrics b = a;
  b.Merge(a);
  EXPECT_EQ(b.user_adapts, 2u);
  EXPECT_EQ(b.user_cache_hits, 4u);
  EXPECT_EQ(b.user_cache_misses, 6u);
  EXPECT_EQ(b.user_materializations, 8u);
  EXPECT_EQ(b.user_materialize_failed, 10u);
  EXPECT_EQ(b.user_evictions, 12u);
  EXPECT_EQ(b.user_spills_ok, 14u);
  EXPECT_EQ(b.user_spills_failed, 16u);
  EXPECT_EQ(b.user_evictions_dropped, 18u);
  EXPECT_EQ(b.user_rehydrations, 20u);
  EXPECT_EQ(b.user_rehydrate_failed, 22u);
  EXPECT_EQ(b.user_models_resident, 24u);
  EXPECT_EQ(b.user_delta_bytes, 26u);
}

TEST(PersonalizationMetricsTest, HitRateIsZeroBeforeFirstLookup) {
  ModelLifecycleMetrics m;
  EXPECT_EQ(m.UserHitRate(), 0.0);
  m.user_cache_hits = 3;
  m.user_cache_misses = 1;
  EXPECT_DOUBLE_EQ(m.UserHitRate(), 0.75);
}

// Concurrent adapt + classify through the live server: the tsan preset runs
// this binary, so races between AdaptUser's cache writes and the workers'
// CurrentFor pins would be caught here.
TEST(ServerPersonalizationTest, ConcurrentAdaptAndServeIsRaceFree) {
  const fs::path dir = fs::temp_directory_path() / "grandma_serve_personalize";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto registry = std::make_shared<ModelRegistry>(TrainBundle(1));
  PersonalizationOptions popts;
  popts.cache_shards = 2;
  popts.cache_max_entries = 8;  // force churn under traffic
  popts.delta_dir = dir.string();
  registry->EnablePersonalization(popts);

  std::atomic<std::size_t> ends_seen{0};
  ServerOptions options;
  options.num_shards = 2;
  RecognitionServer server(registry, options, [&](const RecognitionResult& r) {
    if (r.kind == ResultKind::kStrokeEnd) {
      ends_seen.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto batches = Samples(4, 9);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> adapts_done{0};
  std::thread adapter([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const UserId user = 1 + (i % 24);
      const auto& sample = batches[i % batches.size()].samples[i % 4];
      const auto status = registry->AdaptUser(
          user, static_cast<classify::ClassId>(i % batches.size()), sample.gesture);
      ASSERT_TRUE(status.ok()) << status.message();
      ++i;
      adapts_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const std::size_t kStrokes = 60;
  for (std::size_t s = 0; s < kStrokes; ++s) {
    const UserId user = 1 + (s % 24);
    const SessionId session = 500 + (s % 6);
    const StrokeId stroke = static_cast<StrokeId>(s);
    const auto& gesture = batches[s % batches.size()].samples[s % 4].gesture;
    ASSERT_TRUE(
        server.Submit({session, EventType::kStrokeBegin, stroke, 0, {}, user}).ok());
    ASSERT_TRUE(server
                    .Submit({.session = session, .type = EventType::kPoints, .stroke = stroke,
                             .user = user, .points = gesture.points()})
                    .ok());
    ASSERT_TRUE(
        server.Submit({session, EventType::kStrokeEnd, stroke, 0, {}, user}).ok());
  }
  while (ends_seen.load(std::memory_order_relaxed) < kStrokes) {
    std::this_thread::yield();
  }
  // On a 1-core box the 60 strokes can drain before the adapter thread is
  // ever scheduled; the user_adapts > 0 check below needs one real overlap.
  while (adapts_done.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  adapter.join();
  server.Shutdown();

  const auto m = registry->Metrics();
  EXPECT_EQ(m.user_evictions,
            m.user_spills_ok + m.user_spills_failed + m.user_evictions_dropped);
  EXPECT_EQ(m.user_spills_failed, 0u);
  EXPECT_EQ(m.user_rehydrate_failed, 0u);
  EXPECT_GT(m.user_adapts, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace grandma::serve
