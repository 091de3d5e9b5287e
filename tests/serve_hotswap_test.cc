// Hot model reload: ModelRegistry swap/rollback semantics, session pinning
// at stroke boundaries, and the lifecycle-metrics balance invariants. Runs
// in the serve-labeled binary, so the tsan preset covers the concurrent
// swap-under-traffic test.
#include "serve/model_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "io/snapshot.h"
#include "serve/server.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma::serve {
namespace {

std::shared_ptr<const RecognizerBundle> TrainBundle(std::uint64_t seed) {
  return RecognizerBundle::Train(synth::ToTrainingSet(
      synth::GenerateSet(synth::MakeUpDownSpecs(), synth::NoiseModel{},
                         /*per_class=*/8, seed)));
}

std::vector<synth::GestureSample> TestStrokes(std::size_t per_class, std::uint64_t seed) {
  std::vector<synth::GestureSample> strokes;
  for (auto& batch :
       synth::GenerateSet(synth::MakeUpDownSpecs(), synth::NoiseModel{}, per_class, seed)) {
    for (auto& sample : batch.samples) {
      strokes.push_back(std::move(sample));
    }
  }
  return strokes;
}

// Writes a bundle snapshot for `seed` and returns its path.
std::string WriteSnapshot(std::uint64_t seed, const std::string& path) {
  eager::EagerRecognizer recognizer;
  recognizer.Train(synth::ToTrainingSet(synth::GenerateSet(
      synth::MakeUpDownSpecs(), synth::NoiseModel{}, /*per_class=*/8, seed)));
  EXPECT_TRUE(io::SaveBundleSnapshotFile(recognizer, path).ok());
  return path;
}

TEST(ModelRegistryTest, SwapPublishesAndCounts) {
  auto a = TrainBundle(1);
  auto b = TrainBundle(2);
  ModelRegistry registry(a);
  EXPECT_EQ(registry.Current().get(), a.get());
  EXPECT_NE(a->version(), b->version());
  registry.Swap(b);
  EXPECT_EQ(registry.Current().get(), b.get());
  const auto m = registry.Metrics();
  EXPECT_EQ(m.model_swaps, 1u);
  EXPECT_EQ(m.snapshot_loads_ok, 0u);
  EXPECT_THROW(registry.Swap(nullptr), std::invalid_argument);
  EXPECT_THROW(ModelRegistry(nullptr), std::invalid_argument);
}

TEST(ModelRegistryTest, LoadFromFileSwapsOnSuccess) {
  ModelRegistry registry(TrainBundle(1));
  const std::string path = WriteSnapshot(5, "/tmp/grandma_hotswap_ok.snap");
  const auto v_before = registry.current_version();
  ASSERT_TRUE(registry.LoadFromFile(path).ok());
  EXPECT_NE(registry.current_version(), v_before);
  EXPECT_EQ(registry.last_good_path(), path);
  const auto m = registry.Metrics();
  EXPECT_EQ(m.snapshot_loads_ok, 1u);
  EXPECT_EQ(m.model_swaps, 1u);
  EXPECT_EQ(m.snapshot_loads_failed, 0u);
  EXPECT_EQ(m.rollbacks, 0u);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, CorruptLoadRollsBackToLastGood) {
  ModelRegistry registry(TrainBundle(1));
  const std::string good = WriteSnapshot(5, "/tmp/grandma_hotswap_good.snap");
  ASSERT_TRUE(registry.LoadFromFile(good).ok());
  const auto v_good = registry.current_version();

  // Corrupt a copy of the snapshot (flip a payload byte) and try to load it.
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
  const std::string bad = "/tmp/grandma_hotswap_bad.snap";
  {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const auto status = registry.LoadFromFile(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), robust::StatusCode::kCorruptSnapshot);
  // The serving model and last-good pointer are untouched.
  EXPECT_EQ(registry.current_version(), v_good);
  EXPECT_EQ(registry.last_good_path(), good);

  // Missing file: same containment, different reason.
  EXPECT_EQ(registry.LoadFromFile("/nonexistent-dir/x").code(),
            robust::StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.current_version(), v_good);

  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// Satellite (f): the accounting balance invariant, end to end.
TEST(ModelRegistryTest, LifecycleMetricsBalance) {
  ModelRegistry registry(TrainBundle(1));
  const std::string good = WriteSnapshot(9, "/tmp/grandma_hotswap_balance.snap");
  std::uint64_t attempts = 0;
  for (int i = 0; i < 3; ++i, ++attempts) {
    ASSERT_TRUE(registry.LoadFromFile(good).ok());
  }
  for (int i = 0; i < 2; ++i, ++attempts) {
    ASSERT_FALSE(registry.LoadFromFile("/nonexistent-dir/x").ok());
  }
  registry.Swap(TrainBundle(2));  // direct swap, no load
  const auto m = registry.Metrics();
  EXPECT_EQ(m.snapshot_loads_ok + m.snapshot_loads_failed, attempts);
  EXPECT_EQ(m.snapshot_loads_ok, 3u);
  EXPECT_EQ(m.snapshot_loads_failed, 2u);
  EXPECT_EQ(m.rollbacks, m.snapshot_loads_failed);
  EXPECT_EQ(m.model_swaps, m.snapshot_loads_ok + 1);  // +1 direct Swap
  std::remove(good.c_str());
}

TEST(SessionPinningTest, MidStrokeSwapDoesNotMixModels) {
  auto a = TrainBundle(1);
  auto b = TrainBundle(2);
  std::vector<RecognitionResult> results;
  ResultSink sink = [&results](const RecognitionResult& r) { results.push_back(r); };

  const auto strokes = TestStrokes(/*per_class=*/1, /*seed=*/3);
  ASSERT_FALSE(strokes.empty());
  const auto& gesture = strokes.front().gesture;

  Session session(7, a);
  session.BeginStroke(1, sink, a);
  EXPECT_EQ(session.model_version(), a->version());
  session.AddPoints(1, gesture.points(), sink);

  // A swap mid-stroke: the pin argument only lands at the next boundary.
  session.BeginStroke(2, sink, b);  // implicit end of stroke 1 under model a
  EXPECT_EQ(session.model_version(), b->version());
  session.AddPoints(2, gesture.points(), sink);
  session.EndStroke(sink);

  ASSERT_GE(results.size(), 2u);
  for (const auto& r : results) {
    // Every result of stroke 1 carries a's version; stroke 2 carries b's.
    EXPECT_EQ(r.model_version, r.stroke == 1 ? a->version() : b->version());
  }
}

TEST(SessionPinningTest, PinKeepsOldBundleAliveThroughSwap) {
  auto a = TrainBundle(1);
  std::weak_ptr<const RecognizerBundle> watch = a;
  std::vector<RecognitionResult> results;
  ResultSink sink = [&results](const RecognitionResult& r) { results.push_back(r); };

  const auto strokes = TestStrokes(1, 3);
  Session session(7, a);
  session.BeginStroke(1, sink, std::move(a));  // session holds the only pin now
  session.AddPoints(1, strokes.front().gesture.points(), sink);
  EXPECT_FALSE(watch.expired());  // the open stroke keeps the model alive
  session.BeginStroke(2, sink, TrainBundle(2));
  EXPECT_TRUE(watch.expired());  // released at the boundary, not before
}

// The hot-swap gate, in-process: >=20 swaps while the server is live, and
// every result must match the single-threaded reference of the exact model
// version it claims to have used — zero divergences. Swaps happen on the
// submitting thread (racing the workers' Current() pins, which tsan checks);
// waiting for each stroke's result before the next swap makes the pinned
// version per stroke deterministic.
TEST(HotSwapUnderTrafficTest, NoDivergenceAcrossTwentySwaps) {
  std::vector<std::shared_ptr<const RecognizerBundle>> models;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    models.push_back(TrainBundle(seed));
  }
  auto registry = std::make_shared<ModelRegistry>(models[0]);

  std::mutex mu;
  std::vector<RecognitionResult> results;
  std::atomic<std::size_t> ends_seen{0};
  ServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 4096;
  options.overload = OverloadPolicy::kBlock;
  RecognitionServer server(registry, options, [&](const RecognitionResult& r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(r);
    }
    if (r.kind == ResultKind::kStrokeEnd) {
      ends_seen.fetch_add(1, std::memory_order_release);
    }
  });

  const auto strokes = TestStrokes(/*per_class=*/10, /*seed=*/11);
  ASSERT_GE(strokes.size(), 20u);
  for (std::size_t s = 0; s < strokes.size(); ++s) {
    // One swap per stroke; the worker pops this stroke's begin after the
    // swap (queue order), and the previous stroke already completed, so the
    // stroke verifiably pins models[s % 4].
    registry->Swap(models[s % models.size()]);
    const SessionId session = 1000 + (s % 8);
    const StrokeId stroke = static_cast<StrokeId>(s);
    ASSERT_TRUE(
        server.Submit({session, EventType::kStrokeBegin, stroke}).ok());
    ASSERT_TRUE(server
                    .Submit({.session = session, .type = EventType::kPoints, .stroke = stroke,
                             .points = strokes[s].gesture.points()})
                    .ok());
    ASSERT_TRUE(server.Submit({session, EventType::kStrokeEnd, stroke}).ok());
    while (ends_seen.load(std::memory_order_acquire) <= s) {
      std::this_thread::yield();
    }
  }
  server.Shutdown();

  EXPECT_GE(registry->Metrics().model_swaps, 20u);

  // Each result replays its stroke through the exact model version it
  // reports; any weight-mixing mid-stroke would diverge.
  std::set<std::uint64_t> seen_versions;
  std::size_t end_results = 0;
  for (const auto& r : results) {
    if (r.kind != ResultKind::kStrokeEnd) {
      continue;
    }
    ++end_results;
    seen_versions.insert(r.model_version);
    const RecognizerBundle* model = models[r.stroke % models.size()].get();
    ASSERT_EQ(r.model_version, model->version()) << "stroke " << r.stroke;
    eager::EagerStream reference(model->recognizer());
    for (const auto& p : strokes[r.stroke].gesture) {
      reference.AddPoint(p);
    }
    const auto expected = reference.ClassifyNow();
    EXPECT_EQ(r.classification.class_id, expected.class_id) << "stroke " << r.stroke;
    EXPECT_EQ(r.classification.score, expected.score) << "stroke " << r.stroke;
    EXPECT_EQ(r.eager_fired, reference.fired()) << "stroke " << r.stroke;
    EXPECT_EQ(r.fired_at, reference.fired_at()) << "stroke " << r.stroke;
  }
  EXPECT_EQ(end_results, strokes.size());
  // The rotation actually exposed multiple model versions to clients.
  EXPECT_EQ(seen_versions.size(), models.size());
}

TEST(ServerRegistryTest, MetricsCarryModelLifecycle) {
  auto registry = std::make_shared<ModelRegistry>(TrainBundle(1));
  ServerOptions options;
  options.start_workers = false;
  RecognitionServer server(registry, options, {});
  registry->Swap(TrainBundle(2));
  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.models.model_swaps, 1u);
  EXPECT_NE(metrics.ToJson().find("\"model_swaps\": 1"), std::string::npos);
}

}  // namespace
}  // namespace grandma::serve
