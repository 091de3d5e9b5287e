// Single-threaded-observable behavior of the serve layer: bundle freezing,
// session lifecycle, the backpressure/shed path (exercised
// deterministically with parked workers), shutdown draining, and 1-shard
// determinism against the in-process EagerStream reference.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "eager/eager_recognizer.h"
#include "serve/event.h"
#include "serve/recognizer_bundle.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma::serve {
namespace {

std::shared_ptr<const RecognizerBundle> UdBundle() {
  static const std::shared_ptr<const RecognizerBundle> bundle = RecognizerBundle::Train(
      synth::ToTrainingSet(synth::GenerateSet(synth::MakeUpDownSpecs(), synth::NoiseModel{},
                                              /*per_class=*/10, /*seed=*/1991)));
  return bundle;
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

// Collects results thread-safely, keyed by (session, stroke).
struct Collector {
  std::mutex mutex;
  std::vector<RecognitionResult> results;

  ResultSink Sink() {
    return [this](const RecognitionResult& r) {
      std::lock_guard<std::mutex> lock(mutex);
      results.push_back(r);
    };
  }
};

// What the single-user, single-threaded paper pipeline would answer.
struct ReferenceOutcome {
  bool fired = false;
  std::size_t fired_at = 0;
  classify::ClassId eager_class = 0;
  classify::ClassId final_class = 0;
};

ReferenceOutcome ReferenceRecognize(const eager::EagerRecognizer& r, const geom::Gesture& g) {
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

TEST(RecognizerBundleTest, TrainFreezesASharedModel) {
  auto bundle = UdBundle();
  ASSERT_TRUE(bundle->recognizer().trained());
  EXPECT_EQ(bundle->num_classes(), 2u);
  EXPECT_FALSE(bundle->train_report().eager_fallback);
}

TEST(RecognizerBundleTest, RejectsUntrainedRecognizer) {
  EXPECT_THROW(RecognizerBundle::FromRecognizer(eager::EagerRecognizer{}),
               std::invalid_argument);
}

TEST(SessionManagerTest, CreateFindErase) {
  SessionManager manager(UdBundle()->recognizer());
  Session& s = manager.GetOrCreate(42);
  EXPECT_EQ(s.id(), 42u);
  EXPECT_EQ(&manager.GetOrCreate(42), &s);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.created(), 1u);
  EXPECT_TRUE(manager.Erase(42));
  EXPECT_FALSE(manager.Erase(42));
  EXPECT_EQ(manager.Find(42), nullptr);
  EXPECT_EQ(manager.created(), 1u);
}

TEST(ServerTest, RejectsBadConstruction) {
  EXPECT_THROW(RecognitionServer(std::shared_ptr<const RecognizerBundle>(), {}, {}),
               std::invalid_argument);
  ServerOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_THROW(RecognitionServer(UdBundle(), zero_shards, {}), std::invalid_argument);
}

TEST(ServerTest, SessionLifecycleProducesOrderedResults) {
  Collector collector;
  ServerOptions options;
  options.num_shards = 1;
  RecognitionServer server(UdBundle(), options, collector.Sink());

  const auto strokes = TestStrokes(/*per_class=*/2, /*seed=*/7);
  ASSERT_GE(strokes.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const SessionId session = 100 + s;
    ServeEvent begin{session, EventType::kStrokeBegin, /*stroke=*/1};
    ASSERT_TRUE(server.Submit(std::move(begin)).ok());
    ServeEvent points{.session = session, .type = EventType::kPoints, .stroke = 1,
                      .points = strokes[s].gesture.points()};
    ASSERT_TRUE(server.Submit(std::move(points)).ok());
    ServeEvent end{session, EventType::kStrokeEnd, 1};
    ASSERT_TRUE(server.Submit(std::move(end)).ok());
    ServeEvent bye{session, EventType::kSessionEnd, 0};
    ASSERT_TRUE(server.Submit(std::move(bye)).ok());
  }
  server.Shutdown();

  // Every stroke produced exactly one kStrokeEnd (plus possibly one eager
  // fire before it), and the session table is empty again.
  std::map<SessionId, std::vector<RecognitionResult>> by_session;
  for (const auto& r : collector.results) {
    by_session[r.session].push_back(r);
  }
  ASSERT_EQ(by_session.size(), 2u);
  for (const auto& [session, results] : by_session) {
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.back().kind, ResultKind::kStrokeEnd);
    for (std::size_t i = 0; i + 1 < results.size(); ++i) {
      EXPECT_EQ(results[i].kind, ResultKind::kEagerFire);
    }
  }
  const ServerMetrics metrics = server.Metrics();
  EXPECT_EQ(metrics.Totals().sessions_resident, 0u);
  EXPECT_EQ(metrics.Totals().sessions_created, 2u);
  EXPECT_EQ(metrics.Totals().strokes_completed, 2u);
  EXPECT_EQ(metrics.Totals().events_shed, 0u);
}

TEST(ServerTest, SubmitValidation) {
  RecognitionServer server(UdBundle(), {}, {});
  ServeEvent empty_points{1, EventType::kPoints, 1};
  EXPECT_EQ(server.Submit(std::move(empty_points)).code(),
            robust::StatusCode::kInvalidArgument);
  ServeEvent end_with_points{.session = 1, .type = EventType::kStrokeEnd, .stroke = 1,
                             .points = {{0, 0, 0}}};
  EXPECT_EQ(server.Submit(std::move(end_with_points)).code(),
            robust::StatusCode::kInvalidArgument);
}

TEST(ServerTest, ShedPathRejectsWithOverloadedAndCounts) {
  // Workers parked: the queue fills deterministically.
  Collector collector;
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 3;
  options.overload = OverloadPolicy::kShed;
  options.start_workers = false;
  RecognitionServer server(UdBundle(), options, collector.Sink());

  const auto strokes = TestStrokes(1, 11);
  ServeEvent begin{5, EventType::kStrokeBegin, 1};
  ASSERT_TRUE(server.Submit(std::move(begin)).ok());
  ServeEvent points{.session = 5, .type = EventType::kPoints, .stroke = 1,
                    .points = strokes[0].gesture.points()};
  ASSERT_TRUE(server.Submit(std::move(points)).ok());
  ServeEvent end{5, EventType::kStrokeEnd, 1};
  ASSERT_TRUE(server.Submit(std::move(end)).ok());

  // Queue full (capacity 3): the fourth event sheds.
  ServeEvent shed{5, EventType::kStrokeBegin, 2};
  const robust::Status status = server.Submit(std::move(shed));
  EXPECT_EQ(status.code(), robust::StatusCode::kOverloaded);
  EXPECT_EQ(server.Metrics().Totals().events_shed, 1u);

  // Shutdown still drains the three accepted events: the stroke completes.
  server.Shutdown();
  ASSERT_FALSE(collector.results.empty());
  EXPECT_EQ(collector.results.back().kind, ResultKind::kStrokeEnd);
  const ServerMetrics metrics = server.Metrics();
  EXPECT_EQ(metrics.Totals().events_processed, 3u);
  EXPECT_EQ(metrics.Totals().queue_max_depth, 3u);
  EXPECT_EQ(metrics.Totals().queue_latency.count, 3u);
}

TEST(ServerTest, SubmitAfterShutdownFails) {
  RecognitionServer server(UdBundle(), {}, {});
  server.Shutdown();
  ServeEvent begin{1, EventType::kStrokeBegin, 1};
  EXPECT_EQ(server.Submit(std::move(begin)).code(),
            robust::StatusCode::kFailedPrecondition);
  server.Shutdown();  // idempotent
}

TEST(ServerTest, DeterministicAtOneThreadVsReference) {
  const auto bundle = UdBundle();
  const auto strokes = TestStrokes(/*per_class=*/10, /*seed=*/23);

  Collector collector;
  ServerOptions options;
  options.num_shards = 1;
  options.overload = OverloadPolicy::kBlock;
  RecognitionServer server(bundle, options, collector.Sink());

  for (std::size_t i = 0; i < strokes.size(); ++i) {
    const SessionId session = 1000 + i;  // one stroke per session
    ASSERT_TRUE(server.Submit({session, EventType::kStrokeBegin, 1}).ok());
    ASSERT_TRUE(
        server.Submit({.session = session, .type = EventType::kPoints, .stroke = 1,
                       .points = strokes[i].gesture.points()}).ok());
    ASSERT_TRUE(server.Submit({session, EventType::kStrokeEnd, 1}).ok());
  }
  server.Shutdown();

  std::map<SessionId, std::vector<RecognitionResult>> by_session;
  for (const auto& r : collector.results) {
    by_session[r.session].push_back(r);
  }
  ASSERT_EQ(by_session.size(), strokes.size());
  for (std::size_t i = 0; i < strokes.size(); ++i) {
    const ReferenceOutcome want = ReferenceRecognize(bundle->recognizer(), strokes[i].gesture);
    const auto& got = by_session.at(1000 + i);
    const RecognitionResult& final = got.back();
    EXPECT_EQ(final.kind, ResultKind::kStrokeEnd);
    EXPECT_EQ(final.classification.class_id, want.final_class);
    EXPECT_EQ(final.eager_fired, want.fired);
    EXPECT_EQ(final.fired_at, want.fired_at);
    if (want.fired) {
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got.front().kind, ResultKind::kEagerFire);
      EXPECT_EQ(got.front().classification.class_id, want.eager_class);
      EXPECT_EQ(got.front().points_seen, want.fired_at);
    } else {
      EXPECT_EQ(got.size(), 1u);
    }
  }
}

TEST(ServerTest, ShardPinningIsStableAndInRange) {
  ServerOptions options;
  options.num_shards = 4;
  options.start_workers = false;
  RecognitionServer server(UdBundle(), options, {});
  std::array<int, 4> histogram{};
  for (SessionId id = 0; id < 1000; ++id) {
    const std::size_t shard = server.ShardOf(id);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, server.ShardOf(id));  // stable
    ++histogram[shard];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 150);  // sequential ids spread, no hot shard
  }
  server.Shutdown();
}

}  // namespace
}  // namespace grandma::serve
