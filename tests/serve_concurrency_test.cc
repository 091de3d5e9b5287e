// Concurrency gate for the serve layer (run under the `tsan` preset): many
// sessions fanned across many shards and producer threads must produce
// exactly the results of the single-threaded reference pipeline, metrics
// must balance under a shedding overload, and live Metrics() snapshots must
// be safe while workers run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "eager/eager_recognizer.h"
#include "serve/event.h"
#include "serve/recognizer_bundle.h"
#include "serve/server.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma::serve {
namespace {

std::shared_ptr<const RecognizerBundle> DirBundle() {
  static const std::shared_ptr<const RecognizerBundle> bundle = RecognizerBundle::Train(
      synth::ToTrainingSet(synth::GenerateSet(synth::MakeEightDirectionSpecs(),
                                              synth::NoiseModel{}, /*per_class=*/10,
                                              /*seed=*/1991)));
  return bundle;
}

struct StrokeOutcome {
  bool fired = false;
  std::size_t fired_at = 0;
  classify::ClassId final_class = 0;
};

StrokeOutcome Reference(const eager::EagerRecognizer& r, const geom::Gesture& g) {
  StrokeOutcome out;
  eager::EagerStream stream(r);
  for (const auto& p : g) {
    if (stream.AddPoint(p)) {
      out.fired = true;
      out.fired_at = stream.fired_at();
    }
  }
  out.final_class = stream.ClassifyNow().class_id;
  return out;
}

TEST(ServeConcurrencyTest, ManySessionsManyThreadsMatchReference) {
  const auto bundle = DirBundle();

  // 96 sessions, one stroke each, cycled over the 8-direction test set.
  constexpr std::size_t kSessions = 96;
  constexpr std::size_t kProducers = 4;
  std::vector<geom::Gesture> strokes;
  for (const auto& batch : synth::GenerateSet(synth::MakeEightDirectionSpecs(),
                                              synth::NoiseModel{}, /*per_class=*/12,
                                              /*seed=*/77)) {
    for (const auto& sample : batch.samples) {
      strokes.push_back(sample.gesture);
    }
  }
  ASSERT_GE(strokes.size(), kSessions);

  std::mutex results_mutex;
  std::map<SessionId, std::vector<RecognitionResult>> by_session;
  ServerOptions options;
  options.num_shards = 4;
  options.queue_capacity = 256;
  options.overload = OverloadPolicy::kBlock;  // lossless: correctness run
  RecognitionServer server(bundle, options, [&](const RecognitionResult& r) {
    std::lock_guard<std::mutex> lock(results_mutex);
    by_session[r.session].push_back(r);
  });

  // Each producer owns a disjoint slice of sessions and interleaves them
  // point-batch by point-batch, so shard queues see heavy cross-session
  // interleaving while per-session order is preserved.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      constexpr std::size_t kBatch = 7;
      std::vector<std::size_t> cursor;  // per owned session: next point index
      std::vector<SessionId> owned;
      for (SessionId s = p; s < kSessions; s += kProducers) {
        owned.push_back(s);
        cursor.push_back(0);
        ASSERT_TRUE(server.Submit({s, EventType::kStrokeBegin, 1}).ok());
      }
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t i = 0; i < owned.size(); ++i) {
          const auto& points = strokes[owned[i]].points();
          if (cursor[i] >= points.size()) {
            continue;
          }
          const std::size_t end = std::min(points.size(), cursor[i] + kBatch);
          std::vector<geom::TimedPoint> batch(points.begin() + cursor[i],
                                              points.begin() + end);
          ASSERT_TRUE(
              server.Submit({.session = owned[i], .type = EventType::kPoints, .stroke = 1,
                             .points = std::move(batch)}).ok());
          cursor[i] = end;
          progress = true;
        }
      }
      for (SessionId s : owned) {
        ASSERT_TRUE(server.Submit({s, EventType::kStrokeEnd, 1}).ok());
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  server.Shutdown();

  // Zero divergences from the single-threaded reference.
  ASSERT_EQ(by_session.size(), kSessions);
  for (SessionId s = 0; s < kSessions; ++s) {
    const StrokeOutcome want = Reference(bundle->recognizer(), strokes[s]);
    const auto& got = by_session.at(s);
    ASSERT_FALSE(got.empty()) << "session " << s;
    const RecognitionResult& last = got.back();
    EXPECT_EQ(last.kind, ResultKind::kStrokeEnd) << "session " << s;
    EXPECT_EQ(last.classification.class_id, want.final_class) << "session " << s;
    EXPECT_EQ(last.eager_fired, want.fired) << "session " << s;
    EXPECT_EQ(last.fired_at, want.fired_at) << "session " << s;
    EXPECT_EQ(got.size(), want.fired ? 2u : 1u) << "session " << s;
  }

  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_EQ(totals.events_shed, 0u);
  EXPECT_EQ(totals.strokes_completed, kSessions);
  EXPECT_EQ(totals.callback_errors, 0u);
}

TEST(ServeConcurrencyTest, ShedUnderOverloadKeepsAccountingBalanced) {
  const auto bundle = DirBundle();
  std::atomic<std::uint64_t> delivered{0};
  ServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 4;  // tiny: force sheds while workers run
  options.overload = OverloadPolicy::kShed;
  RecognitionServer server(bundle, options,
                           [&](const RecognitionResult&) { ++delivered; });

  auto strokes = synth::GenerateSet(synth::MakeEightDirectionSpecs(), synth::NoiseModel{},
                                    /*per_class=*/2, /*seed=*/5);
  const auto& gesture = strokes.front().samples.front().gesture;

  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kStrokesPerProducer = 40;
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = 0; k < kStrokesPerProducer; ++k) {
        const SessionId session = p * 1000 + k;
        const auto count_submit = [&](ServeEvent ev) {
          ++submitted;
          const robust::Status status = server.Submit(std::move(ev));
          if (status.code() == robust::StatusCode::kOverloaded) {
            ++shed;
          } else {
            ASSERT_TRUE(status.ok());
          }
        };
        count_submit({session, EventType::kStrokeBegin, 1});
        count_submit({.session = session, .type = EventType::kPoints, .stroke = 1,
                      .points = gesture.points()});
        count_submit({session, EventType::kStrokeEnd, 1});
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  // Live snapshot while workers may still be draining: must not race.
  (void)server.Metrics();
  server.Shutdown();

  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_EQ(totals.events_shed, shed.load());
  EXPECT_EQ(totals.events_processed + totals.events_shed, submitted.load());
  EXPECT_EQ(totals.queue_latency.count, totals.events_processed);
  EXPECT_EQ(totals.callback_errors, 0u);
  EXPECT_GT(delivered.load(), 0u);
}

TEST(ServeConcurrencyTest, CallbackExceptionsAreContained) {
  const auto bundle = DirBundle();
  ServerOptions options;
  options.num_shards = 1;
  RecognitionServer server(bundle, options, [](const RecognitionResult&) {
    throw std::runtime_error("client sink misbehaved");
  });
  auto strokes = synth::GenerateSet(synth::MakeEightDirectionSpecs(), synth::NoiseModel{},
                                    /*per_class=*/1, /*seed=*/3);
  const auto& gesture = strokes.front().samples.front().gesture;
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeBegin, 1}).ok());
  ASSERT_TRUE(server.Submit({.session = 1, .type = EventType::kPoints, .stroke = 1,
                             .points = gesture.points()}).ok());
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeEnd, 1}).ok());
  server.Shutdown();
  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_GT(totals.callback_errors, 0u);
  EXPECT_EQ(totals.strokes_completed, 1u);  // the shard survived
}

}  // namespace
}  // namespace grandma::serve
