// ServerMetrics snapshot coherence: Metrics()/ToJson() must be callable at
// any moment while shard workers and producers are concurrently bumping
// counters and histograms, yielding a self-consistent plain-value snapshot
// (valid JSON, monotone counters, balanced accounting) without tearing.
// Runs under the serve ctest label, so the tsan stage exercises it too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/event.h"
#include "serve/metrics.h"
#include "serve/recognizer_bundle.h"
#include "serve/server.h"
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

// Minimal structural JSON check: braces/brackets balance and never go
// negative, quotes pair up. Catches torn writes that corrupt the emitter.
bool BalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(ServerMetricsTest, ToJsonStaysCoherentUnderConcurrentWriters) {
  auto bundle = UdBundle();
  auto strokes = synth::GenerateSet(synth::MakeUpDownSpecs(), synth::NoiseModel{},
                                    /*per_class=*/8, /*seed=*/11);
  std::vector<geom::Gesture> gestures;
  for (auto& batch : strokes) {
    for (auto& sample : batch.samples) {
      gestures.push_back(std::move(sample.gesture));
    }
  }

  ServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 32;
  options.overload = OverloadPolicy::kShed;  // producers never block
  RecognitionServer server(bundle, options, [](const RecognitionResult&) {});

  std::atomic<bool> stop{false};
  // Producers: hammer Submit (bumping events_shed / points_processed /
  // histogram cells from two sides of the queue).
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      SessionId session = static_cast<SessionId>(t) * 10'000;
      std::size_t g = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++session;
        (void)server.Submit({session, EventType::kStrokeBegin, 1});
        (void)server.Submit(
            {.session = session, .type = EventType::kPoints, .stroke = 1,
             .points = gestures[g % gestures.size()].points()});
        (void)server.Submit({session, EventType::kStrokeEnd, 1});
        (void)server.Submit({session, EventType::kSessionEnd, 0});
        ++g;
      }
    });
  }

  // Reader: snapshot + serialize continuously while writers run.
  std::uint64_t last_processed = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const ServerMetrics metrics = server.Metrics();
    const std::string json = metrics.ToJson();
    EXPECT_TRUE(BalancedJson(json)) << json;
    ASSERT_EQ(metrics.shards.size(), 2u);

    const ShardMetrics totals = metrics.Totals();
    // Counters only move forward across snapshots.
    EXPECT_GE(totals.events_processed, last_processed);
    last_processed = totals.events_processed;
    // Every latency sample corresponds to one accepted, non-expired event,
    // and the worker records the sample *before* bumping events_processed.
    // A snapshot is not atomic across counters, so compare this snapshot's
    // histogram count against a *later* snapshot's processed counter: by the
    // time the second read starts, every sampled event has either finished
    // processing or is the (at most one per shard) event in flight.
    const ShardMetrics later = server.Metrics().Totals();
    EXPECT_LE(totals.queue_latency.count,
              later.events_processed + later.events_deadline_expired + options.num_shards);
    // Depth accounting stays within configuration.
    EXPECT_EQ(totals.queue_capacity, options.queue_capacity * options.num_shards);
    for (const ShardMetrics& shard : metrics.shards) {
      EXPECT_LE(shard.queue_max_depth, options.queue_capacity);
    }
  }

  stop.store(true);
  for (auto& p : producers) {
    p.join();
  }
  server.Shutdown();

  // Post-quiescence the invariant is exact: every accepted event was either
  // processed or expired, and each processed event left one latency sample.
  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_EQ(totals.queue_latency.count, totals.events_processed);
  EXPECT_EQ(totals.events_deadline_expired, 0u);
  const std::string json = server.Metrics().ToJson();
  EXPECT_TRUE(BalancedJson(json));
  // The new counters must be present in the rendered snapshot.
  EXPECT_NE(json.find("\"events_deadline_expired\""), std::string::npos);
  EXPECT_NE(json.find("\"admission_shedding\""), std::string::npos);
  EXPECT_NE(json.find("\"admission_evaluations\""), std::string::npos);
}

TEST(ServerMetricsTest, MergeSumsNewCountersAndOrsSheddingFlag) {
  ShardMetrics a;
  a.events_deadline_expired = 3;
  a.admission_evaluations = 10;
  a.admission_switches_to_shed = 2;
  a.admission_switches_to_block = 1;
  a.admission_shedding = false;
  ShardMetrics b;
  b.events_deadline_expired = 4;
  b.admission_evaluations = 5;
  b.admission_switches_to_shed = 1;
  b.admission_switches_to_block = 0;
  b.admission_shedding = true;

  a.Merge(b);
  EXPECT_EQ(a.events_deadline_expired, 7u);
  EXPECT_EQ(a.admission_evaluations, 15u);
  EXPECT_EQ(a.admission_switches_to_shed, 3u);
  EXPECT_EQ(a.admission_switches_to_block, 1u);
  EXPECT_TRUE(a.admission_shedding);  // any shard shedding -> totals shedding
}

}  // namespace
}  // namespace grandma::serve
