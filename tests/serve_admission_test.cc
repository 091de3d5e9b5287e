// Deterministic coverage of the overload-resilience layer: the
// AdmissionController hysteresis state machine, per-event deadline budgets
// (typed kDeadlineExceeded drops with balanced accounting), the adaptive
// policy wired through RecognitionServer, and client-side retry-with-backoff.
// Timing-sensitive paths use parked workers (start_workers = false) so queue
// waits are controlled by the test, not the scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "robust/status.h"
#include "serve/admission.h"
#include "serve/event.h"
#include "serve/recognizer_bundle.h"
#include "serve/retry.h"
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

geom::Gesture UdStroke() {
  auto batches =
      synth::GenerateSet(synth::MakeUpDownSpecs(), synth::NoiseModel{}, /*per_class=*/1,
                         /*seed=*/7);
  return batches.front().samples.front().gesture;
}

// Feeds `n` waits of `us` microseconds into the controller.
void Feed(AdmissionController& c, std::uint64_t n, double us) {
  for (std::uint64_t i = 0; i < n; ++i) {
    c.RecordWait(us);
  }
}

TEST(AdmissionControllerTest, StartsBlockingAndValidatesOptions) {
  AdmissionController c(AdmissionOptions{});
  EXPECT_FALSE(c.shedding());
  EXPECT_EQ(c.evaluations(), 0u);

  AdmissionOptions bad_percentile;
  bad_percentile.percentile = 0.0;
  EXPECT_THROW(AdmissionController{bad_percentile}, std::invalid_argument);
  AdmissionOptions inverted;
  inverted.high_watermark_us = 1.0;
  inverted.low_watermark_us = 2.0;
  EXPECT_THROW(AdmissionController{inverted}, std::invalid_argument);
  AdmissionOptions zero_period;
  zero_period.eval_period_events = 0;
  EXPECT_THROW(AdmissionController{zero_period}, std::invalid_argument);
}

TEST(AdmissionControllerTest, HighWatermarkTripsSheddingLowRestoresBlocking) {
  AdmissionOptions opts;
  opts.high_watermark_us = 10'000.0;
  opts.low_watermark_us = 1'000.0;
  opts.eval_period_events = 16;
  opts.min_dwell_evals = 0;
  AdmissionController c(opts);

  Feed(c, 16, 50'000.0);  // one full window far above high
  EXPECT_TRUE(c.shedding());
  EXPECT_EQ(c.switches_to_shed(), 1u);
  EXPECT_EQ(c.evaluations(), 1u);

  Feed(c, 16, 10.0);  // one full window far below low
  EXPECT_FALSE(c.shedding());
  EXPECT_EQ(c.switches_to_block(), 1u);
}

TEST(AdmissionControllerTest, MidBandIsHysteresisDeadZone) {
  AdmissionOptions opts;
  opts.high_watermark_us = 10'000.0;
  opts.low_watermark_us = 1'000.0;
  opts.eval_period_events = 8;
  opts.min_dwell_evals = 0;
  AdmissionController c(opts);

  // Between the watermarks: blocking stays blocking...
  Feed(c, 64, 5'000.0);
  EXPECT_FALSE(c.shedding());
  EXPECT_EQ(c.switches_to_shed(), 0u);

  // ...and shedding stays shedding (no flapping while the load hovers).
  Feed(c, 8, 50'000.0);
  ASSERT_TRUE(c.shedding());
  Feed(c, 64, 5'000.0);
  EXPECT_TRUE(c.shedding());
  EXPECT_EQ(c.switches_to_shed(), 1u);
  EXPECT_EQ(c.switches_to_block(), 0u);
}

TEST(AdmissionControllerTest, MinDwellDelaysSwitching) {
  AdmissionOptions opts;
  opts.high_watermark_us = 10'000.0;
  opts.low_watermark_us = 1'000.0;
  opts.eval_period_events = 4;
  opts.min_dwell_evals = 2;
  AdmissionController c(opts);

  // The first two evaluations only build dwell; the third may switch.
  Feed(c, 4, 50'000.0);
  EXPECT_FALSE(c.shedding());
  Feed(c, 4, 50'000.0);
  EXPECT_FALSE(c.shedding());
  Feed(c, 4, 50'000.0);
  EXPECT_TRUE(c.shedding());
  EXPECT_EQ(c.evaluations(), 3u);

  // Fresh dwell after the switch: two calm windows do not yet restore.
  Feed(c, 8, 10.0);
  EXPECT_TRUE(c.shedding());
  Feed(c, 4, 10.0);
  EXPECT_FALSE(c.shedding());
}

TEST(AdmissionControllerTest, EvaluateNowOnEmptyWindowKeepsMode) {
  AdmissionController c(AdmissionOptions{});
  c.EvaluateNow();
  EXPECT_EQ(c.evaluations(), 0u);
  EXPECT_FALSE(c.shedding());
}

TEST(AdmissionControllerTest, PercentileIgnoresCalmMajorityWhenTailBlows) {
  // p99 watching: 1% of waits at 1s must trip the controller even when the
  // median is microseconds.
  AdmissionOptions opts;
  opts.percentile = 0.99;
  opts.high_watermark_us = 10'000.0;
  opts.eval_period_events = 1000;
  opts.min_dwell_evals = 0;
  AdmissionController c(opts);
  Feed(c, 985, 5.0);
  Feed(c, 15, 1'000'000.0);
  EXPECT_TRUE(c.shedding());
}

// --- Deadline budgets through the server ---

struct DropCollector {
  std::mutex mutex;
  std::vector<std::pair<EventType, robust::StatusCode>> drops;

  DropSink Sink() {
    return [this](const ServeEvent& e, const robust::Status& s) {
      std::lock_guard<std::mutex> lock(mutex);
      drops.emplace_back(e.type, s.code());
    };
  }
};

TEST(DeadlineTest, ExpiredEventsAreDroppedTypedAndBalanced) {
  DropCollector drops;
  std::atomic<int> results{0};
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 64;
  options.overload = OverloadPolicy::kBlock;
  options.start_workers = false;  // park the worker: waits are ours
  options.on_drop = drops.Sink();
  RecognitionServer server(UdBundle(), options,
                           [&](const RecognitionResult&) { ++results; });

  const auto points = UdStroke().points();
  // 1 us budgets cannot survive the deliberate 20 ms park below.
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeBegin, 1, /*deadline_us=*/1}).ok());
  ASSERT_TRUE(server.Submit({.session = 1, .type = EventType::kPoints, .stroke = 1,
                             .deadline_us = 1, .points = points}).ok());
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeEnd, 1, /*deadline_us=*/1}).ok());
  // kSessionEnd is exempt from expiry — it frees state.
  ASSERT_TRUE(server.Submit({1, EventType::kSessionEnd, 0, /*deadline_us=*/1}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Start();
  server.Shutdown();

  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_EQ(totals.events_deadline_expired, 3u);
  EXPECT_EQ(totals.events_processed, 1u);  // the exempt kSessionEnd
  EXPECT_EQ(totals.events_shed, 0u);
  // Accepted == processed + expired; nothing classified, so no results and
  // no accepted-event latency samples from the dropped three.
  EXPECT_EQ(results.load(), 0);
  EXPECT_EQ(totals.queue_latency.count, 1u);
  ASSERT_EQ(drops.drops.size(), 3u);
  for (const auto& [type, code] : drops.drops) {
    EXPECT_EQ(code, robust::StatusCode::kDeadlineExceeded);
    EXPECT_NE(type, EventType::kSessionEnd);
  }
}

TEST(DeadlineTest, ZeroAndGenerousDeadlinesProcessNormally) {
  DropCollector drops;
  std::atomic<int> results{0};
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 64;
  options.overload = OverloadPolicy::kBlock;
  options.start_workers = false;
  options.on_drop = drops.Sink();
  RecognitionServer server(UdBundle(), options,
                           [&](const RecognitionResult&) { ++results; });

  const auto points = UdStroke().points();
  constexpr std::uint32_t kGenerousUs = 60'000'000;
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeBegin, 1}).ok());
  ASSERT_TRUE(server.Submit({.session = 1, .type = EventType::kPoints, .stroke = 1,
                             .points = points}).ok());
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeEnd, 1}).ok());
  ASSERT_TRUE(server.Submit({2, EventType::kStrokeBegin, 1, /*deadline_us=*/kGenerousUs}).ok());
  ASSERT_TRUE(server.Submit({.session = 2, .type = EventType::kPoints, .stroke = 1,
                             .deadline_us = kGenerousUs, .points = points}).ok());
  ASSERT_TRUE(server.Submit({2, EventType::kStrokeEnd, 1, /*deadline_us=*/kGenerousUs}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Start();
  server.Shutdown();

  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_EQ(totals.events_deadline_expired, 0u);
  EXPECT_EQ(totals.events_processed, 6u);
  EXPECT_TRUE(drops.drops.empty());
  EXPECT_GE(results.load(), 2);  // at least one kStrokeEnd result per session
}

// --- Adaptive policy through the server ---

TEST(AdaptivePolicyTest, BehavesLikeBlockUntilTheControllerTrips) {
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 64;
  options.overload = OverloadPolicy::kAdaptive;
  options.start_workers = false;
  RecognitionServer server(UdBundle(), options, [](const RecognitionResult&) {});

  const auto points = UdStroke().points();
  for (SessionId s = 0; s < 8; ++s) {
    ASSERT_TRUE(server.Submit({s, EventType::kStrokeBegin, 1}).ok());
    ASSERT_TRUE(server.Submit({.session = s, .type = EventType::kPoints, .stroke = 1,
                               .points = points}).ok());
    ASSERT_TRUE(server.Submit({s, EventType::kStrokeEnd, 1}).ok());
  }
  server.Start();
  server.Shutdown();

  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_EQ(totals.events_shed, 0u);
  EXPECT_EQ(totals.events_processed, 24u);
  EXPECT_FALSE(totals.admission_shedding);
  EXPECT_EQ(totals.admission_switches_to_shed, 0u);
}

TEST(AdaptivePolicyTest, SustainedQueueWaitFlipsShardToShed) {
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 64;
  options.overload = OverloadPolicy::kAdaptive;
  options.admission.high_watermark_us = 1'000.0;  // 1 ms
  options.admission.low_watermark_us = 100.0;
  options.admission.eval_period_events = 4;
  options.admission.min_dwell_evals = 0;
  options.start_workers = false;
  RecognitionServer server(UdBundle(), options, [](const RecognitionResult&) {});

  // Park 8 events for 20 ms: every observed wait lands far above the 1 ms
  // high watermark, so the first evaluation (after 4 events) must flip the
  // shard to shedding.
  for (SessionId s = 0; s < 8; ++s) {
    ASSERT_TRUE(server.Submit({s, EventType::kStrokeBegin, 1}).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Start();
  server.Shutdown();

  const ShardMetrics totals = server.Metrics().Totals();
  EXPECT_GE(totals.admission_evaluations, 2u);
  EXPECT_GE(totals.admission_switches_to_shed, 1u);
  EXPECT_TRUE(totals.admission_shedding);
}

// --- Client-side retry with backoff ---

TEST(RetryTest, GivesUpAfterMaxAttemptsAgainstAFullQueue) {
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 1;
  options.overload = OverloadPolicy::kShed;
  options.start_workers = false;  // nobody drains: every retry sheds
  RecognitionServer server(UdBundle(), options, [](const RecognitionResult&) {});
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeBegin, 1}).ok());

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = std::chrono::microseconds(100);
  RetryStats stats;
  const robust::Status status =
      SubmitWithRetry(server, {2, EventType::kStrokeBegin, 1}, policy, &stats);

  EXPECT_EQ(status.code(), robust::StatusCode::kOverloaded);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.attempts, 4u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.backoff_waits, 3u);
  // The server shed one event per attempt: attempts == events_shed.
  EXPECT_EQ(server.Metrics().Totals().events_shed, 4u);
  server.Shutdown();
}

TEST(RetryTest, AcceptsImmediatelyWhenThereIsRoom) {
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 8;
  options.overload = OverloadPolicy::kShed;
  options.start_workers = false;
  RecognitionServer server(UdBundle(), options, [](const RecognitionResult&) {});

  RetryStats stats;
  const robust::Status status = SubmitWithRetry(
      server, {1, EventType::kStrokeBegin, 1}, RetryPolicy{}, &stats);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.accepted, 1u);
  server.Shutdown();
}

TEST(RetryTest, NonOverloadErrorsAreNotRetried) {
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 1;
  options.overload = OverloadPolicy::kShed;
  options.start_workers = false;
  RecognitionServer server(UdBundle(), options, [](const RecognitionResult&) {});

  RetryStats stats;
  // kPoints with no points is kInvalidArgument — retrying cannot help.
  const robust::Status status =
      SubmitWithRetry(server, {1, EventType::kPoints, 1}, RetryPolicy{}, &stats);
  EXPECT_EQ(status.code(), robust::StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  server.Shutdown();
}

TEST(RetryTest, SucceedsOnceTheQueueDrains) {
  ServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 1;
  options.overload = OverloadPolicy::kShed;
  options.start_workers = false;
  RecognitionServer server(UdBundle(), options, [](const RecognitionResult&) {});
  ASSERT_TRUE(server.Submit({1, EventType::kStrokeBegin, 1}).ok());

  // Free the queue from another thread while the client backs off.
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server.Start();
  });
  RetryPolicy policy;
  policy.max_attempts = 200;
  policy.initial_backoff = std::chrono::microseconds(500);
  policy.max_backoff = std::chrono::microseconds(2'000);
  RetryStats stats;
  const robust::Status status =
      SubmitWithRetry(server, {1, EventType::kStrokeEnd, 1}, policy, &stats);
  drainer.join();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_GE(stats.attempts, 1u);
  server.Shutdown();
}

}  // namespace
}  // namespace grandma::serve
