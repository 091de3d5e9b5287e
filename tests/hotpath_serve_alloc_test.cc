// The allocation contract of the running recognition server (ctest labels
// `hotpath` and `serve`): once its sessions exist, the mouse-granular event
// stream — stroke begin, one- and two-point moves, stroke end — allocates
// nothing on the submitting thread or on the shard workers. Small kPoints
// events carry their points inside the queue slot (serve::PointBuffer); a
// batch too large for that travels in the vector it was built in, uncopied.
//
// Its own binary: tests/support/counting_new.h defines the counting global
// operator new for the whole executable, and the threaded server makes this
// a tsan target too.
#include "support/counting_new.h"
//
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "serve/event.h"
#include "serve/recognizer_bundle.h"
#include "serve/server.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma {
namespace {

using testsupport::CountAllocations;

std::shared_ptr<const serve::RecognizerBundle> GdpBundle() {
  static const std::shared_ptr<const serve::RecognizerBundle> bundle =
      serve::RecognizerBundle::Train(synth::ToTrainingSet(synth::GenerateSet(
          synth::MakeGdpSpecs(), synth::NoiseModel{}, /*per_class=*/10, /*seed=*/1991)));
  return bundle;
}

// One stroke of every GDP class.
std::vector<geom::Gesture> StrokePool() {
  std::vector<geom::Gesture> pool;
  synth::Rng rng(7);
  for (const auto& spec : synth::MakeGdpSpecs()) {
    pool.push_back(synth::Generate(spec, synth::NoiseModel{}, rng).gesture);
  }
  return pool;
}

// Counts results in atomics only: a sink that allocated would hide the
// server's own count.
struct CountingSink {
  std::atomic<std::uint64_t> ends{0};
  std::atomic<std::uint64_t> fires{0};

  serve::ResultSink Sink() {
    return [this](const serve::RecognitionResult& r) {
      (r.kind == serve::ResultKind::kStrokeEnd ? ends : fires)
          .fetch_add(1, std::memory_order_relaxed);
    };
  }

  // Spins (no allocation) until `want` stroke-end results arrived; false on
  // timeout. Every session's end is its last event, so all earlier events
  // were processed too.
  bool AwaitEnds(std::uint64_t want) const {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (ends.load(std::memory_order_relaxed) < want) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }
};

// Submits one stroke as begin, moves of one and two points alternating, end.
// Returns the number of events.
std::size_t SubmitStroke(serve::RecognitionServer& server, serve::SessionId session,
                         serve::StrokeId stroke, const geom::Gesture& g) {
  std::size_t events = 0;
  auto submit = [&](serve::ServeEvent event) {
    EXPECT_TRUE(server.Submit(std::move(event)).ok());
    ++events;
  };
  submit({session, serve::EventType::kStrokeBegin, stroke});
  const std::span<const geom::TimedPoint> points(g.points());
  std::size_t step = 1;
  for (std::size_t i = 0; i < points.size(); i += step, step = 3 - step) {
    const auto move = points.subspan(i, std::min(step, points.size() - i));
    serve::ServeEvent event{session, serve::EventType::kPoints, stroke};
    event.points.assign(move.begin(), move.end());
    submit(std::move(event));
  }
  submit({session, serve::EventType::kStrokeEnd, stroke});
  return events;
}

TEST(HotpathAllocTest, ServerSmallEventsAreAllocationFree) {
  static_assert(serve::PointBuffer::kInlinePoints >= 2,
                "one- and two-point moves must fit inline");
  const std::vector<geom::Gesture> pool = StrokePool();
  constexpr serve::SessionId kSessions = 24;

  for (std::size_t shards : {1, 3}) {
    CountingSink results;
    serve::ServerOptions options;
    options.num_shards = shards;
    options.overload = serve::OverloadPolicy::kBlock;
    serve::RecognitionServer server(GdpBundle(), options, results.Sink());

    // Warm-up: creates every session and sizes its workspace and result.
    serve::StrokeId stroke = 1;
    for (serve::SessionId s = 1; s <= kSessions; ++s) {
      SubmitStroke(server, s, stroke, pool[s % pool.size()]);
    }
    ASSERT_TRUE(results.AwaitEnds(kSessions));

    std::size_t events = 0;
    std::uint64_t want_ends = kSessions;
    bool drained = false;
    const std::uint64_t allocs = CountAllocations([&] {
      for (int round = 0; round < 3; ++round) {
        ++stroke;
        for (serve::SessionId s = 1; s <= kSessions; ++s) {
          events += SubmitStroke(server, s, stroke, pool[(s + stroke) % pool.size()]);
          ++want_ends;
        }
      }
      drained = results.AwaitEnds(want_ends);
    });
    ASSERT_TRUE(drained) << shards << " shards";
    EXPECT_EQ(allocs, 0u) << shards << " shards, " << events << " events";
    EXPECT_GE(events, 1000u);
    EXPECT_GT(results.fires.load(), 0u) << "the eager path must be exercised";
  }
}

// A batch larger than the inline capacity rides the ring in the vector it
// was built in: the worker sees the very same buffer. The event is observed
// at the worker through the deadline-drop callback (workers start only once
// it has overstayed its one-microsecond budget).
TEST(HotpathAllocTest, ServerAdoptsMovedPointVectors) {
  const geom::Gesture g = StrokePool().front();
  ASSERT_GT(g.size(), serve::PointBuffer::kInlinePoints);

  std::atomic<const geom::TimedPoint*> seen{nullptr};
  std::atomic<std::size_t> seen_size{0};
  serve::ServerOptions options;
  options.num_shards = 3;
  options.start_workers = false;
  options.on_drop = [&](const serve::ServeEvent& event, const robust::Status&) {
    seen_size.store(event.points.size());
    seen.store(event.points.data());
  };
  CountingSink results;
  serve::RecognitionServer server(GdpBundle(), options, results.Sink());

  std::vector<geom::TimedPoint> points = g.points();
  const geom::TimedPoint* heap = points.data();
  serve::ServeEvent event{.session = 9, .type = serve::EventType::kPoints, .stroke = 1,
                          .deadline_us = /*deadline_us=*/1, .points = std::move(points)};
  ASSERT_TRUE(server.Submit(std::move(event)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.Shutdown();  // starts the workers, drains, joins

  EXPECT_EQ(seen.load(), heap) << "the vector was copied on its way to the worker";
  EXPECT_EQ(seen_size.load(), g.size());
}

}  // namespace
}  // namespace grandma
