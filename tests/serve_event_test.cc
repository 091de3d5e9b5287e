// serve::PointBuffer, the point container of a ServeEvent: inline storage up
// to kInlinePoints, a std::vector past that (adopted when moved in), and
// value semantics either way. Also the serve <-> wire event adapter: a
// grandma-events v1 stream survives ToServeEvent -> ToWireEvent byte for byte.
#include "serve/event.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/event_wire.h"
#include "serve/wire_adapter.h"

namespace grandma::serve {
namespace {

constexpr std::size_t kCap = PointBuffer::kInlinePoints;

std::vector<geom::TimedPoint> MakePoints(std::size_t n) {
  std::vector<geom::TimedPoint> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(i);
    points.push_back({d * 1.5 + 0.25, -d * 0.75, d * 16.0});
  }
  return points;
}

// Sizes either side of the inline capacity, plus a touch-frame-sized batch.
std::vector<std::size_t> Sizes() { return {0, 1, kCap, kCap + 1, 100}; }

void ExpectHolds(const PointBuffer& buffer, const std::vector<geom::TimedPoint>& want) {
  ASSERT_EQ(buffer.size(), want.size());
  EXPECT_EQ(buffer.empty(), want.empty());
  EXPECT_EQ(buffer.end() - buffer.begin(), static_cast<std::ptrdiff_t>(want.size()));
  const std::span<const geom::TimedPoint> view = buffer.span();
  EXPECT_EQ(view.data(), buffer.data());
  EXPECT_EQ(view.size(), want.size());
  std::size_t i = 0;
  for (const geom::TimedPoint& p : buffer) {
    EXPECT_EQ(p, want[i]) << "point " << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
}

// True when the points live inside the buffer object itself.
bool StoredInline(const PointBuffer& buffer) {
  const auto* self = reinterpret_cast<const unsigned char*>(&buffer);
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return data >= self && data < self + sizeof(PointBuffer);
}

TEST(PointBufferTest, AssignFromSpanIteratorsAtEverySize) {
  for (std::size_t n : Sizes()) {
    const std::vector<geom::TimedPoint> points = MakePoints(n);
    const std::span<const geom::TimedPoint> source(points);
    PointBuffer buffer;
    buffer.assign(source.begin(), source.end());
    ExpectHolds(buffer, points);
    EXPECT_EQ(StoredInline(buffer), n <= kCap) << "n=" << n;
  }
}

TEST(PointBufferTest, ReassignAcrossTheInlineBoundary) {
  PointBuffer buffer;
  for (std::size_t n : {std::size_t{100}, std::size_t{1}, kCap + 1, kCap, std::size_t{0}}) {
    const std::vector<geom::TimedPoint> points = MakePoints(n);
    buffer.assign(points.begin(), points.end());
    ExpectHolds(buffer, points);
  }
}

TEST(PointBufferTest, InitializerList) {
  const PointBuffer empty = {};
  EXPECT_TRUE(empty.empty());
  const PointBuffer one = {{1, 2, 3}};
  ExpectHolds(one, {{1, 2, 3}});
  const PointBuffer three = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  ExpectHolds(three, {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  EXPECT_FALSE(StoredInline(three));
}

TEST(PointBufferTest, CopyIsDeepAtEverySize) {
  for (std::size_t n : Sizes()) {
    const std::vector<geom::TimedPoint> points = MakePoints(n);
    const PointBuffer original(points);
    const PointBuffer copied(original);
    ExpectHolds(copied, points);
    ExpectHolds(original, points);
    if (n > 0) {
      EXPECT_NE(copied.data(), original.data()) << "n=" << n;
    }
    PointBuffer assigned = MakePoints(7);
    assigned = original;
    ExpectHolds(assigned, points);
  }
}

TEST(PointBufferTest, MoveLeavesTheSourceEmpty) {
  for (std::size_t n : Sizes()) {
    const std::vector<geom::TimedPoint> points = MakePoints(n);
    PointBuffer source(points);
    const geom::TimedPoint* spilled = source.data();
    PointBuffer moved(std::move(source));
    ExpectHolds(moved, points);
    EXPECT_TRUE(source.empty()) << "n=" << n;  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.size(), 0u);              // NOLINT(bugprone-use-after-move)
    if (n > kCap) {
      EXPECT_EQ(moved.data(), spilled) << "a spilled vector moves, not copies";
    }

    PointBuffer target = MakePoints(kCap + 3);
    target = std::move(moved);
    ExpectHolds(target, points);
    EXPECT_TRUE(moved.empty()) << "n=" << n;  // NOLINT(bugprone-use-after-move)
    // A moved-from buffer is reusable.
    moved.assign(points.begin(), points.end());
    ExpectHolds(moved, points);
  }
}

TEST(PointBufferTest, SelfAssignmentKeepsThePoints) {
  for (std::size_t n : Sizes()) {
    const std::vector<geom::TimedPoint> points = MakePoints(n);
    PointBuffer buffer(points);
    PointBuffer& alias = buffer;
    buffer = alias;
    ExpectHolds(buffer, points);
    buffer = std::move(alias);
    ExpectHolds(buffer, points);
  }
}

TEST(PointBufferTest, AdoptsAMovedVectorThatDoesNotFitInline) {
  for (std::size_t n : Sizes()) {
    const std::vector<geom::TimedPoint> points = MakePoints(n);
    std::vector<geom::TimedPoint> source = points;
    const geom::TimedPoint* heap = source.data();
    const PointBuffer buffer(std::move(source));
    ExpectHolds(buffer, points);
    if (n > kCap) {
      EXPECT_EQ(buffer.data(), heap) << "n=" << n << ": the vector was copied";
    } else {
      EXPECT_TRUE(StoredInline(buffer)) << "n=" << n;
    }
  }
}

TEST(PointBufferTest, TakeVectorHandsBackTheAdoptedVector) {
  for (std::size_t n : Sizes()) {
    const std::vector<geom::TimedPoint> points = MakePoints(n);
    std::vector<geom::TimedPoint> source = points;
    const geom::TimedPoint* heap = source.data();
    PointBuffer buffer(std::move(source));
    const std::vector<geom::TimedPoint> out = std::move(buffer).TakeVector();
    EXPECT_EQ(out, points);
    EXPECT_TRUE(buffer.empty());  // NOLINT(bugprone-use-after-move)
    if (n > kCap) {
      EXPECT_EQ(out.data(), heap) << "n=" << n;
    }
  }
}

TEST(PointBufferTest, EventsAggregateInitializeFromAGesturesPoints) {
  const std::vector<geom::TimedPoint> points = MakePoints(5);
  const ServeEvent event{.session = 7, .type = EventType::kPoints, .stroke = 3, .deadline_us = 250,
                         .points = points};
  ExpectHolds(event.points, points);
  EXPECT_EQ(event.deadline_us, 250u);
  const ServeEvent begin{7, EventType::kStrokeBegin, 3};
  EXPECT_TRUE(begin.points.empty());
}

// --- serve <-> grandma-events v1 -----------------------------------------

std::string Encode(const std::vector<io::WireEvent>& events) {
  std::ostringstream out;
  EXPECT_TRUE(io::SaveEventWire(events, out, /*events_per_frame=*/5));
  return out.str();
}

TEST(ServeWireAdapterTest, RoundTripThroughServeEventsIsByteIdentical) {
  std::vector<io::WireEvent> events;
  std::uint64_t session = 1;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{64}}) {
    events.push_back({session, 4, 0, io::WireEventType::kStrokeBegin, {}});
    events.push_back({session, 4, static_cast<std::uint32_t>(n * 100),
                      io::WireEventType::kPoints, MakePoints(n)});
    events.push_back({session, 4, 0, io::WireEventType::kStrokeEnd, {}});
    events.push_back({session, 0, 0, io::WireEventType::kSessionEnd, {}});
    ++session;
  }
  const std::string encoded = Encode(events);
  std::istringstream in(encoded);
  auto loaded = io::LoadEventWire(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), events.size());

  std::vector<io::WireEvent> round_tripped;
  for (io::WireEvent& wire : *loaded) {
    const std::size_t n = wire.points.size();
    const geom::TimedPoint* heap = wire.points.data();
    ServeEvent event = ToServeEvent(std::move(wire));
    ASSERT_EQ(event.points.size(), n);
    if (n > kCap) {
      EXPECT_EQ(event.points.data(), heap) << "ToServeEvent copied " << n << " points";
    }
    round_tripped.push_back(ToWireEvent(std::move(event)));
    if (n > kCap) {
      EXPECT_EQ(round_tripped.back().points.data(), heap)
          << "ToWireEvent copied " << n << " points";
    }
  }
  EXPECT_EQ(round_tripped, events);
  EXPECT_EQ(Encode(round_tripped), encoded);
}

}  // namespace
}  // namespace grandma::serve
