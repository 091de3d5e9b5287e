// The wire-level vocabulary of the recognition server: what clients submit
// (ServeEvent) and what the server hands back (RecognitionResult). A session
// is one end user's input connection; within a session, strokes are numbered
// and each stroke is a begin / points... / end sequence, mirroring the
// mouse-down / mouse-move / mouse-up structure the paper's single-user input
// loop consumes.
#ifndef GRANDMA_SRC_SERVE_EVENT_H_
#define GRANDMA_SRC_SERVE_EVENT_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "classify/linear_classifier.h"
#include "classify/rejection.h"
#include "geom/point.h"

namespace grandma::serve {

using SessionId = std::uint64_t;
using StrokeId = std::uint32_t;
// End-user identity for per-user personalization (src/personalize). Distinct
// from SessionId: one user may hold many concurrent sessions (devices), and
// sessions are transient while a user's adapted model persists across them.
// User 0 is the anonymous user and always gets the shared base model.
using UserId = std::uint64_t;

enum class EventType : std::uint8_t {
  // Start a new stroke for the session (resets its incremental extractor).
  kStrokeBegin,
  // One or more input points of the current stroke, in arrival order.
  // Devices deliver coalesced batches (touch frames); a batch of one is a
  // plain mouse-move.
  kPoints,
  // Mouse-up: classify whatever was seen (two-phase path when the eager
  // predicate never fired mid-stroke).
  kStrokeEnd,
  // The session disconnected; its state is discarded.
  kSessionEnd,
};

inline const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kStrokeBegin:
      return "STROKE_BEGIN";
    case EventType::kPoints:
      return "POINTS";
    case EventType::kStrokeEnd:
      return "STROKE_END";
    case EventType::kSessionEnd:
      return "SESSION_END";
  }
  return "UNKNOWN";
}

// The points of one kPoints event. Up to kInlinePoints live inside the
// buffer, and so inside the queue slot that carries the event: a mouse-move
// event allocates nothing on the submitting thread and frees nothing on the
// shard worker. A larger batch lives in a std::vector, which the buffer adopts
// when one is moved in (no copy) and allocates otherwise. The capacity is
// what fits beside the rest of ServeEvent in a 128-byte ring slot (see the
// static_assert in server.h); a third inline point would grow every slot to
// 192 bytes.
class PointBuffer {
 public:
  static constexpr std::size_t kInlinePoints = 2;

  using const_iterator = const geom::TimedPoint*;

  // User-provided so that even a value-initialized buffer leaves the inline
  // storage unwritten: every event is constructed, most carry no points.
  PointBuffer() {}  // NOLINT(modernize-use-equals-default)
  PointBuffer(std::initializer_list<geom::TimedPoint> points) {
    assign(points.begin(), points.end());
  }
  // Implicit, like the std::vector member this type replaced, so events
  // still aggregate-initialize from a gesture's points.
  PointBuffer(const std::vector<geom::TimedPoint>& points) {  // NOLINT(google-explicit-constructor)
    assign(points.begin(), points.end());
  }
  // Adopts `points` when it does not fit inline; copies it inline otherwise.
  PointBuffer(std::vector<geom::TimedPoint>&& points) {  // NOLINT(google-explicit-constructor)
    if (points.size() <= kInlinePoints) {
      assign(points.begin(), points.end());
    } else {
      size_ = points.size();
      spill_ = std::move(points);
    }
  }
  PointBuffer(const PointBuffer& other) { assign(other.begin(), other.end()); }
  // Leaves `other` empty.
  PointBuffer(PointBuffer&& other) noexcept : size_(std::exchange(other.size_, 0)) {
    TakeStorageFrom(other);
  }

  PointBuffer& operator=(const PointBuffer& other) {
    if (this != &other) {
      assign(other.begin(), other.end());
    }
    return *this;
  }
  PointBuffer& operator=(PointBuffer&& other) noexcept {
    if (this != &other) {
      size_ = std::exchange(other.size_, 0);
      TakeStorageFrom(other);
    }
    return *this;
  }

  // [first, last) must not point into this buffer.
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n <= kInlinePoints) {
      std::copy(first, last, InlinePoints());
    } else {
      spill_.assign(first, last);
    }
    size_ = n;
  }

  // Moves the points out as a vector (the adopted one when spilled) and
  // leaves the buffer empty.
  std::vector<geom::TimedPoint> TakeVector() && {
    std::vector<geom::TimedPoint> out =
        spilled() ? std::move(spill_) : std::vector<geom::TimedPoint>(begin(), end());
    size_ = 0;
    return out;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const geom::TimedPoint* data() const { return spilled() ? spill_.data() : InlinePoints(); }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  std::span<const geom::TimedPoint> span() const { return {data(), size_}; }

 private:
  bool spilled() const { return size_ > kInlinePoints; }

  // TimedPoint is an implicit-lifetime type, so the byte array's lifetime
  // provides the points std::launder names.
  static_assert(std::is_trivially_copyable_v<geom::TimedPoint>);
  geom::TimedPoint* InlinePoints() {
    return std::launder(reinterpret_cast<geom::TimedPoint*>(inline_));
  }
  const geom::TimedPoint* InlinePoints() const {
    return std::launder(reinterpret_cast<const geom::TimedPoint*>(inline_));
  }

  // Moves the points' storage out of `other`; size_ already holds their
  // count. Only what holds live points is touched, so moving an empty buffer
  // reads and writes nothing past size_.
  void TakeStorageFrom(PointBuffer& other) {
    if (spilled()) {
      spill_ = std::move(other.spill_);
    } else {
      std::memcpy(inline_, other.inline_, size_ * sizeof(geom::TimedPoint));
    }
  }

  std::size_t size_ = 0;
  // Holds the points when size_ > kInlinePoints; unused (possibly stale)
  // otherwise.
  std::vector<geom::TimedPoint> spill_;
  // Raw bytes rather than TimedPoints (whose members default to zero): no
  // construction writes them, and a move copies only the live points.
  alignas(geom::TimedPoint) std::byte inline_[kInlinePoints * sizeof(geom::TimedPoint)];
};

// One queued unit of work. `enqueue_time` is stamped by the server at Submit
// so the worker can account the enqueue->recognize latency.
//
// Field order is layout: with `points` last, the other fields and the
// buffer's size word share the ring slot's first cache line with its
// sequence word, so an event without points moves between threads in one
// line.
struct ServeEvent {
  SessionId session = 0;
  EventType type = EventType::kPoints;
  StrokeId stroke = 0;
  // Deadline budget in microseconds measured from Submit; 0 means no
  // deadline. An event still queued when its budget expires is dropped by
  // the worker before classification (kDeadlineExceeded, counted in
  // events_deadline_expired, reported through ServerOptions::on_drop) — a
  // stale eager-recognition answer is worse than none.
  std::uint32_t deadline_us = 0;
  std::chrono::steady_clock::time_point enqueue_time{};
  // Owner of the stroke, for per-user model resolution at stroke boundaries
  // (0 = anonymous, base model).
  UserId user = 0;
  PointBuffer points{};  // kPoints only
};

enum class ResultKind : std::uint8_t {
  // The AUC judged the stroke unambiguous mid-stroke — the paper's eager
  // recognition moment, after which a client enters its manipulation phase.
  kEagerFire,
  // Mouse-up classification of the complete stroke (always emitted, whether
  // or not an eager fire preceded it).
  kStrokeEnd,
};

// One recognition answer, delivered on the owning shard's worker thread.
// Results for a given session are totally ordered; results for different
// sessions on different shards arrive concurrently.
struct RecognitionResult {
  SessionId session = 0;
  StrokeId stroke = 0;
  ResultKind kind = ResultKind::kStrokeEnd;
  classify::Classification classification;
  std::string class_name;
  // Points consumed when this result was produced.
  std::size_t points_seen = 0;
  // True when the eager predicate fired during this stroke (on kStrokeEnd
  // results this reports whether a kEagerFire preceded it).
  bool eager_fired = false;
  // Points seen at the moment of the eager fire; 0 when it never fired.
  std::size_t fired_at = 0;
  // Version of the RecognizerBundle that produced this result (0 for
  // sessions bound directly to a bare recognizer). Because sessions pin
  // their bundle at stroke start, every result of one stroke carries the
  // same version even if the server hot-swapped models mid-stroke.
  std::uint64_t model_version = 0;

  // --- N-best surface (NBestOptions::depth > 0 only; see session.h) -------
  // Ranked alternatives for this result; the leading nbest_count entries are
  // live and nbest[0] mirrors `classification` bit for bit. Zero when the
  // session runs with n-best disabled (the default).
  std::array<classify::NBestEntry, classify::kMaxNBest> nbest{};
  std::size_t nbest_count = 0;
  // What the rejection policy says the client should do with this result,
  // and why ("High Five" defer/ask-again semantics).
  classify::NBestAction nbest_action = classify::NBestAction::kAccept;
  classify::RejectReason reject_reason = classify::RejectReason::kAccepted;
  // Winner-minus-runner-up probability margin (0 with n-best disabled).
  double nbest_margin = 0.0;
};

}  // namespace grandma::serve

#endif  // GRANDMA_SRC_SERVE_EVENT_H_
