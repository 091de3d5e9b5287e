// Per-session incremental recognition state: one end user's EagerStream plus
// stroke bookkeeping. A Session is owned by exactly one shard worker (pinned
// by session-id hash), so it is deliberately NOT thread-safe — single
// ownership is what lets the per-point hot path run lock-free.
//
// The per-point loop is also allocation-free in steady state: the embedded
// EagerStream carries the eager::Workspace scratch, and AddPoints/EmitResult
// use only the stream's view-based API (enforced by
// tests/hotpath_alloc_test.cc on GDP). Each result copies its class name, so
// a name longer than std::string's small-string buffer (15 characters with
// libstdc++) allocates once per result: every GDP name fits, but 152 of the
// 200 extensive-lexicon names do not.
#ifndef GRANDMA_SRC_SERVE_SESSION_H_
#define GRANDMA_SRC_SERVE_SESSION_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "eager/eager_recognizer.h"
#include "geom/point.h"
#include "serve/event.h"
#include "serve/recognizer_bundle.h"

namespace grandma::serve {

// Invoked synchronously (on the owning worker thread) for every recognition
// the session produces.
using ResultSink = std::function<void(const RecognitionResult&)>;

// Per-session n-best configuration. depth = 0 (the default) keeps the
// legacy single-answer surface and the plain Classify kernel; depth > 0
// (clamped to classify::kMaxNBest) fills RecognitionResult::nbest and runs
// every result through classify::DecideNBest with `policy`, so clients see
// a typed accept / defer / ask-again action instead of a silent near-tie.
struct NBestOptions {
  std::size_t depth = 0;
  classify::RejectionPolicy policy;
};

// Lifetime counters for one session; all monotonically increasing.
struct SessionStats {
  std::size_t strokes_begun = 0;
  std::size_t strokes_completed = 0;
  std::size_t points_seen = 0;
  std::size_t eager_fires = 0;
  // Protocol slop tolerated rather than rejected: points arriving with no
  // open stroke implicitly begin one; a second begin without an end
  // implicitly completes the open stroke first.
  std::size_t implicit_begins = 0;
  std::size_t implicit_ends = 0;
  // kStrokeEnd with no open stroke and no buffered points: dropped.
  std::size_t empty_stroke_ends = 0;
  // N-best decisions (zeros when n-best is disabled): results whose policy
  // action was kDefer (low probability / near-tie) or kAskAgain (outlier).
  std::size_t nbest_deferred = 0;
  std::size_t nbest_ask_again = 0;
};

// Thread-safety: none — each instance belongs to a single shard worker.
//
// Model pinning: a session may hold a shared_ptr to the RecognizerBundle it
// recognizes with. The pin can only change at a stroke boundary (the `pin`
// argument of BeginStroke / the implicit begin in AddPoints), so a hot model
// swap mid-stroke never mixes two models' weights inside one gesture — the
// open stroke finishes under the model it started with.
class Session {
 public:
  // Binds to a bare recognizer the caller keeps alive (no pin; results carry
  // model_version 0). Used by single-model embedders and the hot-path tests.
  Session(SessionId id, const eager::EagerRecognizer& recognizer, NBestOptions nbest = {});

  // Binds to (and pins) a bundle; results carry its version.
  Session(SessionId id, std::shared_ptr<const RecognizerBundle> bundle, NBestOptions nbest = {});

  SessionId id() const { return id_; }
  bool in_stroke() const { return in_stroke_; }
  const SessionStats& stats() const { return stats_; }
  // Version of the currently pinned bundle; 0 when bound to a bare
  // recognizer.
  std::uint64_t model_version() const { return model_version_; }

  // Opens stroke `stroke`. An already-open stroke is finalized first (its
  // kStrokeEnd result goes to `sink`, produced by the OLD model) and counted
  // as an implicit end. A non-null `pin` then rebinds the session to that
  // bundle for the new stroke.
  void BeginStroke(StrokeId stroke, const ResultSink& sink,
                   std::shared_ptr<const RecognizerBundle> pin = nullptr);

  // Feeds points into the current stroke, emitting a kEagerFire result the
  // moment the AUC first judges it unambiguous. Points with no open stroke
  // implicitly begin stroke `stroke` (adopting `pin` if non-null); `pin` is
  // ignored when a stroke is already open.
  void AddPoints(StrokeId stroke, std::span<const geom::TimedPoint> points,
                 const ResultSink& sink,
                 std::shared_ptr<const RecognizerBundle> pin = nullptr);

  // Mouse-up: emits the kStrokeEnd classification (the two-phase path when
  // no eager fire happened) and closes the stroke.
  void EndStroke(const ResultSink& sink);

 private:
  void EmitResult(ResultKind kind, const ResultSink& sink);
  // Runs the policy decision over result.nbest[0..nbest_count) (already
  // ranked by the stream), fills the action/reason/margin fields, and bumps
  // the defer/ask-again counters.
  void ApplyNBestDecision(RecognitionResult& result);

  SessionId id_;
  NBestOptions nbest_;
  // Keeps the pinned model alive while any stroke may still reference it;
  // null when the session was built over a bare recognizer. Declared before
  // stream_ so the recognizer outlives the stream during construction.
  std::shared_ptr<const RecognizerBundle> pinned_;
  const eager::EagerRecognizer* recognizer_;
  eager::EagerStream stream_;
  std::uint64_t model_version_ = 0;
  StrokeId current_stroke_ = 0;
  bool in_stroke_ = false;
  SessionStats stats_;
};

}  // namespace grandma::serve

#endif  // GRANDMA_SRC_SERVE_SESSION_H_
