// The user-facing eager recognizer (Sections 4.3-4.7): trains the full
// classifier and the AUC from example gestures, then answers, point by
// point, "has enough of this gesture been seen to classify it
// unambiguously?". EagerStream runs the per-point loop for one gesture.
#ifndef GRANDMA_SRC_EAGER_EAGER_RECOGNIZER_H_
#define GRANDMA_SRC_EAGER_EAGER_RECOGNIZER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "classify/gesture_classifier.h"
#include "classify/training_set.h"
#include "eager/accidental_mover.h"
#include "eager/auc.h"
#include "eager/subgesture_labeler.h"
#include "eager/workspace.h"
#include "features/extractor.h"
#include "features/feature_vector.h"
#include "geom/point.h"
#include "linalg/vec_view.h"
#include "robust/fault_stats.h"

namespace grandma::eager {

struct EagerTrainOptions {
  features::FeatureMask mask = features::FeatureMask::All();
  LabelerOptions labeler;
  MoverOptions mover;
  AucOptions auc;
  // Optional degradation accounting, threaded through the full classifier,
  // the AUC trainer, and the two-phase fallback below.
  robust::FaultStats* stats = nullptr;
};

struct EagerTrainReport {
  double full_classifier_ridge = 0.0;
  // Partition sizes after labeling (before the move step).
  std::size_t complete_before_move = 0;
  std::size_t incomplete_before_move = 0;
  MoverReport mover;
  AucTrainReport auc;
  // True when the AUC could not be trained (or trained ill-conditioned) and
  // the recognizer fell back to never firing eagerly: every gesture is then
  // classified at mouse-up, exactly like a two-phase non-eager system. The
  // full classifier is unaffected.
  bool eager_fallback = false;
};

// Trained eager recognizer: the full classifier C plus the doneness
// predicate D built from the same training examples.
//
// Thread-safety: after Train returns, the const surface (UnambiguousFeatures,
// ClassifyFeatures, accessors) is safe for concurrent use from many threads —
// one trained recognizer serves every shard of a RecognitionServer. Train
// itself must be exclusive.
class EagerRecognizer {
 public:
  EagerRecognizer() = default;

  // Runs the whole Section 4.7 pipeline: train C, enumerate and label
  // subgestures, move accidental completes, train/bias/tweak the AUC.
  EagerTrainReport Train(const classify::GestureTrainingSet& training,
                         const EagerTrainOptions& options = {});

  bool trained() const { return full_.trained() && auc_.trained(); }

  // D over a full 13-entry feature vector (the mask is applied internally).
  // Allocates internal scratch; the per-point hot path uses Unambiguous.
  bool UnambiguousFeatures(const linalg::Vector& full_features) const;

  // C over a full 13-entry feature vector. Allocating flavor; the hot path
  // uses Classify below.
  classify::Classification ClassifyFeatures(const linalg::Vector& full_features) const {
    return full_.ClassifyFeatures(full_features);
  }

  // --- Zero-allocation kernel surface -------------------------------------
  // Both take the caller's per-stream Workspace; they size its score buffers
  // on first use and reuse them afterwards. Answers are bit-identical to the
  // allocating flavors above.

  // D over a full 13-entry feature view.
  bool Unambiguous(linalg::VecView full_features, Workspace& ws) const;

  // Batched D over `batch` full-feature rows (`row_stride` doubles apart in
  // `feature_rows`, each kNumFeatures wide; batch <= Workspace::kBatchPoints):
  // the AUC reads every row through the mask's column list, so no row is
  // projected. Returns the index of the FIRST unambiguous row, or
  // Auc::kNone. Row answers are bit-identical to Unambiguous on that row.
  std::size_t FirstUnambiguous(const double* feature_rows, std::size_t batch,
                               std::size_t row_stride, Workspace& ws) const;

  // C over a full 13-entry feature view.
  classify::Classification Classify(linalg::VecView full_features, Workspace& ws) const;

  // Ranked n-best over a full 13-entry feature view. Fills up to out.size()
  // entries (sorted by descending score, calibrated probabilities over all
  // classes) and, when `top` is non-null, the winner's full Classification —
  // bit-identical to Classify on the same features. Allocation-free through
  // the same Workspace scratch. Returns the number of entries written.
  std::size_t ClassifyNBest(linalg::VecView full_features, Workspace& ws,
                            std::span<classify::NBestEntry> out,
                            classify::Classification* top = nullptr) const;

  const classify::GestureClassifier& full() const { return full_; }
  const Auc& auc() const { return auc_; }

  // Reassembles a recognizer from persisted parts (io::serialize).
  static EagerRecognizer FromParameters(classify::GestureClassifier full, Auc auc,
                                        std::size_t min_prefix_points);
  const std::string& ClassName(classify::ClassId c) const { return full_.ClassName(c); }
  std::size_t num_classes() const { return full_.num_classes(); }
  std::size_t min_prefix_points() const { return min_prefix_points_; }

 private:
  classify::GestureClassifier full_;
  Auc auc_;
  std::size_t min_prefix_points_ = features::FeatureExtractor::kMinPoints;
  // full_.mask().Columns(), taken once when the recognizer is trained or
  // loaded: the batched fire check reads snapshot rows through it.
  std::array<std::size_t, features::kNumFeatures> columns_{};
};

// Everything a caller needs from the moment D fired inside a batched
// AddSpan: whether it fired in this span, the point count at the fire, and
// the full classifier's verdict at that exact point (classified from the
// stored feature snapshot of the firing point, so it is bit-identical to
// calling ClassifyNow at the fire in the per-point path).
struct FireEvent {
  bool fired = false;
  std::size_t fired_at = 0;
  classify::Classification classification;
  // Ranked alternatives at the fire point, filled only when the stream's
  // n-best depth (EagerStream::SetNBest) is nonzero. nbest[0] mirrors
  // `classification` bit for bit.
  std::array<classify::NBestEntry, classify::kMaxNBest> nbest{};
  std::size_t nbest_count = 0;
};

// Per-gesture streaming session: feed mouse points as they arrive; the
// stream reports the moment the gesture becomes unambiguous (D fires), after
// which the caller typically classifies and enters the manipulation phase.
//
// The stream owns a Workspace, so its steady-state per-point loop (AddPoint,
// ClassifyNow, FeaturesView) performs zero heap allocations after the first
// call sized the score buffers (enforced by tests/hotpath_alloc_test.cc).
//
// Thread-safety: none — a stream is one user's mutable per-stroke state and
// must be owned by a single thread (serve pins each stream to one shard).
// Many streams may share one recognizer concurrently.
class EagerStream {
 public:
  explicit EagerStream(const EagerRecognizer& recognizer) : recognizer_(&recognizer) {}

  // Appends one point; returns true exactly once — on the point at which the
  // gesture first becomes unambiguous.
  bool AddPoint(const geom::TimedPoint& p);

  // Appends a span of points, evaluating them in chunks of
  // Workspace::kBatchPoints through the batched SoA evaluator. Produces the
  // exact same fired()/fired_at() state (and, via `fire`, the exact same
  // fire-point classification) as calling AddPoint per point — the batch
  // kernel is per-row bit-identical — while amortizing dispatch and walking
  // the weight block once per chunk. Allocation-free in steady state.
  void AddSpan(std::span<const geom::TimedPoint> points, FireEvent* fire = nullptr);

  std::size_t points_seen() const { return extractor_.point_count(); }
  bool fired() const { return fired_; }
  // Number of points seen when D fired; 0 when it has not.
  std::size_t fired_at() const { return fired_at_; }

  // The full classifier's verdict on everything seen so far. Allocation-free
  // (classifies through the stream's Workspace).
  classify::Classification ClassifyNow() const;

  // Sets how many ranked alternatives ClassifyNowNBest and AddSpan's
  // FireEvent carry (clamped to classify::kMaxNBest; 0 disables, the
  // default, and keeps the fire path on the plain Classify kernel).
  void SetNBest(std::size_t n) { nbest_depth_ = std::min(n, classify::kMaxNBest); }
  std::size_t nbest_depth() const { return nbest_depth_; }

  // N-best flavor of ClassifyNow: fills up to nbest_depth() entries into
  // `out` and returns the count; `top` (when non-null) receives the winner's
  // Classification, bit-identical to ClassifyNow. Allocation-free.
  std::size_t ClassifyNowNBest(std::span<classify::NBestEntry> out,
                               classify::Classification* top = nullptr) const;

  // Current feature snapshot, written into the stream's Workspace; the view
  // is valid until the next AddPoint/ClassifyNow/FeaturesView/Reset call.
  // Allocation-free.
  linalg::VecView FeaturesView() const;

  // Compatibility shim: copy-returning snapshot (allocates). Prefer
  // FeaturesView on any per-point path.
  linalg::Vector Features() const { return extractor_.Features(); }

  void Reset();

  // Points the stream at a different trained recognizer (hot model swap).
  // Only legal between strokes: all per-stroke state resets, and the
  // workspace re-sizes lazily if the new model's shape differs.
  void Rebind(const EagerRecognizer& recognizer) {
    recognizer_ = &recognizer;
    Reset();
  }

 private:
  const EagerRecognizer* recognizer_;
  features::FeatureExtractor extractor_;
  // Scratch for the zero-allocation kernel. Mutable: ClassifyNow and
  // FeaturesView are logically const reads but reuse the per-stream buffers;
  // safe under the stream's single-thread ownership contract.
  mutable Workspace workspace_;
  bool fired_ = false;
  std::size_t fired_at_ = 0;
  std::size_t nbest_depth_ = 0;
};

}  // namespace grandma::eager

#endif  // GRANDMA_SRC_EAGER_EAGER_RECOGNIZER_H_
