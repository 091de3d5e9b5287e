// Per-stream scratch for the zero-allocation recognition kernel. One
// Workspace belongs to exactly one EagerStream (or other single-threaded
// caller) and is threaded by reference through EagerRecognizer ->
// GestureClassifier/Auc -> LinearClassifier, so the steady-state per-point
// loop performs no heap allocations: the feature snapshot, the masked
// projection, the Mahalanobis difference, and both score buffers all live
// here.
//
// Ownership rules (see docs/PERFORMANCE.md):
//   - the stream that owns the Workspace is the only writer; recognizers
//     never retain a pointer to it beyond a call;
//   - the fixed arrays never allocate; the two score buffers are sized by
//     Prepare() on first use (warm-up) and only ever re-allocate if the
//     recognizer they serve changes shape — steady state is allocation-free;
//   - contents are scratch: every kernel call overwrites them, so nothing
//     here carries state between points.
//
// Thread-safety: none, by design — same single-ownership contract as
// EagerStream.
#ifndef GRANDMA_SRC_EAGER_WORKSPACE_H_
#define GRANDMA_SRC_EAGER_WORKSPACE_H_

#include <array>
#include <cstddef>
#include <vector>

#include "features/feature_vector.h"
#include "linalg/vec_view.h"

namespace grandma::eager {

struct Workspace {
  // Points per batched-evaluation chunk (EagerStream::AddSpan): enough rows
  // for the SIMD evaluator to amortize dispatch and stay in L1, fixed so the
  // blocks below never allocate.
  static constexpr std::size_t kBatchPoints = 16;

  // Raw 13-entry feature snapshot (FeatureExtractor::FeaturesInto target).
  std::array<double, features::kNumFeatures> features{};
  // Mask-projected features; the leading mask().count() entries are live.
  std::array<double, features::kNumFeatures> masked{};
  // Mahalanobis difference scratch (classifier dimension <= kNumFeatures).
  std::array<double, features::kNumFeatures> diff{};
  // Batched-chunk block: row r (kNumFeatures doubles apart) is point r's
  // feature snapshot within the current chunk. The fire check reads it
  // through the mask's column list, unprojected.
  alignas(64) std::array<double, kBatchPoints * features::kNumFeatures> feature_block{};
  // Per-class score buffers: full classifier (C classes) and AUC (up to 2C
  // sets). Sized by Prepare(); steady state never reallocates.
  std::vector<double> full_scores;
  std::vector<double> auc_scores;

  // Ensures the score buffers match the recognizer shape. Cheap when already
  // sized (two integer compares); allocates only on first use or when the
  // shape changed.
  void Prepare(std::size_t num_full_classes, std::size_t num_auc_sets) {
    if (full_scores.size() != num_full_classes) {
      full_scores.resize(num_full_classes);
    }
    if (auc_scores.size() != num_auc_sets) {
      auc_scores.resize(num_auc_sets);
    }
  }

  linalg::MutVecView FeaturesView() { return linalg::ViewOf(features); }
  linalg::MutVecView MaskedView(std::size_t n) { return linalg::ViewOf(masked, n); }
  linalg::MutVecView DiffView(std::size_t n) { return linalg::ViewOf(diff, n); }
  linalg::MutVecView FullScoresView() {
    return linalg::MutVecView(full_scores.data(), full_scores.size());
  }
  linalg::MutVecView AucScoresView() {
    return linalg::MutVecView(auc_scores.data(), auc_scores.size());
  }
  // Feature-snapshot row r of the batched chunk (full kNumFeatures width).
  linalg::MutVecView FeatureRowView(std::size_t r) {
    assert(r < kBatchPoints);
    return linalg::MutVecView(feature_block.data() + r * features::kNumFeatures,
                              features::kNumFeatures);
  }
};

}  // namespace grandma::eager

#endif  // GRANDMA_SRC_EAGER_WORKSPACE_H_
