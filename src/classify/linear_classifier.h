// Rubine's statistical single-stroke classifier (Section 4.2): one linear
// evaluation function per class over the feature vector, trained in closed
// form under a shared-covariance Gaussian model. This is the "full
// classifier" C of the paper, and — trained on subgesture sets — also the
// ambiguous/unambiguous classifier of Section 4.6.
#ifndef GRANDMA_SRC_CLASSIFY_LINEAR_CLASSIFIER_H_
#define GRANDMA_SRC_CLASSIFY_LINEAR_CLASSIFIER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "classify/training_set.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/vec_view.h"
#include "linalg/vector.h"
#include "robust/fault_stats.h"

namespace grandma::classify {

// The outcome of classifying one feature vector.
struct Classification {
  ClassId class_id = 0;
  // Winning evaluation v_c = w_c0 + w_c . f.
  double score = 0.0;
  // Rubine's estimate of P(correct): 1 / sum_j exp(v_j - v_i). Near 1 when
  // the winner dominates, near 1/C when all classes tie.
  double probability = 0.0;
  // Squared Mahalanobis distance from f to the winning class mean; large
  // values flag outliers that belong to no trained class.
  double mahalanobis_squared = 0.0;
};

// One rank of an n-best result: a class, its evaluation v_c, and its
// calibrated probability share exp(v_c - v_top) / sum_j exp(v_j - v_top).
// The shares over ALL classes sum to 1 (Rubine's P(correct) generalized to
// every rank), so clients can read rank gaps as confidence margins.
struct NBestEntry {
  ClassId class_id = 0;
  double score = 0.0;
  double probability = 0.0;
};

// How many ranked alternatives the fixed-size n-best surfaces carry
// (FireEvent, serve::RecognitionResult). EvaluateNBest itself accepts any
// span length.
inline constexpr std::size_t kMaxNBest = 4;

// Linear discriminator with per-class weights and biases.
//
// Training (closed form, optimal under per-class Gaussians with a common
// covariance): per-class mean feature vectors mu_c, pooled covariance Sigma,
// weights w_c = Sigma^-1 mu_c and constant w_c0 = -1/2 mu_c^T Sigma^-1 mu_c.
// A singular Sigma (linearly dependent features in the training data) is
// repaired with escalating ridge terms; see linalg::InvertCovarianceWithRepair.
//
// Thread-safety: const methods (Classify, Mahalanobis*, and the
// *View/*Into kernel flavors) are pure reads with no internal caching and are
// safe to call concurrently from many threads once training has
// happened-before the sharing (the serve layer relies on this); the kernel
// flavors write only into caller-owned scratch, so concurrent callers are
// independent as long as each brings its own buffers. Train and AdjustBias
// mutate and must not race with reads.
class LinearClassifier {
 public:
  LinearClassifier() = default;

  // Trains on `data`. Every class needs at least one example and the total
  // example count must exceed the class count (for the pooled covariance to
  // have positive degrees of freedom); throws std::invalid_argument
  // otherwise. Returns the ridge magnitude used to repair the covariance
  // (0.0 when none was needed).
  //
  // Degradation ladder (counted into `stats` when given): non-finite example
  // vectors are dropped; a singular Sigma is repaired with escalating ridge
  // terms; if even that fails, a diagonal-covariance fallback is used. Only
  // structurally unusable training sets (too few classes/examples) throw.
  // The rows are read in place; the FeatureTrainingSet flavor trains on
  // data.rows().
  double Train(const TrainingRows& data, robust::FaultStats* stats = nullptr);
  double Train(const FeatureTrainingSet& data, robust::FaultStats* stats = nullptr);

  bool trained() const { return !weights_.empty(); }
  std::size_t num_classes() const { return weights_.size(); }
  std::size_t dimension() const { return trained() ? weights_.front().size() : 0; }

  // argmax over the per-class evaluations v_c(f), with probability and
  // Mahalanobis diagnostics.
  // Allocates internal scratch; the hot path uses ClassifyView.
  Classification Classify(const linalg::Vector& f) const;

  // --- Zero-allocation kernel surface -------------------------------------
  // These run over the structure-of-arrays weight block and the flat mean
  // block, writing into caller-owned scratch (see eager::Workspace). Results
  // are bit-identical to the allocating Classify above, which is implemented
  // on top of them.

  // The batched evaluator: scores ALL classes in one pass over the
  // feature-major SoA weight block via the dispatched simd::EvaluateAll
  // kernel. Bit-identical across dispatch tiers and to the classic
  // "bias + Dot(weights_row, f)" per-class loop (see simd.h for why).
  // `scores` must be sized num_classes().
  void EvaluateAllInto(linalg::VecView f, linalg::MutVecView scores) const;

  // Writes v_c(f) for every class into `scores` (size num_classes()).
  // Thin wrapper over EvaluateAllInto, kept for the scalar-view API surface.
  void EvaluateInto(linalg::VecView f, linalg::MutVecView scores) const;

  // argmax over EvaluateInto only — no probability, no Mahalanobis. This is
  // what a per-point doneness test actually needs; `scores` is scratch of
  // size num_classes().
  ClassId BestClassView(linalg::VecView f, linalg::MutVecView scores) const;

  // The first of `batch` rows whose BestClassView winner lands in [0, split)
  // — WITHOUT materializing the scores (no scratch at all). Rows are read
  // through a column list: row r's feature i is rows[r * row_stride +
  // columns[i]] for i < dimension(). Returns `batch` when no row's winner
  // does. For class layouts that keep the interesting subset in a prefix
  // (the AUC's complete-first set order) this replaces the whole evaluate +
  // argmax + membership-test chain; each row's answer is identical to
  // `BestClassView(row, scores) < split` on every dispatch tier, NaN features
  // included (see simd::FirstArgMaxInPrefix), with or without `filter`,
  // which should come from BuildFireFilter(split) on parameters whose scores
  // of [0, split) are no lower and of the rest the same.
  std::size_t FirstWinnerInPrefix(const double* rows, std::size_t batch, std::size_t row_stride,
                                  const std::size_t* columns, std::size_t split,
                                  const linalg::simd::FireFilter* filter = nullptr) const;

  // The single-precision mirror FirstWinnerInPrefix screens rows with (see
  // simd::FireFilter); empty when no kernel would use it. Derived from the
  // current weights and biases, so rebuild it after AdjustBias.
  linalg::simd::FireFilter BuildFireFilter(std::size_t split) const;

  // Full Classification (argmax + probability + Mahalanobis) reusing caller
  // scratch: `scores` sized num_classes(), `diff` sized dimension().
  Classification ClassifyView(linalg::VecView f, linalg::MutVecView scores,
                              linalg::MutVecView diff) const;

  // Top-n classes by evaluation score over one batched EvaluateAllInto pass.
  // Writes min(out.size(), num_classes()) entries into `out`, sorted by
  // descending score with ties broken toward the lower class id — the same
  // strict-> first-max rule as BestClassView, so out[0].class_id and
  // out[0].score are bit-identical to Classify/ClassifyView on the same
  // features, and out[0].probability is bit-identical to
  // Classification::probability (both reduce to 1 / sum_j exp(v_j - v_top)
  // through the same denominator). The ranking is one insertion pass over
  // the scores; a NaN score falls back to repeated first-max scans, which
  // define the result for NaN input. Scores come from the dispatched SoA
  // kernel, so the whole ranking is bit-identical across SIMD tiers.
  // `scores` is caller scratch sized num_classes(); returns the number of
  // entries written. Allocation-free.
  std::size_t EvaluateNBest(linalg::VecView f, linalg::MutVecView scores,
                            std::span<NBestEntry> out) const;

  // Squared Mahalanobis distance with caller scratch (`diff` sized
  // dimension()).
  double MahalanobisSquaredView(linalg::VecView f, ClassId c, linalg::MutVecView diff) const;

  // Squared Mahalanobis distance (f - mu_c)^T Sigma^-1 (f - mu_c).
  double MahalanobisSquared(const linalg::Vector& f, ClassId c) const;

  // Misclassification-cost biasing (Section 4.2): adds `delta` to class c's
  // constant term, making c more (delta > 0) or less (delta < 0) likely.
  void AdjustBias(ClassId c, double delta);

  double bias(ClassId c) const { return biases_.at(c); }
  const linalg::Vector& weights(ClassId c) const { return weights_.at(c); }
  const linalg::Vector& mean(ClassId c) const { return means_.at(c); }
  const linalg::Matrix& inverse_covariance() const { return inverse_covariance_; }

  // Direct constructor from already-computed parameters (used by io::).
  static LinearClassifier FromParameters(std::vector<linalg::Vector> weights,
                                         std::vector<double> biases,
                                         std::vector<linalg::Vector> means,
                                         linalg::Matrix inverse_covariance);

  // Padded row width of the SoA weight block: num_classes() rounded up so
  // each feature row starts 64-byte aligned. Exposed for bench/test
  // introspection.
  std::size_t class_stride() const { return class_stride_; }

 private:
  // Rebuilds the contiguous kernel blocks below from weights_/means_; called
  // whenever the per-class parameters change (Train, FromParameters).
  void RebuildKernelBlocks();

  std::vector<linalg::Vector> weights_;  // w_c, one per class (owning)
  std::vector<double> biases_;           // w_c0
  std::vector<linalg::Vector> means_;    // mu_c (owning)
  linalg::Matrix inverse_covariance_;    // Sigma^-1

  // Classify-time kernel layout. Weights live feature-major
  // (structure-of-arrays): soa_weights_[i * class_stride_ + c] is w_c[i],
  // rows padded with zeros to class_stride_ (a multiple of 8 doubles, so
  // every feature row is 64-byte aligned inside the aligned block) — the
  // batched evaluator reads class-contiguous lanes per feature. Means stay
  // class-major (dimension()-wide rows) for the Mahalanobis diff. Both
  // always mirror weights_/means_.
  linalg::simd::AlignedBuffer soa_weights_;
  std::size_t class_stride_ = 0;
  linalg::simd::AlignedBuffer flat_means_;
};

// Computes Rubine's P(correct) estimate 1 / sum_j exp(v_j - v_winner) given
// all per-class scores and the index of the winner. The sum runs in index
// order and skips only terms that cannot change it, so the result is
// bit-identical to the plain loop. No allocation.
double RecognitionProbability(linalg::VecView scores, ClassId winner);

}  // namespace grandma::classify

#endif  // GRANDMA_SRC_CLASSIFY_LINEAR_CLASSIFIER_H_
