// Running mean / scatter accumulators used to build per-class statistics and
// the pooled ("average") covariance estimate of Rubine's training procedure.
#ifndef GRANDMA_SRC_LINALG_STATS_H_
#define GRANDMA_SRC_LINALG_STATS_H_

#include <cstddef>

#include "linalg/matrix.h"
#include "linalg/vec_view.h"
#include "linalg/vector.h"

namespace grandma::linalg {

// Accumulates a sample mean incrementally.
class MeanAccumulator {
 public:
  explicit MeanAccumulator(std::size_t dimension) : sum_(dimension) {}

  void Add(VecView sample);
  void Add(const Vector& sample) { Add(sample.view()); }

  std::size_t count() const { return count_; }
  std::size_t dimension() const { return sum_.size(); }

  // Mean of the samples added so far; a zero vector when count() == 0.
  Vector Mean() const;

 private:
  Vector sum_;
  std::size_t count_ = 0;
};

// Accumulates a scatter matrix sum_e (x_e - mean)(x_e - mean)^T using
// Welford-style updates, so samples stream in one pass.
class ScatterAccumulator {
 public:
  explicit ScatterAccumulator(std::size_t dimension)
      : mean_(dimension), scatter_(dimension, dimension), delta_(dimension), delta2_(dimension) {}

  // One Welford step. Allocation-free: the deviations go into the
  // accumulator's own scratch, and each upper-triangle term is added to both
  // (i, j) and (j, i) — the same bits the full-matrix loop adds to each,
  // since the term's two products are summed in commutative IEEE addition.
  void Add(VecView sample);
  void Add(const Vector& sample) { Add(sample.view()); }

  // Reconstructs an accumulator from persisted moments — the exact inverse
  // of Mean()/Scatter()/count(). Because the Welford recursion only reads
  // (mean, scatter, count), adding further samples to the reconstructed
  // instance continues bit-identically to the original, which is what makes
  // user-delta snapshot rehydration deterministic. `scatter` must be square
  // with side mean.size() (throws std::invalid_argument otherwise).
  static ScatterAccumulator FromMoments(Vector mean, Matrix scatter, std::size_t count);

  std::size_t count() const { return count_; }
  std::size_t dimension() const { return mean_.size(); }

  Vector Mean() const { return mean_; }

  // The raw scatter matrix (sum of outer products of deviations).
  const Matrix& Scatter() const { return scatter_; }

  // Sample covariance Scatter()/(count-1); throws when count() < 2.
  Matrix SampleCovariance() const;

 private:
  Vector mean_;
  Matrix scatter_;
  std::size_t count_ = 0;
  // Add's scratch: sample - mean before and after the mean update.
  Vector delta_;
  Vector delta2_;
};

// Rubine's pooled covariance: the scatter matrices of all classes summed and
// divided by (total_examples - num_classes). This estimates the common
// within-class covariance the linear discriminant assumes.
class PooledCovariance {
 public:
  explicit PooledCovariance(std::size_t dimension)
      : dimension_(dimension), scatter_sum_(dimension, dimension) {}

  // Folds in one class's scatter.
  void AddClass(const ScatterAccumulator& class_scatter);

  std::size_t num_classes() const { return num_classes_; }
  std::size_t total_examples() const { return total_examples_; }

  // The pooled estimate; throws when total_examples() <= num_classes().
  Matrix Estimate() const;

 private:
  std::size_t dimension_;
  Matrix scatter_sum_;
  std::size_t num_classes_ = 0;
  std::size_t total_examples_ = 0;
};

}  // namespace grandma::linalg

#endif  // GRANDMA_SRC_LINALG_STATS_H_
