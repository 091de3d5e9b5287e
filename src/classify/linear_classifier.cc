#include "classify/linear_classifier.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "linalg/simd.h"
#include "linalg/solve.h"
#include "linalg/stats.h"
#include "obs/trace.h"

namespace grandma::classify {

namespace {

bool AllFinite(linalg::VecView v) {
  for (double x : v) {
    if (!std::isfinite(x)) {
      return false;
    }
  }
  return true;
}

// Last-resort covariance inverse when even ridge repair fails (a non-finite
// or hopelessly scaled Sigma): an independent-features model built from the
// diagonal, with a variance floor. Always finite, always invertible, and a
// reasonable classifier — per-feature whitening instead of full Mahalanobis.
linalg::Matrix DiagonalFallbackInverse(const linalg::Matrix& sigma, double* floor_used) {
  double max_var = 0.0;
  for (std::size_t i = 0; i < sigma.rows(); ++i) {
    const double v = sigma(i, i);
    if (std::isfinite(v) && v > max_var) {
      max_var = v;
    }
  }
  const double floor = std::max(max_var, 1.0) * 1e-8;
  if (floor_used != nullptr) {
    *floor_used = floor;
  }
  linalg::Matrix inv(sigma.rows(), sigma.cols());
  for (std::size_t i = 0; i < sigma.rows(); ++i) {
    const double v = sigma(i, i);
    inv(i, i) = 1.0 / (std::isfinite(v) && v > floor ? v : floor);
  }
  return inv;
}

// A bound such that, for every x below it, adding exp(x) to the running sum
// `d` (>= 0) leaves d unchanged. With E the biased exponent field of a
// finite d, ulp(d) is 2^(E - 1075), and under round-to-nearest d + t == d
// whenever 0 <= t < ulp(d) / 2 = 2^(E - 1076). Below the returned bound the
// true exp(x) is under 2^(E - 1077), half of that; the factor 2 covers
// exp's error (assumed within 1 ulp, as libm's is) and the rounding of the
// bound itself. E is 0 for zero and subnormal d, where the bound is -746.5
// and exp is exactly 0. An Inf or NaN d keeps its value whatever is added.
double SkipBelow(double d) {
  const auto biased_exponent =
      static_cast<std::int64_t>((std::bit_cast<std::uint64_t>(d) >> 52) & 0x7FF);
  return static_cast<double>(biased_exponent - 1077) * std::numbers::ln2;
}

// Rubine's softmax denominator sum_j exp(v_j - v_top), summed in index order
// like the plain loop, and bit-identical to it: a term is skipped only when
// it provably cannot change the running sum (see SkipBelow). About 13 of 200
// lexicon terms and 4 of 11 GDP terms survive. A NaN x compares false and is
// never skipped, so NaN still propagates.
double SoftmaxDenominator(linalg::VecView scores, double v_top) {
  double denom = 0.0;
  double skip_below = SkipBelow(denom);
  for (double v_j : scores) {
    const double x = v_j - v_top;
    if (x < skip_below) {
      continue;
    }
    denom += std::exp(x);
    skip_below = SkipBelow(denom);
  }
  return denom;
}

// Ranks the top out.size() classes in one insertion pass under the order
// (score descending, class id ascending): a class enters when it beats the
// last entry, and shifts down only entries with a strictly lower score, so a
// later id never displaces an equal score. out[0] is the strict-> first max.
// Returns false, with `out` partly written, at the first NaN score (NaN is
// outside that order); the caller then runs the reference scans.
bool RankInOnePass(linalg::VecView scores, std::span<NBestEntry> out) {
  const std::size_t n = out.size();
  std::size_t filled = 0;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    const double s = scores[c];
    if (filled == n && s <= out[n - 1].score) {
      continue;
    }
    if (std::isnan(s)) {
      return false;
    }
    std::size_t k = filled < n ? filled++ : n - 1;
    for (; k > 0 && out[k - 1].score < s; --k) {
      out[k] = out[k - 1];
    }
    out[k].class_id = c;
    out[k].score = s;
  }
  return true;
}

}  // namespace

double LinearClassifier::Train(const FeatureTrainingSet& data, robust::FaultStats* stats) {
  return Train(data.rows(), stats);
}

double LinearClassifier::Train(const TrainingRows& data, robust::FaultStats* stats) {
  TRACE_SPAN("classify.train");
  const std::size_t num_classes = data.classes.size();
  if (num_classes < 2) {
    throw std::invalid_argument("LinearClassifier::Train needs at least two classes");
  }
  std::size_t total_examples = 0;
  for (const std::span<const std::size_t> rows : data.classes) {
    total_examples += rows.size();
  }
  const std::size_t dim = data.dim;
  if (dim == 0 || total_examples == 0) {
    throw std::invalid_argument("LinearClassifier::Train: empty training data");
  }
  if (total_examples <= num_classes) {
    throw std::invalid_argument(
        "LinearClassifier::Train: need more examples than classes for the pooled covariance");
  }

  std::vector<linalg::Vector> means;
  means.reserve(num_classes);
  linalg::PooledCovariance pooled(dim);
  std::size_t finite_examples = 0;
  for (ClassId c = 0; c < num_classes; ++c) {
    if (data.classes[c].empty()) {
      throw std::invalid_argument("LinearClassifier::Train: class " + std::to_string(c) +
                                  " has no examples");
    }
    linalg::ScatterAccumulator scatter(dim);
    for (const std::size_t r : data.classes[c]) {
      const linalg::VecView f = data.Row(r);
      // A non-finite example would poison the mean and covariance of its
      // whole class; drop it and account for the drop instead.
      if (!AllFinite(f)) {
        if (stats != nullptr) {
          ++stats->training_examples_dropped;
        }
        continue;
      }
      scatter.Add(f);
      ++finite_examples;
    }
    if (scatter.count() == 0) {
      throw std::invalid_argument("LinearClassifier::Train: class " + std::to_string(c) +
                                  " has no finite examples");
    }
    means.push_back(scatter.Mean());
    pooled.AddClass(scatter);
  }
  if (finite_examples <= num_classes) {
    throw std::invalid_argument(
        "LinearClassifier::Train: need more finite examples than classes");
  }

  const linalg::Matrix sigma = pooled.Estimate();
  double ridge_used = 0.0;
  auto inverse = linalg::InvertCovarianceWithRepair(sigma, /*initial_ridge=*/1e-8,
                                                    /*max_ridge=*/1e6, &ridge_used);
  if (stats != nullptr && inverse.has_value() && ridge_used > 0.0) {
    ++stats->covariance_ridge_repairs;
  }
  if (!inverse.has_value()) {
    // Even escalating ridge could not produce an invertible matrix — degrade
    // to a diagonal model rather than failing the whole trainer.
    inverse = DiagonalFallbackInverse(sigma, &ridge_used);
    if (stats != nullptr) {
      ++stats->covariance_diagonal_fallbacks;
    }
  }

  weights_.clear();
  biases_.clear();
  means_ = std::move(means);
  inverse_covariance_ = std::move(*inverse);
  weights_.reserve(num_classes);
  biases_.reserve(num_classes);
  for (ClassId c = 0; c < num_classes; ++c) {
    linalg::Vector w = linalg::Multiply(inverse_covariance_, means_[c]);
    const double bias = -0.5 * linalg::Dot(w, means_[c]);
    weights_.push_back(std::move(w));
    biases_.push_back(bias);
  }
  RebuildKernelBlocks();
  return ridge_used;
}

namespace {

// Rows of the SoA weight block start 64-byte aligned when the row width is a
// multiple of 8 doubles.
std::size_t RoundUpToAlignedLanes(std::size_t n) {
  constexpr std::size_t kLanes = linalg::simd::kBlockAlignment / sizeof(double);
  return (n + kLanes - 1) / kLanes * kLanes;
}

}  // namespace

void LinearClassifier::RebuildKernelBlocks() {
  const std::size_t dim = dimension();
  class_stride_ = RoundUpToAlignedLanes(weights_.size());
  soa_weights_.assign(dim * class_stride_, 0.0);
  flat_means_.assign(means_.size() * dim, 0.0);
  for (std::size_t c = 0; c < weights_.size(); ++c) {
    for (std::size_t i = 0; i < dim; ++i) {
      soa_weights_[i * class_stride_ + c] = weights_[c][i];
      flat_means_[c * dim + i] = means_[c][i];
    }
  }
}

void LinearClassifier::EvaluateAllInto(linalg::VecView f, linalg::MutVecView scores) const {
  if (!trained()) {
    throw std::logic_error("LinearClassifier::Evaluate before Train");
  }
  const std::size_t dim = dimension();
  if (f.size() != dim) {
    throw std::invalid_argument("LinearClassifier::Evaluate: dimension mismatch");
  }
  if (scores.size() != num_classes()) {
    throw std::invalid_argument("LinearClassifier::EvaluateInto: bad scores size");
  }
  linalg::simd::EvaluateAll(soa_weights_.data(), class_stride_, biases_.data(), f.data(),
                            dim, scores.data(), num_classes());
}

void LinearClassifier::EvaluateInto(linalg::VecView f, linalg::MutVecView scores) const {
  EvaluateAllInto(f, scores);
}

ClassId LinearClassifier::BestClassView(linalg::VecView f, linalg::MutVecView scores) const {
  EvaluateInto(f, scores);
  // Dispatched first-max scan: first index wins ties on every tier.
  return static_cast<ClassId>(linalg::simd::ArgMax(scores.data(), scores.size()));
}

std::size_t LinearClassifier::FirstWinnerInPrefix(const double* rows, std::size_t batch,
                                                  std::size_t row_stride,
                                                  const std::size_t* columns,
                                                  std::size_t split,
                                                  const linalg::simd::FireFilter* filter) const {
  assert(trained());
  return linalg::simd::FirstArgMaxInPrefix(soa_weights_.data(), class_stride_, biases_.data(),
                                           rows, batch, row_stride, columns, dimension(), split,
                                           num_classes(), filter);
}

linalg::simd::FireFilter LinearClassifier::BuildFireFilter(std::size_t split) const {
  assert(trained());
  return linalg::simd::FireFilter::Build(soa_weights_.data(), class_stride_, biases_.data(),
                                         dimension(), split, num_classes());
}

Classification LinearClassifier::ClassifyView(linalg::VecView f, linalg::MutVecView scores,
                                              linalg::MutVecView diff) const {
  TRACE_SPAN_FINE("classify.view");
  const ClassId best = BestClassView(f, scores);
  Classification result;
  result.class_id = best;
  result.score = scores[best];
  result.probability = RecognitionProbability(linalg::VecView(scores), best);
  result.mahalanobis_squared = MahalanobisSquaredView(f, best, diff);
  return result;
}

std::size_t LinearClassifier::EvaluateNBest(linalg::VecView f, linalg::MutVecView scores,
                                            std::span<NBestEntry> out) const {
  TRACE_SPAN_FINE("classify.nbest");
  EvaluateAllInto(f, scores);
  const std::size_t n = std::min(out.size(), scores.size());
  if (n == 0) {
    return 0;
  }
  if (!RankInOnePass(scores, out.first(n))) {
    // A NaN score: repeated first-max scans under the total order (score
    // desc, class id asc), the reference semantics for NaN input: rank k is
    // the maximum among classes strictly after rank k-1 in that order.
    // O(n * C) with n small, no allocation, deterministic — and rank 0 is
    // exactly BestClassView's strict-> argmax.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    double prev_score = 0.0;
    std::size_t prev_id = kNone;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t best = kNone;
      for (std::size_t c = 0; c < scores.size(); ++c) {
        if (prev_id != kNone &&
            (scores[c] > prev_score || (scores[c] == prev_score && c <= prev_id))) {
          continue;  // already ranked (or would rank earlier than) rank k-1
        }
        if (best == kNone || scores[c] > scores[best]) {
          best = c;
        }
      }
      if (best == kNone) {
        return k;  // fewer distinct candidates than requested (NaN scores)
      }
      out[k].class_id = best;
      out[k].score = scores[best];
      prev_score = scores[best];
      prev_id = best;
    }
  }
  // Calibrate probabilities against ALL classes with the winner as the
  // softmax anchor — the same denominator as RecognitionProbability, so
  // rank 0's share (exp(0) / denom == 1 / denom) is bit-identical to
  // Classification::probability.
  const double v_top = out[0].score;
  const double denom = SoftmaxDenominator(scores, v_top);
  for (std::size_t k = 0; k < n; ++k) {
    out[k].probability = std::exp(out[k].score - v_top) / denom;
  }
  return n;
}

Classification LinearClassifier::Classify(const linalg::Vector& f) const {
  std::vector<double> scores(num_classes());
  std::vector<double> diff(dimension());
  return ClassifyView(f.view(), linalg::MutVecView(scores.data(), scores.size()),
                      linalg::MutVecView(diff.data(), diff.size()));
}

double LinearClassifier::MahalanobisSquaredView(linalg::VecView f, ClassId c,
                                                linalg::MutVecView diff) const {
  if (!trained()) {
    throw std::logic_error("LinearClassifier::MahalanobisSquaredView before Train");
  }
  const std::size_t dim = dimension();
  if (c >= num_classes()) {
    throw std::out_of_range("LinearClassifier::MahalanobisSquaredView: bad class");
  }
  if (f.size() != dim || diff.size() != dim) {
    throw std::invalid_argument("LinearClassifier::MahalanobisSquaredView: bad sizes");
  }
  linalg::Subtract(f, linalg::VecView(flat_means_.data() + c * dim, dim), diff);
  return linalg::simd::QuadraticForm(linalg::VecView(diff), inverse_covariance_.data(),
                                     linalg::VecView(diff));
}

double LinearClassifier::MahalanobisSquared(const linalg::Vector& f, ClassId c) const {
  // Delegates to the view kernel so the allocating and view flavors stay
  // bit-identical under SIMD dispatch.
  std::vector<double> diff(dimension());
  return MahalanobisSquaredView(f.view(), c, linalg::MutVecView(diff.data(), diff.size()));
}

void LinearClassifier::AdjustBias(ClassId c, double delta) { biases_.at(c) += delta; }

LinearClassifier LinearClassifier::FromParameters(std::vector<linalg::Vector> weights,
                                                  std::vector<double> biases,
                                                  std::vector<linalg::Vector> means,
                                                  linalg::Matrix inverse_covariance) {
  if (weights.size() != biases.size() || weights.size() != means.size()) {
    throw std::invalid_argument("LinearClassifier::FromParameters: inconsistent sizes");
  }
  LinearClassifier out;
  out.weights_ = std::move(weights);
  out.biases_ = std::move(biases);
  out.means_ = std::move(means);
  out.inverse_covariance_ = std::move(inverse_covariance);
  out.RebuildKernelBlocks();
  return out;
}

double RecognitionProbability(linalg::VecView scores, ClassId winner) {
  assert(winner < scores.size());
  return 1.0 / SoftmaxDenominator(scores, scores[winner]);
}

}  // namespace grandma::classify
