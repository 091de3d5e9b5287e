#include "linalg/stats.h"

#include <stdexcept>
#include <utility>

namespace grandma::linalg {

void MeanAccumulator::Add(VecView sample) {
  if (sample.size() != sum_.size()) {
    throw std::invalid_argument("MeanAccumulator::Add: dimension mismatch");
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sum_[i] += sample[i];
  }
  ++count_;
}

Vector MeanAccumulator::Mean() const {
  if (count_ == 0) {
    return Vector(sum_.size());
  }
  return sum_ / static_cast<double>(count_);
}

void ScatterAccumulator::Add(VecView sample) {
  const std::size_t n = mean_.size();
  if (sample.size() != n) {
    throw std::invalid_argument("ScatterAccumulator::Add: dimension mismatch");
  }
  ++count_;
  const double count = static_cast<double>(count_);
  for (std::size_t i = 0; i < n; ++i) {
    delta_[i] = sample[i] - mean_[i];
    mean_[i] += delta_[i] / count;
    delta2_[i] = sample[i] - mean_[i];
  }
  // scatter += delta * delta2^T, symmetrized to keep floating-point noise
  // out of Cholesky: term (i, j) is 0.5 * (delta_i delta2_j + delta_j
  // delta2_i), whose bits equal term (j, i)'s, so each term is computed once
  // and added to both mirror entries.
  double* scatter = scatter_.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double t = 0.5 * (delta_[i] * delta2_[j] + delta_[j] * delta2_[i]);
      scatter[i * n + j] += t;
      if (j != i) {
        scatter[j * n + i] += t;
      }
    }
  }
}

ScatterAccumulator ScatterAccumulator::FromMoments(Vector mean, Matrix scatter,
                                                   std::size_t count) {
  if (scatter.rows() != mean.size() || scatter.cols() != mean.size()) {
    throw std::invalid_argument("ScatterAccumulator::FromMoments: shape mismatch");
  }
  ScatterAccumulator out(mean.size());
  out.mean_ = std::move(mean);
  out.scatter_ = std::move(scatter);
  out.count_ = count;
  return out;
}

Matrix ScatterAccumulator::SampleCovariance() const {
  if (count_ < 2) {
    throw std::logic_error("ScatterAccumulator::SampleCovariance needs >= 2 samples");
  }
  return scatter_ * (1.0 / static_cast<double>(count_ - 1));
}

void PooledCovariance::AddClass(const ScatterAccumulator& class_scatter) {
  if (class_scatter.dimension() != dimension_) {
    throw std::invalid_argument("PooledCovariance::AddClass: dimension mismatch");
  }
  scatter_sum_ += class_scatter.Scatter();
  ++num_classes_;
  total_examples_ += class_scatter.count();
}

Matrix PooledCovariance::Estimate() const {
  if (total_examples_ <= num_classes_) {
    throw std::logic_error(
        "PooledCovariance::Estimate needs more examples than classes "
        "(each class must contribute at least one degree of freedom)");
  }
  const double dof = static_cast<double>(total_examples_ - num_classes_);
  return scatter_sum_ * (1.0 / dof);
}

}  // namespace grandma::linalg
