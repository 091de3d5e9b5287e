#include "personalize/user_delta.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "classify/gesture_classifier.h"
#include "classify/linear_classifier.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "obs/trace.h"

namespace grandma::personalize {

UserDelta::UserDelta(UserId user, std::size_t num_classes, std::size_t dimension)
    : user_(user), dimension_(dimension), per_class_(num_classes) {
  if (dimension == 0) {
    throw std::invalid_argument("UserDelta: dimension must be > 0");
  }
}

void UserDelta::AddExample(classify::ClassId c, linalg::VecView masked_features) {
  if (c >= per_class_.size()) {
    throw std::out_of_range("UserDelta::AddExample: class " + std::to_string(c) +
                            " out of range");
  }
  if (masked_features.size() != dimension_) {
    throw std::invalid_argument("UserDelta::AddExample: dimension mismatch");
  }
  if (per_class_[c] == nullptr) {
    per_class_[c] = std::make_unique<linalg::ScatterAccumulator>(dimension_);
  }
  per_class_[c]->Add(masked_features);
  ++examples_;
}

std::size_t UserDelta::adapted_classes() const {
  std::size_t n = 0;
  for (const auto& slot : per_class_) {
    if (slot != nullptr && slot->count() > 0) {
      ++n;
    }
  }
  return n;
}

std::size_t UserDelta::ExampleCount(classify::ClassId c) const {
  if (c >= per_class_.size() || per_class_[c] == nullptr) {
    return 0;
  }
  return per_class_[c]->count();
}

const linalg::ScatterAccumulator* UserDelta::ClassStats(classify::ClassId c) const {
  if (c >= per_class_.size()) {
    return nullptr;
  }
  return per_class_[c].get();
}

void UserDelta::RestoreClassStats(classify::ClassId c, linalg::ScatterAccumulator stats) {
  if (c >= per_class_.size()) {
    throw std::out_of_range("UserDelta::RestoreClassStats: class out of range");
  }
  if (stats.dimension() != dimension_) {
    throw std::invalid_argument("UserDelta::RestoreClassStats: dimension mismatch");
  }
  per_class_[c] = std::make_unique<linalg::ScatterAccumulator>(std::move(stats));
  examples_ = 0;
  for (const auto& slot : per_class_) {
    if (slot != nullptr) {
      examples_ += slot->count();
    }
  }
}

std::size_t UserDelta::ApproxBytes() const {
  const std::size_t d = dimension_;
  // Per adapted class: mean (d doubles) + scatter (d*d doubles) + accumulator
  // and unique_ptr bookkeeping; plus the slot table and the object itself.
  std::size_t bytes = 96 + per_class_.size() * sizeof(void*);
  for (const auto& slot : per_class_) {
    if (slot != nullptr) {
      bytes += 96 + (d + d * d) * sizeof(double);
    }
  }
  return bytes;
}

eager::EagerRecognizer AdaptRecognizer(const eager::EagerRecognizer& base,
                                       const UserDelta& delta, const AdaptOptions& options) {
  TRACE_SPAN("personalize.materialize");
  if (!base.trained()) {
    throw std::invalid_argument("AdaptRecognizer: base recognizer is untrained");
  }
  if (!(options.base_strength > 0.0)) {
    throw std::invalid_argument("AdaptRecognizer: base_strength must be > 0");
  }
  const classify::LinearClassifier& lin = base.full().linear();
  if (delta.num_classes() != lin.num_classes() || delta.dimension() != lin.dimension()) {
    throw std::invalid_argument("AdaptRecognizer: delta shape does not match the base model");
  }

  std::vector<linalg::Vector> weights;
  std::vector<double> biases;
  std::vector<linalg::Vector> means;
  weights.reserve(lin.num_classes());
  biases.reserve(lin.num_classes());
  means.reserve(lin.num_classes());
  for (classify::ClassId c = 0; c < lin.num_classes(); ++c) {
    const linalg::ScatterAccumulator* stats = delta.ClassStats(c);
    if (stats == nullptr || stats->count() == 0) {
      // Untouched class: base parameters, bit-identical.
      weights.push_back(lin.weights(c));
      biases.push_back(lin.bias(c));
      means.push_back(lin.mean(c));
      continue;
    }
    const double k0 = options.base_strength;
    const double n = static_cast<double>(stats->count());
    linalg::Vector mu = (lin.mean(c) * k0 + stats->Mean() * n) / (k0 + n);
    linalg::Vector w = linalg::Multiply(lin.inverse_covariance(), mu);
    biases.push_back(-0.5 * linalg::Dot(w, mu));
    weights.push_back(std::move(w));
    means.push_back(std::move(mu));
  }
  auto linear = classify::LinearClassifier::FromParameters(
      std::move(weights), std::move(biases), std::move(means), lin.inverse_covariance());
  auto full = classify::GestureClassifier::FromParameters(base.full().registry(),
                                                          base.full().mask(), std::move(linear));
  return eager::EagerRecognizer::FromParameters(std::move(full), base.auc(),
                                                base.min_prefix_points());
}

}  // namespace grandma::personalize
