#include "classify/training_set.h"

#include <stdexcept>

#include "features/extractor.h"

namespace grandma::classify {

ClassId ClassRegistry::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) {
    return it->second;
  }
  const ClassId id = names_.size();
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

ClassId ClassRegistry::Require(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) {
    throw std::out_of_range("ClassRegistry: unknown class name: " + std::string(name));
  }
  return it->second;
}

bool ClassRegistry::Contains(std::string_view name) const {
  return ids_.find(std::string(name)) != ids_.end();
}

const std::string& ClassRegistry::Name(ClassId id) const { return names_.at(id); }

ClassId GestureTrainingSet::Add(std::string_view class_name, geom::Gesture gesture) {
  const ClassId id = registry_.Intern(class_name);
  if (examples_.size() <= id) {
    examples_.resize(id + 1);
  }
  examples_[id].push_back(std::move(gesture));
  return id;
}

std::size_t GestureTrainingSet::total_examples() const {
  std::size_t total = 0;
  for (const auto& per_class : examples_) {
    total += per_class.size();
  }
  return total;
}

void FeatureTrainingSet::Add(ClassId c, linalg::VecView features) {
  if (examples_.size() <= c) {
    examples_.resize(c + 1);
  }
  if (count_ == 0) {
    dim_ = features.size();
  } else if (features.size() != dim_) {
    throw std::invalid_argument("FeatureTrainingSet::Add: inconsistent feature dimension");
  }
  examples_[c].push_back(count_++);
  block_.insert(block_.end(), features.begin(), features.end());
}

TrainingRows FeatureTrainingSet::rows() const {
  TrainingRows out{block_.data(), dim_, {}};
  out.classes.assign(examples_.begin(), examples_.end());
  return out;
}

bool FeatureTrainingSet::EveryClassHasAtLeast(std::size_t n) const {
  for (const auto& per_class : examples_) {
    if (per_class.size() < n) {
      return false;
    }
  }
  return true;
}

FeatureTrainingSet ExtractFeatureSet(const GestureTrainingSet& gestures,
                                     const features::FeatureMask& mask) {
  FeatureTrainingSet out(gestures.num_classes());
  for (ClassId c = 0; c < gestures.num_classes(); ++c) {
    for (const geom::Gesture& g : gestures.ExamplesOf(c)) {
      out.Add(c, mask.Project(features::ExtractFeatures(g)));
    }
  }
  return out;
}

}  // namespace grandma::classify
