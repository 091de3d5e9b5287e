// Labeled example containers for classifier training: a name<->id registry,
// a gesture-level training set (what applications collect), and a
// feature-level training set (what the trainers consume; the eager trainer
// also builds these directly from subgesture feature vectors).
#ifndef GRANDMA_SRC_CLASSIFY_TRAINING_SET_H_
#define GRANDMA_SRC_CLASSIFY_TRAINING_SET_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "features/feature_vector.h"
#include "geom/gesture.h"
#include "linalg/vec_view.h"
#include "linalg/vector.h"

namespace grandma::classify {

// Class id: dense index 0..C-1 as the paper's c subscript.
using ClassId = std::size_t;

// Bidirectional mapping between class names and dense ids.
class ClassRegistry {
 public:
  // Returns the id of `name`, interning it if new.
  ClassId Intern(std::string_view name);

  // Id lookup without interning; throws std::out_of_range when absent.
  ClassId Require(std::string_view name) const;
  bool Contains(std::string_view name) const;

  const std::string& Name(ClassId id) const;
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, ClassId> ids_;
};

// Gestures grouped by class — the g_ce of Section 4.2.
class GestureTrainingSet {
 public:
  ClassId Add(std::string_view class_name, geom::Gesture gesture);

  std::size_t num_classes() const { return registry_.size(); }
  // Total number of examples across classes.
  std::size_t total_examples() const;

  const std::vector<geom::Gesture>& ExamplesOf(ClassId c) const { return examples_.at(c); }
  const std::string& ClassName(ClassId c) const { return registry_.Name(c); }
  const ClassRegistry& registry() const { return registry_; }

 private:
  ClassRegistry registry_;
  std::vector<std::vector<geom::Gesture>> examples_;
};

// Training examples read in place, grouped by class: class c's examples are
// the rows listed in classes[c], row r being the `dim` doubles at
// block + r * dim. What LinearClassifier::Train consumes; FeatureTrainingSet
// and the eager trainer's subgesture partition both lend their storage
// this way, so no example is copied on the way in.
struct TrainingRows {
  const double* block = nullptr;
  std::size_t dim = 0;
  std::vector<std::span<const std::size_t>> classes;

  linalg::VecView Row(std::size_t r) const { return linalg::VecView(block + r * dim, dim); }
};

// Feature vectors grouped by class; all vectors must share one dimension.
// The vectors live in one row-major block, in insertion order.
class FeatureTrainingSet {
 public:
  FeatureTrainingSet() = default;
  explicit FeatureTrainingSet(std::size_t num_classes) : examples_(num_classes) {}

  // Grows the class list to at least c+1 classes and appends the example.
  void Add(ClassId c, linalg::VecView features);
  void Add(ClassId c, const linalg::Vector& features) { Add(c, features.view()); }

  std::size_t num_classes() const { return examples_.size(); }
  std::size_t total_examples() const { return count_; }
  // Dimension of the feature vectors; 0 when empty.
  std::size_t dimension() const { return dim_; }

  // Block rows of class c's examples, in insertion order.
  const std::vector<std::size_t>& ExamplesOf(ClassId c) const { return examples_.at(c); }
  // A view of the whole set; valid while the set is alive and unchanged.
  TrainingRows rows() const;

  // True when every class has at least `n` examples.
  bool EveryClassHasAtLeast(std::size_t n) const;

 private:
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
  std::vector<double> block_;
  std::vector<std::vector<std::size_t>> examples_;
};

// Extracts (masked) features of every gesture in `gestures`, preserving the
// class grouping.
FeatureTrainingSet ExtractFeatureSet(const GestureTrainingSet& gestures,
                                     const features::FeatureMask& mask);

}  // namespace grandma::classify

#endif  // GRANDMA_SRC_CLASSIFY_TRAINING_SET_H_
