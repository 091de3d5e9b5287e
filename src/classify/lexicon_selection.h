// Lexicon selection (Grosek & Kutz, "Selecting a Small Set of Optimal
// Gestures from an Extensive Lexicon"): given a classifier trained on a
// large generated lexicon, find the k-subset of classes that keeps the most
// separable vocabulary. Separation between two classes is the Mahalanobis
// distance between their trained means under the pooled covariance,
// discounted by how often the train set actually confuses them; greedy
// backward elimination repeatedly finds the worst surviving pair and drops
// its more crowded member, reporting every drop and why.
//
// Everything here is deterministic and SIMD-tier-independent: pairwise
// separations use linalg::QuadraticDistances (each bit-identical to
// linalg::QuadraticForm on the mean difference, on every dispatch tier) and
// the confusion matrix comes from Classify, which is bit-identical across
// dispatch tiers — so the same seed and training set produce byte-identical
// reports on any hardware.
#ifndef GRANDMA_SRC_CLASSIFY_LEXICON_SELECTION_H_
#define GRANDMA_SRC_CLASSIFY_LEXICON_SELECTION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "classify/evaluation.h"
#include "classify/gesture_classifier.h"
#include "classify/training_set.h"

namespace grandma::classify {

struct LexiconSelectionOptions {
  // Survivor count k. Clamped to [2, num_classes]; k >= num_classes keeps
  // everything (the report then documents zero drops).
  std::size_t target_classes = 50;
  // Weight of observed confusion in the effective separation
  //   E(c,d) = S(c,d) / (1 + confusion_weight * confusion_rate(c,d)).
  // 0 ranks pairs purely by Mahalanobis distance between means.
  double confusion_weight = 4.0;
  // Pairs whose raw separation falls below this are collisions — duplicate
  // or degenerate classes. They are dropped first and flagged, never fatal.
  double collision_epsilon = 1e-9;
};

// One eliminated class and the evidence that doomed it.
struct DroppedClass {
  ClassId class_id = 0;
  std::string name;
  // The surviving partner of the worst pair this class was dropped from.
  ClassId nearest = 0;
  std::string nearest_name;
  // Mahalanobis^2 between the pair's trained means.
  double separation = 0.0;
  // Symmetric train-set confusion fraction of the pair.
  double confusion_rate = 0.0;
  double effective_separation = 0.0;
  // True when the pair was closer than collision_epsilon (duplicate class).
  bool collision = false;
  // 0 = first class dropped.
  std::size_t drop_order = 0;
};

struct LexiconSelectionReport {
  // Kept class ids, ascending (ids are the classifier's — i.e. positions in
  // the training set's insertion order).
  std::vector<ClassId> selected;
  std::vector<std::string> selected_names;
  // In drop order.
  std::vector<DroppedClass> dropped;
  std::size_t collisions = 0;
  // Train-set accuracy of the full classifier (the confusion matrix the
  // selection ranked pairs with).
  double full_train_accuracy = 0.0;
  // Smallest effective separation among surviving pairs (the bottleneck the
  // pruned lexicon still carries).
  double min_surviving_separation = 0.0;

  std::string ToString() const;
  std::string ToJson() const;
};

// Runs the selection. `classifier` must be trained on `train` (same class
// ids / insertion order); throws std::invalid_argument otherwise.
LexiconSelectionReport SelectLexicon(const GestureClassifier& classifier,
                                     const GestureTrainingSet& train,
                                     const LexiconSelectionOptions& options = {});

// Builds the training subset containing only `keep` (any order; examples are
// copied, names re-interned in `keep` order). Ids in the result are dense
// 0..keep.size()-1.
GestureTrainingSet FilterClasses(const GestureTrainingSet& full,
                                 const std::vector<ClassId>& keep);

}  // namespace grandma::classify

#endif  // GRANDMA_SRC_CLASSIFY_LEXICON_SELECTION_H_
