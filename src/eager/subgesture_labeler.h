// Section 4.4: enumerate the subgestures of every training example, label
// each complete or incomplete with respect to the trained full classifier,
// and partition them into the 2C sets (C-c complete, I-c incomplete) the
// ambiguous/unambiguous classifier is trained on.
#ifndef GRANDMA_SRC_EAGER_SUBGESTURE_LABELER_H_
#define GRANDMA_SRC_EAGER_SUBGESTURE_LABELER_H_

#include <cstddef>
#include <vector>

#include "classify/gesture_classifier.h"
#include "classify/training_set.h"
#include "linalg/vec_view.h"

namespace grandma::eager {

// One labeled subgesture g[i].
struct LabeledSubgesture {
  // Row of SubgesturePartition::features holding the prefix's masked
  // feature vector (same feature space as the full classifier trains in).
  std::size_t row = 0;
  // Prefix length i (number of points).
  std::size_t prefix_len = 0;
  // Length of the gesture this prefix came from.
  std::size_t gesture_len = 0;
  // Class of the full example gesture.
  classify::ClassId true_class = 0;
  // The full classifier's verdict on this prefix, C(g[i]).
  classify::ClassId predicted_class = 0;
  // Complete: C(g[j]) == true_class for every j >= i (Section 4.4).
  bool complete = false;
  // When the accidental-complete mover (Section 4.5) reassigns this
  // subgesture, the index of the incomplete set it was moved into; -1 when
  // never moved. A moved subgesture is treated as incomplete from then on.
  int moved_to_incomplete = -1;

  // Set the subgesture currently belongs to.
  bool EffectivelyComplete() const { return complete && moved_to_incomplete < 0; }
  classify::ClassId EffectiveSet() const {
    return moved_to_incomplete >= 0 ? static_cast<classify::ClassId>(moved_to_incomplete)
                                    : predicted_class;
  }
};

// All subgestures of one training example, ordered by prefix length.
struct GestureSubgestures {
  classify::ClassId true_class = 0;
  std::vector<LabeledSubgesture> subgestures;
};

// The 2C-set partition. Set indices equal class ids of the *full* classifier;
// the class in a set's name refers to the full classifier's classification of
// its elements (so incomplete right-strokes of a D gesture land in I-<c>
// where c is whatever class those strokes look like).
struct SubgesturePartition {
  // Masked features of every subgesture, one `dim`-wide row each, in
  // enumeration order; LabeledSubgesture::row names a subgesture's row.
  std::size_t dim = 0;
  std::vector<double> features;
  // complete_sets[c] lists the rows of subgestures the full classifier
  // labels c that are complete; incomplete_sets[c] those labeled c that are
  // incomplete. Rows appear in per_gesture order.
  std::vector<std::vector<std::size_t>> complete_sets;
  std::vector<std::vector<std::size_t>> incomplete_sets;
  // Per-example enumeration in original order (used by the accidental-
  // complete mover, which walks each gesture's prefixes largest-to-smallest).
  std::vector<GestureSubgestures> per_gesture;

  linalg::VecView Row(std::size_t r) const {
    return linalg::VecView(features.data() + r * dim, dim);
  }
  std::size_t num_classes() const { return complete_sets.size(); }
  std::size_t total_complete() const;
  std::size_t total_incomplete() const;
};

// Options for subgesture enumeration.
struct LabelerOptions {
  // Shortest prefix (in points) considered; below this the feature vector is
  // too degenerate to act on. 3 matches features::FeatureExtractor::kMinPoints.
  std::size_t min_prefix_points = 3;
};

// Runs the full classifier over every prefix of every training gesture and
// builds the partition. `full` must already be trained on `training`.
SubgesturePartition LabelSubgestures(const classify::GestureClassifier& full,
                                     const classify::GestureTrainingSet& training,
                                     const LabelerOptions& options = {});

// Recomputes complete_sets/incomplete_sets from per_gesture (the source of
// truth) after completeness flags or move targets change. Only row indices
// move; the feature block is untouched.
void RebuildSets(SubgesturePartition& partition);

}  // namespace grandma::eager

#endif  // GRANDMA_SRC_EAGER_SUBGESTURE_LABELER_H_
