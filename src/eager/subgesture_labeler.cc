#include "eager/subgesture_labeler.h"

#include <algorithm>
#include <array>
#include <vector>

#include "features/extractor.h"
#include "linalg/vec_view.h"

namespace grandma::eager {

std::size_t SubgesturePartition::total_complete() const {
  std::size_t n = 0;
  for (const auto& s : complete_sets) {
    n += s.size();
  }
  return n;
}

std::size_t SubgesturePartition::total_incomplete() const {
  std::size_t n = 0;
  for (const auto& s : incomplete_sets) {
    n += s.size();
  }
  return n;
}

SubgesturePartition LabelSubgestures(const classify::GestureClassifier& full,
                                     const classify::GestureTrainingSet& training,
                                     const LabelerOptions& options) {
  const std::size_t num_classes = full.num_classes();
  SubgesturePartition partition;
  partition.complete_sets.resize(num_classes);
  partition.incomplete_sets.resize(num_classes);
  partition.dim = full.mask().count();

  const std::size_t min_prefix = std::max<std::size_t>(options.min_prefix_points, 1);
  // The feature block is sized once: one row per prefix of at least
  // min_prefix points.
  std::size_t total_rows = 0;
  for (classify::ClassId c = 0; c < training.num_classes(); ++c) {
    for (const geom::Gesture& g : training.ExamplesOf(c)) {
      total_rows += g.size() < min_prefix ? 0 : g.size() - (min_prefix - 1);
    }
  }
  partition.features.resize(total_rows * partition.dim);
  // Score and full-feature scratch for the prefix verdicts, reused across
  // every prefix; each prefix's masked features are written straight into
  // its row of the block.
  std::vector<double> scores(full.linear().num_classes());
  const linalg::MutVecView scores_view(scores.data(), scores.size());
  std::array<double, features::kNumFeatures> unmasked{};
  std::size_t next_row = 0;

  for (classify::ClassId c = 0; c < training.num_classes(); ++c) {
    for (const geom::Gesture& g : training.ExamplesOf(c)) {
      if (g.size() < min_prefix) {
        continue;
      }
      GestureSubgestures per_gesture;
      per_gesture.true_class = c;

      // Incremental pass: one feature snapshot per prefix, O(|g|) total.
      features::FeatureExtractor fx;
      std::vector<LabeledSubgesture>& subs = per_gesture.subgestures;
      subs.reserve(g.size() - (min_prefix - 1));
      for (std::size_t i = 0; i < g.size(); ++i) {
        fx.AddPoint(g[i]);
        const std::size_t len = i + 1;
        if (len < min_prefix) {
          continue;
        }
        LabeledSubgesture sub;
        sub.row = next_row++;
        const linalg::MutVecView row(partition.features.data() + sub.row * partition.dim,
                                     partition.dim);
        fx.FeaturesInto(linalg::MutVecView(unmasked.data(), unmasked.size()));
        full.mask().ProjectInto(linalg::VecView(unmasked.data(), unmasked.size()), row);
        sub.prefix_len = len;
        sub.gesture_len = g.size();
        sub.true_class = c;
        sub.predicted_class = full.linear().BestClassView(row, scores_view);
        subs.push_back(sub);
      }

      // Completeness: a suffix scan — complete iff this prefix and every
      // larger one classify to the true class.
      bool all_larger_correct = true;
      for (std::size_t k = subs.size(); k-- > 0;) {
        all_larger_correct = all_larger_correct && subs[k].predicted_class == c;
        subs[k].complete = all_larger_correct;
      }

      partition.per_gesture.push_back(std::move(per_gesture));
    }
  }
  RebuildSets(partition);
  return partition;
}

void RebuildSets(SubgesturePartition& partition) {
  for (auto& s : partition.complete_sets) {
    s.clear();
  }
  for (auto& s : partition.incomplete_sets) {
    s.clear();
  }
  for (const GestureSubgestures& gesture : partition.per_gesture) {
    for (const LabeledSubgesture& sub : gesture.subgestures) {
      auto& sets = sub.EffectivelyComplete() ? partition.complete_sets : partition.incomplete_sets;
      sets[sub.EffectiveSet()].push_back(sub.row);
    }
  }
}

}  // namespace grandma::eager
