#include "eager/subgesture_labeler.h"

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

  const std::size_t min_prefix = std::max<std::size_t>(options.min_prefix_points, 1);
  // Score and full-feature scratch for the prefix verdicts, reused across
  // every prefix; each prefix's masked features are written straight into
  // its subgesture's own vector.
  std::vector<double> scores(full.linear().num_classes());
  const linalg::MutVecView scores_view(scores.data(), scores.size());
  std::array<double, features::kNumFeatures> unmasked{};
  const std::size_t masked_dim = full.mask().count();

  for (classify::ClassId c = 0; c < training.num_classes(); ++c) {
    for (const geom::Gesture& g : training.ExamplesOf(c)) {
      if (g.size() < min_prefix) {
        continue;
      }
      GestureSubgestures per_gesture;
      per_gesture.true_class = c;

      // Incremental pass: one feature snapshot per prefix, O(|g|) total.
      features::FeatureExtractor fx;
      std::vector<LabeledSubgesture> subs;
      subs.reserve(g.size() - (min_prefix - 1));
      for (std::size_t i = 0; i < g.size(); ++i) {
        fx.AddPoint(g[i]);
        const std::size_t len = i + 1;
        if (len < min_prefix) {
          continue;
        }
        LabeledSubgesture sub;
        fx.FeaturesInto(linalg::MutVecView(unmasked.data(), unmasked.size()));
        sub.features = linalg::Vector(masked_dim);
        full.mask().ProjectInto(linalg::VecView(unmasked.data(), unmasked.size()),
                                sub.features.view());
        sub.prefix_len = len;
        sub.gesture_len = g.size();
        sub.true_class = c;
        sub.predicted_class = full.linear().BestClassView(sub.features.view(), scores_view);
        subs.push_back(std::move(sub));
      }

      // Completeness: a suffix scan — complete iff this prefix and every
      // larger one classify to the true class.
      bool all_larger_correct = true;
      for (std::size_t k = subs.size(); k-- > 0;) {
        all_larger_correct = all_larger_correct && subs[k].predicted_class == c;
        subs[k].complete = all_larger_correct;
      }

      per_gesture.subgestures = std::move(subs);
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
      if (sub.EffectivelyComplete()) {
        partition.complete_sets[sub.EffectiveSet()].push_back(sub);
      } else {
        partition.incomplete_sets[sub.EffectiveSet()].push_back(sub);
      }
    }
  }
}

}  // namespace grandma::eager
