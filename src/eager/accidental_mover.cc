#include "eager/accidental_mover.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/matrix.h"
#include "linalg/stats.h"

namespace grandma::eager {

namespace {

// The non-empty incomplete-set means as one linalg::FeatureMajorBlock, in
// set order, with the set index of each, so one QuadraticDistances call
// measures a point against all of them.
struct MeanBlock {
  std::vector<double> block;
  std::vector<int> set;

  std::size_t count() const { return set.size(); }
};

MeanBlock BuildMeanBlock(const std::vector<std::optional<linalg::Vector>>& means) {
  MeanBlock out;
  std::vector<const linalg::Vector*> present;
  for (std::size_t k = 0; k < means.size(); ++k) {
    if (means[k].has_value()) {
      out.set.push_back(static_cast<int>(k));
      present.push_back(&*means[k]);
    }
  }
  out.block = linalg::FeatureMajorBlock(present);
  return out;
}

}  // namespace

std::vector<std::optional<linalg::Vector>> IncompleteSetMeans(
    const SubgesturePartition& partition) {
  std::vector<std::optional<linalg::Vector>> means(partition.incomplete_sets.size());
  for (std::size_t k = 0; k < partition.incomplete_sets.size(); ++k) {
    const auto& set = partition.incomplete_sets[k];
    if (set.empty()) {
      continue;
    }
    linalg::MeanAccumulator acc(set.front().features.size());
    for (const LabeledSubgesture& sub : set) {
      acc.Add(sub.features);
    }
    means[k] = acc.Mean();
  }
  return means;
}

MoverReport MoveAccidentallyComplete(const classify::GestureClassifier& full,
                                     SubgesturePartition& partition,
                                     const MoverOptions& options) {
  MoverReport report;
  const classify::LinearClassifier& linear = full.linear();
  const MeanBlock means = BuildMeanBlock(IncompleteSetMeans(partition));
  const linalg::Matrix& metric = linear.inverse_covariance();

  // Compute the threshold: 50% of the minimum distance from any full-class
  // mean to any incomplete-set mean, excluding distances under the floor.
  std::vector<double> distances(full.num_classes() * means.count());
  if (distances.empty()) {
    return report;  // No incomplete sets at all; nothing can move.
  }
  for (classify::ClassId c = 0; c < full.num_classes(); ++c) {
    linalg::QuadraticDistances(
        linear.mean(c).view(), metric, means.block.data(), means.count(),
        linalg::MutVecView(distances.data() + c * means.count(), means.count()));
  }
  const double max_distance = *std::max_element(distances.begin(), distances.end());
  const double floor = options.floor_fraction * max_distance;
  double min_distance = std::numeric_limits<double>::infinity();
  for (double d : distances) {
    if (d < floor) {
      ++report.floored_out;
      continue;
    }
    min_distance = std::min(min_distance, d);
  }
  if (!std::isfinite(min_distance)) {
    // Everything was floored out — degenerate; fall back to the raw minimum
    // so the rule still produces some threshold.
    min_distance = *std::min_element(distances.begin(), distances.end());
  }
  report.min_distance = min_distance;
  report.threshold = options.threshold_fraction * min_distance;

  // Walk each gesture's complete subgestures from largest (the full gesture)
  // to smallest; once one is accidentally complete, it and every smaller
  // complete subgesture move to their nearest incomplete sets. The nearest
  // set is the first minimum in set order.
  std::vector<double> to_means(means.count());
  for (GestureSubgestures& gesture : partition.per_gesture) {
    bool moving = false;
    for (std::size_t k = gesture.subgestures.size(); k-- > 0;) {
      LabeledSubgesture& sub = gesture.subgestures[k];
      if (!sub.EffectivelyComplete()) {
        continue;
      }
      linalg::QuadraticDistances(sub.features.view(), metric, means.block.data(), means.count(),
                                 linalg::MutVecView(to_means.data(), to_means.size()));
      int nearest = -1;
      double nearest_distance = std::numeric_limits<double>::infinity();
      for (std::size_t m = 0; m < means.count(); ++m) {
        if (to_means[m] < nearest_distance) {
          nearest_distance = to_means[m];
          nearest = means.set[m];
        }
      }
      if (nearest < 0) {
        break;  // No incomplete set to move into.
      }
      if (!moving && nearest_distance < report.threshold) {
        moving = true;
      }
      if (moving) {
        sub.moved_to_incomplete = nearest;
        ++report.moved;
      }
    }
  }
  RebuildSets(partition);
  return report;
}

}  // namespace grandma::eager
