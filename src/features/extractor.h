// Incremental feature extraction: every feature is maintained in O(1) work
// per mouse point, which is what makes both arbitrarily long gestures and
// per-point eager recognition affordable (the paper reports 0.5 ms per point
// on a MicroVAX II for exactly this update).
#ifndef GRANDMA_SRC_FEATURES_EXTRACTOR_H_
#define GRANDMA_SRC_FEATURES_EXTRACTOR_H_

#include <cstddef>

#include "features/feature_vector.h"
#include "geom/gesture.h"
#include "geom/point.h"
#include "linalg/vec_view.h"
#include "linalg/vector.h"

namespace grandma::features {

// Streaming extractor. Usage:
//   FeatureExtractor fx;
//   for each point p: fx.AddPoint(p);
//   linalg::Vector f = fx.Features();
// Features() may be called after every AddPoint (eager recognition does); it
// is O(kNumFeatures), independent of how many points have been seen.
//
// Gestures with fewer than kMinPoints points do not carry enough geometry for
// the angle features; Features() is still defined (degenerate features are 0)
// so that very short gestures such as GDP's `dot` remain classifiable.
//
// Thread-safety: none — an extractor is per-stroke mutable state owned by a
// single thread. Distinct extractors are independent (no shared statics).
class FeatureExtractor {
 public:
  // Minimum number of points for a fully defined feature vector.
  static constexpr std::size_t kMinPoints = 3;

  FeatureExtractor() = default;

  // Folds one point into the running state. Points should already be
  // min-distance filtered (see geom::MinDistanceFilter); the extractor itself
  // accepts any input, including coincident points.
  void AddPoint(const geom::TimedPoint& p);

  // Number of points seen so far.
  std::size_t point_count() const { return count_; }

  // Snapshot of the current 13-entry feature vector. Allocates the result;
  // the per-point hot path uses FeaturesInto instead.
  linalg::Vector Features() const;

  // In-place snapshot for the per-point kernel: writes all kNumFeatures
  // entries into `out` (typically a view over a caller-owned
  // std::array<double, kNumFeatures>); no heap. Throws std::invalid_argument
  // when out.size() != kNumFeatures. Values are bit-identical to Features().
  void FeaturesInto(linalg::MutVecView out) const;

  // Restart for a new gesture.
  void Reset();

 private:
  std::size_t count_ = 0;

  // Anchors.
  double x0_ = 0.0, y0_ = 0.0, t0_ = 0.0;   // first point
  // f1/f2, fixed once the third point arrives (0 until then, and for a
  // third point coincident with the first).
  double initial_cos_ = 0.0, initial_sin_ = 0.0;
  double last_x_ = 0.0, last_y_ = 0.0, last_t_ = 0.0;

  // Bounding box.
  double min_x_ = 0.0, max_x_ = 0.0, min_y_ = 0.0, max_y_ = 0.0;

  // Previous segment delta (for turning angles).
  double prev_dx_ = 0.0, prev_dy_ = 0.0;
  bool have_prev_delta_ = false;

  // Running sums.
  double path_length_ = 0.0;
  double total_angle_ = 0.0;
  double total_abs_angle_ = 0.0;
  double sharpness_ = 0.0;
  double max_speed_sq_ = 0.0;
};

// Convenience: extract the feature vector of a complete gesture.
linalg::Vector ExtractFeatures(const geom::Gesture& g);

// Extracts features of every prefix g[i] for i in [kMinPoints, |g|]; the
// result's entry k corresponds to prefix length kMinPoints + k. This is the
// bulk operation the eager trainer runs over every training example, done in
// O(|g|) total (not O(|g|^2)) thanks to the incremental extractor.
std::vector<linalg::Vector> ExtractPrefixFeatures(const geom::Gesture& g);

}  // namespace grandma::features

#endif  // GRANDMA_SRC_FEATURES_EXTRACTOR_H_
