// The feature-vector representation of a gesture: Rubine's thirteen features,
// each updatable in constant time per mouse point so arbitrarily long
// gestures can be handled (Section 4.2 of the paper).
#ifndef GRANDMA_SRC_FEATURES_FEATURE_VECTOR_H_
#define GRANDMA_SRC_FEATURES_FEATURE_VECTOR_H_

#include <array>
#include <cstddef>
#include <string_view>

#include "linalg/vec_view.h"
#include "linalg/vector.h"

namespace grandma::features {

// Indices of the individual features within a feature vector. Numbering
// follows Rubine's f1..f13 (the USENIX paper says "currently twelve"; the
// companion SIGGRAPH paper and dissertation define thirteen — we implement
// all thirteen and let callers mask any subset out).
enum Feature : std::size_t {
  kInitialCos = 0,       // f1: cosine of the initial angle (at the third point)
  kInitialSin = 1,       // f2: sine of the initial angle
  kBboxDiagonal = 2,     // f3: length of the bounding-box diagonal
  kBboxAngle = 3,        // f4: angle of the bounding-box diagonal
  kStartEndDistance = 4, // f5: distance between first and last point
  kStartEndCos = 5,      // f6: cosine of the angle between first and last point
  kStartEndSin = 6,      // f7: sine of that angle
  kPathLength = 7,       // f8: total gesture length
  kTotalAngle = 8,       // f9: total (signed) angle traversed
  kTotalAbsAngle = 9,    // f10: sum of |turning angle|
  kSharpness = 10,       // f11: sum of squared turning angle
  kMaxSpeedSquared = 11, // f12: maximum squared speed
  kDuration = 12,        // f13: gesture duration
};

inline constexpr std::size_t kNumFeatures = 13;

// Short identifier (e.g. "f9_total_angle") for diagnostics and serialization.
std::string_view FeatureName(Feature f);

// One-line human description of the feature.
std::string_view FeatureDescription(Feature f);

// A mask selecting a subset of the thirteen features; used to train
// classifiers on reduced feature sets (e.g. dropping the time-dependent f12,
// f13 for synthetic data sweeps, as Rubine suggests for some devices).
class FeatureMask {
 public:
  // All thirteen features enabled.
  constexpr FeatureMask() { enabled_.fill(true); }

  static FeatureMask All() { return FeatureMask(); }
  // Geometry-only: every feature except max-speed and duration.
  static FeatureMask GeometryOnly();

  void set(Feature f, bool enabled) { enabled_[f] = enabled; }
  bool test(Feature f) const { return enabled_[f]; }

  // Number of enabled features.
  std::size_t count() const;

  // Projects a full 13-entry vector onto the enabled features, in index order.
  linalg::Vector Project(const linalg::Vector& full) const;

  // Allocation-free flavor for the per-point kernel: writes the enabled
  // features of `full` (which must have kNumFeatures entries) into `out`
  // (which must have count() entries). Throws std::invalid_argument on a
  // size mismatch, exactly like Project.
  void ProjectInto(linalg::VecView full, linalg::MutVecView out) const;

  // The enabled features' indices in index order (the leading count()
  // entries are live): Project writes full[Columns()[j]] to out[j]. Kernels
  // that read unprojected rows through this list never project at all.
  std::array<std::size_t, kNumFeatures> Columns() const;

  friend bool operator==(const FeatureMask&, const FeatureMask&) = default;

 private:
  std::array<bool, kNumFeatures> enabled_{};
};

}  // namespace grandma::features

#endif  // GRANDMA_SRC_FEATURES_FEATURE_VECTOR_H_
