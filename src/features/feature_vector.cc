#include "features/feature_vector.h"

#include <stdexcept>

namespace grandma::features {

std::string_view FeatureName(Feature f) {
  switch (f) {
    case kInitialCos:
      return "f1_initial_cos";
    case kInitialSin:
      return "f2_initial_sin";
    case kBboxDiagonal:
      return "f3_bbox_diagonal";
    case kBboxAngle:
      return "f4_bbox_angle";
    case kStartEndDistance:
      return "f5_start_end_distance";
    case kStartEndCos:
      return "f6_start_end_cos";
    case kStartEndSin:
      return "f7_start_end_sin";
    case kPathLength:
      return "f8_path_length";
    case kTotalAngle:
      return "f9_total_angle";
    case kTotalAbsAngle:
      return "f10_total_abs_angle";
    case kSharpness:
      return "f11_sharpness";
    case kMaxSpeedSquared:
      return "f12_max_speed_sq";
    case kDuration:
      return "f13_duration";
  }
  throw std::invalid_argument("FeatureName: bad feature index");
}

std::string_view FeatureDescription(Feature f) {
  switch (f) {
    case kInitialCos:
      return "cosine of the initial stroke angle, measured at the third point";
    case kInitialSin:
      return "sine of the initial stroke angle, measured at the third point";
    case kBboxDiagonal:
      return "length of the diagonal of the bounding box";
    case kBboxAngle:
      return "angle of the bounding-box diagonal";
    case kStartEndDistance:
      return "distance between the first and last points";
    case kStartEndCos:
      return "cosine of the angle from the first to the last point";
    case kStartEndSin:
      return "sine of the angle from the first to the last point";
    case kPathLength:
      return "total arc length of the stroke";
    case kTotalAngle:
      return "sum of signed turning angles along the stroke";
    case kTotalAbsAngle:
      return "sum of absolute turning angles along the stroke";
    case kSharpness:
      return "sum of squared turning angles (sharpness)";
    case kMaxSpeedSquared:
      return "maximum squared speed between consecutive points";
    case kDuration:
      return "total stroke duration in milliseconds";
  }
  throw std::invalid_argument("FeatureDescription: bad feature index");
}

FeatureMask FeatureMask::GeometryOnly() {
  FeatureMask mask;
  mask.set(kMaxSpeedSquared, false);
  mask.set(kDuration, false);
  return mask;
}

std::size_t FeatureMask::count() const {
  std::size_t n = 0;
  for (bool b : enabled_) {
    n += b ? 1 : 0;
  }
  return n;
}

linalg::Vector FeatureMask::Project(const linalg::Vector& full) const {
  linalg::Vector out(count());
  ProjectInto(full.view(), out.view());
  return out;
}

void FeatureMask::ProjectInto(linalg::VecView full, linalg::MutVecView out) const {
  if (full.size() != kNumFeatures) {
    throw std::invalid_argument("FeatureMask::Project expects a 13-entry vector");
  }
  if (out.size() != count()) {
    throw std::invalid_argument("FeatureMask::ProjectInto: output size != enabled count");
  }
  std::size_t j = 0;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    if (enabled_[i]) {
      out[j++] = full[i];
    }
  }
}

std::array<std::size_t, kNumFeatures> FeatureMask::Columns() const {
  std::array<std::size_t, kNumFeatures> columns{};
  std::size_t j = 0;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    if (enabled_[i]) {
      columns[j++] = i;
    }
  }
  return columns;
}

}  // namespace grandma::features
