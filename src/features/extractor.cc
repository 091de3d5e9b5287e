#include "features/extractor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace grandma::features {

void FeatureExtractor::AddPoint(const geom::TimedPoint& p) {
  if (count_ == 0) {
    x0_ = p.x;
    y0_ = p.y;
    t0_ = p.t;
    min_x_ = max_x_ = p.x;
    min_y_ = max_y_ = p.y;
    last_x_ = p.x;
    last_y_ = p.y;
    last_t_ = p.t;
    count_ = 1;
    return;
  }

  if (count_ == 2) {
    // This point is the third: it anchors the initial-angle features. Rubine
    // measures the initial direction at the third point because the second
    // point of a stroke is dominated by sensor noise. The angle never
    // changes after this point, so it is computed here, not per snapshot.
    const double dx = p.x - x0_;
    const double dy = p.y - y0_;
    const double d = std::sqrt(dx * dx + dy * dy);
    if (d > 0.0) {
      initial_cos_ = dx / d;
      initial_sin_ = dy / d;
    }
  }

  const double dx = p.x - last_x_;
  const double dy = p.y - last_y_;
  const double dt = p.t - last_t_;

  path_length_ += std::sqrt(dx * dx + dy * dy);

  if (have_prev_delta_) {
    // Turning angle between the previous and current segment. The printed
    // formula in the paper uses arctan of (cross/dot); like Rubine's own
    // implementation we use atan2 of (cross, dot), the true turning angle in
    // (-pi, pi], which behaves correctly at direction reversals.
    const double cross = prev_dx_ * dy - prev_dy_ * dx;
    const double dot = dx * prev_dx_ + dy * prev_dy_;
    if (cross != 0.0 || dot != 0.0) {
      const double theta = std::atan2(cross, dot);
      total_angle_ += theta;
      total_abs_angle_ += std::abs(theta);
      sharpness_ += theta * theta;
    }
  }
  if (dx != 0.0 || dy != 0.0) {
    prev_dx_ = dx;
    prev_dy_ = dy;
    have_prev_delta_ = true;
  }

  // Speed sample only when the segment has a positive, finite dt: duplicate
  // timestamps (dt == 0) would divide to Inf, and reordered events (dt < 0)
  // or a NaN clock would poison max_speed_sq_ for the rest of the gesture.
  if (dt > 0.0 && std::isfinite(dt)) {
    const double speed_sq = (dx * dx + dy * dy) / (dt * dt);
    if (std::isfinite(speed_sq)) {
      max_speed_sq_ = std::max(max_speed_sq_, speed_sq);
    }
  }

  min_x_ = std::min(min_x_, p.x);
  max_x_ = std::max(max_x_, p.x);
  min_y_ = std::min(min_y_, p.y);
  max_y_ = std::max(max_y_, p.y);

  last_x_ = p.x;
  last_y_ = p.y;
  last_t_ = p.t;
  ++count_;
}

linalg::Vector FeatureExtractor::Features() const {
  linalg::Vector f(kNumFeatures);
  FeaturesInto(f.view());
  return f;
}

void FeatureExtractor::FeaturesInto(linalg::MutVecView f) const {
  TRACE_SPAN_FINE("features.snapshot");
  if (f.size() != kNumFeatures) {
    throw std::invalid_argument("FeatureExtractor::FeaturesInto expects a 13-entry view");
  }
  linalg::Fill(f, 0.0);
  if (count_ == 0) {
    return;
  }

  // f1, f2: initial angle at the third point.
  f[kInitialCos] = initial_cos_;
  f[kInitialSin] = initial_sin_;

  // f3, f4: bounding-box diagonal.
  const double bw = max_x_ - min_x_;
  const double bh = max_y_ - min_y_;
  f[kBboxDiagonal] = std::sqrt(bw * bw + bh * bh);
  if (bw != 0.0 || bh != 0.0) {
    f[kBboxAngle] = std::atan2(bh, bw);
  }

  // f5, f6, f7: first-to-last displacement.
  const double ex = last_x_ - x0_;
  const double ey = last_y_ - y0_;
  const double e = std::sqrt(ex * ex + ey * ey);
  f[kStartEndDistance] = e;
  if (e > 0.0) {
    f[kStartEndCos] = ex / e;
    f[kStartEndSin] = ey / e;
  }

  f[kPathLength] = path_length_;
  f[kTotalAngle] = total_angle_;
  f[kTotalAbsAngle] = total_abs_angle_;
  f[kSharpness] = sharpness_;
  f[kMaxSpeedSquared] = max_speed_sq_;
  f[kDuration] = last_t_ - t0_;
}

void FeatureExtractor::Reset() { *this = FeatureExtractor(); }

linalg::Vector ExtractFeatures(const geom::Gesture& g) {
  TRACE_SPAN("features.extract");
  FeatureExtractor fx;
  for (const geom::TimedPoint& p : g) {
    fx.AddPoint(p);
  }
  return fx.Features();
}

std::vector<linalg::Vector> ExtractPrefixFeatures(const geom::Gesture& g) {
  TRACE_SPAN("features.prefixes");
  std::vector<linalg::Vector> out;
  if (g.size() < FeatureExtractor::kMinPoints) {
    return out;
  }
  out.reserve(g.size() - FeatureExtractor::kMinPoints + 1);
  FeatureExtractor fx;
  for (std::size_t i = 0; i < g.size(); ++i) {
    fx.AddPoint(g[i]);
    if (fx.point_count() >= FeatureExtractor::kMinPoints) {
      out.push_back(fx.Features());
    }
  }
  return out;
}

}  // namespace grandma::features
