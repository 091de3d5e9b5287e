#include "robust/stroke_validator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geom/point.h"

namespace grandma::robust {

namespace {

bool PointFinite(const geom::TimedPoint& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.t);
}

bool PointInRange(const geom::TimedPoint& p, double max_abs) {
  return std::abs(p.x) <= max_abs && std::abs(p.y) <= max_abs;
}

void CountStroke(FaultStats* stats, const ValidationReport& report, bool rejected) {
  if (stats == nullptr) {
    return;
  }
  ++stats->strokes_validated;
  stats->points_dropped_nonfinite += report.nonfinite_dropped;
  stats->points_dropped_out_of_range += report.out_of_range_dropped;
  stats->points_dropped_spike += report.spikes_dropped;
  stats->timestamps_repaired += report.timestamps_repaired;
  if (rejected) {
    ++stats->strokes_rejected;
  } else if (report.repaired()) {
    ++stats->strokes_repaired;
  } else {
    ++stats->strokes_clean;
  }
}

}  // namespace

double MedianSampleInterval(std::span<const geom::TimedPoint> pts, double fallback) {
  std::vector<double> dts;
  dts.reserve(pts.size());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double dt = pts[i].t - pts[i - 1].t;
    if (dt > 0.0) {
      dts.push_back(dt);
    }
  }
  if (dts.empty()) {
    return fallback;
  }
  const std::size_t mid = dts.size() / 2;
  std::nth_element(dts.begin(), dts.begin() + static_cast<std::ptrdiff_t>(mid), dts.end());
  return dts[mid];
}

StatusOr<geom::Gesture> StrokeValidator::Validate(geom::Gesture g, ValidationReport* report,
                                                  FaultStats* stats) const {
  ValidationReport local;
  ValidationReport& r = report != nullptr ? *report : local;
  r = ValidationReport{};
  r.points_in = g.size();

  auto reject = [&](Status status) -> StatusOr<geom::Gesture> {
    CountStroke(stats, r, /*rejected=*/true);
    return status;
  };

  if (g.empty()) {
    return reject(Status::InvalidArgument("empty stroke"));
  }
  if (g.size() > policy_.max_points) {
    return reject(Status::OutOfRange("stroke has " + std::to_string(g.size()) +
                                     " points, max is " + std::to_string(policy_.max_points)));
  }

  // The passes repair the stroke's own buffer in place.
  std::vector<geom::TimedPoint> pts = std::move(g).TakePoints();

  // Pass 1: drop non-finite and out-of-range points. Under the no-repair
  // policy any such point condemns the whole stroke.
  std::size_t w = 0;
  for (const geom::TimedPoint& p : pts) {
    if (!PointFinite(p)) {
      ++r.nonfinite_dropped;
      continue;
    }
    if (!PointInRange(p, policy_.max_abs_coordinate)) {
      ++r.out_of_range_dropped;
      continue;
    }
    pts[w++] = p;
  }
  pts.resize(w);
  if (!policy_.repair && (r.nonfinite_dropped > 0 || r.out_of_range_dropped > 0)) {
    return reject(Status::DataLoss("stroke contains non-finite or out-of-range points"));
  }
  if (pts.empty()) {
    return reject(Status::DataLoss("every point was non-finite or out of range"));
  }

  // Pass 2: drop teleport spikes — points implausibly far from the last
  // accepted point. The comparison is against the last *kept* point, so a
  // spike-and-return pair loses only the spike. The anchor (first kept
  // point) must itself be plausible: a spike on the very first sample would
  // otherwise condemn every later point as "far from the anchor".
  if (policy_.max_segment_length > 0.0 && pts.size() >= 2) {
    std::size_t anchor = 0;
    while (anchor + 1 < pts.size() &&
           geom::Distance(pts[anchor], pts[anchor + 1]) > policy_.max_segment_length) {
      ++anchor;  // no plausible successor: treat as a leading spike
      ++r.spikes_dropped;
    }
    w = 0;
    for (std::size_t i = anchor; i < pts.size(); ++i) {
      if (w > 0 && geom::Distance(pts[w - 1], pts[i]) > policy_.max_segment_length) {
        ++r.spikes_dropped;
        continue;
      }
      pts[w++] = pts[i];
    }
    if (!policy_.repair && r.spikes_dropped > 0) {
      return reject(Status::DataLoss("stroke contains coordinate spikes"));
    }
    pts.resize(w);
  }

  // Pass 3: enforce strictly increasing timestamps with *plausible* implied
  // speeds. Duplicates (stuck hardware clocks), reordered events, and
  // jitter-compressed intervals are re-timed to the previous timestamp plus
  // the stroke's median sample interval; the geometry is untouched. Re-timing
  // by a tiny epsilon instead would leave a physically impossible speed in
  // the segment and poison the max-speed feature downstream. The median is
  // taken at the first repair: no timestamp has changed before it, so it is
  // the median of the stroke as passes 1-2 left it.
  std::optional<double> median_dt;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double dt = pts[i].t - pts[i - 1].t;
    bool implausible = dt <= 0.0;
    if (!implausible && policy_.max_speed_px_per_ms > 0.0) {
      implausible = geom::Distance(pts[i - 1], pts[i]) > policy_.max_speed_px_per_ms * dt;
    }
    if (implausible) {
      if (!policy_.repair) {
        return reject(Status::DataLoss("non-monotonic or implausibly fast timestamps"));
      }
      if (!median_dt) {
        median_dt = std::max(MedianSampleInterval(pts, policy_.timestamp_epsilon_ms),
                             policy_.timestamp_epsilon_ms);
      }
      // The repaired interval must itself be plausible, even when the stroke
      // carried no usable timing and median_dt fell back to epsilon.
      double repair_dt = *median_dt;
      if (policy_.max_speed_px_per_ms > 0.0) {
        repair_dt = std::max(repair_dt,
                             geom::Distance(pts[i - 1], pts[i]) / policy_.max_speed_px_per_ms);
      }
      pts[i].t = pts[i - 1].t + repair_dt;
      ++r.timestamps_repaired;
    }
  }

  r.points_out = pts.size();
  if (pts.size() < policy_.min_points) {
    return reject(Status::DataLoss("only " + std::to_string(pts.size()) +
                                   " points survived repair, min is " +
                                   std::to_string(policy_.min_points)));
  }

  CountStroke(stats, r, /*rejected=*/false);
  return geom::Gesture(std::move(pts));
}

}  // namespace grandma::robust
