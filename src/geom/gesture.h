// The Gesture type: an ordered sequence of timed points, plus the subgesture
// (prefix) operation that eager recognition is built on.
#ifndef GRANDMA_SRC_GEOM_GESTURE_H_
#define GRANDMA_SRC_GEOM_GESTURE_H_

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geom/point.h"

namespace grandma::geom {

// Axis-aligned bounding box.
struct BoundingBox {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
  double DiagonalLength() const;
  bool Contains(double x, double y) const {
    return x >= min_x && x <= max_x && y >= min_y && y <= max_y;
  }

  friend bool operator==(const BoundingBox&, const BoundingBox&) = default;
};

// A single-stroke gesture g: points g_p = (x_p, y_p, t_p) for 0 <= p < |g|.
// Immutable-friendly value type; AppendPoint supports incremental collection.
class Gesture {
 public:
  Gesture() = default;
  explicit Gesture(std::vector<TimedPoint> points) : points_(std::move(points)) {}

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  const TimedPoint& operator[](std::size_t i) const { return points_[i]; }
  const TimedPoint& front() const { return points_.front(); }
  const TimedPoint& back() const { return points_.back(); }

  const std::vector<TimedPoint>& points() const { return points_; }
  std::span<const TimedPoint> span() const { return points_; }
  // Moves the point buffer out of a gesture that is no longer needed.
  std::vector<TimedPoint> TakePoints() && { return std::move(points_); }

  auto begin() const { return points_.begin(); }
  auto end() const { return points_.end(); }

  void AppendPoint(const TimedPoint& p) { points_.push_back(p); }
  void Clear() { points_.clear(); }
  void Reserve(std::size_t n) { points_.reserve(n); }

  // The i-th subgesture g[i]: the first i points of g. Throws
  // std::out_of_range when i > size(), matching the paper's "undefined when
  // i > |g|".
  Gesture Subgesture(std::size_t i) const;

  // Total path length: sum of segment lengths.
  double PathLength() const;

  // Duration t_{P-1} - t_0 in milliseconds; 0 for gestures of < 2 points.
  double Duration() const;

  // Bounding box of the points; all-zero for an empty gesture.
  BoundingBox Bounds() const;

  // True when any point lies within `radius` of (x, y). Used by GDP's
  // touch-to-add/delete manipulation semantics and by enclosure tests.
  bool PassesNear(double x, double y, double radius) const;

  friend bool operator==(const Gesture&, const Gesture&) = default;

  std::string ToString() const;

 private:
  std::vector<TimedPoint> points_;
};

// Ray-casting point-in-polygon test over the gesture's points interpreted as
// a closed polygon. GDP's `group` gesture uses this to find enclosed objects.
bool EnclosesPoint(const Gesture& g, double x, double y);

// The centroid of the gesture's points; (0,0) for an empty gesture.
TimedPoint Centroid(const Gesture& g);

}  // namespace grandma::geom

#endif  // GRANDMA_SRC_GEOM_GESTURE_H_
