// Input validation for raw strokes: the first stage of the hardened pipeline.
// Real tablet/mouse streams contain NaN coordinates from driver glitches,
// duplicate or reordered timestamps from event-queue congestion, and
// coordinate spikes from sensor noise (libinput cancels gestures for exactly
// these anomalies). The validator detects them and, by policy, either repairs
// the stroke in place or rejects it with a precise Status — downstream stages
// (feature extraction, classification) may then assume clean geometry.
#ifndef GRANDMA_SRC_ROBUST_STROKE_VALIDATOR_H_
#define GRANDMA_SRC_ROBUST_STROKE_VALIDATOR_H_

#include <cstddef>
#include <span>

#include "geom/gesture.h"
#include "robust/fault_stats.h"
#include "robust/status.h"

namespace grandma::robust {

// What the validator is allowed to do. With `repair` false any anomaly is a
// rejection, which is the right mode for trusted replay files where damage
// means the file is corrupt rather than the sensor noisy.
struct ValidationPolicy {
  bool repair = true;

  // Coordinates beyond this magnitude cannot come from any plausible device;
  // they are treated like non-finite values.
  double max_abs_coordinate = 1.0e7;

  // A point farther than this from its predecessor is a teleport spike and
  // is dropped (repair) or rejects the stroke. Generous: real flicks move a
  // few px/ms with ~5 px sample spacing. <= 0 disables spike detection.
  double max_segment_length = 1500.0;

  // Duplicate or backward timestamps are re-timed to previous + the stroke's
  // median sample interval, so every segment has dt > 0 *and* a plausible
  // implied speed (clamping by a tiny epsilon would make the repaired
  // segment's speed explode, poisoning the max-speed feature). Epsilon is
  // the floor when the stroke has no positive intervals to take a median of.
  double timestamp_epsilon_ms = 1.0e-3;

  // A segment whose implied speed exceeds this is a timestamp fault (a
  // jitter-compressed dt) and is re-timed like a duplicate. 20 px/ms is
  // 20,000 px/s — far beyond any human flick. <= 0 disables the check.
  double max_speed_px_per_ms = 20.0;

  // Strokes with fewer surviving points are rejected. 1 keeps single-point
  // "dot" gestures classifiable, as GDP requires.
  std::size_t min_points = 1;

  // Absurdly long strokes indicate a runaway event source, not a gesture.
  std::size_t max_points = std::size_t{1} << 20;
};

// Per-stroke account of what Validate found and did.
struct ValidationReport {
  std::size_t points_in = 0;
  std::size_t points_out = 0;
  std::size_t nonfinite_dropped = 0;
  std::size_t out_of_range_dropped = 0;
  std::size_t spikes_dropped = 0;
  std::size_t timestamps_repaired = 0;

  bool repaired() const {
    return nonfinite_dropped > 0 || out_of_range_dropped > 0 || spikes_dropped > 0 ||
           timestamps_repaired > 0;
  }
};

// Median of the positive intervals between consecutive samples, or
// `fallback` when there are none (shared with the tracker's debounce window).
double MedianSampleInterval(std::span<const geom::TimedPoint> pts, double fallback);

class StrokeValidator {
 public:
  explicit StrokeValidator(ValidationPolicy policy = {}) : policy_(policy) {}

  // Validates (and under the repair policy, fixes) one stroke. On success the
  // returned gesture has only finite in-range coordinates, strictly
  // increasing timestamps, no teleport spikes, and at least min_points
  // points. `report` (optional) receives the per-stroke account; `stats`
  // (optional) accumulates across calls. The stroke is repaired in place:
  // pass an rvalue to hand over its buffer, or an lvalue to keep a copy.
  StatusOr<geom::Gesture> Validate(geom::Gesture g, ValidationReport* report = nullptr,
                                   FaultStats* stats = nullptr) const;

  const ValidationPolicy& policy() const { return policy_; }

 private:
  ValidationPolicy policy_;
};

}  // namespace grandma::robust

#endif  // GRANDMA_SRC_ROBUST_STROKE_VALIDATOR_H_
