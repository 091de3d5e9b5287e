#include "toolkit/touch_attributes.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

namespace grandma::toolkit {

namespace {

// Position of a contact at time t: linear interpolation between the
// surrounding samples, clamped to the endpoints. Callers only ask for times
// within [StartTime, EndTime], in increasing order. `next` is the contact's
// cursor: it starts at 1, advances past samples earlier than t and never
// passes size() - 1, so on a time-ordered stroke it stops where lower_bound
// would, and on any stroke it stays in range.
geom::TimedPoint SampleAt(const geom::Gesture& g, double t, std::size_t& next) {
  if (g.size() == 1 || t <= g.front().t) {
    return g.front();
  }
  if (t >= g.back().t) {
    return g.back();
  }
  while (next + 1 < g.size() && g[next].t < t) {
    ++next;
  }
  const geom::TimedPoint& hi = g[next];
  const geom::TimedPoint& lo = g[next - 1];
  const double dt = hi.t - lo.t;
  if (dt <= 0.0) {
    return hi;
  }
  const double u = (t - lo.t) / dt;
  return geom::TimedPoint{lo.x + u * (hi.x - lo.x), lo.y + u * (hi.y - lo.y), t};
}

// Normalizes an angle delta into (-pi, pi] so unwrapping accumulates the
// short way around.
double WrapDelta(double d) {
  constexpr double kPi = std::numbers::pi;
  while (d > kPi) {
    d -= 2.0 * kPi;
  }
  while (d <= -kPi) {
    d += 2.0 * kPi;
  }
  return d;
}

}  // namespace

const char* TouchGestureKindName(TouchGestureKind kind) {
  switch (kind) {
    case TouchGestureKind::kSingleStroke:
      return "single_stroke";
    case TouchGestureKind::kPinch:
      return "pinch";
    case TouchGestureKind::kRotate:
      return "rotate";
    case TouchGestureKind::kSwipe:
      return "swipe";
    case TouchGestureKind::kTap:
      return "tap";
    case TouchGestureKind::kNone:
      return "none";
  }
  return "unknown";
}

std::size_t PrimaryContactIndex(const geom::ContactGroup& group) {
  std::size_t best = 0;
  double best_length = -1.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const double length = group[i].stroke.PathLength();
    if (length > best_length) {
      best_length = length;
      best = i;
    }
  }
  return best;
}

TouchTrack ComputeTouchTrack(const geom::ContactGroup& group,
                             const TouchAttributeOptions& options) {
  TouchTrack track;
  if (group.empty()) {
    return track;
  }
  track.primary_index = PrimaryContactIndex(group);

  // Frame timeline: every timestamp any contact reported, sorted and
  // deduplicated. Each contact's run arrives time-ordered (the tracker's
  // contract), so the runs are merged; a run is sorted only when it is not.
  std::vector<double> times;
  times.reserve(group.TotalPoints());
  for (const geom::Contact& c : group.contacts()) {
    const auto run = static_cast<std::ptrdiff_t>(times.size());
    for (const geom::TimedPoint& p : c.stroke) {
      times.push_back(p.t);
    }
    if (!std::is_sorted(times.begin() + run, times.end())) {
      std::sort(times.begin() + run, times.end());
    }
    std::inplace_merge(times.begin(), times.begin() + run, times.end());
  }
  times.erase(std::unique(times.begin(), times.end()), times.end());

  // Baseline state, established at the first frame with >= 2 active
  // contacts; angle/scale hold their last value while < 2 are down.
  bool have_baseline = false;
  double baseline_span = 0.0;
  double prev_raw_angle = 0.0;
  double unwrapped = 0.0;
  double last_scale = 1.0;

  track.frames.reserve(times.size());
  std::vector<geom::TimedPoint> active;
  active.reserve(group.size());
  std::vector<std::size_t> next(group.size(), 1);
  for (double t : times) {
    active.clear();
    for (std::size_t k = 0; k < group.size(); ++k) {
      const geom::Contact& c = group[k];
      if (c.stroke.empty() || t < c.StartTime() || t > c.EndTime()) {
        continue;
      }
      active.push_back(SampleAt(c.stroke, t, next[k]));
    }
    if (active.empty()) {
      continue;  // a gap between every contact's lifetime
    }

    TouchFrame frame;
    frame.t = t;
    frame.active = active.size();
    for (const geom::TimedPoint& p : active) {
      frame.cx += p.x;
      frame.cy += p.y;
    }
    frame.cx /= static_cast<double>(active.size());
    frame.cy /= static_cast<double>(active.size());

    if (active.size() >= 2) {
      // Span: mean distance of active contacts from the logical center.
      // Baseline angle: the first-to-second active-contact vector (group
      // order is deterministic, so the pair is stable across frames).
      double span = 0.0;
      const geom::TimedPoint center{frame.cx, frame.cy, t};
      for (const geom::TimedPoint& p : active) {
        span += geom::Distance(p, center);
      }
      span /= static_cast<double>(active.size());
      const double raw_angle =
          std::atan2(active[1].y - active[0].y, active[1].x - active[0].x);
      if (!have_baseline) {
        have_baseline = true;
        baseline_span = span;
        prev_raw_angle = raw_angle;
      } else {
        unwrapped += WrapDelta(raw_angle - prev_raw_angle);
        prev_raw_angle = raw_angle;
      }
      last_scale = baseline_span > 1e-9 ? span / baseline_span : 1.0;
    }
    frame.angle = unwrapped;
    frame.scale = last_scale;
    track.frames.push_back(frame);
  }

  if (!track.frames.empty()) {
    track.total_rotation = track.frames.back().angle;
    track.final_scale = track.frames.back().scale;
    track.duration_ms = track.frames.back().t - track.frames.front().t;
    // Translation is measured over the multi-finger span when one exists:
    // during staggered landings/lifts the center snaps between fingers,
    // which is lifecycle structure, not user motion.
    const TouchFrame* first = nullptr;
    const TouchFrame* last = nullptr;
    for (const TouchFrame& f : track.frames) {
      if (group.size() >= 2 && f.active < 2) {
        continue;
      }
      if (first == nullptr) {
        first = &f;
      }
      last = &f;
    }
    if (first == nullptr) {
      first = &track.frames.front();
      last = &track.frames.back();
    }
    const double dx = last->cx - first->cx;
    const double dy = last->cy - first->cy;
    track.translation_px = std::sqrt(dx * dx + dy * dy);
  }

  // Classification: single-contact groups go down the stroke path; among
  // multi-contact motions the dominant normalized component wins, with a
  // fixed pinch > rotate > swipe priority breaking exact ties.
  if (group.size() <= 1) {
    track.kind = TouchGestureKind::kSingleStroke;
    return track;
  }
  const double s = std::abs(std::log(std::max(track.final_scale, 1e-9))) /
                   options.pinch_log_scale;
  const double rt = std::abs(track.total_rotation) / options.rotate_angle;
  const double tr = track.translation_px / options.swipe_translation;
  if (s >= 1.0 && s >= rt && s >= tr) {
    track.kind = TouchGestureKind::kPinch;
  } else if (rt >= 1.0 && rt >= tr) {
    track.kind = TouchGestureKind::kRotate;
  } else if (tr >= 1.0) {
    track.kind = TouchGestureKind::kSwipe;
  } else if (track.duration_ms <= options.tap_max_duration_ms &&
             track.translation_px <= options.tap_max_translation) {
    track.kind = TouchGestureKind::kTap;
  } else {
    track.kind = TouchGestureKind::kNone;
  }
  return track;
}

std::string TouchTrack::ToString() const {
  std::ostringstream os;
  os << TouchGestureKindName(kind) << " frames=" << frames.size()
     << " rot=" << total_rotation << " scale=" << final_scale
     << " trans=" << translation_px << " dur=" << duration_ms;
  return os.str();
}

bool DispatchTouchSemantics(const TouchTrack& track, const geom::ContactGroup& group,
                            const SemanticsTable& table, View* view) {
  if (group.empty() || track.primary_index >= group.size()) {
    return false;
  }
  const GestureSemantics* sem = table.Find(TouchGestureKindName(track.kind));
  if (sem == nullptr) {
    return false;
  }
  const geom::Gesture& collected = group[track.primary_index].stroke;
  if (collected.empty()) {
    return false;
  }
  SemanticContext context(&collected, view);
  if (sem->recog) {
    context.recog_slot() = sem->recog(context);
  }
  if (sem->manip) {
    for (const TouchFrame& frame : track.frames) {
      context.SetCurrent(geom::TimedPoint{frame.cx, frame.cy, frame.t});
      sem->manip(context);
    }
  }
  if (sem->done) {
    sem->done(context);
  }
  return true;
}

}  // namespace grandma::toolkit
