// Exactness pin for the touch front end: ContactTracker::Track,
// StrokeValidator::Validate and ComputeTouchTrack must produce bit-identical
// results to the straightforward implementations they replaced. Those
// implementations are kept below, verbatim, in namespace `reference`: the
// tracker that copied the group through ContactGroup::Sorted() and took the
// debounce median for every contact pair, the validator that copied the
// stroke into fresh buffers and took the re-timing median up front, and the
// attribute pass that sorted the whole timeline and binary-searched every
// sample. Every status, TrackedGroup, ContactReport, FaultStats counter and
// TouchTrack (frames included, doubles compared bitwise) is checked on the
// synthetic touch and GDP corpora, clean and fault-injected, and on crafted
// boundary cases. The perfbench touch reference runs the same library code,
// so this test is what would notice a changed answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "geom/contact.h"
#include "geom/gesture.h"
#include "geom/point.h"
#include "robust/contact_tracker.h"
#include "robust/fault_injector.h"
#include "robust/fault_stats.h"
#include "robust/status.h"
#include "robust/stroke_validator.h"
#include "synth/contact_synth.h"
#include "synth/generator.h"
#include "synth/sets.h"
#include "toolkit/touch_attributes.h"

namespace grandma {
namespace reference {

using geom::Contact;
using geom::ContactGroup;
using robust::ContactPolicy;
using robust::ContactReport;
using robust::FaultStats;
using robust::Status;
using robust::StatusOr;
using robust::TrackedGroup;
using robust::ValidationPolicy;
using robust::ValidationReport;
using toolkit::PrimaryContactIndex;
using toolkit::TouchAttributeOptions;
using toolkit::TouchFrame;
using toolkit::TouchGestureKind;
using toolkit::TouchTrack;

class RefValidator {
 public:
  explicit RefValidator(ValidationPolicy policy) : policy_(policy) {}
  StatusOr<geom::Gesture> Validate(const geom::Gesture& g, ValidationReport* report = nullptr,
                                   FaultStats* stats = nullptr) const;

 private:
  ValidationPolicy policy_;
};

class RefTracker {
 public:
  explicit RefTracker(ContactPolicy policy) : policy_(policy) {}
  StatusOr<TrackedGroup> Track(const geom::ContactGroup& in, ContactReport* report = nullptr,
                               FaultStats* stats = nullptr) const;

 private:
  ContactPolicy policy_;
};

namespace {

ContactGroup Sorted(const ContactGroup& in) {
  ContactGroup out = in;
  std::stable_sort(out.contacts().begin(), out.contacts().end(),
                   [](const Contact& a, const Contact& b) {
                     if (a.StartTime() != b.StartTime()) {
                       return a.StartTime() < b.StartTime();
                     }
                     return a.id < b.id;
                   });
  return out;
}

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

// Working record: one contact plus its lifecycle history. Terminal buckets
// (clean/repaired/rejected) are assigned once per *input* contact, which is
// what keeps the accounting invariant exact.
struct Slot {
  geom::Contact contact;
  bool repaired = false;
};

double MedianSampleInterval(const geom::Gesture& g, double fallback) {
  std::vector<double> dts;
  dts.reserve(g.size());
  for (std::size_t i = 1; i < g.size(); ++i) {
    const double dt = g[i].t - g[i - 1].t;
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

geom::TimedPoint StrokeCentroid(const geom::Gesture& g) {
  geom::TimedPoint c{};
  if (g.empty()) {
    return c;
  }
  for (const geom::TimedPoint& p : g) {
    c.x += p.x;
    c.y += p.y;
  }
  c.x /= static_cast<double>(g.size());
  c.y /= static_cast<double>(g.size());
  return c;
}

// Centroid of every other slot's points; false when there are none.
bool OthersCentroid(const std::vector<Slot>& slots, std::size_t self, geom::TimedPoint* out) {
  double x = 0.0;
  double y = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i == self) {
      continue;
    }
    for (const geom::TimedPoint& p : slots[i].contact.stroke) {
      x += p.x;
      y += p.y;
      ++n;
    }
  }
  if (n == 0) {
    return false;
  }
  out->x = x / static_cast<double>(n);
  out->y = y / static_cast<double>(n);
  return true;
}

void CountGroup(FaultStats* stats, const ContactReport& r, bool rejected) {
  if (stats == nullptr) {
    return;
  }
  ++stats->groups_tracked;
  stats->contacts_tracked += r.contacts_in;
  stats->contacts_passed_clean += r.contacts_passed_clean;
  stats->contacts_repaired += r.contacts_repaired;
  stats->contacts_rejected += r.contacts_rejected;
  stats->contact_bounces_stitched += r.bounces_stitched;
  stats->palms_rejected += r.palms_rejected;
  stats->contact_late_joiners_dropped += r.late_joiners_dropped;
  stats->contact_id_swaps_repaired += r.id_swaps_repaired;
  // One terminal bucket per group, by severity: rejected beats degraded
  // (contacts were lost) beats repaired (everything survived, some fixed)
  // beats clean. groups_tracked == the four buckets' sum.
  if (rejected) {
    ++stats->groups_rejected;
  } else if (r.degraded()) {
    ++stats->groups_degraded;
  } else if (r.repaired()) {
    ++stats->groups_repaired;
  } else {
    ++stats->groups_clean;
  }
}

// Position of a contact at time t: linear interpolation between the
// surrounding samples, clamped to the endpoints. Callers only ask for times
// within [StartTime, EndTime].
geom::TimedPoint SampleAt(const geom::Gesture& g, double t) {
  if (g.size() == 1 || t <= g.front().t) {
    return g.front();
  }
  if (t >= g.back().t) {
    return g.back();
  }
  const auto& pts = g.points();
  auto it = std::lower_bound(pts.begin(), pts.end(), t,
                             [](const geom::TimedPoint& p, double v) { return p.t < v; });
  const geom::TimedPoint& hi = *it;
  const geom::TimedPoint& lo = *(it - 1);
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

StatusOr<geom::Gesture> RefValidator::Validate(const geom::Gesture& g,
                                               ValidationReport* report,
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

  // Pass 1: drop non-finite and out-of-range points. Under the no-repair
  // policy any such point condemns the whole stroke.
  std::vector<geom::TimedPoint> pts;
  pts.reserve(g.size());
  for (const geom::TimedPoint& p : g) {
    if (!PointFinite(p)) {
      ++r.nonfinite_dropped;
      continue;
    }
    if (!PointInRange(p, policy_.max_abs_coordinate)) {
      ++r.out_of_range_dropped;
      continue;
    }
    pts.push_back(p);
  }
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
    std::vector<geom::TimedPoint> kept;
    kept.reserve(pts.size() - anchor);
    for (std::size_t i = anchor; i < pts.size(); ++i) {
      if (!kept.empty() &&
          geom::Distance(kept.back(), pts[i]) > policy_.max_segment_length) {
        ++r.spikes_dropped;
        continue;
      }
      kept.push_back(pts[i]);
    }
    if (!policy_.repair && r.spikes_dropped > 0) {
      return reject(Status::DataLoss("stroke contains coordinate spikes"));
    }
    pts = std::move(kept);
  }

  // Pass 3: enforce strictly increasing timestamps with *plausible* implied
  // speeds. Duplicates (stuck hardware clocks), reordered events, and
  // jitter-compressed intervals are re-timed to the previous timestamp plus
  // the stroke's median sample interval; the geometry is untouched. Re-timing
  // by a tiny epsilon instead would leave a physically impossible speed in
  // the segment and poison the max-speed feature downstream.
  double median_dt = policy_.timestamp_epsilon_ms;
  {
    std::vector<double> dts;
    dts.reserve(pts.size());
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double dt = pts[i].t - pts[i - 1].t;
      if (dt > 0.0) {
        dts.push_back(dt);
      }
    }
    if (!dts.empty()) {
      const std::size_t mid = dts.size() / 2;
      std::nth_element(dts.begin(), dts.begin() + static_cast<std::ptrdiff_t>(mid), dts.end());
      median_dt = std::max(dts[mid], policy_.timestamp_epsilon_ms);
    }
  }
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
      // The repaired interval must itself be plausible, even when the stroke
      // carried no usable timing and median_dt fell back to epsilon.
      double repair_dt = median_dt;
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

StatusOr<TrackedGroup> RefTracker::Track(const geom::ContactGroup& in,
                                         ContactReport* report, FaultStats* stats) const {
  ContactReport local;
  ContactReport& r = report != nullptr ? *report : local;
  r = ContactReport{};
  r.contacts_in = in.size();

  // A whole-group rejection consigns every input contact not already in a
  // terminal bucket to `rejected`, so the invariant holds on every path.
  auto reject = [&](Status status) -> StatusOr<TrackedGroup> {
    r.contacts_rejected =
        r.contacts_in - r.contacts_passed_clean - r.contacts_repaired;
    CountGroup(stats, r, /*rejected=*/true);
    return status;
  };

  if (in.empty()) {
    return reject(Status::InvalidArgument("empty contact group"));
  }
  if (in.size() > policy_.max_contacts) {
    return reject(Status::OutOfRange("group has " + std::to_string(in.size()) +
                                     " contacts, max is " +
                                     std::to_string(policy_.max_contacts)));
  }

  const geom::ContactGroup sorted = Sorted(in);
  std::vector<Slot> slots;
  slots.reserve(sorted.size());
  for (const geom::Contact& c : sorted.contacts()) {
    slots.push_back(Slot{c, /*repaired=*/false});
  }

  // Pass 1: debounce. A contact re-landing within the window (widened to a
  // few sample intervals for slow devices) and radius of another contact's
  // release is chatter: its points are stitched back onto the releasing
  // contact and the spurious slot disappears. Chained chatter stitches
  // repeatedly because the merged contact's release moves later each time.
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < slots.size() && !merged; ++i) {
      if (slots[i].contact.stroke.empty()) {
        continue;
      }
      const double window = std::max(
          policy_.debounce_window_ms,
          3.0 * MedianSampleInterval(slots[i].contact.stroke, policy_.debounce_window_ms));
      for (std::size_t j = 0; j < slots.size() && !merged; ++j) {
        if (j == i || slots[j].contact.stroke.empty()) {
          continue;
        }
        const double gap = slots[j].contact.StartTime() - slots[i].contact.EndTime();
        if (gap < 0.0 || gap > window) {
          continue;
        }
        if (geom::Distance(slots[i].contact.stroke.back(), slots[j].contact.stroke.front()) >
            policy_.debounce_radius_px) {
          continue;
        }
        if (!policy_.repair) {
          return reject(Status::ContactChatter(
              "contact " + std::to_string(slots[j].contact.id) + " re-landed " +
              std::to_string(gap) + " ms after contact " +
              std::to_string(slots[i].contact.id) + " released"));
        }
        for (const geom::TimedPoint& p : slots[j].contact.stroke) {
          slots[i].contact.stroke.AppendPoint(p);
        }
        slots[i].repaired = true;
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(j));
        ++r.bounces_stitched;
        ++r.contacts_repaired;  // the absorbed slot's terminal bucket
        merged = true;
      }
    }
  }

  // Pass 2: contact-id continuity. Two concurrent contacts that both
  // teleport at the same instant, where crossing the tails removes both
  // teleports, swapped slot ids mid-stream; un-cross them. The tails keep
  // their timestamps, so the repaired strokes stay time-ordered.
  if (policy_.id_swap_jump_px > 0.0) {
    for (std::size_t a = 0; a < slots.size(); ++a) {
      for (std::size_t b = a + 1; b < slots.size(); ++b) {
        const geom::Gesture& ga = slots[a].contact.stroke;
        const geom::Gesture& gb = slots[b].contact.stroke;
        if (ga.size() < 4 || gb.size() < 4) {
          continue;
        }
        bool swapped = false;
        for (std::size_t ia = 1; ia < ga.size() && !swapped; ++ia) {
          if (geom::Distance(ga[ia - 1], ga[ia]) <= policy_.id_swap_jump_px) {
            continue;
          }
          for (std::size_t ib = 1; ib < gb.size() && !swapped; ++ib) {
            if (geom::Distance(gb[ib - 1], gb[ib]) <= policy_.id_swap_jump_px) {
              continue;
            }
            if (std::abs(ga[ia].t - gb[ib].t) > policy_.id_swap_sync_ms) {
              continue;
            }
            // Would crossing the tails make both seams plausible?
            if (geom::Distance(ga[ia - 1], gb[ib]) > policy_.id_swap_jump_px ||
                geom::Distance(gb[ib - 1], ga[ia]) > policy_.id_swap_jump_px) {
              continue;
            }
            if (!policy_.repair) {
              return reject(Status::DataLoss("contacts " +
                                             std::to_string(slots[a].contact.id) + " and " +
                                             std::to_string(slots[b].contact.id) +
                                             " swapped ids mid-stream"));
            }
            std::vector<geom::TimedPoint> na(ga.points().begin(),
                                             ga.points().begin() + static_cast<std::ptrdiff_t>(ia));
            na.insert(na.end(), gb.points().begin() + static_cast<std::ptrdiff_t>(ib),
                      gb.points().end());
            std::vector<geom::TimedPoint> nb(gb.points().begin(),
                                             gb.points().begin() + static_cast<std::ptrdiff_t>(ib));
            nb.insert(nb.end(), ga.points().begin() + static_cast<std::ptrdiff_t>(ia),
                      ga.points().end());
            slots[a].contact.stroke = geom::Gesture(std::move(na));
            slots[b].contact.stroke = geom::Gesture(std::move(nb));
            slots[a].repaired = true;
            slots[b].repaired = true;
            ++r.id_swaps_repaired;
            swapped = true;
          }
        }
      }
    }
  }

  // Pass 3: palm rejection by area / duration / position. Contacts without
  // area data are exempt (mouse-path groups report area 0).
  for (std::size_t i = 0; i < slots.size();) {
    const geom::Contact& c = slots[i].contact;
    bool palm = false;
    if (c.area >= policy_.palm_min_area) {
      palm = true;
    } else if (c.area >= policy_.palm_suspect_area) {
      if (c.Duration() <= policy_.palm_max_duration_ms) {
        palm = true;
      } else {
        geom::TimedPoint others{};
        if (OthersCentroid(slots, i, &others) &&
            geom::Distance(StrokeCentroid(c.stroke), others) >= policy_.palm_offset_px) {
          palm = true;
        }
      }
    }
    if (!palm) {
      ++i;
      continue;
    }
    if (!policy_.repair) {
      return reject(Status::PalmRejected("contact " + std::to_string(c.id) + " has area " +
                                         std::to_string(c.area)));
    }
    slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
    ++r.palms_rejected;
    ++r.contacts_rejected;
  }
  if (slots.empty()) {
    return reject(Status::PalmRejected("every contact was a palm"));
  }

  // Pass 4: finger-count changes. Contacts joining long after the group's
  // first touch-down are transitions (a third finger grazing mid-pinch),
  // not staggered landings; drop them so the original gesture survives.
  {
    double t0 = slots.front().contact.StartTime();
    for (const Slot& s : slots) {
      t0 = std::min(t0, s.contact.StartTime());
    }
    for (std::size_t i = 0; i < slots.size();) {
      if (slots[i].contact.StartTime() - t0 <= policy_.late_join_ms) {
        ++i;
        continue;
      }
      if (!policy_.repair) {
        return reject(Status::FailedPrecondition(
            "contact " + std::to_string(slots[i].contact.id) + " joined " +
            std::to_string(slots[i].contact.StartTime() - t0) + " ms into the gesture"));
      }
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
      ++r.late_joiners_dropped;
      ++r.contacts_rejected;
    }
  }

  // Pass 5: per-contact stroke certification. A contact the validator
  // rejects is dropped (the group degrades to the survivors); under the
  // no-repair stroke policy the validator's own rejection propagates.
  const RefValidator validator(policy_.stroke);
  TrackedGroup out;
  for (Slot& s : slots) {
    ValidationReport vreport;
    auto validated = validator.Validate(s.contact.stroke, &vreport, stats);
    if (!validated.ok()) {
      if (!policy_.repair || !policy_.stroke.repair) {
        return reject(validated.status());
      }
      ++r.validation_rejected;
      ++r.contacts_rejected;
      continue;
    }
    if (vreport.repaired()) {
      ++r.validation_repaired;
      s.repaired = true;
    }
    if (s.repaired) {
      ++r.contacts_repaired;
    } else {
      ++r.contacts_passed_clean;
    }
    s.contact.stroke = std::move(*validated);
    out.group.AddContact(std::move(s.contact));
  }
  if (out.group.empty()) {
    return reject(Status::DataLoss("no contact survived lifecycle repair and validation"));
  }

  r.contacts_out = out.group.size();
  out.degraded = r.degraded();
  CountGroup(stats, r, /*rejected=*/false);
  return out;
}

TouchTrack ComputeTouchTrack(const geom::ContactGroup& group,
                             const TouchAttributeOptions& options) {
  TouchTrack track;
  if (group.empty()) {
    return track;
  }
  track.primary_index = PrimaryContactIndex(group);

  // Frame timeline: every timestamp any contact reported, deduplicated.
  std::vector<double> times;
  times.reserve(group.TotalPoints());
  for (const geom::Contact& c : group.contacts()) {
    for (const geom::TimedPoint& p : c.stroke) {
      times.push_back(p.t);
    }
  }
  std::sort(times.begin(), times.end());
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
  for (double t : times) {
    active.clear();
    for (const geom::Contact& c : group.contacts()) {
      if (c.stroke.empty() || t < c.StartTime() || t > c.EndTime()) {
        continue;
      }
      active.push_back(SampleAt(c.stroke, t));
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

}  // namespace reference

namespace {

using geom::Contact;
using geom::ContactGroup;
using geom::Gesture;
using geom::TimedPoint;
using robust::ContactPolicy;
using robust::ContactReport;
using robust::FaultStats;
using robust::ValidationPolicy;
using robust::ValidationReport;

static_assert(sizeof(TimedPoint) == 3 * sizeof(double), "TimedPoint is compared bytewise");
static_assert(sizeof(toolkit::TouchFrame) == 5 * sizeof(double) + sizeof(std::size_t),
              "TouchFrame is compared bytewise");

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameStatus(const robust::Status& got, const robust::Status& want) {
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
}

void ExpectSameReport(const ContactReport& got, const ContactReport& want) {
  EXPECT_EQ(got.contacts_in, want.contacts_in);
  EXPECT_EQ(got.contacts_out, want.contacts_out);
  EXPECT_EQ(got.contacts_passed_clean, want.contacts_passed_clean);
  EXPECT_EQ(got.contacts_repaired, want.contacts_repaired);
  EXPECT_EQ(got.contacts_rejected, want.contacts_rejected);
  EXPECT_EQ(got.bounces_stitched, want.bounces_stitched);
  EXPECT_EQ(got.id_swaps_repaired, want.id_swaps_repaired);
  EXPECT_EQ(got.palms_rejected, want.palms_rejected);
  EXPECT_EQ(got.late_joiners_dropped, want.late_joiners_dropped);
  EXPECT_EQ(got.validation_rejected, want.validation_rejected);
  EXPECT_EQ(got.validation_repaired, want.validation_repaired);
}

void ExpectSameValidationReport(const ValidationReport& got, const ValidationReport& want) {
  EXPECT_EQ(got.points_in, want.points_in);
  EXPECT_EQ(got.points_out, want.points_out);
  EXPECT_EQ(got.nonfinite_dropped, want.nonfinite_dropped);
  EXPECT_EQ(got.out_of_range_dropped, want.out_of_range_dropped);
  EXPECT_EQ(got.spikes_dropped, want.spikes_dropped);
  EXPECT_EQ(got.timestamps_repaired, want.timestamps_repaired);
}

void ExpectSameStats(const FaultStats& got, const FaultStats& want) {
  static_assert(sizeof(FaultStats) % sizeof(std::uint64_t) == 0, "counters only");
  EXPECT_EQ(got.ToJson(), want.ToJson());
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(FaultStats)), 0);
}

void ExpectSameStroke(const Gesture& got, const Gesture& want) {
  EXPECT_TRUE(SameBytes(got.points(), want.points()))
      << "got " << got.ToString() << "\nwant " << want.ToString();
}

void ExpectSameGroup(const ContactGroup& got, const ContactGroup& want) {
  EXPECT_TRUE(got == want);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_TRUE(SameBits(got[i].area, want[i].area));
    ExpectSameStroke(got[i].stroke, want[i].stroke);
  }
}

void ExpectSameTouchTrack(const toolkit::TouchTrack& got, const toolkit::TouchTrack& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.primary_index, want.primary_index);
  EXPECT_TRUE(SameBits(got.total_rotation, want.total_rotation));
  EXPECT_TRUE(SameBits(got.final_scale, want.final_scale));
  EXPECT_TRUE(SameBits(got.translation_px, want.translation_px));
  EXPECT_TRUE(SameBits(got.duration_ms, want.duration_ms));
  EXPECT_TRUE(SameBytes(got.frames, want.frames))
      << "got " << got.ToString() << "\nwant " << want.ToString();
}

// Every contact's timestamps finite and non-decreasing: ComputeTouchTrack's
// input contract.
bool TimeOrdered(const ContactGroup& group) {
  for (const Contact& c : group.contacts()) {
    for (std::size_t i = 0; i < c.stroke.size(); ++i) {
      if (!std::isfinite(c.stroke[i].t) || (i > 0 && c.stroke[i].t < c.stroke[i - 1].t)) {
        return false;
      }
    }
  }
  return !group.empty();
}

void CompareTouchTrack(const ContactGroup& group) {
  ExpectSameTouchTrack(toolkit::ComputeTouchTrack(group),
                       reference::ComputeTouchTrack(group, toolkit::TouchAttributeOptions{}));
}

// What the compared corpora exercised, so a corpus that stops reaching a
// repair path fails loudly instead of passing vacuously.
struct Coverage {
  std::size_t groups = 0;
  std::size_t tracked = 0;
  std::size_t rejected = 0;
  FaultStats faults;
};

void CompareTrack(const ContactGroup& raw, const ContactPolicy& policy, Coverage* coverage) {
  ContactReport got_report;
  ContactReport want_report;
  FaultStats got_stats;
  FaultStats want_stats;
  auto got = robust::ContactTracker(policy).Track(raw, &got_report, &got_stats);
  auto want = reference::RefTracker(policy).Track(raw, &want_report, &want_stats);
  ASSERT_EQ(got.ok(), want.ok()) << raw.ToString();
  ExpectSameStatus(got.status(), want.status());
  ExpectSameReport(got_report, want_report);
  ExpectSameStats(got_stats, want_stats);
  if (coverage != nullptr) {
    ++coverage->groups;
    coverage->faults.Merge(got_stats);
    ++(got.ok() ? coverage->tracked : coverage->rejected);
  }
  if (!got.ok()) {
    return;
  }
  EXPECT_EQ(got->degraded, want->degraded);
  ExpectSameGroup(got->group, want->group);
  CompareTouchTrack(got->group);
}

void CompareValidate(const Gesture& g, const ValidationPolicy& policy) {
  ValidationReport got_report;
  ValidationReport want_report;
  FaultStats got_stats;
  FaultStats want_stats;
  auto got = robust::StrokeValidator(policy).Validate(g, &got_report, &got_stats);
  auto want = reference::RefValidator(policy).Validate(g, &want_report, &want_stats);
  ASSERT_EQ(got.ok(), want.ok()) << g.ToString();
  ExpectSameStatus(got.status(), want.status());
  ExpectSameValidationReport(got_report, want_report);
  ExpectSameStats(got_stats, want_stats);
  if (got.ok()) {
    ExpectSameStroke(*got, *want);
  }
}

std::vector<ContactPolicy> TrackPolicies() {
  std::vector<ContactPolicy> policies(3);
  policies[1].repair = false;
  policies[2].stroke.repair = false;
  return policies;
}

std::vector<ValidationPolicy> StrokePolicies() {
  std::vector<ValidationPolicy> policies(4);
  policies[1].repair = false;
  policies[2].max_speed_px_per_ms = 0.0;
  policies[3].max_segment_length = 0.0;
  return policies;
}

// Runs one raw group through every comparison: the tracker under each
// policy, the validator on each contact's stroke, and the attribute pass on
// the raw group when it meets that pass's contract.
void CompareAll(const ContactGroup& raw, Coverage* coverage) {
  const std::vector<ContactPolicy> track_policies = TrackPolicies();
  for (std::size_t p = 0; p < track_policies.size(); ++p) {
    SCOPED_TRACE("track policy " + std::to_string(p));
    CompareTrack(raw, track_policies[p], p == 0 ? coverage : nullptr);
  }
  for (const ValidationPolicy& policy : StrokePolicies()) {
    for (const Contact& c : raw.contacts()) {
      CompareValidate(c.stroke, policy);
    }
  }
  if (TimeOrdered(raw)) {
    CompareTouchTrack(raw);
  }
}

// The two input families the touch front end serves: two-finger touch
// groups and single GDP strokes entering as one-contact groups.
std::vector<ContactGroup> CleanCorpus(std::size_t per_class, std::uint64_t seed) {
  std::vector<ContactGroup> groups;
  const synth::NoiseModel noise;
  for (const synth::LabeledContactGroups& batch :
       synth::GenerateContactSet(synth::MakeTouchSpecs(), noise, per_class, seed)) {
    groups.insert(groups.end(), batch.groups.begin(), batch.groups.end());
  }
  for (const synth::LabeledSamples& batch :
       synth::GenerateSet(synth::MakeGdpSpecs(), noise, per_class, seed + 1)) {
    for (const synth::GestureSample& s : batch.samples) {
      groups.push_back(synth::AsContactGroup(s.gesture));
    }
  }
  return groups;
}

Contact MakeContact(std::int32_t id, std::vector<TimedPoint> pts, double area = 55.0) {
  Contact c;
  c.id = id;
  c.area = area;
  c.stroke = Gesture(std::move(pts));
  return c;
}

// `n` points from (x0, y) moving +1 px per sample, `dt` ms apart from t0.
std::vector<TimedPoint> Line(double x0, double y, double t0, double dt, int n) {
  std::vector<TimedPoint> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({x0 + i, y, t0 + dt * i});
  }
  return pts;
}

TEST(TouchExactTest, CleanCorporaMatchReference) {
  Coverage coverage;
  for (const ContactGroup& g : CleanCorpus(12, 1991)) {
    CompareAll(g, &coverage);
  }
  EXPECT_GT(coverage.tracked, 200u);
  EXPECT_EQ(coverage.rejected, 0u);
}

TEST(TouchExactTest, ContactFaultRatesMatchReference) {
  const std::vector<ContactGroup> clean = CleanCorpus(10, 42);
  Coverage coverage;
  for (const double rate : {0.05, 0.10, 0.25}) {
    SCOPED_TRACE("fault rate " + std::to_string(rate));
    robust::FaultInjectorOptions options;
    options.fault_rate = rate;
    robust::FaultInjector injector(options, 7 + static_cast<std::uint64_t>(rate * 100));
    for (const ContactGroup& g : clean) {
      CompareAll(injector.CorruptContacts(g), &coverage);
    }
  }
  EXPECT_GT(coverage.faults.TotalFaultEvents(), 0u);
}

TEST(TouchExactTest, EveryFaultKindMatchesReference) {
  const std::vector<ContactGroup> clean = CleanCorpus(4, 43);
  Coverage coverage;
  for (std::size_t k = 0; k < robust::kNumFaultKinds; ++k) {
    const auto kind = static_cast<robust::FaultKind>(k);
    SCOPED_TRACE(robust::FaultKindName(kind));
    robust::FaultInjectorOptions options;
    options.fault_rate = 1.0;
    options.max_faults_per_stroke = 1;
    options.enabled.fill(false);
    options.enabled[k] = true;
    robust::FaultInjector injector(options, 100 + k);
    for (const ContactGroup& g : clean) {
      CompareAll(injector.CorruptContacts(g), &coverage);
    }
  }
  // Every repair and rejection path of the tracker and validator was taken.
  const FaultStats& f = coverage.faults;
  EXPECT_GT(f.contact_bounces_stitched, 0u);
  EXPECT_GT(f.palms_rejected, 0u);
  EXPECT_GT(f.contact_late_joiners_dropped, 0u);
  EXPECT_GT(f.contact_id_swaps_repaired, 0u);
  EXPECT_GT(f.points_dropped_nonfinite, 0u);
  EXPECT_GT(f.points_dropped_spike, 0u);
  EXPECT_GT(f.timestamps_repaired, 0u);
  EXPECT_GT(f.strokes_repaired, 0u);
}

TEST(TouchExactTest, PointFaultsOnContactStrokesMatchReference) {
  const std::vector<ContactGroup> clean = CleanCorpus(6, 44);
  robust::FaultInjectorOptions options;
  options.fault_rate = 0.5;
  options.max_faults_per_stroke = 3;
  for (std::size_t k = robust::kNumPointFaultKinds; k < robust::kNumFaultKinds; ++k) {
    options.enabled[k] = false;
  }
  robust::FaultInjector injector(options, 45);
  Coverage coverage;
  for (const ContactGroup& g : clean) {
    ContactGroup damaged = g;
    for (Contact& c : damaged.contacts()) {
      c.stroke = injector.Corrupt(c.stroke);
    }
    CompareAll(damaged, &coverage);
  }
  EXPECT_GT(coverage.faults.timestamps_repaired, 0u);
  EXPECT_GT(coverage.faults.strokes_repaired, 0u);
}

TEST(TouchExactTest, GapExactlyAtDebounceWindowIsStitchedLikeReference) {
  const ContactPolicy policy;
  // 5 ms sampling: 3 x median = 15 ms, so the window is debounce_window_ms.
  const ContactGroup group({MakeContact(1, Line(0.0, 0.0, 0.0, 5.0, 21)),
                            MakeContact(2, Line(21.0, 0.0, 100.0 + policy.debounce_window_ms,
                                               5.0, 21))});
  ContactReport report;
  ASSERT_TRUE(robust::ContactTracker(policy).Track(group, &report).ok());
  EXPECT_EQ(report.bounces_stitched, 1u);
  CompareAll(group, nullptr);
}

TEST(TouchExactTest, GapAboveWindowOnSlowStrokeTakesTheMedian) {
  const ContactPolicy policy;
  // 20 ms sampling: the window widens to 3 x 20 = 60 ms.
  for (const double gap : {policy.debounce_window_ms + 10.0, 60.0, 70.0}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    const ContactGroup group({MakeContact(1, Line(0.0, 0.0, 0.0, 20.0, 11)),
                              MakeContact(2, Line(11.0, 0.0, 200.0 + gap, 20.0, 11))});
    ContactReport report;
    ASSERT_TRUE(robust::ContactTracker(policy).Track(group, &report).ok());
    EXPECT_EQ(report.bounces_stitched, gap <= 60.0 ? 1u : 0u);
    CompareAll(group, nullptr);
  }
}

TEST(TouchExactTest, NaNEndTimeTakesTheReferenceBranch) {
  for (const double x2 : {11.0, 500.0}) {  // within and beyond the radius
    std::vector<TimedPoint> first = Line(0.0, 0.0, 0.0, 10.0, 11);
    first.back().t = kNaN;
    const ContactGroup group(
        {MakeContact(1, first), MakeContact(2, Line(x2, 0.0, 300.0, 10.0, 11))});
    CompareAll(group, nullptr);
  }
}

TEST(TouchExactTest, SharedTimestampsAcrossContactsMatchReference) {
  const ContactGroup same({MakeContact(1, Line(0.0, 0.0, 0.0, 8.0, 30)),
                           MakeContact(2, Line(0.0, 60.0, 0.0, 8.0, 30))});
  CompareAll(same, nullptr);
  const ContactGroup interleaved({MakeContact(1, Line(0.0, 0.0, 0.0, 8.0, 30)),
                                  MakeContact(2, Line(0.0, 60.0, 4.0, 8.0, 30)),
                                  MakeContact(3, Line(0.0, -60.0, 16.0, 16.0, 12))});
  CompareAll(interleaved, nullptr);
  // A contact that repeats a timestamp: still time-ordered, and the sample
  // between the repeats must come from the same pair of points.
  std::vector<TimedPoint> stutter = Line(0.0, 0.0, 0.0, 10.0, 12);
  stutter[5].t = stutter[4].t;
  stutter[5].x += 40.0;
  const ContactGroup repeat(
      {MakeContact(1, stutter), MakeContact(2, Line(0.0, 60.0, 5.0, 10.0, 12))});
  CompareAll(repeat, nullptr);
}

TEST(TouchExactTest, SinglePointContactsMatchReference) {
  CompareAll(ContactGroup({MakeContact(1, {{3.0, 4.0, 10.0}})}), nullptr);
  CompareAll(ContactGroup({MakeContact(1, {{3.0, 4.0, 10.0}}),
                           MakeContact(2, {{30.0, 40.0, 10.0}})}),
             nullptr);
  CompareAll(ContactGroup({MakeContact(1, Line(0.0, 0.0, 0.0, 10.0, 15)),
                           MakeContact(2, {{50.0, 0.0, 70.0}})}),
             nullptr);
}

TEST(TouchExactTest, ValidatorTakesTheMedianBeforeAnyRepair) {
  // Two implausible intervals: the first repair's interval is set by the
  // speed cap (499 px / 20 px/ms), which would shift a median taken after it.
  const Gesture g({{0.0, 0.0, 0.0}, {1.0, 0.0, 10.0}, {500.0, 0.0, 10.0}, {501.0, 0.0, 10.0}});
  ValidationReport report;
  auto validated = robust::StrokeValidator().Validate(g, &report);
  ASSERT_TRUE(validated.ok());
  EXPECT_EQ(report.timestamps_repaired, 2u);
  EXPECT_DOUBLE_EQ((*validated)[3].t, (*validated)[2].t + 10.0);
  for (const ValidationPolicy& policy : StrokePolicies()) {
    CompareValidate(g, policy);
  }
}

TEST(TouchExactTest, OffContractTimestampsStayInBounds) {
  // Decreasing or NaN timestamps are outside ComputeTouchTrack's contract;
  // the answer is unspecified but it must not read out of range.
  std::vector<std::vector<TimedPoint>> strokes;
  std::vector<TimedPoint> decreasing = Line(0.0, 0.0, 400.0, -10.0, 40);
  strokes.push_back(decreasing);
  std::vector<TimedPoint> zigzag = Line(0.0, 0.0, 0.0, 10.0, 40);
  for (std::size_t i = 1; i < zigzag.size(); i += 3) {
    zigzag[i].t -= 25.0;
  }
  strokes.push_back(zigzag);
  for (const std::size_t at : {std::size_t{0}, std::size_t{7}, std::size_t{39}}) {
    std::vector<TimedPoint> nan = Line(0.0, 0.0, 0.0, 10.0, 40);
    nan[at].t = kNaN;
    strokes.push_back(nan);
  }
  std::vector<TimedPoint> all_nan = Line(0.0, 0.0, 0.0, 10.0, 20);
  for (TimedPoint& p : all_nan) {
    p.t = kNaN;
  }
  strokes.push_back(all_nan);
  for (std::size_t a = 0; a < strokes.size(); ++a) {
    for (std::size_t b = 0; b < strokes.size(); ++b) {
      const ContactGroup group({MakeContact(1, strokes[a]), MakeContact(2, strokes[b]),
                                MakeContact(3, Line(0.0, 80.0, 0.0, 10.0, 40))});
      const toolkit::TouchTrack track = toolkit::ComputeTouchTrack(group);
      EXPECT_LE(track.frames.size(), group.TotalPoints());
      for (const toolkit::TouchFrame& f : track.frames) {
        EXPECT_LE(f.active, group.size());
      }
    }
  }
}

}  // namespace
}  // namespace grandma
