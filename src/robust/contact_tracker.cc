#include "robust/contact_tracker.h"

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

// Working record: one contact plus its lifecycle history. Terminal buckets
// (clean/repaired/rejected) are assigned once per *input* contact, which is
// what keeps the accounting invariant exact.
struct Slot {
  geom::Contact contact;
  bool repaired = false;
};

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

}  // namespace

StatusOr<TrackedGroup> ContactTracker::Track(const geom::ContactGroup& in,
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

  // Each contact is copied once, into its slot, and the slots are ordered by
  // (start time, id): the pairwise passes below and the attribute pass
  // downstream require this deterministic order.
  std::vector<Slot> slots;
  slots.reserve(in.size());
  for (const geom::Contact& c : in.contacts()) {
    slots.push_back(Slot{c, /*repaired=*/false});
  }
  std::stable_sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.contact.StartTime() != b.contact.StartTime()) {
      return a.contact.StartTime() < b.contact.StartTime();
    }
    return a.contact.id < b.contact.id;
  });

  // Pass 1: debounce. A contact re-landing within the window (widened to a
  // few sample intervals for slow devices) and radius of another contact's
  // release is chatter: its points are stitched back onto the releasing
  // contact and the spurious slot disappears. Chained chatter stitches
  // repeatedly because the merged contact's release moves later each time.
  // The window is never narrower than debounce_window_ms, so only a longer
  // gap needs the median (a NaN gap is never "> window" either, so it falls
  // through as before); concurrent contacts have negative gaps.
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < slots.size() && !merged; ++i) {
      if (slots[i].contact.stroke.empty()) {
        continue;
      }
      std::optional<double> window;
      for (std::size_t j = 0; j < slots.size() && !merged; ++j) {
        if (j == i || slots[j].contact.stroke.empty()) {
          continue;
        }
        const double gap = slots[j].contact.StartTime() - slots[i].contact.EndTime();
        if (gap < 0.0) {
          continue;
        }
        if (gap > policy_.debounce_window_ms) {
          if (!window) {
            window = std::max(policy_.debounce_window_ms,
                              3.0 * MedianSampleInterval(slots[i].contact.stroke.span(),
                                                         policy_.debounce_window_ms));
          }
          if (gap > *window) {
            continue;
          }
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
  const StrokeValidator validator(policy_.stroke);
  TrackedGroup out;
  out.group.contacts().reserve(slots.size());
  for (Slot& s : slots) {
    ValidationReport vreport;
    auto validated = validator.Validate(std::move(s.contact.stroke), &vreport, stats);
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

}  // namespace grandma::robust
