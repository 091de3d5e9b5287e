// Multi-contact input: one Contact is a single touch lifetime (finger or
// palm) — an id assigned at touch-down, a reported contact area, and the
// timed point sequence between down and up. A ContactGroup is everything a
// device reported during one multi-touch interaction (pinch, rotate, swipe,
// or a single finger plus a stray palm). This is the raw-device vocabulary:
// ids may chatter, areas may be palms, lifetimes may overlap arbitrarily.
// robust::ContactTracker turns a raw group into a repaired one; clean-geometry
// consumers (toolkit attribute computation, serve) run behind it.
#ifndef GRANDMA_SRC_GEOM_CONTACT_H_
#define GRANDMA_SRC_GEOM_CONTACT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/gesture.h"

namespace grandma::geom {

// One contact lifetime: down at stroke.front().t, up at stroke.back().t.
struct Contact {
  // Slot id assigned at touch-down. Unique within a group on a well-behaved
  // device; chattering hardware reuses or swaps ids, which is exactly what
  // the tracker repairs.
  std::int32_t id = 0;
  // Reported contact area in px^2 (touch-major ellipse, roughly). Fingertips
  // are ~40-90; palms are hundreds. 0 when the device does not report area.
  double area = 0.0;
  Gesture stroke;

  double StartTime() const { return stroke.empty() ? 0.0 : stroke.front().t; }
  double EndTime() const { return stroke.empty() ? 0.0 : stroke.back().t; }
  double Duration() const { return EndTime() - StartTime(); }

  friend bool operator==(const Contact&, const Contact&) = default;
};

// An unordered set of contact lifetimes from one interaction.
class ContactGroup {
 public:
  ContactGroup() = default;
  explicit ContactGroup(std::vector<Contact> contacts) : contacts_(std::move(contacts)) {}

  std::size_t size() const { return contacts_.size(); }
  bool empty() const { return contacts_.empty(); }

  const Contact& operator[](std::size_t i) const { return contacts_[i]; }
  Contact& operator[](std::size_t i) { return contacts_[i]; }
  const std::vector<Contact>& contacts() const { return contacts_; }
  std::vector<Contact>& contacts() { return contacts_; }

  void AddContact(Contact c) { contacts_.push_back(std::move(c)); }

  // Earliest touch-down across contacts; 0 when empty.
  double StartTime() const;
  // Latest touch-up across contacts; 0 when empty.
  double EndTime() const;
  double Duration() const { return EndTime() - StartTime(); }

  // Total points across all contacts.
  std::size_t TotalPoints() const;

  // Bounding box over every contact's points.
  BoundingBox Bounds() const;

  friend bool operator==(const ContactGroup&, const ContactGroup&) = default;

  std::string ToString() const;

 private:
  std::vector<Contact> contacts_;
};

}  // namespace grandma::geom

#endif  // GRANDMA_SRC_GEOM_CONTACT_H_
