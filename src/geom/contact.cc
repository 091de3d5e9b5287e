#include "geom/contact.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace grandma::geom {

double ContactGroup::StartTime() const {
  double t = std::numeric_limits<double>::infinity();
  for (const Contact& c : contacts_) {
    if (!c.stroke.empty()) {
      t = std::min(t, c.StartTime());
    }
  }
  return std::isfinite(t) ? t : 0.0;
}

double ContactGroup::EndTime() const {
  double t = -std::numeric_limits<double>::infinity();
  for (const Contact& c : contacts_) {
    if (!c.stroke.empty()) {
      t = std::max(t, c.EndTime());
    }
  }
  return std::isfinite(t) ? t : 0.0;
}

std::size_t ContactGroup::TotalPoints() const {
  std::size_t n = 0;
  for (const Contact& c : contacts_) {
    n += c.stroke.size();
  }
  return n;
}

BoundingBox ContactGroup::Bounds() const {
  BoundingBox box;
  bool first = true;
  for (const Contact& c : contacts_) {
    if (c.stroke.empty()) {
      continue;
    }
    const BoundingBox b = c.stroke.Bounds();
    if (first) {
      box = b;
      first = false;
    } else {
      box.min_x = std::min(box.min_x, b.min_x);
      box.min_y = std::min(box.min_y, b.min_y);
      box.max_x = std::max(box.max_x, b.max_x);
      box.max_y = std::max(box.max_y, b.max_y);
    }
  }
  return box;
}

std::string ContactGroup::ToString() const {
  std::ostringstream out;
  out << "ContactGroup(" << contacts_.size() << " contacts";
  for (const Contact& c : contacts_) {
    out << ", id=" << c.id << " area=" << c.area << " pts=" << c.stroke.size() << " ["
        << c.StartTime() << ", " << c.EndTime() << "]";
  }
  out << ")";
  return out.str();
}

}  // namespace grandma::geom
