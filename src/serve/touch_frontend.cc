#include "serve/touch_frontend.h"

#include <sstream>
#include <utility>

namespace grandma::serve {

std::string TouchFrontEndStats::ToString() const {
  std::ostringstream os;
  os << "groups_in=" << groups_in << " rejected=" << groups_rejected
     << " degraded=" << groups_degraded << " single=" << routed_single_stroke
     << " touch=" << routed_touch << " kinds=[";
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    if (k > 0) {
      os << ' ';
    }
    os << toolkit::TouchGestureKindName(static_cast<toolkit::TouchGestureKind>(k)) << ':'
       << by_kind[k];
  }
  os << ']';
  return os.str();
}

TouchFrontEnd::TouchFrontEnd(RecognitionServer* server, TouchFrontEndOptions options)
    : server_(server), options_(std::move(options)), tracker_(options_.policy) {}

robust::StatusOr<TouchSubmitResult> TouchFrontEnd::Submit(SessionId session, UserId user,
                                                          StrokeId stroke,
                                                          const geom::ContactGroup& raw) {
  TouchSubmitResult result;
  robust::FaultStats faults;
  auto tracked = tracker_.Track(raw, &result.report, &faults);
  if (!tracked.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.groups_in;
    ++stats_.groups_rejected;
    stats_.faults.Merge(faults);
    return tracked.status();
  }
  result.degraded = tracked->degraded;
  result.track = toolkit::ComputeTouchTrack(tracked->group, options_.attributes);

  const bool single = result.track.kind == toolkit::TouchGestureKind::kSingleStroke;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.groups_in;
    if (result.degraded) {
      ++stats_.groups_degraded;
    }
    if (single) {
      ++stats_.routed_single_stroke;
    } else {
      ++stats_.routed_touch;
    }
    ++stats_.by_kind[static_cast<std::size_t>(result.track.kind)];
    stats_.faults.Merge(faults);
  }

  if (single && server_ != nullptr) {
    geom::Gesture& primary = tracked->group[result.track.primary_index].stroke;
    ServeEvent begin{session, EventType::kStrokeBegin, stroke, options_.deadline_us, {}, user};
    if (auto s = server_->Submit(std::move(begin)); !s.ok()) {
      return s;
    }
    // The stroke's vector is adopted, not copied.
    ServeEvent points{.session = session, .type = EventType::kPoints, .stroke = stroke,
                      .deadline_us = options_.deadline_us, .user = user,
                      .points = std::move(primary).TakePoints()};
    if (auto s = server_->Submit(std::move(points)); !s.ok()) {
      return s;
    }
    ServeEvent end{session, EventType::kStrokeEnd, stroke, options_.deadline_us, {}, user};
    if (auto s = server_->Submit(std::move(end)); !s.ok()) {
      return s;
    }
    result.routed_to_classifier = true;
  }
  return result;
}

TouchFrontEndStats TouchFrontEnd::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace grandma::serve
