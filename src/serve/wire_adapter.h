// Bridges io::WireEvent (the grandma-events v1 on-disk record, defined in
// the io layer without a serve dependency) and serve::ServeEvent (the
// in-process queued unit of work). Header-only; the static_asserts pin the
// two event-type enums to each other so the wire byte stays meaningful.
#ifndef GRANDMA_SRC_SERVE_WIRE_ADAPTER_H_
#define GRANDMA_SRC_SERVE_WIRE_ADAPTER_H_

#include <utility>

#include "io/event_wire.h"
#include "serve/event.h"

namespace grandma::serve {

static_assert(static_cast<std::uint8_t>(io::WireEventType::kStrokeBegin) ==
              static_cast<std::uint8_t>(EventType::kStrokeBegin));
static_assert(static_cast<std::uint8_t>(io::WireEventType::kPoints) ==
              static_cast<std::uint8_t>(EventType::kPoints));
static_assert(static_cast<std::uint8_t>(io::WireEventType::kStrokeEnd) ==
              static_cast<std::uint8_t>(EventType::kStrokeEnd));
static_assert(static_cast<std::uint8_t>(io::WireEventType::kSessionEnd) ==
              static_cast<std::uint8_t>(EventType::kSessionEnd));

// Consumes the wire event: its points vector is adopted when it does not fit
// inline. enqueue_time is left for Submit to stamp.
inline ServeEvent ToServeEvent(io::WireEvent wire) {
  ServeEvent event;
  event.session = wire.session;
  event.type = static_cast<EventType>(wire.type);
  event.stroke = wire.stroke;
  event.deadline_us = wire.deadline_us;
  event.points = std::move(wire.points);
  return event;
}

// Consumes the event: a spilled points vector moves back out uncopied.
inline io::WireEvent ToWireEvent(ServeEvent event) {
  io::WireEvent wire;
  wire.session = event.session;
  wire.type = static_cast<io::WireEventType>(event.type);
  wire.stroke = event.stroke;
  wire.deadline_us = event.deadline_us;
  wire.points = std::move(event.points).TakeVector();
  return wire;
}

}  // namespace grandma::serve

#endif  // GRANDMA_SRC_SERVE_WIRE_ADAPTER_H_
