// Workload definitions and their generated inputs. Everything here is built
// from the seed before any timing starts; the program under test receives
// only these inputs. The single-threaded reference answers every served
// answer is checked against are computed here too.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "classify/linear_classifier.h"
#include "classify/training_set.h"
#include "eager/eager_recognizer.h"
#include "geom/contact.h"
#include "geom/gesture.h"
#include "robust/status.h"
#include "serve/event.h"
#include "toolkit/touch_attributes.h"

namespace perfbench {

using grandma::classify::ClassId;
using grandma::classify::kMaxNBest;

enum class InputKind { kGdp, kLexicon200, kTouchMixed };

struct WorkloadSpec {
  const char* name;
  InputKind input;
  std::size_t sessions;
  // Points per kPoints event. Touch groups enter whole through the touch
  // front end, which submits each routed stroke as one event.
  std::size_t points_per_event;
  std::size_t shards;
  std::size_t nbest_depth;
  // Open-loop offered load in points per second (about half of peak_pps
  // measured at the commit that defined the benchmark).
  double open_rate_pps;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

// What the single-threaded reference EagerStream (per-point AddPoint path)
// answered for one stroke. Every served result must equal it.
struct Expected {
  bool fired = false;
  std::uint32_t fired_at = 0;
  std::uint32_t points = 0;
  ClassId fire_class = 0;
  ClassId end_class = 0;
  std::uint32_t nbest_count = 0;
  std::array<ClassId, kMaxNBest> fire_nbest{};
  std::array<ClassId, kMaxNBest> end_nbest{};
};

// A stroke served through the session path.
struct Stroke {
  std::span<const grandma::geom::TimedPoint> points;
  ClassId truth = 0;
  Expected expected;
};

enum class Route : std::uint8_t { kRejected, kSingle, kTouch };

// A raw contact group for the touch front end, with its truth and the
// reference outcome of tracking, attributes and (single strokes) recognition.
struct Group {
  grandma::geom::ContactGroup raw;
  bool truth_single = false;
  ClassId truth_class = 0;
  grandma::toolkit::TouchGestureKind truth_kind = grandma::toolkit::TouchGestureKind::kNone;
  std::size_t points = 0;  // every contact's points
  Route route = Route::kRejected;
  grandma::robust::StatusCode reject_code = grandma::robust::StatusCode::kOk;
  grandma::toolkit::TouchGestureKind kind = grandma::toolkit::TouchGestureKind::kNone;
  // Index into Inputs::strokes of the routed primary stroke (kSingle only).
  std::size_t stroke = 0;
};

struct Inputs {
  grandma::classify::GestureTrainingSet training;
  // Point storage the strokes' spans view; never resized after building.
  std::vector<grandma::geom::Gesture> gestures;
  std::vector<Stroke> strokes;
  std::vector<Group> groups;  // touch_mixed only
};

// Generates the training set and the served inputs of `spec` from `seed`.
// For touch_mixed, `strokes` stays empty until BuildReference fills it with
// the primary strokes the reference routes to the classifier.
Inputs BuildInputs(const WorkloadSpec& spec, std::uint64_t seed);

// Fills every Expected (and, for touch groups, the reference route) with a
// single-threaded run over `recognizer`.
void BuildReference(const WorkloadSpec& spec, const grandma::eager::EagerRecognizer& recognizer,
                    Inputs& inputs);

// True when a served result carries exactly the reference's answer.
bool MatchesReference(const grandma::serve::RecognitionResult& r, const Expected& e);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
