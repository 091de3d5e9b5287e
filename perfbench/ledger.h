// The traced replay: the workload's schedule replayed on one thread through
// the session layer, with a span around each public call into a layer. The
// layers below a call are timed by calling them again, from the benchmark,
// on identical inputs (the program's own tracing stays off), so a layer's
// self time is its call time minus the time of the next layer's calls:
//
//   session.get_or_create   SessionManager::GetOrCreate
//   session.begin_stroke    Session::BeginStroke
//   session.add_points      Session::AddPoints
//     eager.add_span          EagerStream::AddSpan
//       features.add_snap       FeatureExtractor::AddPoint + FeaturesInto
//         features.add_point      FeatureExtractor::AddPoint
//       eager.fire_check        EagerRecognizer::FirstUnambiguous
//       classify.fire           EagerRecognizer::Classify or ClassifyNBest
//   session.end_stroke      Session::EndStroke
//     features.snapshot_end   FeatureExtractor::FeaturesInto
//     classify.end            EagerRecognizer::Classify or ClassifyNBest
//   touch.frontend          TouchFrontEnd::Submit (no server behind it)
//     touch.track             ContactTracker::Track
//     touch.attributes        toolkit::ComputeTouchTrack
//
// The kernel the session does not use (plain Classify under n-best, or
// ClassifyNBest without it) is timed too, outside the ledger.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <memory>

#include "inputs.h"
#include "serve/recognizer_bundle.h"
#include "serve_run.h"

namespace perfbench {

struct LedgerReport {
  double features_add_point_ns = 0.0;
  double features_snapshot_ns = 0.0;
  double eager_fire_check_ns_per_row = 0.0;
  double eager_add_span_ns_per_point = 0.0;
  double eager_rows_per_fire = 0.0;
  double eager_post_fire_point_frac = 0.0;
  double classify_fire_ns = 0.0;
  double classify_end_ns = 0.0;
  double classify_nbest_ns = 0.0;
  double session_get_or_create_ns = 0.0;
  double session_add_points_self_ns = 0.0;
  double session_end_stroke_ns = 0.0;
  double touch_track_ns = 0.0;
  double touch_attributes_ns = 0.0;
  double touch_frontend_self_ns = 0.0;
  // Touch routing of the replayed groups (the workload's own groups on
  // touch_mixed; each stroke as a one-contact group elsewhere).
  double touch_rejected_frac = 0.0;
  double touch_routed_single_frac = 0.0;
  // (sum of self times - untraced time of the same calls) / untraced time,
  // over equal numbers of laps of each.
  double ledger_gap_frac = 0.0;
  std::uint64_t laps = 0;
  // Replay answers (session results, fire rows, classes, touch routes) that
  // differ from the reference.
  std::uint64_t mismatches = 0;
  std::uint64_t fires = 0;
};

// Replays for about `seconds`, alternating untraced and traced laps.
// `clock_overhead_ns` is subtracted from every span.
LedgerReport RunLedger(const WorkloadSpec& spec, const Inputs& inputs, const Lap& lap,
                       const std::shared_ptr<const grandma::serve::RecognizerBundle>& bundle,
                       double seconds, double clock_overhead_ns);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
