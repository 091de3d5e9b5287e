#include "robust/fault_stats.h"

#include <sstream>
#include <utility>

namespace grandma::robust {

namespace {

// One place that knows every field, so Merge/ToString/ToJson cannot drift
// out of sync with the struct definition. A static table, so Merge (once per
// group on the touch serve path) never allocates.
constexpr std::pair<const char*, std::uint64_t FaultStats::*> kFields[] = {
    {"strokes_validated", &FaultStats::strokes_validated},
    {"strokes_clean", &FaultStats::strokes_clean},
    {"strokes_repaired", &FaultStats::strokes_repaired},
    {"strokes_rejected", &FaultStats::strokes_rejected},
    {"points_dropped_nonfinite", &FaultStats::points_dropped_nonfinite},
    {"points_dropped_out_of_range", &FaultStats::points_dropped_out_of_range},
    {"points_dropped_spike", &FaultStats::points_dropped_spike},
    {"timestamps_repaired", &FaultStats::timestamps_repaired},
    {"groups_tracked", &FaultStats::groups_tracked},
    {"groups_clean", &FaultStats::groups_clean},
    {"groups_repaired", &FaultStats::groups_repaired},
    {"groups_rejected", &FaultStats::groups_rejected},
    {"groups_degraded", &FaultStats::groups_degraded},
    {"contacts_tracked", &FaultStats::contacts_tracked},
    {"contacts_passed_clean", &FaultStats::contacts_passed_clean},
    {"contacts_repaired", &FaultStats::contacts_repaired},
    {"contacts_rejected", &FaultStats::contacts_rejected},
    {"contact_bounces_stitched", &FaultStats::contact_bounces_stitched},
    {"palms_rejected", &FaultStats::palms_rejected},
    {"contact_late_joiners_dropped", &FaultStats::contact_late_joiners_dropped},
    {"contact_id_swaps_repaired", &FaultStats::contact_id_swaps_repaired},
    {"training_examples_dropped", &FaultStats::training_examples_dropped},
    {"covariance_ridge_repairs", &FaultStats::covariance_ridge_repairs},
    {"covariance_diagonal_fallbacks", &FaultStats::covariance_diagonal_fallbacks},
    {"eager_twophase_fallbacks", &FaultStats::eager_twophase_fallbacks},
    {"handler_exceptions", &FaultStats::handler_exceptions},
    {"handlers_quarantined", &FaultStats::handlers_quarantined},
    {"events_skipped_quarantined", &FaultStats::events_skipped_quarantined},
};

}  // namespace

void FaultStats::Merge(const FaultStats& other) {
  for (const auto& [name, member] : kFields) {
    (void)name;
    this->*member += other.*member;
  }
}

std::uint64_t FaultStats::TotalFaultEvents() const {
  std::uint64_t total = 0;
  for (const auto& [name, member] : kFields) {
    (void)name;
    total += this->*member;
  }
  return total - strokes_validated - strokes_clean - groups_tracked - groups_clean -
         contacts_tracked - contacts_passed_clean;
}

std::string FaultStats::ToString() const {
  std::ostringstream out;
  for (const auto& [name, member] : kFields) {
    const std::uint64_t value = this->*member;
    if (value != 0) {
      out << name << ": " << value << '\n';
    }
  }
  return out.str();
}

std::string FaultStats::ToJson() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, member] : kFields) {
    if (!first) {
      out << ", ";
    }
    first = false;
    out << '"' << name << "\": " << this->*member;
  }
  out << '}';
  return out.str();
}

}  // namespace grandma::robust
