#include "eager/auc.h"

#include <array>
#include <cmath>
#include <stdexcept>

#include "linalg/simd.h"

namespace grandma::eager {

void Auc::IndexSets() {
  num_complete_ = 0;
  for (const SetInfo& s : sets_) {
    if (s.complete) {
      ++num_complete_;
    }
  }
  complete_prefix_ = true;
  for (std::size_t k = 0; k < sets_.size(); ++k) {
    if (sets_[k].complete != (k < num_complete_)) {
      complete_prefix_ = false;
      break;
    }
  }
}

AucTrainReport Auc::Train(const SubgesturePartition& partition, const AucOptions& options) {
  AucTrainReport report;
  sets_.clear();
  num_complete_ = 0;
  complete_prefix_ = false;
  linear_ = classify::LinearClassifier();
  filter_ = linalg::simd::FireFilter{};

  // Gather the non-empty sets into a dense AUC class list; complete sets
  // first, then incomplete, each remembering its full-classifier class. The
  // classifier reads the partition's feature rows in place.
  classify::TrainingRows data{partition.features.data(), partition.dim, {}};
  bool any_complete = false;
  bool any_incomplete = false;
  for (const bool complete : {true, false}) {
    const auto& side = complete ? partition.complete_sets : partition.incomplete_sets;
    for (classify::ClassId c = 0; c < partition.num_classes(); ++c) {
      if (side[c].empty()) {
        continue;
      }
      (complete ? any_complete : any_incomplete) = true;
      sets_.push_back(SetInfo{complete, c});
      data.classes.emplace_back(side[c]);
    }
  }
  IndexSets();  // Complete-first layout: complete_prefix_ comes out true.

  if (!any_complete && !any_incomplete) {
    throw std::invalid_argument("Auc::Train: empty partition");
  }
  if (!any_incomplete) {
    mode_ = Mode::kAlwaysUnambiguous;
    report.degenerate = true;
    return report;
  }
  if (!any_complete) {
    mode_ = Mode::kAlwaysAmbiguous;
    report.degenerate = true;
    return report;
  }

  report.ridge_used = linear_.Train(data);
  mode_ = Mode::kNormal;

  // Conservative bias: ambiguous five times more likely a priori.
  for (classify::ClassId k = 0; k < sets_.size(); ++k) {
    if (!sets_[k].complete) {
      linear_.AdjustBias(k, options.ambiguous_bias);
    }
  }

  // Tweak pass: no incomplete training subgesture may be classified into a
  // complete set (that is the "serious mistake" — it would fire eager
  // recognition on an ambiguous prefix). Lower offending complete-class
  // constants until clean or the pass budget runs out.
  //
  // Only the first pass needs to evaluate every incomplete subgesture.
  // Incomplete biases never change from here on, and a tweak only lowers a
  // complete bias; a score is its feature sum plus its bias, rounded
  // monotonically, so complete scores never rise. Complete sets are the id
  // prefix, so a subgesture whose first-max winner is incomplete keeps that
  // winner in every later pass. Each later pass therefore evaluates, in
  // partition order, only the subgestures the previous pass adjusted: the
  // same AdjustBias sequence as evaluating everything, with the same bits.
  // Should an adjustment fail to leave a finite, strictly lower bias (a NaN
  // or infinite gap), that argument no longer holds, and from then on every
  // subgesture is evaluated again.
  //
  // The same argument lets each pass screen its subgestures with a fire
  // filter built from the biases at the pass's start (see
  // simd::FireFilter): the filter proves a row's winner incomplete under
  // those biases, and while the pass runs the incomplete scores stay put and
  // the complete ones only fall, so the proof still holds when the row is
  // reached. Once `monotone` is false the filter is dropped with it. Rows
  // the filter cannot settle take the exact sweep, so the adjustments are
  // the unscreened ones, bit for bit.
  struct Entry {
    classify::ClassId set;
    std::size_t index;
  };
  std::vector<Entry> worklist;  // the previous pass's adjustments, in order
  std::vector<Entry> adjusted;
  bool monotone = true;
  std::vector<double> scores(linear_.num_classes());
  const linalg::MutVecView scores_view(scores.data(), scores.size());
  report.converged = false;
  for (std::size_t pass = 0; pass < options.max_tweak_passes; ++pass) {
    ++report.tweak_passes;
    adjusted.clear();
    const linalg::simd::FireFilter filter =
        monotone ? linear_.BuildFireFilter(num_complete_) : linalg::simd::FireFilter{};
    std::size_t next = 0;  // the next worklist entry
    for (classify::ClassId c = 0; c < partition.num_classes(); ++c) {
      for (std::size_t i = 0; i < partition.incomplete_sets[c].size(); ++i) {
        const bool listed = next < worklist.size() && worklist[next].set == c &&
                            worklist[next].index == i;
        next += listed ? 1 : 0;
        if (pass > 0 && monotone && !listed) {
          continue;
        }
        const linalg::VecView f = partition.Row(partition.incomplete_sets[c][i]);
        if (!WinnerComplete(f, monotone ? &filter : nullptr)) {
          continue;  // The winner is an incomplete set: nothing to correct.
        }
        const classify::ClassId winner = linear_.BestClassView(f, scores_view);
        // Best incomplete score: the target the winner must drop below.
        double best_incomplete = 0.0;
        bool first = true;
        for (classify::ClassId k = num_complete_; k < scores.size(); ++k) {
          if (first || scores[k] > best_incomplete) {
            best_incomplete = scores[k];
            first = false;
          }
        }
        const double gap = scores[winner] - best_incomplete;
        const double delta = gap * (1.0 + options.tweak_margin) + 1e-9;
        const double before = linear_.bias(winner);
        linear_.AdjustBias(winner, -delta);
        const double after = linear_.bias(winner);
        monotone = monotone && std::isfinite(after) && after < before;
        adjusted.push_back(Entry{c, i});
      }
    }
    report.tweak_adjustments += adjusted.size();
    if (adjusted.empty()) {
      report.converged = true;
      break;
    }
    worklist.swap(adjusted);
  }
  // The biases are final: mirror the block for the fire check's filter.
  filter_ = linear_.BuildFireFilter(num_complete_);
  return report;
}

bool Auc::Unambiguous(linalg::VecView masked_features) const {
  std::vector<double> scores(linear_.num_classes());
  return UnambiguousView(masked_features, linalg::MutVecView(scores.data(), scores.size()));
}

bool Auc::UnambiguousView(linalg::VecView masked_features, linalg::MutVecView scores) const {
  switch (mode_) {
    case Mode::kUntrained:
      throw std::logic_error("Auc::Unambiguous before Train");
    case Mode::kAlwaysAmbiguous:
      return false;
    case Mode::kAlwaysUnambiguous:
      return true;
    case Mode::kNormal:
      break;
  }
  if (complete_prefix_) {
    // D(s) needs only which SIDE of the complete/incomplete split the
    // winning set is on, never its index — and Train lays complete sets out
    // as the id prefix. The batched fire check answers that for a batch of
    // one with no score stores and no argmax pass; `scores` stays untouched
    // scratch. No filter: this per-point path is the exact reference the
    // batched, filtered FirstUnambiguous is checked against.
    return WinnerComplete(masked_features, nullptr);
  }
  const classify::ClassId winner = linear_.BestClassView(masked_features, scores);
  return sets_[winner].complete;
}

bool Auc::WinnerComplete(linalg::VecView masked_features,
                         const linalg::simd::FireFilter* filter) const {
  if (masked_features.size() > linalg::simd::kMaxColumns) {
    throw std::invalid_argument("Auc: more features than a row gather holds");
  }
  return linear_.FirstWinnerInPrefix(masked_features.data(), 1, masked_features.size(),
                                     linalg::simd::kIdentityColumns.data(), num_complete_,
                                     filter) == 0;
}

std::size_t Auc::FirstUnambiguous(const double* rows, std::size_t batch, std::size_t stride,
                                  const std::size_t* columns, linalg::MutVecView scores) const {
  switch (mode_) {
    case Mode::kUntrained:
      throw std::logic_error("Auc::Unambiguous before Train");
    case Mode::kAlwaysAmbiguous:
      return kNone;
    case Mode::kAlwaysUnambiguous:
      return batch > 0 ? 0 : kNone;
    case Mode::kNormal:
      break;
  }
  const std::size_t dim = linear_.dimension();
  if (dim > linalg::simd::kMaxColumns) {
    throw std::invalid_argument("Auc::FirstUnambiguous: more features than a row gather holds");
  }
  if (complete_prefix_) {
    // The batched fused fire check (see UnambiguousView): one kernel call
    // reads the rows through the column list and stops at the first complete
    // winner; `scores` stays untouched scratch. The filter only skips rows
    // that provably do not fire.
    const std::size_t r =
        linear_.FirstWinnerInPrefix(rows, batch, stride, columns, num_complete_, &filter_);
    return r < batch ? r : kNone;
  }
  std::array<double, linalg::simd::kMaxColumns> masked{};
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t i = 0; i < dim; ++i) {
      masked[i] = rows[r * stride + columns[i]];
    }
    if (sets_[linear_.BestClassView(linalg::ViewOf(masked, dim), scores)].complete) {
      return r;
    }
  }
  return kNone;
}

Auc Auc::FromParameters(Mode mode, classify::LinearClassifier linear,
                        std::vector<SetInfo> sets) {
  Auc out;
  out.mode_ = mode;
  out.linear_ = std::move(linear);
  out.sets_ = std::move(sets);
  out.IndexSets();
  if (out.mode_ == Mode::kNormal && out.complete_prefix_ && out.linear_.trained()) {
    out.filter_ = out.linear_.BuildFireFilter(out.num_complete_);
  }
  return out;
}

classify::Classification Auc::Classify(const linalg::Vector& masked_features) const {
  if (mode_ != Mode::kNormal) {
    throw std::logic_error("Auc::Classify is only meaningful in normal mode");
  }
  return linear_.Classify(masked_features);
}

}  // namespace grandma::eager
