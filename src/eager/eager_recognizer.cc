#include "eager/eager_recognizer.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "obs/trace.h"

namespace grandma::eager {

namespace {

// An AUC whose discriminant contains NaN/Inf would answer D(s) arbitrarily;
// treat it like a failed training run.
bool AucWellConditioned(const Auc& auc) {
  if (auc.mode() != Auc::Mode::kNormal) {
    return true;
  }
  const classify::LinearClassifier& linear = auc.linear();
  for (classify::ClassId c = 0; c < linear.num_classes(); ++c) {
    if (!std::isfinite(linear.bias(c))) {
      return false;
    }
    for (double w : linear.weights(c)) {
      if (!std::isfinite(w)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

EagerTrainReport EagerRecognizer::Train(const classify::GestureTrainingSet& training,
                                        const EagerTrainOptions& options) {
  TRACE_SPAN("eager.train");
  EagerTrainReport report;
  min_prefix_points_ = std::max<std::size_t>(options.labeler.min_prefix_points, 1);

  // The full classifier is the load-bearing half; if it cannot be trained the
  // recognizer is unusable and the error propagates to the caller.
  report.full_classifier_ridge = full_.Train(training, options.mask, options.stats);
  columns_ = full_.mask().Columns();

  // The AUC is an optimization: failure to train it must never take down the
  // session. Fall back to mouse-up two-phase recognition (D always answers
  // "ambiguous") and account for the degradation.
  try {
    SubgesturePartition partition = LabelSubgestures(full_, training, options.labeler);
    report.complete_before_move = partition.total_complete();
    report.incomplete_before_move = partition.total_incomplete();

    report.mover = MoveAccidentallyComplete(full_, partition, options.mover);
    report.auc = auc_.Train(partition, options.auc);
    if (!AucWellConditioned(auc_)) {
      throw std::runtime_error("EagerRecognizer::Train: AUC is ill-conditioned");
    }
  } catch (const std::exception&) {
    auc_ = Auc::FromParameters(Auc::Mode::kAlwaysAmbiguous, {}, {});
    report.auc = AucTrainReport{};
    report.auc.degenerate = true;
    report.eager_fallback = true;
    if (options.stats != nullptr) {
      ++options.stats->eager_twophase_fallbacks;
    }
  }
  return report;
}

EagerRecognizer EagerRecognizer::FromParameters(classify::GestureClassifier full, Auc auc,
                                                std::size_t min_prefix_points) {
  EagerRecognizer out;
  out.full_ = std::move(full);
  out.auc_ = std::move(auc);
  out.min_prefix_points_ = min_prefix_points;
  out.columns_ = out.full_.mask().Columns();
  return out;
}

bool EagerRecognizer::UnambiguousFeatures(const linalg::Vector& full_features) const {
  return auc_.Unambiguous(full_.mask().Project(full_features));
}

bool EagerRecognizer::Unambiguous(linalg::VecView full_features, Workspace& ws) const {
  TRACE_SPAN_FINE("eager.unambiguous");
  ws.Prepare(num_classes(), auc_.num_sets());
  const features::FeatureMask& mask = full_.mask();
  const linalg::MutVecView masked = ws.MaskedView(mask.count());
  mask.ProjectInto(full_features, masked);
  return auc_.UnambiguousView(masked, ws.AucScoresView());
}

std::size_t EagerRecognizer::FirstUnambiguous(const double* feature_rows, std::size_t batch,
                                              std::size_t row_stride, Workspace& ws) const {
  assert(batch <= Workspace::kBatchPoints);
  ws.Prepare(num_classes(), auc_.num_sets());
  return auc_.FirstUnambiguous(feature_rows, batch, row_stride, columns_.data(),
                               ws.AucScoresView());
}

classify::Classification EagerRecognizer::Classify(linalg::VecView full_features,
                                                   Workspace& ws) const {
  TRACE_SPAN("eager.classify");
  ws.Prepare(num_classes(), auc_.num_sets());
  const std::size_t masked_dim = full_.mask().count();
  return full_.ClassifyFeaturesView(full_features, ws.MaskedView(masked_dim),
                                    ws.FullScoresView(), ws.DiffView(masked_dim));
}

std::size_t EagerRecognizer::ClassifyNBest(linalg::VecView full_features, Workspace& ws,
                                           std::span<classify::NBestEntry> out,
                                           classify::Classification* top) const {
  TRACE_SPAN("eager.classify_nbest");
  ws.Prepare(num_classes(), auc_.num_sets());
  const std::size_t masked_dim = full_.mask().count();
  return full_.EvaluateNBestView(full_features, ws.MaskedView(masked_dim), ws.FullScoresView(),
                                 ws.DiffView(masked_dim), out, top);
}

bool EagerStream::AddPoint(const geom::TimedPoint& p) {
  // The one per-point coarse span on the hot path: everything the stream does
  // for this point (extract, snapshot, ambiguity test) nests under it.
  TRACE_SPAN("eager.point");
  extractor_.AddPoint(p);
  if (fired_ || extractor_.point_count() < recognizer_->min_prefix_points()) {
    return false;
  }
  extractor_.FeaturesInto(workspace_.FeaturesView());
  if (recognizer_->Unambiguous(workspace_.FeaturesView(), workspace_)) {
    fired_ = true;
    fired_at_ = extractor_.point_count();
    return true;
  }
  return false;
}

void EagerStream::AddSpan(std::span<const geom::TimedPoint> points, FireEvent* fire) {
  if (fire != nullptr) {
    *fire = FireEvent{};
  }
  std::size_t i = 0;
  const std::size_t n = points.size();
  const std::size_t min_prefix = recognizer_->min_prefix_points();
  while (i < n) {
    if (fired_) {
      // Post-fire points only feed the extractor, exactly like AddPoint, but
      // each still gets its per-point span.
      for (; i < n; ++i) {
        TRACE_SPAN("eager.point");
        extractor_.AddPoint(points[i]);
      }
      return;
    }
    // Ingest one chunk: extract per point and snapshot the feature rows that
    // are past the minimum prefix. Row r fires at point count
    // first_row_count + r — rows are consecutive points by construction.
    const std::size_t chunk = std::min(Workspace::kBatchPoints, n - i);
    std::size_t rows = 0;
    std::size_t first_row_count = 0;
    for (std::size_t k = 0; k < chunk; ++k) {
      TRACE_SPAN("eager.point");
      extractor_.AddPoint(points[i + k]);
      if (extractor_.point_count() >= min_prefix) {
        extractor_.FeaturesInto(workspace_.FeatureRowView(rows));
        if (rows == 0) {
          first_row_count = extractor_.point_count();
        }
        ++rows;
      }
    }
    i += chunk;
    if (rows == 0) {
      continue;
    }
    std::size_t fire_row = Auc::kNone;
    {
      TRACE_SPAN_FINE("eager.batch");
      fire_row = recognizer_->FirstUnambiguous(workspace_.feature_block.data(), rows,
                                               features::kNumFeatures, workspace_);
    }
    if (fire_row == Auc::kNone) {
      continue;
    }
    fired_ = true;
    fired_at_ = first_row_count + fire_row;
    if (fire != nullptr) {
      fire->fired = true;
      fire->fired_at = fired_at_;
      // Classify from the stored snapshot of the firing row: bit-identical
      // to calling ClassifyNow at the moment the per-point path fired.
      linalg::Copy(
          linalg::VecView(workspace_.feature_block.data() + fire_row * features::kNumFeatures,
                          features::kNumFeatures),
          workspace_.FeaturesView());
      if (nbest_depth_ > 0) {
        fire->nbest_count = recognizer_->ClassifyNBest(
            workspace_.FeaturesView(), workspace_,
            std::span<classify::NBestEntry>(fire->nbest.data(), nbest_depth_),
            &fire->classification);
      } else {
        fire->classification = recognizer_->Classify(workspace_.FeaturesView(), workspace_);
      }
    }
  }
}

classify::Classification EagerStream::ClassifyNow() const {
  extractor_.FeaturesInto(workspace_.FeaturesView());
  return recognizer_->Classify(workspace_.FeaturesView(), workspace_);
}

std::size_t EagerStream::ClassifyNowNBest(std::span<classify::NBestEntry> out,
                                          classify::Classification* top) const {
  extractor_.FeaturesInto(workspace_.FeaturesView());
  const std::size_t depth = std::min(out.size(), nbest_depth_);
  return recognizer_->ClassifyNBest(workspace_.FeaturesView(), workspace_, out.first(depth),
                                    top);
}

linalg::VecView EagerStream::FeaturesView() const {
  extractor_.FeaturesInto(workspace_.FeaturesView());
  return workspace_.FeaturesView();
}

void EagerStream::Reset() {
  extractor_.Reset();
  fired_ = false;
  fired_at_ = 0;
}

}  // namespace grandma::eager
