#include "ledger.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "eager/auc.h"
#include "features/feature_vector.h"
#include "measure.h"
#include "robust/contact_tracker.h"
#include "serve/session_manager.h"
#include "serve/touch_frontend.h"
#include "synth/contact_synth.h"

namespace perfbench {

namespace {

using namespace grandma;

constexpr std::size_t kDim = features::kNumFeatures;
constexpr std::size_t kChunk = eager::Workspace::kBatchPoints;
constexpr std::size_t kMaxChunks = 64;  // per event; bounds the replay's stack arrays

enum Layer : std::size_t {
  kGetOrCreate,
  kBeginStroke,
  kAddPoints,
  kAddSpan,
  kFeatAddSnap,
  kFeatAdd,
  kFireCheck,
  kClassifyFire,
  kNBestFire,
  kEndStroke,
  kFeatSnapEnd,
  kClassifyEnd,
  kNBestEnd,
  kTouchFrontEnd,
  kTouchTrack,
  kTouchAttributes,
  kNumLayers,
};

struct Totals {
  double dur_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;

  double PerCall() const { return calls == 0 ? 0.0 : dur_ns / static_cast<double>(calls); }
  double PerItem() const { return items == 0 ? 0.0 : dur_ns / static_cast<double>(items); }
  double SelfPerCall() const { return calls == 0 ? 0.0 : self_ns / static_cast<double>(calls); }
  double SelfPerItem() const { return items == 0 ? 0.0 : self_ns / static_cast<double>(items); }
};

// The benchmark's own copy of one session's per-stroke state, fed the same
// points as the real session so each lower layer can be timed alone.
struct Shadow {
  explicit Shadow(const eager::EagerRecognizer& r) : stream(r) {}
  eager::EagerStream stream;
  features::FeatureExtractor add_only;  // AddPoint only
  features::FeatureExtractor add_snap;  // AddPoint + FeaturesInto
  std::size_t stroke = 0;
  std::size_t rows_checked = 0;
};

class Replay {
 public:
  Replay(const WorkloadSpec& spec, const Inputs& in, const Lap& lap,
         const std::shared_ptr<const serve::RecognizerBundle>& bundle, double overhead_ns)
      : spec_(spec),
        in_(in),
        lap_(lap),
        recognizer_(bundle->recognizer()),
        nbest_(spec.nbest_depth > 0),
        overhead_ns_(overhead_ns),
        sessions_(bundle, serve::NBestOptions{spec.nbest_depth, {}}),
        front_end_(nullptr) {
    shadows_.reserve(spec.sessions);
    for (std::size_t s = 0; s < spec.sessions; ++s) {
      shadows_.emplace_back(recognizer_);
      shadows_.back().stream.SetNBest(spec.nbest_depth);
    }
    std::size_t longest = 0;
    for (const Stroke& s : in.strokes) {
      longest = std::max(longest, s.points.size());
    }
    if (longest > kMaxChunks * kChunk) {
      throw std::length_error("perfbench: a stroke is too long for the traced replay");
    }
    rows_.resize(longest * kDim);
    sink_ = [this](const serve::RecognitionResult& r) {
      mismatches_ += MatchesReference(r, in_.strokes[r.stroke].expected) ? 0 : 1;
    };
  }

  // One pass over the lap. Returns its wall time in ns.
  double RunLap(bool traced) {
    traced_ = traced;
    const std::int64_t start = NowNs();
    for (const Item& it : lap_.items) {
      if (spec_.input == InputKind::kTouchMixed) {
        GroupItem(it);
      } else {
        EventItem(it.session, it.type, it.unit, it.first, it.count);
      }
      if (traced) {
        Flush(/*ledger_roots=*/true);
      }
    }
    return static_cast<double>(NowNs() - start);
  }

  // Off-ledger probe of the touch layers on every stroke wrapped as a
  // one-contact group (workloads that do not take the touch path).
  void TouchProbe() {
    std::vector<geom::ContactGroup> groups;
    groups.reserve(in_.strokes.size());
    for (const Stroke& s : in_.strokes) {
      groups.push_back(synth::AsContactGroup(geom::Gesture(
          std::vector<geom::TimedPoint>(s.points.begin(), s.points.end()))));
    }
    traced_ = true;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      TouchLayers(static_cast<std::uint32_t>(g), groups[g], /*ledger=*/false);
      Flush(/*ledger_roots=*/false);
    }
  }

  LedgerReport Report() const;
  double traced_ledger_ns() const { return ledger_ns_; }
  serve::TouchFrontEndStats FrontEndStats() const { return front_end_.Stats(); }

 private:
  struct Span {
    Layer layer;
    int parent;
    bool ledger;
    double dur_ns;
    std::uint64_t items;
  };

  template <typename F>
  int Time(Layer layer, int parent, std::uint64_t items, F&& f, bool ledger = true) {
    if (!traced_) {
      f();
      return -1;
    }
    const std::int64_t a = NowNs();
    f();
    const std::int64_t b = NowNs();
    spans_.push_back({layer, parent, ledger, static_cast<double>(b - a) - overhead_ns_, items});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Self time = own time - children's time; roots marked `ledger` add up
  // to the traced cost the ledger reconciles.
  void Flush(bool ledger_roots) {
    child_ns_.assign(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns_[static_cast<std::size_t>(s.parent)] += s.dur_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = totals_[s.layer];
      t.dur_ns += s.dur_ns;
      t.self_ns += s.dur_ns - child_ns_[i];
      t.calls += 1;
      t.items += s.items;
      if (ledger_roots && s.parent < 0 && s.ledger) {
        ledger_ns_ += s.dur_ns;
      }
    }
    spans_.clear();
  }

  void EventItem(std::uint32_t session, serve::EventType type, std::uint32_t stroke,
                 std::uint32_t first, std::uint32_t count) {
    serve::Session* sess = nullptr;
    Time(kGetOrCreate, -1, 1, [&] { sess = &sessions_.GetOrCreate(session); });
    Shadow& sh = shadows_[session];
    switch (type) {
      case serve::EventType::kStrokeBegin:
        Time(kBeginStroke, -1, 1, [&] { sess->BeginStroke(stroke, sink_); });
        if (traced_) {
          sh.stream.Reset();
          sh.add_only.Reset();
          sh.add_snap.Reset();
          sh.stroke = stroke;
          sh.rows_checked = 0;
        }
        break;
      case serve::EventType::kPoints: {
        const auto points = in_.strokes[stroke].points.subspan(first, count);
        const int ap = Time(kAddPoints, -1, count,
                            [&] { sess->AddPoints(stroke, points, sink_); });
        if (traced_) {
          ShadowPoints(sh, points, ap);
        }
        break;
      }
      case serve::EventType::kStrokeEnd: {
        const int es = Time(kEndStroke, -1, 1, [&] { sess->EndStroke(sink_); });
        if (traced_) {
          ShadowEnd(sh, es);
        }
        break;
      }
      case serve::EventType::kSessionEnd:
        break;
    }
  }

  // The layers under Session::AddPoints, on the same points.
  void ShadowPoints(Shadow& sh, std::span<const geom::TimedPoint> points, int parent) {
    const Expected& e = in_.strokes[sh.stroke].expected;
    const std::size_t n = points.size();
    const std::size_t before = sh.add_only.point_count();
    eager::FireEvent fire;
    const int as = Time(kAddSpan, parent, n, [&] { sh.stream.AddSpan(points, &fire); });

    // AddSpan snapshots every point past the minimum prefix, chunk by chunk,
    // up to and including the chunk in which the stroke fires.
    const bool fired_before = e.fired && e.fired_at <= before;
    const bool fires_here = e.fired && e.fired_at > before && e.fired_at <= before + n;
    const std::size_t snap_points =
        fired_before ? 0
        : fires_here ? std::min(n, ((e.fired_at - before - 1) / kChunk + 1) * kChunk)
                     : n;
    const std::size_t min_prefix = recognizer_.min_prefix_points();
    std::array<std::size_t, kMaxChunks> chunk_rows{};
    std::size_t rows = 0;
    const int snap = Time(kFeatAddSnap, as, n, [&] {
      for (std::size_t k = 0; k < n; ++k) {
        sh.add_snap.AddPoint(points[k]);
        if (k < snap_points && sh.add_snap.point_count() >= min_prefix) {
          sh.add_snap.FeaturesInto(linalg::MutVecView(rows_.data() + rows * kDim, kDim));
          ++rows;
          ++chunk_rows[k / kChunk];
        }
      }
    });
    Time(kFeatAdd, snap, n, [&] {
      for (const geom::TimedPoint& p : points) {
        sh.add_only.AddPoint(p);
      }
    });
    rows_snapshotted_ += rows;
    if (rows == 0) {
      mismatches_ += fire.fired ? 1 : 0;
      return;
    }
    std::size_t fire_row = eager::Auc::kNone;
    Time(kFireCheck, as, rows, [&] {
      std::size_t offset = 0;
      for (std::size_t c = 0; c * kChunk < snap_points; ++c) {
        if (chunk_rows[c] == 0) {
          continue;
        }
        const std::size_t r = recognizer_.FirstUnambiguous(rows_.data() + offset * kDim,
                                                           chunk_rows[c], kDim, ws_);
        if (r != eager::Auc::kNone) {
          fire_row = offset + r;
          break;
        }
        offset += chunk_rows[c];
      }
    });
    sh.rows_checked += rows;
    // Row r is the snapshot at point count first_row_count + r.
    const std::size_t first_row_count = std::max(before + 1, min_prefix);
    const bool fired_ok = fires_here ? fire_row != eager::Auc::kNone &&
                                           first_row_count + fire_row == e.fired_at &&
                                           fire.fired && fire.fired_at == e.fired_at
                                     : fire_row == eager::Auc::kNone && !fire.fired;
    mismatches_ += fired_ok ? 0 : 1;
    if (!fires_here || fire_row == eager::Auc::kNone) {
      return;
    }
    ++fires_;
    rows_to_fire_ += sh.rows_checked;
    const linalg::VecView row(rows_.data() + fire_row * kDim, kDim);
    ClassifyBoth(row, as, kClassifyFire, kNBestFire, e.fire_class);
  }

  void ShadowEnd(Shadow& sh, int parent) {
    std::array<double, kDim> f{};
    Time(kFeatSnapEnd, parent, 1, [&] { sh.add_only.FeaturesInto(linalg::ViewOf(f)); });
    ClassifyBoth(linalg::ViewOf(f), parent, kClassifyEnd, kNBestEnd,
                 in_.strokes[sh.stroke].expected.end_class);
  }

  // Times both classification kernels on `f`; the one the session uses is
  // the child of `parent`, the other is off the ledger.
  void ClassifyBoth(linalg::VecView f, int parent, Layer plain, Layer nbest, ClassId expect) {
    classify::Classification c;
    Time(plain, nbest_ ? -1 : parent, 1, [&] { c = recognizer_.Classify(f, ws_); }, !nbest_);
    std::array<classify::NBestEntry, kMaxNBest> out{};
    classify::Classification top;
    Time(nbest, nbest_ ? parent : -1, 1,
         [&] { recognizer_.ClassifyNBest(f, ws_, std::span(out), &top); }, nbest_);
    mismatches_ += (c.class_id == expect && top.class_id == expect) ? 0 : 1;
  }

  void GroupItem(const Item& it) {
    const Group& g = in_.groups[it.unit];
    TouchLayers(it.unit, g.raw, /*ledger=*/true);
    if (g.route != Route::kSingle) {
      return;
    }
    // The front end submits the primary stroke as begin, one event, end.
    const auto stroke = static_cast<std::uint32_t>(g.stroke);
    const auto n = static_cast<std::uint32_t>(in_.strokes[stroke].points.size());
    EventItem(it.session, serve::EventType::kStrokeBegin, stroke, 0, 0);
    EventItem(it.session, serve::EventType::kPoints, stroke, 0, n);
    EventItem(it.session, serve::EventType::kStrokeEnd, stroke, 0, 0);
  }

  void TouchLayers(std::uint32_t unit, const geom::ContactGroup& raw, bool ledger) {
    robust::StatusOr<serve::TouchSubmitResult> result =
        robust::Status::Internal("not submitted");
    const int fe = Time(kTouchFrontEnd, -1, raw.TotalPoints(),
                        [&] { result = front_end_.Submit(unit, 0, unit, raw); }, ledger);
    if (!traced_) {
      return;
    }
    robust::StatusOr<robust::TrackedGroup> tracked = robust::Status::Internal("not tracked");
    Time(kTouchTrack, fe, 1, [&] { tracked = tracker_.Track(raw); });
    if (tracked.ok()) {
      toolkit::TouchTrack track;
      Time(kTouchAttributes, fe, 1, [&] { track = toolkit::ComputeTouchTrack(tracked->group); });
      mismatches_ += result.ok() && result->track.kind == track.kind ? 0 : 1;
    } else {
      mismatches_ += result.ok() ? 1 : 0;
    }
    if (ledger) {
      const Group& g = in_.groups[unit];
      const bool ok = result.ok() ? g.route != Route::kRejected && result->track.kind == g.kind
                                  : g.route == Route::kRejected;
      mismatches_ += ok ? 0 : 1;
    }
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  const Lap& lap_;
  const eager::EagerRecognizer& recognizer_;
  const bool nbest_;
  const double overhead_ns_;
  serve::SessionManager sessions_;
  serve::TouchFrontEnd front_end_;
  const robust::ContactTracker tracker_;
  serve::ResultSink sink_;
  std::vector<Shadow> shadows_;
  eager::Workspace ws_;
  std::vector<double> rows_;
  std::vector<Span> spans_;  // of the current item
  std::vector<double> child_ns_;
  std::array<Totals, kNumLayers> totals_{};
  bool traced_ = false;
  double ledger_ns_ = 0.0;
  std::uint64_t rows_snapshotted_ = 0;
  std::uint64_t rows_to_fire_ = 0;
  std::uint64_t fires_ = 0;
  std::uint64_t mismatches_ = 0;
};

LedgerReport Replay::Report() const {
  const auto& T = totals_;
  LedgerReport r;
  r.features_add_point_ns = T[kFeatAdd].PerItem();
  const double snap_items =
      static_cast<double>(rows_snapshotted_ + T[kFeatSnapEnd].calls);
  r.features_snapshot_ns =
      snap_items == 0.0 ? 0.0 : (T[kFeatAddSnap].self_ns + T[kFeatSnapEnd].dur_ns) / snap_items;
  r.eager_fire_check_ns_per_row = T[kFireCheck].PerItem();
  r.eager_add_span_ns_per_point = T[kAddSpan].SelfPerItem();
  r.eager_rows_per_fire =
      fires_ == 0 ? 0.0 : static_cast<double>(rows_to_fire_) / static_cast<double>(fires_);
  r.classify_fire_ns = T[kClassifyFire].PerCall();
  r.classify_end_ns = T[kClassifyEnd].PerCall();
  const std::uint64_t nbest_calls = T[kNBestFire].calls + T[kNBestEnd].calls;
  r.classify_nbest_ns = nbest_calls == 0 ? 0.0
                                         : (T[kNBestFire].dur_ns + T[kNBestEnd].dur_ns) /
                                               static_cast<double>(nbest_calls);
  r.session_get_or_create_ns = T[kGetOrCreate].PerCall();
  r.session_add_points_self_ns = T[kAddPoints].SelfPerCall();
  r.session_end_stroke_ns = T[kEndStroke].PerCall();
  r.touch_track_ns = T[kTouchTrack].PerCall();
  r.touch_attributes_ns = T[kTouchAttributes].PerCall();
  r.touch_frontend_self_ns = T[kTouchFrontEnd].SelfPerCall();
  r.mismatches = mismatches_;
  r.fires = fires_;
  return r;
}

}  // namespace

LedgerReport RunLedger(const WorkloadSpec& spec, const Inputs& inputs, const Lap& lap,
                       const std::shared_ptr<const serve::RecognizerBundle>& bundle,
                       double seconds, double clock_overhead_ns) {
  Replay replay(spec, inputs, lap, bundle, clock_overhead_ns);
  replay.RunLap(/*traced=*/false);  // warm-up: sessions, caches, buffers
  double untraced_ns = 0.0;
  std::uint64_t laps = 0;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    untraced_ns += replay.RunLap(/*traced=*/false);
    replay.RunLap(/*traced=*/true);
    ++laps;
  } while (NowNs() < deadline);
  if (spec.input != InputKind::kTouchMixed) {
    replay.TouchProbe();
  }

  LedgerReport r = replay.Report();
  r.laps = laps;
  r.ledger_gap_frac = (replay.traced_ledger_ns() - untraced_ns) / untraced_ns;
  const serve::TouchFrontEndStats st = replay.FrontEndStats();
  const double in = static_cast<double>(std::max<std::uint64_t>(st.groups_in, 1));
  r.touch_rejected_frac = static_cast<double>(st.groups_rejected) / in;
  r.touch_routed_single_frac = static_cast<double>(st.routed_single_stroke) / in;
  std::uint64_t points = 0;
  std::uint64_t post_fire = 0;
  for (const Stroke& s : inputs.strokes) {
    points += s.points.size();
    post_fire += s.expected.fired ? s.points.size() - s.expected.fired_at : 0;
  }
  r.eager_post_fire_point_frac =
      points == 0 ? 0.0 : static_cast<double>(post_fire) / static_cast<double>(points);
  return r;
}

}  // namespace perfbench
