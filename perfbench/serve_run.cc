#include "serve_run.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "measure.h"

namespace perfbench {

namespace serve = grandma::serve;

Lap BuildLap(const WorkloadSpec& spec, const Inputs& in) {
  Lap lap;
  const std::size_t sessions = spec.sessions;
  auto add = [&lap](const Item& it) {
    lap.points_before.push_back(lap.points);
    lap.points += it.count;
    lap.items.push_back(it);
  };
  if (spec.input == InputKind::kTouchMixed) {
    lap.units = in.groups.size();
    for (std::uint32_t g = 0; g < lap.units; ++g) {
      lap.end_item.push_back(g);
      lap.points_items_begin.push_back(g);
      lap.points_items.push_back(g);
      add({static_cast<std::uint32_t>(g % sessions), serve::EventType::kPoints, g, 0,
           static_cast<std::uint32_t>(in.groups[g].points)});
    }
    lap.points_items_begin.push_back(static_cast<std::uint32_t>(lap.units));
    return lap;
  }

  lap.units = in.strokes.size();
  const std::size_t ppe = spec.points_per_event;
  std::vector<std::vector<std::uint32_t>> per_session(sessions);
  for (std::uint32_t j = 0; j < lap.units; ++j) {
    per_session[j % sessions].push_back(j);
  }
  std::vector<std::vector<std::uint32_t>> points_items(lap.units);
  lap.end_item.assign(lap.units, 0);
  // Cursor per session: which of its strokes, and which event of it
  // (0 = begin, 1..m = points, m + 1 = end).
  std::vector<std::pair<std::size_t, std::size_t>> cursor(sessions);
  for (bool any = true; any;) {
    any = false;
    for (std::uint32_t s = 0; s < sessions; ++s) {
      auto& [pos, k] = cursor[s];
      if (pos >= per_session[s].size()) {
        continue;
      }
      any = true;
      const std::uint32_t j = per_session[s][pos];
      const std::size_t n = in.strokes[j].points.size();
      const std::size_t m = (n + ppe - 1) / ppe;
      Item it{s, serve::EventType::kStrokeBegin, j, 0, 0};
      if (k >= 1 && k <= m) {
        it.type = serve::EventType::kPoints;
        it.first = static_cast<std::uint32_t>((k - 1) * ppe);
        it.count = static_cast<std::uint32_t>(std::min(ppe, n - it.first));
        points_items[j].push_back(static_cast<std::uint32_t>(lap.items.size()));
      } else if (k == m + 1) {
        it.type = serve::EventType::kStrokeEnd;
        lap.end_item[j] = static_cast<std::uint32_t>(lap.items.size());
      }
      add(it);
      if (++k > m + 1) {
        k = 0;
        ++pos;
      }
    }
  }
  for (const auto& v : points_items) {
    lap.points_items_begin.push_back(static_cast<std::uint32_t>(lap.points_items.size()));
    lap.points_items.insert(lap.points_items.end(), v.begin(), v.end());
  }
  lap.points_items_begin.push_back(static_cast<std::uint32_t>(lap.points_items.size()));
  return lap;
}

ServeRun::ServeRun(const WorkloadSpec& spec, const Inputs& inputs, bool traced,
                   double open_seconds, double closed_seconds, std::size_t cycles)
    : spec_(spec),
      inputs_(inputs),
      traced_(traced),
      open_seconds_(open_seconds),
      closed_seconds_(closed_seconds),
      cycles_(std::max<std::size_t>(1, cycles)),
      touch_(spec.input == InputKind::kTouchMixed),
      lap_(BuildLap(spec, inputs)),
      tallies_(spec.sessions) {}

serve::ServerOptions ServeRun::Options() const {
  serve::ServerOptions o;
  o.num_shards = spec_.shards;
  o.overload = serve::OverloadPolicy::kBlock;
  o.nbest.depth = spec_.nbest_depth;
  return o;
}

serve::ResultSink ServeRun::Sink() {
  return [this](const serve::RecognitionResult& r) { OnResult(r); };
}

const Stroke* ServeRun::StrokeOf(std::uint32_t uid) const {
  const std::size_t unit = uid % lap_.units;
  if (!touch_) {
    return &inputs_.strokes[unit];
  }
  const Group& g = inputs_.groups[unit];
  return g.route == Route::kSingle ? &inputs_.strokes[g.stroke] : nullptr;
}

void ServeRun::OnResult(const serve::RecognitionResult& r) {
  const std::int64_t now = NowNs();
  Tally& t = tallies_[r.session];
  const Stroke* s = StrokeOf(r.stroke);
  if (s == nullptr || !MatchesReference(r, s->expected)) {
    ++t.mismatches;
  }
  const bool open = r.stroke >= open_first_uid_ && r.stroke < open_end_uid_;
  if (r.kind == serve::ResultKind::kEagerFire) {
    ++t.fires;
    if (open) {
      fire_ns_[r.stroke - open_first_uid_] = now;
    }
  } else {
    ++t.ends;
    const bool truth_is_stroke =
        !touch_ || inputs_.groups[r.stroke % lap_.units].truth_single;
    if (s != nullptr && truth_is_stroke && r.classification.class_id == s->truth) {
      ++t.correct;
    }
    t.examined += r.eager_fired && r.points_seen > 0
                      ? static_cast<double>(r.fired_at) / static_cast<double>(r.points_seen)
                      : 1.0;
    if (open) {
      end_ns_[r.stroke - open_first_uid_] = now;
    }
  }
  if (traced_) {
    t.sink_ns += static_cast<double>(NowNs() - now);
  }
}

std::int64_t ServeRun::DueNs(std::uint64_t lap, std::size_t item) const {
  return lap_due_ns_[lap] +
         std::llround(static_cast<double>(lap_.points_before[item]) * ns_per_point_);
}

void ServeRun::SubmitItem(std::uint64_t lap, std::size_t item) {
  const Item& it = lap_.items[item];
  const std::uint32_t uid = Uid(lap, it.unit);
  if (touch_) {
    const Group& g = inputs_.groups[it.unit];
    ++units_submitted_;
    auto r = front_end_->Submit(it.session, /*user=*/0, uid, g.raw);
    bool match = false;
    if (!r.ok()) {
      match = g.route == Route::kRejected && r.status().code() == g.reject_code;
    } else {
      match = g.route != Route::kRejected && r->track.kind == g.kind &&
              r->routed_to_classifier == (g.route == Route::kSingle);
      if (r->routed_to_classifier) {
        events_submitted_ += 3;  // begin, the whole primary stroke, end
      } else {
        // Multi-contact groups are answered by their attribute track.
        touch_correct_ += (!g.truth_single && r->track.kind == g.truth_kind) ? 1 : 0;
        if (uid >= open_first_uid_ && uid < open_end_uid_) {
          end_ns_[uid - open_first_uid_] = NowNs();
        }
      }
    }
    touch_mismatches_ += match ? 0 : 1;
    return;
  }
  serve::ServeEvent ev;
  ev.session = it.session;
  ev.type = it.type;
  ev.stroke = uid;
  if (it.type == serve::EventType::kPoints) {
    const auto points = inputs_.strokes[it.unit].points.subspan(it.first, it.count);
    ev.points.assign(points.begin(), points.end());
  } else if (it.type == serve::EventType::kStrokeBegin) {
    ++units_submitted_;
  }
  ++events_submitted_;
  if (!server_->Submit(std::move(ev)).ok()) {
    ++submit_errors_;
  }
}

void ServeRun::WaitDrained(const serve::RecognitionServer& server) const {
  for (;;) {
    const serve::ShardMetrics t = server.Metrics().Totals();
    if (t.events_processed + t.events_shed + t.events_deadline_expired >= events_submitted_) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void ServeRun::RunOpen(std::uint64_t first, std::uint64_t last, ServeReport& rep) {
  const std::int64_t t0 = NowNs() + 1000000;
  for (std::uint64_t lap = first; lap < last; ++lap) {
    lap_due_ns_[lap] = t0 + std::llround(static_cast<double>((lap - first) * lap_.points) *
                                         ns_per_point_);
  }
  for (std::uint64_t lap = first; lap < last; ++lap) {
    for (std::size_t i = 0; i < lap_.items.size(); ++i) {
      const std::int64_t due = DueNs(lap, i);
      std::int64_t now = NowNs();
      while (now < due) {
        now = NowNs();
      }
      SubmitItem(lap, i);
      if (lap > 0) {
        gen_late_.RecordMicros(static_cast<double>(now - due) / 1e3);
        if (traced_) {
          rep.submit_ns.push_back(static_cast<double>(NowNs() - now));
        }
      }
    }
  }
}

std::uint64_t ServeRun::RunClosed(std::uint64_t first, std::int64_t deadline,
                                  std::vector<double>& window_pps) {
  std::uint64_t lap = first;
  std::int64_t window_start = NowNs();
  std::uint64_t window_points = 0;
  std::int64_t now = window_start;
  std::int64_t lap_ns = 0;
  do {
    const std::int64_t lap_start = now;
    for (std::size_t i = 0; i < lap_.items.size(); ++i) {
      SubmitItem(lap, i);
      window_points += lap_.items[i].count;
      if (i % 64 == 63) {
        now = NowNs();
        if (now - window_start >= kWindowNs) {
          window_pps.push_back(static_cast<double>(window_points) * 1e9 /
                               static_cast<double>(now - window_start));
          window_start = now;
          window_points = 0;
        }
      }
    }
    ++lap;
    now = NowNs();
    lap_ns = now - lap_start;
    // Stops at whichever lap end is nearest the deadline: a lap of
    // gdp_mouse takes about 0.4 s.
  } while (now + lap_ns / 2 < deadline);
  return lap;
}

ServeReport ServeRun::Run(serve::RecognitionServer& server, const CpuSplit& cpus) {
  ServeReport rep;
  server_ = &server;
  if (touch_) {
    front_end_ = std::make_unique<serve::TouchFrontEnd>(&server);
  }

  // Open loop: item i of a lap is due at (points before it) / rate after the
  // lap's start, laps back to back within a segment. Lap 0 warms sessions,
  // caches and allocator pools at the same pace; laps 1..open_laps are
  // measured. Closed laps are numbered after them, whichever segment they
  // run in, so stroke ids stay unique and tell an open stroke by its id.
  const std::uint64_t open_laps = std::max<std::uint64_t>(
      cycles_, static_cast<std::uint64_t>(std::ceil(open_seconds_ * spec_.open_rate_pps /
                                                    static_cast<double>(lap_.points))));
  open_first_uid_ = Uid(1, 0);
  open_end_uid_ = Uid(1 + open_laps, 0);
  fire_ns_.assign(open_end_uid_ - open_first_uid_, -1);
  end_ns_.assign(open_end_uid_ - open_first_uid_, -1);
  lap_due_ns_.assign(1 + open_laps, 0);
  if (traced_) {
    rep.submit_ns.reserve(open_laps * lap_.items.size());
  }
  ns_per_point_ = 1e9 / spec_.open_rate_pps;

  // Closed loop: whole laps back to back until the segment's time is used
  // up, then drained. The rate is taken per window (kWindowNs) of submitted
  // points; the queue holds at most queue_capacity events, so over a window
  // the submit rate is the completion rate.
  std::vector<double> window_pps;
  window_pps.reserve(static_cast<std::size_t>(closed_seconds_ * 1e9 / kWindowNs) + cycles_);
  std::uint64_t closed_first = 1 + open_laps;
  std::uint64_t closed_points = 0;
  std::uint64_t closed_events = 0;
  std::uint64_t closed_allocs = 0;
  double closed_wall = 0.0;
  double gen_cpu = 0.0;
  double worker_cpu = 0.0;

  // The phases alternate in cycles_ segments each, so both sample the whole
  // run rather than one stretch of it, and each cycle moves the generator
  // to the next CPU.
  for (std::size_t c = 0; c < cycles_; ++c) {
    cpus.Place(c);
    const std::uint64_t open_last = 1 + open_laps * (c + 1) / cycles_;
    RunOpen(c == 0 ? 0 : 1 + open_laps * c / cycles_, open_last, rep);
    WaitDrained(server);
    if (c == 0) {
      const serve::ShardMetrics t = server.Metrics().Totals();
      rep.open_queue_wait = t.queue_latency;
      rep.open_queue_max_depth = t.queue_max_depth;
    }

    const std::uint64_t events_before = events_submitted_;
    const double proc_cpu0 = ProcessCpuSeconds();
    const double gen_cpu0 = ThreadCpuSeconds();
    const std::uint64_t allocs0 = AllocCount();
    SetAllocCounting(traced_);
    const std::int64_t start = NowNs();
    const std::uint64_t closed_last = RunClosed(
        closed_first,
        start + static_cast<std::int64_t>(closed_seconds_ * 1e9 / static_cast<double>(cycles_)),
        window_pps);
    WaitDrained(server);
    const std::int64_t end = NowNs();
    SetAllocCounting(false);
    closed_allocs += AllocCount() - allocs0;
    const double gen = ThreadCpuSeconds() - gen_cpu0;
    gen_cpu += gen;
    worker_cpu += ProcessCpuSeconds() - proc_cpu0 - gen;
    closed_wall += static_cast<double>(end - start) / 1e9;
    closed_points += (closed_last - closed_first) * lap_.points;
    closed_events += events_submitted_ - events_before;
    closed_first = closed_last;
  }
  rep.gen_late = gen_late_.Snapshot();
  rep.closed_pps = static_cast<double>(closed_points) / closed_wall;
  rep.closed_windows = window_pps.size();
  rep.peak_pps = window_pps.empty()
                     ? rep.closed_pps
                     : BestShareMean(window_pps, kFastShare, /*higher=*/true);
  rep.gen_cpu_frac = gen_cpu / closed_wall;
  rep.worker_cpu_frac = worker_cpu / (closed_wall * static_cast<double>(spec_.shards));
  rep.allocs_per_event = closed_events == 0 ? 0.0
                                            : static_cast<double>(closed_allocs) /
                                                  static_cast<double>(closed_events);

  server.Shutdown();
  const serve::ShardMetrics totals = server.Metrics().Totals();
  rep.balanced = totals.events_processed + totals.events_shed +
                     totals.events_deadline_expired ==
                 events_submitted_;

  // Tally: what every lap should have produced, against what arrived.
  const std::uint64_t laps = closed_first;
  std::uint64_t single_units = 0;
  std::uint64_t fired_units = 0;
  if (touch_) {
    for (const Group& g : inputs_.groups) {
      single_units += g.route == Route::kSingle ? 1 : 0;
      fired_units +=
          g.route == Route::kSingle && inputs_.strokes[g.stroke].expected.fired ? 1 : 0;
    }
  } else {
    single_units = inputs_.strokes.size();
    for (const Stroke& s : inputs_.strokes) {
      fired_units += s.expected.fired ? 1 : 0;
    }
  }
  std::uint64_t ends = 0;
  std::uint64_t mismatches = touch_mismatches_;
  double sink_ns = 0.0;
  for (const Tally& t : tallies_) {
    rep.fires += t.fires;
    ends += t.ends;
    mismatches += t.mismatches;
    rep.correct += t.correct;
    rep.examined_sum += t.examined;
    sink_ns += t.sink_ns;
  }
  rep.correct += touch_correct_;
  rep.examined_n = ends;
  rep.expected_fires = laps * fired_units;
  const std::uint64_t expected_ends = laps * single_units;
  auto gap = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; };
  rep.attempted = units_submitted_;
  rep.failed = mismatches + gap(ends, expected_ends) + gap(rep.fires, rep.expected_fires) +
               totals.events_shed + totals.events_deadline_expired + submit_errors_;
  rep.sink_ns = rep.fires + ends == 0 ? 0.0 : sink_ns / static_cast<double>(rep.fires + ends);

  // Open-loop latencies from each event's due time, pooled and per window.
  // Windows are cut from each open segment's start; one the segment does
  // not fill is left out.
  constexpr std::uint16_t kNoWindow = 0xffff;
  const std::int64_t lap_ns = std::llround(static_cast<double>(lap_.points) * ns_per_point_);
  std::vector<std::size_t> segment_of_lap(1 + open_laps, 0);
  std::vector<std::int64_t> segment_start(cycles_);
  std::vector<std::size_t> segment_windows(cycles_);
  std::vector<std::size_t> segment_base(cycles_);
  std::size_t n_windows = 0;
  for (std::size_t c = 0; c < cycles_; ++c) {
    const std::uint64_t first = 1 + open_laps * c / cycles_;
    const std::uint64_t last = 1 + open_laps * (c + 1) / cycles_;
    for (std::uint64_t lap = first; lap < last; ++lap) {
      segment_of_lap[lap] = c;
    }
    segment_start[c] = lap_due_ns_[first];
    segment_windows[c] =
        static_cast<std::size_t>((lap_due_ns_[last - 1] + lap_ns - segment_start[c]) / kWindowNs);
    segment_base[c] = n_windows;
    n_windows += segment_windows[c];
  }
  auto window_of = [&](std::uint64_t lap, std::int64_t due) {
    const std::size_t c = segment_of_lap[lap];
    const auto k = static_cast<std::size_t>((due - segment_start[c]) / kWindowNs);
    return k < segment_windows[c] ? static_cast<std::uint16_t>(segment_base[c] + k) : kNoWindow;
  };
  std::vector<std::uint16_t> fire_window;
  std::vector<std::uint16_t> end_window;
  for (std::uint32_t uid = open_first_uid_; uid < open_end_uid_; ++uid) {
    const std::uint32_t unit = uid % lap_.units;
    const std::uint64_t lap_of = uid / lap_.units;
    const std::int64_t fire = fire_ns_[uid - open_first_uid_];
    const std::int64_t done = end_ns_[uid - open_first_uid_];
    const Stroke* s = StrokeOf(uid);
    if (fire >= 0 && s != nullptr && s->expected.fired) {
      const std::size_t k = touch_ ? 0 : (s->expected.fired_at - 1) / spec_.points_per_event;
      const std::int64_t due =
          DueNs(lap_of, lap_.points_items[lap_.points_items_begin[unit] + k]);
      rep.fire_us.push_back(static_cast<double>(fire - due) / 1e3);
      fire_window.push_back(window_of(lap_of, due));
    }
    if (done >= 0) {
      const std::int64_t due = DueNs(lap_of, lap_.end_item[unit]);
      rep.end_us.push_back(static_cast<double>(done - due) / 1e3);
      end_window.push_back(window_of(lap_of, due));
    }
  }
  // Window medians, one window gathered at a time so the samples are not
  // held twice.
  auto fast_median = [n_windows](const std::vector<double>& pooled,
                                 const std::vector<std::uint16_t>& window, std::size_t* used) {
    std::vector<std::size_t> counts(n_windows, 0);
    for (const std::uint16_t w : window) {
      if (w != kNoWindow) {
        ++counts[w];
      }
    }
    std::vector<double> medians;
    std::vector<double> samples;
    for (std::size_t w = 0; w < n_windows; ++w) {
      if (counts[w] < kMinWindowSamples) {
        continue;
      }
      samples.clear();
      for (std::size_t i = 0; i < pooled.size(); ++i) {
        if (window[i] == w) {
          samples.push_back(pooled[i]);
        }
      }
      medians.push_back(Quantile(samples, 0.5));
    }
    if (used != nullptr) {
      *used = medians.size();
    }
    return medians.empty() ? Median(pooled) : BestShareMean(std::move(medians), kFastShare,
                                                            /*higher=*/false);
  };
  rep.fire_p50_us = fast_median(rep.fire_us, fire_window, nullptr);
  rep.end_p50_us = fast_median(rep.end_us, end_window, &rep.open_windows);

  if (touch_) {
    const serve::TouchFrontEndStats st = front_end_->Stats();
    const double in = static_cast<double>(std::max<std::uint64_t>(st.groups_in, 1));
    rep.touch_rejected_frac = static_cast<double>(st.groups_rejected) / in;
    rep.touch_routed_single_frac = static_cast<double>(st.routed_single_stroke) / in;
    rep.balanced = rep.balanced && st.Balanced();
  }
  return rep;
}

}  // namespace perfbench
