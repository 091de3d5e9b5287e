#include "inputs.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "robust/contact_tracker.h"
#include "robust/fault_injector.h"
#include "synth/contact_synth.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/sets.h"

namespace perfbench {

namespace {

using namespace grandma;

// Why each workload exists is recorded in README.md. The open-loop rates
// are constants of the benchmark: changing one changes what every later
// measurement means.
constexpr WorkloadSpec kWorkloads[] = {
    {"gdp_frames", InputKind::kGdp, 256, 16, 1, 0, 2.0e6},
    {"lex200_frames", InputKind::kLexicon200, 256, 16, 1, 4, 0.55e6},
    {"gdp_mouse", InputKind::kGdp, 4096, 1, 3, 0, 0.42e6},
    {"touch_mixed", InputKind::kTouchMixed, 256, 0, 1, 0, 2.0e6},
};

// Pool and training sizes. Training follows the paper's Fig 10 protocol
// (10 examples per class) for GDP and lexicon_scale's 8 for the lexicon.
// The training examples do not depend on the seed: every seed serves new
// strokes to the same recognizer, so quality figures move with the
// recognizer, not with a redrawn training set.
constexpr std::uint64_t kTrainSeed = 1991;
constexpr std::size_t kGdpTrainPerClass = 10;
constexpr std::size_t kLexiconTrainPerClass = 8;
constexpr std::size_t kGdpFramesPerClass = 186;    // 2,046 strokes
constexpr std::size_t kGdpMousePerClass = 745;     // 8,195 strokes, 2 per session
constexpr std::size_t kLexiconPerClass = 10;       // 2,000 strokes
constexpr std::size_t kTouchPerClass = 60;         // 540 two-finger groups
constexpr std::size_t kTouchSinglePerClass = 50;   // 550 one-contact GDP groups
constexpr double kTouchFaultRate = 0.10;

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Fisher-Yates with a fixed generator, so the order is the same on every
// standard library.
template <typename T>
void Shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[SplitMix64(state) % i]);
  }
}

toolkit::TouchGestureKind KindOfTouchSpec(const std::string& name) {
  if (name == "pinch" || name == "spread") {
    return toolkit::TouchGestureKind::kPinch;
  }
  if (name.rfind("rotate", 0) == 0) {
    return toolkit::TouchGestureKind::kRotate;
  }
  if (name.rfind("swipe", 0) == 0) {
    return toolkit::TouchGestureKind::kSwipe;
  }
  if (name.rfind("tap", 0) == 0) {
    return toolkit::TouchGestureKind::kTap;
  }
  throw std::invalid_argument("perfbench: unknown touch spec " + name);
}

struct Labeled {
  geom::Gesture gesture;
  ClassId truth;
};

std::vector<Labeled> Pool(const std::vector<synth::PathSpec>& specs, std::size_t per_class,
                          std::uint64_t seed) {
  std::vector<Labeled> pool;
  const auto batches = synth::GenerateSet(specs, synth::NoiseModel{}, per_class, seed);
  for (std::size_t c = 0; c < batches.size(); ++c) {
    for (const synth::GestureSample& s : batches[c].samples) {
      pool.push_back({s.gesture, c});
    }
  }
  Shuffle(pool, seed ^ 0x5eed);
  return pool;
}

Expected Reference(const eager::EagerRecognizer& recognizer,
                   std::span<const geom::TimedPoint> points, std::size_t nbest_depth) {
  eager::EagerStream stream(recognizer);
  stream.SetNBest(nbest_depth);
  Expected e;
  e.points = static_cast<std::uint32_t>(points.size());
  std::array<classify::NBestEntry, kMaxNBest> nbest{};
  const std::span<classify::NBestEntry> out(nbest.data(), stream.nbest_depth());
  auto classify_now = [&](ClassId& cls, std::array<ClassId, kMaxNBest>& ids) {
    if (stream.nbest_depth() == 0) {
      cls = stream.ClassifyNow().class_id;
      return;
    }
    classify::Classification top;
    e.nbest_count = static_cast<std::uint32_t>(stream.ClassifyNowNBest(out, &top));
    cls = top.class_id;
    for (std::size_t i = 0; i < e.nbest_count; ++i) {
      ids[i] = nbest[i].class_id;
    }
  };
  for (const geom::TimedPoint& p : points) {
    if (stream.AddPoint(p)) {
      e.fired = true;
      e.fired_at = static_cast<std::uint32_t>(stream.fired_at());
      classify_now(e.fire_class, e.fire_nbest);
    }
  }
  classify_now(e.end_class, e.end_nbest);
  return e;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Inputs BuildInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  std::uint64_t state = seed;
  const std::uint64_t pool_seed = SplitMix64(state);
  const std::uint64_t fault_seed = SplitMix64(state);

  const bool lexicon = spec.input == InputKind::kLexicon200;
  const std::vector<synth::PathSpec> specs =
      lexicon ? synth::MakeExtensiveLexicon({})
              : synth::MakeGdpSpecs(synth::GroupOrientation::kClockwise);
  Inputs in;
  in.training = synth::ToTrainingSet(synth::GenerateSet(
      specs, synth::NoiseModel{},
      lexicon ? kLexiconTrainPerClass : kGdpTrainPerClass, kTrainSeed));

  if (spec.input != InputKind::kTouchMixed) {
    const std::size_t per_class = lexicon                   ? kLexiconPerClass
                                  : spec.points_per_event == 1 ? kGdpMousePerClass
                                                               : kGdpFramesPerClass;
    std::vector<Labeled> pool = Pool(specs, per_class, pool_seed);
    in.gestures.reserve(pool.size());
    for (Labeled& l : pool) {
      in.gestures.push_back(std::move(l.gesture));
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      in.strokes.push_back({in.gestures[i].span(), pool[i].truth, {}});
    }
    return in;
  }

  // touch_mixed: two-finger groups plus one-contact GDP strokes, damaged by
  // contact-level faults only (point-level damage is fault_sweep's beat).
  for (Labeled& l : Pool(specs, kTouchSinglePerClass, pool_seed)) {
    Group g;
    g.raw = synth::AsContactGroup(l.gesture);
    g.truth_single = true;
    g.truth_class = l.truth;
    in.groups.push_back(std::move(g));
  }
  for (const synth::LabeledContactGroups& batch : synth::GenerateContactSet(
           synth::MakeTouchSpecs(), synth::NoiseModel{}, kTouchPerClass, pool_seed ^ 0x70c4)) {
    for (const geom::ContactGroup& raw : batch.groups) {
      Group g;
      g.raw = raw;
      g.truth_kind = KindOfTouchSpec(batch.class_name);
      in.groups.push_back(std::move(g));
    }
  }
  Shuffle(in.groups, pool_seed ^ 0x6209);

  robust::FaultInjectorOptions faults;
  faults.fault_rate = kTouchFaultRate;
  for (std::size_t k = 0; k < robust::kNumPointFaultKinds; ++k) {
    faults.enabled[k] = false;
  }
  robust::FaultInjector injector(faults, fault_seed);
  for (Group& g : in.groups) {
    robust::InjectedFaults injected;
    geom::ContactGroup damaged = injector.CorruptContacts(g.raw, &injected);
    // The unfaulted groups are the fault-free run's inputs, bit for bit.
    if (!injected.any() && !(damaged == g.raw)) {
      throw std::logic_error("perfbench: an unfaulted group was changed");
    }
    g.raw = std::move(damaged);
    g.points = g.raw.TotalPoints();
  }
  return in;
}

void BuildReference(const WorkloadSpec& spec, const eager::EagerRecognizer& recognizer,
                    Inputs& in) {
  if (spec.input != InputKind::kTouchMixed) {
    for (Stroke& s : in.strokes) {
      s.expected = Reference(recognizer, s.points, spec.nbest_depth);
    }
    return;
  }
  const robust::ContactTracker tracker;
  in.gestures.clear();
  in.gestures.reserve(in.groups.size());
  for (Group& g : in.groups) {
    auto tracked = tracker.Track(g.raw);
    if (!tracked.ok()) {
      g.route = Route::kRejected;
      g.reject_code = tracked.status().code();
      continue;
    }
    const toolkit::TouchTrack track = toolkit::ComputeTouchTrack(tracked->group);
    g.kind = track.kind;
    if (track.kind != toolkit::TouchGestureKind::kSingleStroke) {
      g.route = Route::kTouch;
      continue;
    }
    g.route = Route::kSingle;
    g.stroke = in.gestures.size();
    in.gestures.push_back(tracked->group[track.primary_index].stroke);
  }
  in.strokes.clear();
  for (const Group& g : in.groups) {
    if (g.route == Route::kSingle) {
      const geom::Gesture& primary = in.gestures[g.stroke];
      in.strokes.push_back({primary.span(), g.truth_class,
                            Reference(recognizer, primary.span(), spec.nbest_depth)});
    }
  }
}

bool MatchesReference(const serve::RecognitionResult& r, const Expected& e) {
  if (r.nbest_count != e.nbest_count) {
    return false;
  }
  const bool fire = r.kind == serve::ResultKind::kEagerFire;
  const std::array<ClassId, kMaxNBest>& ids = fire ? e.fire_nbest : e.end_nbest;
  for (std::size_t i = 0; i < r.nbest_count; ++i) {
    if (r.nbest[i].class_id != ids[i]) {
      return false;
    }
  }
  if (fire) {
    return e.fired && r.fired_at == e.fired_at && r.classification.class_id == e.fire_class;
  }
  return r.points_seen == e.points && r.eager_fired == e.fired && r.fired_at == e.fired_at &&
         r.classification.class_id == e.end_class;
}

}  // namespace perfbench
