// Large-lexicon scaling evidence: trains the recognizer at 11 (GDP), 50
// (extensive-lexicon prefix), and 200 (full extensive lexicon) classes and
// reports held-out accuracy plus per-point p50/p95 latency on the batched
// SoA path at each size, and (report only, no gate) the ns of one
// stroke-end EagerStream::ClassifyNowNBest call at depth kMaxNBest; then
// runs the confusion-driven lexicon selection
// (classify::SelectLexicon) to prune 200 -> 50 and compares the selected
// subset against both the full 200-class lexicon and the naive first-50
// prefix at the same k; finally sweeps every compiled-in SIMD tier to check
// the n-best surface and counts heap allocations on the n-best eager path.
// Writes BENCH_lexicon.json (quoted in EXPERIMENTS.md).
//
// Exits nonzero when a gate fails:
//   - the 200-class lexicon must train and classify (held-out accuracy
//     strictly better than 10x chance);
//   - the selected 50-subset's held-out accuracy must be >= the full
//     200-class accuracy (pruning confusable classes cannot cost accuracy);
//   - per-point p50 at 200 classes must be within 4x of the 11-class p50 on
//     the SoA batched path (sub-linear scaling in class count) — enforced
//     only when a vector tier is active; scalar pays full per-class cost, so
//     a scalar-only build records "scaling_gate": "skipped_no_simd" instead
//     (same convention as hotpath_per_point's batched-speedup gate), and
//     sanitized builds record "skipped_sanitized" (as trace_profile does);
//   - EvaluateNBest results must be identical across every ForceTier-able
//     tier at 200 classes, and the top-1 entry bit-identical to ClassifyNow;
//   - the n-best eager path must allocate ZERO times per steady-state point.
//
// Each row also reports (report only, no gate) the median ms of each
// training stage: full classifier, subgesture labeler, accidental-complete
// mover, AUC, and their sum, over max(1, reps / 12) training runs (5 at the
// default reps). Next to them stand two exact work counts of one training
// run, read off the partition, and the per-unit times derived from them, so
// a change shows its work and its speed separately:
//   - train_scattered_examples: examples the two scattering stages add to
//     their accumulators (the full classifier's examples plus the AUC's
//     subgestures); train_scatter_ns_per_example is the median full-
//     classifier plus AUC stage time divided by that count;
//   - train_mover_distances: the squared distances the mover decides over
//     (every full-class mean and every complete subgesture against every
//     non-empty incomplete set); its screen bounds all of them and runs
//     the exact chain for few (docs/PERFORMANCE.md, "Training").
//     train_mover_ns_per_distance is the median mover stage time divided
//     by that count.
//
// Flags: --reps=N (per-row stroke replays; default 60, smoke uses less),
//        --per-class=N (training examples per class; default 8).
#include "support/counting_new.h"
//
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_json.h"
#include "classify/evaluation.h"
#include "classify/lexicon_selection.h"
#include "eager/eager_recognizer.h"
#include "linalg/simd.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/sets.h"

namespace {

using namespace grandma;
using Clock = std::chrono::steady_clock;
namespace simd = linalg::simd;

constexpr std::uint64_t kTrainSeed = 1991;
constexpr std::uint64_t kTestSeed = 2026;

struct Row {
  std::string name;
  std::size_t classes = 0;
  double accuracy = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double nbest_end_p50_ns = 0.0;
  double nbest_end_p95_ns = 0.0;
  std::uint64_t points = 0;
  // Median ms of each training stage (see TimeTrainingStages).
  double train_full_ms = 0.0;
  double train_labeler_ms = 0.0;
  double train_mover_ms = 0.0;
  double train_auc_ms = 0.0;
  double train_total_ms = 0.0;
  // Work counts of one training run and the per-unit times derived from them.
  std::size_t train_scattered_examples = 0;
  double train_scatter_ns_per_example = 0.0;
  std::size_t train_mover_distances = 0;
  double train_mover_ns_per_distance = 0.0;
};

double Percentile(std::vector<double>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Subgestures across a partition's sets, and how many of the sets are
// non-empty.
struct SetCounts {
  std::size_t subgestures = 0;
  std::size_t non_empty = 0;
};

SetCounts CountSets(const std::vector<std::vector<std::size_t>>& sets) {
  SetCounts counts;
  for (const std::vector<std::size_t>& set : sets) {
    counts.subgestures += set.size();
    counts.non_empty += set.empty() ? 0 : 1;
  }
  return counts;
}

// Median ms of each EagerRecognizer::Train stage over `reps` runs: the full
// classifier, subgesture labeling, the accidental-complete mover and the AUC
// (training, conservative bias and tweak pass) run one after the other as
// Train runs them; the total is the median of each run's stage sum. Also
// fills the row's work counts and per-unit times (see the file comment).
void TimeTrainingStages(const classify::GestureTrainingSet& train, std::size_t reps, Row& row) {
  std::vector<double> full_ms;
  std::vector<double> labeler_ms;
  std::vector<double> mover_ms;
  std::vector<double> auc_ms;
  std::vector<double> total_ms;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Clock::time_point start = Clock::now();
    classify::GestureClassifier full;
    full.Train(train);
    full_ms.push_back(MsSince(start));
    start = Clock::now();
    eager::SubgesturePartition partition = eager::LabelSubgestures(full, train);
    labeler_ms.push_back(MsSince(start));
    // The mover decides over every full-class mean and every complete
    // subgesture against every non-empty incomplete set.
    row.train_mover_distances =
        (train.num_classes() + CountSets(partition.complete_sets).subgestures) *
        CountSets(partition.incomplete_sets).non_empty;
    start = Clock::now();
    (void)eager::MoveAccidentallyComplete(full, partition);
    mover_ms.push_back(MsSince(start));
    start = Clock::now();
    eager::Auc auc;
    (void)auc.Train(partition);
    auc_ms.push_back(MsSince(start));
    total_ms.push_back(full_ms.back() + labeler_ms.back() + mover_ms.back() + auc_ms.back());
    // The AUC scatters every subgesture of every set.
    row.train_scattered_examples = train.total_examples() +
                                   CountSets(partition.complete_sets).subgestures +
                                   CountSets(partition.incomplete_sets).subgestures;
  }
  row.train_full_ms = Percentile(full_ms, 0.5);
  row.train_labeler_ms = Percentile(labeler_ms, 0.5);
  row.train_mover_ms = Percentile(mover_ms, 0.5);
  row.train_auc_ms = Percentile(auc_ms, 0.5);
  row.train_total_ms = Percentile(total_ms, 0.5);
  row.train_scatter_ns_per_example = 1e6 * (row.train_full_ms + row.train_auc_ms) /
                                     static_cast<double>(row.train_scattered_examples);
  row.train_mover_ns_per_distance =
      1e6 * row.train_mover_ms / static_cast<double>(row.train_mover_distances);
}

// Held-out test strokes for one spec set, in spec order (labels align with
// the training set's insertion-order class ids).
std::vector<geom::Gesture> TestPool(const std::vector<synth::PathSpec>& specs,
                                    std::size_t per_class) {
  std::vector<geom::Gesture> pool;
  synth::NoiseModel noise;
  for (const synth::LabeledSamples& batch : synth::GenerateSet(specs, noise, per_class, kTestSeed)) {
    for (const synth::GestureSample& sample : batch.samples) {
      pool.push_back(sample.gesture);
    }
  }
  return pool;
}

// The eval-dense pool (same device as bench/hotpath_per_point): each stroke
// truncated just past its fire point so nearly every replayed point runs the
// evaluator instead of coasting post-fire. Without this the 11-class GDP row
// would mostly measure cheap post-fire coasting (its strokes fire early by
// design) while large-lexicon strokes rarely fire — the scaling ratio would
// compare fire rates, not evaluator cost vs class count.
std::vector<geom::Gesture> DensePool(const eager::EagerRecognizer& r,
                                     const std::vector<geom::Gesture>& pool) {
  std::vector<geom::Gesture> dense;
  eager::EagerStream stream(r);
  for (const geom::Gesture& g : pool) {
    for (const geom::TimedPoint& p : g) {
      (void)stream.AddPoint(p);
    }
    dense.push_back(stream.fired() ? g.Subgesture(stream.fired_at()) : g);
    stream.Reset();
  }
  return dense;
}

// One accuracy-and-latency row: trains an eager recognizer on `specs`,
// measures held-out accuracy, and replays the eval-dense test pool through
// the SoA batched path (EagerStream::AddSpan at the best dispatch tier),
// one per-point latency sample per stroke and rep. Holds the stream that
// points at its recognizer, so it stays where it was built.
class RowBench {
 public:
  RowBench(const std::string& name, const std::vector<synth::PathSpec>& specs,
           std::size_t per_class_train, std::size_t per_class_test, std::size_t train_reps)
      : stream_(recognizer_) {
    row_.name = name;
    row_.classes = specs.size();
    synth::NoiseModel noise;
    const classify::GestureTrainingSet train =
        synth::ToTrainingSet(synth::GenerateSet(specs, noise, per_class_train, kTrainSeed));
    const classify::GestureTrainingSet test =
        synth::ToTrainingSet(synth::GenerateSet(specs, noise, per_class_test, kTestSeed));
    TimeTrainingStages(train, train_reps, row_);
    recognizer_.Train(train);
    row_.accuracy = classify::EvaluateClassifier(recognizer_.full(), test).Accuracy();
    pool_ = DensePool(recognizer_, TestPool(specs, per_class_test));
    // Warm-up pass (sizes lazy buffers, faults in code + data).
    for (const geom::Gesture& g : pool_) {
      eager::FireEvent fire;
      stream_.AddSpan(std::span<const geom::TimedPoint>(g.points()), &fire);
      checksum_ += stream_.ClassifyNow().score;
      (void)TimeNBestAtStrokeEnd();
      stream_.Reset();
    }
  }
  RowBench(const RowBench&) = delete;
  RowBench& operator=(const RowBench&) = delete;

  std::size_t pool_size() const { return pool_.size(); }

  // One latency sample: replays pool stroke `i` and records ns per point.
  void TimeStroke(std::size_t i) {
    const geom::Gesture& g = pool_[i];
    eager::FireEvent fire;
    const Clock::time_point start = Clock::now();
    stream_.AddSpan(std::span<const geom::TimedPoint>(g.points()), &fire);
    checksum_ += stream_.ClassifyNow().score;
    const Clock::time_point stop = Clock::now();
    stream_.Reset();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
    samples_.push_back(ns / static_cast<double>(g.size()));
    row_.points += g.size();
  }

  Row Finish() {
    row_.p50_ns = Percentile(samples_, 0.50);
    row_.p95_ns = Percentile(samples_, 0.95);
    row_.nbest_end_p50_ns = Percentile(nbest_end_samples_, 0.50);
    row_.nbest_end_p95_ns = Percentile(nbest_end_samples_, 0.95);
    if (!(checksum_ == checksum_)) {
      std::fprintf(stderr, "non-finite checksum\n");
    }
    return row_;
  }

  // One n-best sample: replays pool stroke `i` untimed, then records the ns
  // of one stroke-end ClassifyNowNBest call.
  void TimeNBestStroke(std::size_t i) {
    const geom::Gesture& g = pool_[i];
    stream_.AddSpan(std::span<const geom::TimedPoint>(g.points()));
    nbest_end_samples_.push_back(TimeNBestAtStrokeEnd());
    stream_.Reset();
  }

 private:
  // Times one stroke-end ClassifyNowNBest call (ranking, probabilities and
  // the winner's Classification), as a server's end of stroke runs it. The
  // depth is set only around the call, so AddSpan's fire path is unchanged.
  double TimeNBestAtStrokeEnd() {
    stream_.SetNBest(classify::kMaxNBest);
    classify::Classification top;
    const Clock::time_point start = Clock::now();
    const std::size_t count = stream_.ClassifyNowNBest(std::span(nbest_), &top);
    const Clock::time_point stop = Clock::now();
    stream_.SetNBest(0);
    checksum_ += static_cast<double>(count) + top.probability;
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
  }

  Row row_;
  eager::EagerRecognizer recognizer_;
  eager::EagerStream stream_;
  std::vector<geom::Gesture> pool_;
  std::vector<double> samples_;
  std::vector<double> nbest_end_samples_;
  std::array<classify::NBestEntry, classify::kMaxNBest> nbest_{};
  double checksum_ = 0.0;
};

// Accuracy of a classifier trained on a `keep`-subset of the lexicon,
// evaluated on held-out examples of the same subset.
double SubsetAccuracy(const classify::GestureTrainingSet& full_train,
                      const classify::GestureTrainingSet& full_test,
                      const std::vector<classify::ClassId>& keep) {
  const classify::GestureTrainingSet train = classify::FilterClasses(full_train, keep);
  const classify::GestureTrainingSet test = classify::FilterClasses(full_test, keep);
  classify::GestureClassifier c;
  c.Train(train);
  return classify::EvaluateClassifier(c, test).Accuracy();
}

// One stroke's n-best outcome under a forced tier, captured for bitwise
// cross-tier comparison.
struct TierObservation {
  std::array<classify::NBestEntry, classify::kMaxNBest> nbest{};
  std::size_t nbest_count = 0;
  classify::Classification top;
};

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 60;
  std::size_t per_class_train = 8;
  constexpr std::size_t kPerClassTest = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<std::size_t>(std::strtoul(argv[i] + 7, nullptr, 10));
    } else if (std::strncmp(argv[i], "--per-class=", 12) == 0) {
      per_class_train = static_cast<std::size_t>(std::strtoul(argv[i] + 12, nullptr, 10));
    }
  }
  if (reps == 0) {
    reps = 1;
  }
  const std::size_t train_reps = std::max<std::size_t>(1, reps / 12);
  if (per_class_train < 2) {
    per_class_train = 2;
  }

  synth::LexiconOptions lex200;
  lex200.num_classes = 200;
  synth::LexiconOptions lex50 = lex200;
  lex50.num_classes = 50;  // strict prefix of the 200-class lexicon
  const std::vector<synth::PathSpec> specs200 = synth::MakeExtensiveLexicon(lex200);
  const std::vector<synth::PathSpec> specs50 = synth::MakeExtensiveLexicon(lex50);

  // --- Accuracy-and-latency rows at the three lexicon sizes. ---
  simd::ResetTier();
  const simd::Tier active = simd::ActiveTier();
  std::vector<std::unique_ptr<RowBench>> benches;
  benches.push_back(std::make_unique<RowBench>("gdp_11", synth::MakeGdpSpecs(),
                                               per_class_train + 2, kPerClassTest,
                                               train_reps));
  benches.push_back(std::make_unique<RowBench>("lexicon_50", specs50, per_class_train,
                                               kPerClassTest, train_reps));
  benches.push_back(std::make_unique<RowBench>("lexicon_200", specs200, per_class_train,
                                               kPerClassTest, train_reps));
  // Every rep replays each row's pool once, and the rows' strokes interleave
  // in proportion to pool size: the next stroke timed belongs to the row
  // that has done the smallest share of its pool. So each row's samples
  // spread evenly over the whole rep (the 200-class pool is 18x the 11-class
  // one), a slow stretch of the host lands on every row alike, and the
  // 200-vs-11 ratio gate below compares rows timed side by side. The
  // stroke-end n-best samples come from a second pass of the same shape,
  // so they do not share a timed stroke with the per-point samples.
  for (void (RowBench::*time_stroke)(std::size_t) :
       {&RowBench::TimeStroke, &RowBench::TimeNBestStroke}) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::vector<std::size_t> done(benches.size(), 0);
      while (true) {
        std::size_t pick = benches.size();
        for (std::size_t k = 0; k < benches.size(); ++k) {
          if (done[k] == benches[k]->pool_size()) {
            continue;
          }
          // done[k] / size[k] < done[pick] / size[pick], without division.
          if (pick == benches.size() ||
              done[k] * benches[pick]->pool_size() < done[pick] * benches[k]->pool_size()) {
            pick = k;
          }
        }
        if (pick == benches.size()) {
          break;
        }
        (benches[pick].get()->*time_stroke)(done[pick]++);
      }
    }
  }
  std::vector<Row> rows;
  for (const std::unique_ptr<RowBench>& bench : benches) {
    rows.push_back(bench->Finish());
  }

  std::printf("lexicon scaling (tier %s, %zu train/class, %zu reps)\n", simd::TierName(active),
              per_class_train, reps);
  for (const Row& row : rows) {
    std::printf("  %-12s %3zu classes  accuracy %5.1f%%  p50 %8.1f ns/pt  p95 %8.1f ns/pt  "
                "n-best at stroke end p50 %7.1f ns  p95 %7.1f ns\n",
                row.name.c_str(), row.classes, 100.0 * row.accuracy, row.p50_ns, row.p95_ns,
                row.nbest_end_p50_ns, row.nbest_end_p95_ns);
  }
  std::printf("training stages (median of %zu, ms)\n", train_reps);
  for (const Row& row : rows) {
    std::printf("  %-12s full %7.2f  labeler %7.2f  mover %7.2f  auc %7.2f  total %7.2f\n",
                row.name.c_str(), row.train_full_ms, row.train_labeler_ms, row.train_mover_ms,
                row.train_auc_ms, row.train_total_ms);
  }
  std::printf("training work (one run) and per-unit times\n");
  for (const Row& row : rows) {
    std::printf("  %-12s scattered %6zu examples  %7.1f ns/example  mover %8zu distances  "
                "%6.2f ns/distance\n",
                row.name.c_str(), row.train_scattered_examples, row.train_scatter_ns_per_example,
                row.train_mover_distances, row.train_mover_ns_per_distance);
  }

  // --- Confusion-driven selection: prune 200 -> 50 and compare against the
  // full lexicon and the naive first-50 prefix at the same k. ---
  synth::NoiseModel noise;
  const classify::GestureTrainingSet train200 =
      synth::ToTrainingSet(synth::GenerateSet(specs200, noise, per_class_train, kTrainSeed));
  const classify::GestureTrainingSet test200 =
      synth::ToTrainingSet(synth::GenerateSet(specs200, noise, kPerClassTest, kTestSeed));
  classify::GestureClassifier full200;
  full200.Train(train200);
  const double accuracy_full200 = classify::EvaluateClassifier(full200, test200).Accuracy();

  classify::LexiconSelectionOptions sel_options;
  sel_options.target_classes = 50;
  const classify::LexiconSelectionReport report =
      classify::SelectLexicon(full200, train200, sel_options);

  const double accuracy_selected = SubsetAccuracy(train200, test200, report.selected);
  std::vector<classify::ClassId> first50(50);
  for (std::size_t c = 0; c < first50.size(); ++c) {
    first50[c] = static_cast<classify::ClassId>(c);
  }
  const double accuracy_prefix = SubsetAccuracy(train200, test200, first50);

  std::printf("selection 200 -> %zu (confusion_weight %.1f): %zu dropped, %zu collisions\n",
              report.selected.size(), sel_options.confusion_weight, report.dropped.size(),
              report.collisions);
  std::printf("  accuracy: full-200 %5.1f%%  selected-50 %5.1f%%  first-50 prefix %5.1f%%\n",
              100.0 * accuracy_full200, 100.0 * accuracy_selected, 100.0 * accuracy_prefix);
  std::printf("  min surviving effective separation %.3f\n", report.min_surviving_separation);
  for (std::size_t d = 0; d < std::min<std::size_t>(5, report.dropped.size()); ++d) {
    const classify::DroppedClass& drop = report.dropped[d];
    std::printf("  dropped[%zu] %s (vs %s, sep %.3f, confusion %.3f%s)\n", d, drop.name.c_str(),
                drop.nearest_name.c_str(), drop.separation, drop.confusion_rate,
                drop.collision ? ", COLLISION" : "");
  }

  // --- N-best across every compiled-in tier at 200 classes. ---
  eager::EagerRecognizer r200;
  r200.Train(train200);
  const std::vector<geom::Gesture> pool200 = TestPool(specs200, 1);
  const simd::Tier tiers[] = {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2};
  std::vector<std::string> tier_names;
  std::vector<std::vector<TierObservation>> observed;
  for (const simd::Tier t : tiers) {
    if (!simd::ForceTier(t)) {
      continue;
    }
    eager::EagerStream stream(r200);
    stream.SetNBest(classify::kMaxNBest);
    std::vector<TierObservation> obs;
    obs.reserve(pool200.size());
    for (const geom::Gesture& g : pool200) {
      eager::FireEvent fire;
      stream.AddSpan(std::span<const geom::TimedPoint>(g.points()), &fire);
      TierObservation o;
      o.nbest_count = stream.ClassifyNowNBest(std::span<classify::NBestEntry>(o.nbest), &o.top);
      stream.Reset();
      obs.push_back(o);
    }
    tier_names.push_back(simd::TierName(t));
    observed.push_back(std::move(obs));
  }
  simd::ResetTier();

  bool tiers_identical = true;
  bool top1_bit_identical = true;
  for (const std::vector<TierObservation>& obs : observed) {
    for (std::size_t s = 0; s < obs.size(); ++s) {
      const TierObservation& o = obs[s];
      const TierObservation& ref = observed.front()[s];
      if (o.nbest_count != ref.nbest_count) {
        tiers_identical = false;
      }
      for (std::size_t k = 0; k < std::min(o.nbest_count, ref.nbest_count); ++k) {
        if (o.nbest[k].class_id != ref.nbest[k].class_id ||
            !BitEqual(o.nbest[k].score, ref.nbest[k].score) ||
            !BitEqual(o.nbest[k].probability, ref.nbest[k].probability)) {
          tiers_identical = false;
        }
      }
      if (o.nbest_count == 0 || o.nbest[0].class_id != o.top.class_id ||
          !BitEqual(o.nbest[0].score, o.top.score) ||
          !BitEqual(o.nbest[0].probability, o.top.probability)) {
        top1_bit_identical = false;
      }
    }
  }
  std::printf("n-best tier sweep (%zu tiers, %zu strokes, 200 classes): %s, top-1 %s\n",
              observed.size(), pool200.size(), tiers_identical ? "identical" : "DIVERGED",
              top1_bit_identical ? "bit-identical to Classify" : "MISMATCHES Classify");

  // --- Allocations per point on the n-best eager path. ---
  double nbest_allocs_per_point = 0.0;
  {
    eager::EagerStream stream(r200);
    stream.SetNBest(classify::kMaxNBest);
    std::array<classify::NBestEntry, classify::kMaxNBest> nbest{};
    double checksum = 0.0;
    for (const geom::Gesture& g : pool200) {  // warm-up: size lazy buffers
      eager::FireEvent fire;
      stream.AddSpan(std::span<const geom::TimedPoint>(g.points()), &fire);
      checksum += static_cast<double>(stream.ClassifyNowNBest(std::span(nbest)));
      stream.Reset();
    }
    std::uint64_t counted_points = 0;
    const std::uint64_t allocs = grandma::testsupport::CountAllocations([&] {
      for (const geom::Gesture& g : pool200) {
        eager::FireEvent fire;
        stream.AddSpan(std::span<const geom::TimedPoint>(g.points()), &fire);
        checksum += static_cast<double>(stream.ClassifyNowNBest(std::span(nbest)));
        stream.Reset();
        counted_points += g.size();
      }
    });
    nbest_allocs_per_point = static_cast<double>(allocs) / static_cast<double>(counted_points);
    if (!(checksum == checksum)) {
      std::fprintf(stderr, "non-finite checksum\n");
    }
  }
  std::printf("n-best eager path: %.4f allocs/point\n", nbest_allocs_per_point);

  const double scaling_ratio = rows[2].p50_ns / rows[0].p50_ns;

  {
    std::ofstream file("BENCH_lexicon.json");
    grandma::bench::JsonWriter json(file);
    json.BeginObject()
        .KV("bench", "lexicon_scale")
        .KV("reps", static_cast<std::int64_t>(reps))
        .KV("per_class_train", static_cast<std::int64_t>(per_class_train))
        .KV("simd_tier", simd::TierName(active));
    json.Key("rows").BeginArray();
    for (const Row& row : rows) {
      json.BeginObject()
          .KV("name", row.name)
          .KV("classes", static_cast<std::int64_t>(row.classes))
          .KV("accuracy", row.accuracy)
          .KV("p50_ns_per_point", row.p50_ns)
          .KV("p95_ns_per_point", row.p95_ns)
          .KV("nbest_end_p50_ns_per_call", row.nbest_end_p50_ns)
          .KV("nbest_end_p95_ns_per_call", row.nbest_end_p95_ns)
          .KV("train_full_ms", row.train_full_ms)
          .KV("train_labeler_ms", row.train_labeler_ms)
          .KV("train_mover_ms", row.train_mover_ms)
          .KV("train_auc_ms", row.train_auc_ms)
          .KV("train_total_ms", row.train_total_ms)
          .KV("train_scattered_examples", static_cast<std::int64_t>(row.train_scattered_examples))
          .KV("train_scatter_ns_per_example", row.train_scatter_ns_per_example)
          .KV("train_mover_distances", static_cast<std::int64_t>(row.train_mover_distances))
          .KV("train_mover_ns_per_distance", row.train_mover_ns_per_distance)
          .EndObject();
    }
    json.EndArray();
    json.Key("selection")
        .BeginObject()
        .KV("target_classes", static_cast<std::int64_t>(sel_options.target_classes))
        .KV("confusion_weight", sel_options.confusion_weight)
        .KV("dropped", static_cast<std::int64_t>(report.dropped.size()))
        .KV("collisions", static_cast<std::int64_t>(report.collisions))
        .KV("full_train_accuracy", report.full_train_accuracy)
        .KV("min_surviving_separation", report.min_surviving_separation)
        .KV("accuracy_full_200", accuracy_full200)
        .KV("accuracy_selected_50", accuracy_selected)
        .KV("accuracy_first_50_prefix", accuracy_prefix)
        .EndObject();
#if defined(GRANDMA_SANITIZED_BUILD)
    const char* scaling_gate = "skipped_sanitized";
#else
    const char* scaling_gate = active == simd::Tier::kScalar
                                   ? "skipped_no_simd"
                                   : (scaling_ratio <= 4.0 ? "pass" : "fail");
#endif
    json.KV("scaling_p50_ratio_200_vs_11", scaling_ratio)
        .KV("scaling_gate", scaling_gate)
        .KV("nbest_tiers_identical", tiers_identical)
        .KV("nbest_top1_bit_identical", top1_bit_identical)
        .KV("nbest_allocs_per_point", nbest_allocs_per_point);
    json.EndObject();
  }
  std::printf("wrote BENCH_lexicon.json\n");

  // The hard gates.
  int rc = 0;
  const double chance200 = 1.0 / 200.0;
  if (rows[2].accuracy <= 10.0 * chance200) {
    std::fprintf(stderr, "GATE FAILED: 200-class accuracy %.3f not above 10x chance\n",
                 rows[2].accuracy);
    rc = 1;
  }
  if (accuracy_selected < accuracy_full200) {
    std::fprintf(stderr, "GATE FAILED: selected-50 accuracy %.3f < full-200 accuracy %.3f\n",
                 accuracy_selected, accuracy_full200);
    rc = 1;
  }
#if defined(GRANDMA_SANITIZED_BUILD)
  // Sanitizer shadow ops scale with instruction count, so the 200-vs-11
  // ratio is noise there; report it above, let the functional gates bind.
  std::printf("scaling gate skipped: sanitized build (ratio %.2fx)\n", scaling_ratio);
#else
  if (active == simd::Tier::kScalar) {
    std::printf("scaling gate skipped: scalar tier pays full per-class cost (ratio %.2fx)\n",
                scaling_ratio);
  } else if (scaling_ratio > 4.0) {
    std::fprintf(stderr, "GATE FAILED: 200-class p50 %.1f ns is %.2fx the 11-class p50 %.1f ns "
                         "(limit 4x)\n",
                 rows[2].p50_ns, scaling_ratio, rows[0].p50_ns);
    rc = 1;
  }
#endif
  if (!tiers_identical) {
    std::fprintf(stderr, "GATE FAILED: EvaluateNBest diverged across SIMD tiers\n");
    rc = 1;
  }
  if (!top1_bit_identical) {
    std::fprintf(stderr, "GATE FAILED: n-best top-1 not bit-identical to Classify\n");
    rc = 1;
  }
  if (nbest_allocs_per_point != 0.0) {
    std::fprintf(stderr, "GATE FAILED: n-best eager path allocates (%.4f allocs/point)\n",
                 nbest_allocs_per_point);
    rc = 1;
  }
  return rc;
}
