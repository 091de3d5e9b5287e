#include "eager/auc.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "classify/gesture_classifier.h"
#include "eager/accidental_mover.h"
#include "linalg/simd.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/sets.h"

namespace grandma::eager {
namespace {

struct Fixture {
  classify::GestureTrainingSet training;
  classify::GestureClassifier full;
  SubgesturePartition partition;
};

Fixture MakeMoved(const std::vector<synth::PathSpec>& specs) {
  Fixture f;
  synth::NoiseModel noise;
  f.training = synth::ToTrainingSet(synth::GenerateSet(specs, noise, 15, 1991));
  f.full.Train(f.training);
  f.partition = LabelSubgestures(f.full, f.training);
  MoveAccidentallyComplete(f.full, f.partition);
  return f;
}

TEST(AucTest, TrainsInNormalMode) {
  Fixture f = MakeMoved(synth::MakeUpDownSpecs());
  Auc auc;
  const AucTrainReport report = auc.Train(f.partition);
  EXPECT_EQ(auc.mode(), Auc::Mode::kNormal);
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.degenerate);
  EXPECT_GE(auc.num_sets(), 2u);
}

TEST(AucTest, NoIncompleteTrainingSubgestureJudgedUnambiguous) {
  // The tweak pass's guarantee (Section 4.6): on its own training data, no
  // ambiguous (incomplete) subgesture may be classified into a complete set.
  Fixture f = MakeMoved(synth::MakeUpDownSpecs());
  Auc auc;
  const AucTrainReport report = auc.Train(f.partition);
  ASSERT_TRUE(report.converged);
  for (classify::ClassId c = 0; c < f.partition.num_classes(); ++c) {
    for (const std::size_t row : f.partition.incomplete_sets[c]) {
      EXPECT_FALSE(auc.Unambiguous(f.partition.Row(row)));
    }
  }
}

TEST(AucTest, SomeCompleteSubgesturesJudgedUnambiguous) {
  // Conservative, but not degenerate: a healthy share of genuinely
  // unambiguous training subgestures must pass.
  Fixture f = MakeMoved(synth::MakeUpDownSpecs());
  Auc auc;
  auc.Train(f.partition);
  std::size_t total = 0;
  std::size_t passed = 0;
  for (classify::ClassId c = 0; c < f.partition.num_classes(); ++c) {
    for (const std::size_t row : f.partition.complete_sets[c]) {
      ++total;
      passed += auc.Unambiguous(f.partition.Row(row)) ? 1 : 0;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(passed) / static_cast<double>(total), 0.3);
}

TEST(AucTest, BiasMakesItMoreConservativeThanUnbiased) {
  Fixture f = MakeMoved(synth::MakeUpDownSpecs());
  Auc biased;
  AucOptions options;
  biased.Train(f.partition, options);

  Auc unbiased;
  AucOptions no_bias;
  no_bias.ambiguous_bias = 0.0;
  no_bias.max_tweak_passes = 0;
  unbiased.Train(f.partition, no_bias);

  std::size_t biased_fires = 0;
  std::size_t unbiased_fires = 0;
  for (const auto& pg : f.partition.per_gesture) {
    for (const auto& sub : pg.subgestures) {
      biased_fires += biased.Unambiguous(f.partition.Row(sub.row)) ? 1 : 0;
      unbiased_fires += unbiased.Unambiguous(f.partition.Row(sub.row)) ? 1 : 0;
    }
  }
  EXPECT_LE(biased_fires, unbiased_fires);
}

TEST(AucTest, DegenerateAllCompleteMeansAlwaysUnambiguous) {
  Fixture f = MakeMoved(synth::MakeUpDownSpecs());
  for (auto& pg : f.partition.per_gesture) {
    for (auto& sub : pg.subgestures) {
      sub.complete = true;
      sub.moved_to_incomplete = -1;
    }
  }
  RebuildSets(f.partition);
  Auc auc;
  const AucTrainReport report = auc.Train(f.partition);
  EXPECT_TRUE(report.degenerate);
  EXPECT_EQ(auc.mode(), Auc::Mode::kAlwaysUnambiguous);
  EXPECT_TRUE(auc.Unambiguous(f.partition.Row(f.partition.per_gesture[0].subgestures[0].row)));
}

TEST(AucTest, DegenerateAllIncompleteMeansAlwaysAmbiguous) {
  Fixture f = MakeMoved(synth::MakeUpDownSpecs());
  for (auto& pg : f.partition.per_gesture) {
    for (auto& sub : pg.subgestures) {
      sub.complete = false;
      sub.moved_to_incomplete = -1;
    }
  }
  RebuildSets(f.partition);
  Auc auc;
  const AucTrainReport report = auc.Train(f.partition);
  EXPECT_TRUE(report.degenerate);
  EXPECT_EQ(auc.mode(), Auc::Mode::kAlwaysAmbiguous);
  EXPECT_FALSE(auc.Unambiguous(f.partition.Row(f.partition.per_gesture[0].subgestures[0].row)));
}

TEST(AucTest, SetInfoNamesFullClasses) {
  Fixture f = MakeMoved(synth::MakeUpDownSpecs());
  Auc auc;
  auc.Train(f.partition);
  for (classify::ClassId k = 0; k < auc.num_sets(); ++k) {
    EXPECT_LT(auc.ClassInfo(k).full_class, f.full.num_classes());
  }
}

TEST(AucTest, UntrainedThrows) {
  Auc auc;
  EXPECT_THROW(auc.Unambiguous(linalg::Vector(13)), std::logic_error);
}

// Train lays complete sets out as the id prefix, which lets D(s) use the
// fused winner-in-prefix kernel. FromParameters accepts ANY set order, so an
// interleaved layout must fall back to the evaluate + argmax path — and the
// two layouts must agree on every D(s) answer when they describe the same
// classifier up to class permutation.
TEST(AucTest, FromParametersNonPrefixLayoutAgreesWithPrefixLayout) {
  // Four axis-aligned discriminators in 2-D: class k wins in "its" quadrant
  // direction. Interleaved AUC: ids {C, I, C, I}; prefix AUC: the same four
  // sets permuted to {C, C, I, I} (weights permuted identically, so each
  // set keeps its own discriminator).
  const linalg::Vector up{0.0, 1.0};
  const linalg::Vector down{0.0, -1.0};
  const linalg::Vector right{1.0, 0.0};
  const linalg::Vector left{-1.0, 0.0};
  const linalg::Matrix eye = linalg::Matrix::Identity(2);
  const std::vector<double> zeros4(4, 0.0);
  const std::vector<linalg::Vector> means4(4, linalg::Vector(2));

  Auc interleaved = Auc::FromParameters(
      Auc::Mode::kNormal,
      classify::LinearClassifier::FromParameters({right, up, left, down}, zeros4, means4, eye),
      {Auc::SetInfo{true, 0}, Auc::SetInfo{false, 1}, Auc::SetInfo{true, 2},
       Auc::SetInfo{false, 3}});
  Auc prefix = Auc::FromParameters(
      Auc::Mode::kNormal,
      classify::LinearClassifier::FromParameters({right, left, up, down}, zeros4, means4, eye),
      {Auc::SetInfo{true, 0}, Auc::SetInfo{true, 2}, Auc::SetInfo{false, 1},
       Auc::SetInfo{false, 3}});

  const std::vector<linalg::Vector> probes = {
      {5.0, 1.0},  {-5.0, 1.0}, {1.0, 5.0},   {1.0, -5.0}, {3.0, -2.0},
      {-3.0, 2.0}, {0.5, 0.25}, {-0.5, -0.25}, {2.0, 1.0},  {-1.0, -2.0}};
  for (const linalg::Vector& f : probes) {
    EXPECT_EQ(interleaved.Unambiguous(f), prefix.Unambiguous(f))
        << "f=(" << f[0] << "," << f[1] << ")";
  }
  // All-tie probe: every score is 0, the first set wins on both layouts,
  // and both first sets are complete.
  EXPECT_TRUE(interleaved.Unambiguous(linalg::Vector{0.0, 0.0}));
  EXPECT_TRUE(prefix.Unambiguous(linalg::Vector{0.0, 0.0}));

  // The batched check over the same probes, stored as unprojected rows
  // {f[1], padding, f[0]} and read through the column list {2, 0}: from
  // every starting probe, both layouts return the first row Unambiguous
  // accepts.
  constexpr std::size_t kStride = 3;
  const std::size_t columns[] = {2, 0};
  std::vector<double> rows;
  for (const linalg::Vector& f : probes) {
    rows.insert(rows.end(), {f[1], 99.0, f[0]});
  }
  std::vector<double> scores(4);
  for (std::size_t begin = 0; begin < probes.size(); ++begin) {
    std::size_t expect = Auc::kNone;
    for (std::size_t r = begin; r < probes.size() && expect == Auc::kNone; ++r) {
      if (prefix.Unambiguous(probes[r])) {
        expect = r - begin;
      }
    }
    for (const Auc* auc : {&interleaved, &prefix}) {
      EXPECT_EQ(auc->FirstUnambiguous(rows.data() + begin * kStride, probes.size() - begin,
                                      kStride, columns,
                                      linalg::MutVecView(scores.data(), scores.size())),
                expect)
          << "begin=" << begin;
    }
  }
}

// The batched check gathers each row into a fixed buffer of
// linalg::simd::kMaxColumns features; a wider AUC is refused, not overrun.
TEST(AucTest, BatchedCheckRefusesMoreFeaturesThanAGatherHolds) {
  const std::size_t dim = linalg::simd::kMaxColumns + 1;
  linalg::Vector w(dim);
  w[0] = 1.0;
  const Auc auc = Auc::FromParameters(
      Auc::Mode::kNormal,
      classify::LinearClassifier::FromParameters({w, w}, {0.0, 0.0},
                                                 {linalg::Vector(dim), linalg::Vector(dim)},
                                                 linalg::Matrix::Identity(dim)),
      {Auc::SetInfo{true, 0}, Auc::SetInfo{false, 0}});
  std::vector<std::size_t> columns(dim);
  std::vector<double> row(dim, 1.0);
  for (std::size_t i = 0; i < dim; ++i) {
    columns[i] = i;
  }
  std::vector<double> scores(2);
  EXPECT_THROW(auc.FirstUnambiguous(row.data(), 1, dim, columns.data(),
                                    linalg::MutVecView(scores.data(), scores.size())),
               std::invalid_argument);
}

// The tweak pass as it ran before the worklist: every pass evaluates every
// incomplete subgesture into a fresh score vector, takes the first-max
// winner, and lowers a complete winner's bias below the best incomplete
// score. Starts from `untweaked`, an AUC trained with no tweak passes.
struct TweakOutcome {
  std::vector<double> biases;
  std::size_t passes = 0;
  std::size_t adjustments = 0;
  bool converged = false;
};

TweakOutcome FullScanTweak(const Auc& untweaked, const SubgesturePartition& partition,
                           const AucOptions& options) {
  classify::LinearClassifier linear = untweaked.linear();
  TweakOutcome out;
  for (std::size_t pass = 0; pass < options.max_tweak_passes && !out.converged; ++pass) {
    ++out.passes;
    std::size_t adjustments = 0;
    for (classify::ClassId c = 0; c < partition.num_classes(); ++c) {
      for (const std::size_t row : partition.incomplete_sets[c]) {
        std::vector<double> scores(linear.num_classes());
        linear.EvaluateAllInto(partition.Row(row),
                               linalg::MutVecView(scores.data(), scores.size()));
        classify::ClassId winner = 0;
        for (classify::ClassId k = 1; k < scores.size(); ++k) {
          if (scores[k] > scores[winner]) {
            winner = k;
          }
        }
        if (!untweaked.ClassInfo(winner).complete) {
          continue;
        }
        double best_incomplete = 0.0;
        bool first = true;
        for (classify::ClassId k = 0; k < scores.size(); ++k) {
          if (untweaked.ClassInfo(k).complete) {
            continue;
          }
          if (first || scores[k] > best_incomplete) {
            best_incomplete = scores[k];
            first = false;
          }
        }
        const double gap = scores[winner] - best_incomplete;
        const double delta = gap * (1.0 + options.tweak_margin) + 1e-9;
        linear.AdjustBias(winner, -delta);
        ++adjustments;
      }
    }
    out.adjustments += adjustments;
    out.converged = adjustments == 0;
  }
  for (classify::ClassId k = 0; k < linear.num_classes(); ++k) {
    out.biases.push_back(linear.bias(k));
  }
  return out;
}

// Bits, except that every NaN matches every NaN (payload propagation is
// operand-order dependent and no part of the contract).
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b);
  }
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Trains the AUC with the worklist tweak pass and checks biases and
// counters against the full-scan reference. Returns the trained AUC.
Auc ExpectTweakMatchesFullScan(const SubgesturePartition& partition,
                               const AucOptions& options) {
  AucOptions untweaked_options = options;
  untweaked_options.max_tweak_passes = 0;
  Auc untweaked;
  untweaked.Train(partition, untweaked_options);
  const TweakOutcome expected = FullScanTweak(untweaked, partition, options);

  Auc auc;
  const AucTrainReport report = auc.Train(partition, options);
  EXPECT_EQ(report.tweak_passes, expected.passes);
  EXPECT_EQ(report.tweak_adjustments, expected.adjustments);
  EXPECT_EQ(report.converged, expected.converged);
  EXPECT_GT(expected.adjustments, 0u) << "the partition never needed a tweak";
  for (classify::ClassId k = 0; k < expected.biases.size(); ++k) {
    EXPECT_TRUE(SameBits(auc.linear().bias(k), expected.biases[k]))
        << "set " << k << ": " << auc.linear().bias(k) << " vs " << expected.biases[k];
  }
  return auc;
}

Fixture MakeMovedLexicon(std::size_t classes) {
  Fixture f;
  synth::LexiconOptions lex;
  lex.num_classes = classes;
  f.training = synth::ToTrainingSet(
      synth::GenerateSet(synth::MakeExtensiveLexicon(lex), synth::NoiseModel{}, 8, 1991));
  f.full.Train(f.training);
  f.partition = LabelSubgestures(f.full, f.training);
  MoveAccidentallyComplete(f.full, f.partition);
  return f;
}

TEST(AucTweakPassTest, WorklistMatchesFullScanOnGdp) {
  const Fixture f = MakeMoved(synth::MakeGdpSpecs());
  ExpectTweakMatchesFullScan(f.partition, AucOptions{});
}

TEST(AucTweakPassTest, WorklistMatchesFullScanOnLexicon50) {
  const Fixture f = MakeMovedLexicon(50);
  ExpectTweakMatchesFullScan(f.partition, AucOptions{});
}

// Above 128 sets the tweak pass screens each subgesture with a fire filter
// built at the start of its pass (simd::FireFilter, on the AVX2 tier): the
// biases and counters must still be the unscreened loop's, on every tier.
TEST(AucTweakPassTest, ScreenedTweakMatchesFullScanAbove128Sets) {
  const Fixture f = MakeMovedLexicon(100);
  for (const linalg::simd::Tier t :
       {linalg::simd::Tier::kScalar, linalg::simd::Tier::kSse2, linalg::simd::Tier::kAvx2}) {
    if (!linalg::simd::ForceTier(t)) {
      continue;
    }
    const Auc auc = ExpectTweakMatchesFullScan(f.partition, AucOptions{});
    EXPECT_GT(auc.num_sets(), 128u);
  }
  linalg::simd::ResetTier();
}

// A subgesture with a NaN or infinite feature (dropped from the AUC's
// training data as non-finite, but still walked by the tweak pass) makes a
// NaN or infinite gap: its adjustment leaves a non-finite bias, complete
// scores may then rise, and the guard must fall back to evaluating every
// subgesture. Inserted mid-partition, so subgestures before it that pass 0
// left alone can become tweak targets afterwards.
// Inserts a subgesture whose features are all zero but the first, `poison`,
// into the middle of the largest incomplete set.
void InsertPoisonedSubgesture(SubgesturePartition& partition, double poison) {
  std::vector<std::size_t>* target = nullptr;
  for (auto& set : partition.incomplete_sets) {
    if (set.size() >= 2 && (target == nullptr || set.size() > target->size())) {
      target = &set;
    }
  }
  ASSERT_NE(target, nullptr);
  const std::size_t row = partition.features.size() / partition.dim;
  partition.features.resize(partition.features.size() + partition.dim, 0.0);
  partition.features[row * partition.dim] = poison;
  target->insert(target->begin() + static_cast<std::ptrdiff_t>(target->size() / 2), row);
}

TEST(AucTweakPassTest, NonFiniteGapFallsBackToFullScans) {
  const Fixture f = MakeMoved(synth::MakeGdpSpecs());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t non_finite_models = 0;
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    SubgesturePartition partition = f.partition;
    InsertPoisonedSubgesture(partition, poison);

    AucOptions options;
    options.max_tweak_passes = 6;
    const Auc auc = ExpectTweakMatchesFullScan(partition, options);
    for (classify::ClassId k = 0; k < auc.num_sets(); ++k) {
      if (!std::isfinite(auc.linear().bias(k))) {
        ++non_finite_models;
        break;
      }
    }
  }
  EXPECT_GT(non_finite_models, 0u) << "no poison reached the guard";
}

// The same above 128 sets, where the pass also drops its fire filter (on
// the AVX2 tier) once an adjustment breaks the monotone argument.
TEST(AucTweakPassTest, NonFiniteGapDropsTheFilterAbove128Sets) {
  const Fixture f = MakeMovedLexicon(100);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    SubgesturePartition partition = f.partition;
    InsertPoisonedSubgesture(partition, poison);
    AucOptions options;
    options.max_tweak_passes = 3;
    ExpectTweakMatchesFullScan(partition, options);
  }
}

}  // namespace
}  // namespace grandma::eager
