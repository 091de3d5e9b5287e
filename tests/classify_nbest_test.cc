// Property tests for the n-best recognition surface: ranking order,
// probability calibration bounds, bit-identity of the top-1 entry with the
// single-answer Classify path, and cross-tier identity of the full ranking
// at a 200-class lexicon (EvaluateNBest rides the dispatched SoA evaluator,
// whose scores are bit-identical across tiers by design).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "classify/gesture_classifier.h"
#include "classify/linear_classifier.h"
#include "features/extractor.h"
#include "linalg/simd.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/sets.h"

namespace grandma::classify {
namespace {

namespace simd = linalg::simd;

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

linalg::Vector ExtractFeatures(const geom::Gesture& g) {
  features::FeatureExtractor fx;
  for (const geom::TimedPoint& p : g) {
    fx.AddPoint(p);
  }
  return fx.Features();
}

// A trained 200-class lexicon classifier plus held-out probe strokes,
// shared across the tests (training 200 classes once keeps the suite fast).
struct LexiconFixture {
  GestureClassifier classifier;
  std::vector<geom::Gesture> probes;

  LexiconFixture() {
    synth::LexiconOptions lex;
    lex.num_classes = 200;
    const std::vector<synth::PathSpec> specs = synth::MakeExtensiveLexicon(lex);
    synth::NoiseModel noise;
    classifier.Train(synth::ToTrainingSet(synth::GenerateSet(specs, noise, 4, 1991)));
    synth::Rng rng(17);
    for (std::size_t c = 0; c < specs.size(); c += 7) {
      probes.push_back(synth::Generate(specs[c], noise, rng).gesture);
    }
  }
};

const LexiconFixture& Fixture() {
  static const LexiconFixture* fixture = new LexiconFixture;
  return *fixture;
}

struct NBestRun {
  std::array<NBestEntry, kMaxNBest> entries{};
  std::size_t count = 0;
  Classification top;
};

NBestRun RunNBest(const GestureClassifier& c, const geom::Gesture& g, std::size_t depth) {
  const linalg::Vector f = ExtractFeatures(g);
  linalg::Vector masked(c.mask().count());
  linalg::Vector scores(c.num_classes());
  linalg::Vector diff(c.mask().count());
  NBestRun run;
  run.count = c.EvaluateNBestView(f.view(), masked.view(), scores.view(), diff.view(),
                                  std::span<NBestEntry>(run.entries.data(), depth), &run.top);
  return run;
}

TEST(NBestTest, SortedByScoreWithLowestIdTies) {
  const LexiconFixture& fx = Fixture();
  for (const geom::Gesture& g : fx.probes) {
    const NBestRun run = RunNBest(fx.classifier, g, kMaxNBest);
    ASSERT_EQ(run.count, kMaxNBest);
    for (std::size_t k = 1; k < run.count; ++k) {
      // Strictly descending by score; equal scores must come in id order.
      if (run.entries[k].score == run.entries[k - 1].score) {
        EXPECT_GT(run.entries[k].class_id, run.entries[k - 1].class_id);
      } else {
        EXPECT_LT(run.entries[k].score, run.entries[k - 1].score);
      }
    }
  }
}

TEST(NBestTest, ProbabilitiesCalibratedAndBounded) {
  const LexiconFixture& fx = Fixture();
  for (const geom::Gesture& g : fx.probes) {
    const NBestRun run = RunNBest(fx.classifier, g, kMaxNBest);
    double sum = 0.0;
    for (std::size_t k = 0; k < run.count; ++k) {
      EXPECT_GE(run.entries[k].probability, 0.0);
      EXPECT_LE(run.entries[k].probability, 1.0);
      if (k > 0) {
        EXPECT_LE(run.entries[k].probability, run.entries[k - 1].probability);
      }
      sum += run.entries[k].probability;
    }
    // The n entries are a subset of the full softmax, so their mass can reach
    // 1.0 but never exceed it beyond summation rounding (a few ULP).
    EXPECT_LE(sum, 1.0 + 16.0 * std::numeric_limits<double>::epsilon());
  }
}

TEST(NBestTest, Top1BitIdenticalToClassify) {
  const LexiconFixture& fx = Fixture();
  for (const geom::Gesture& g : fx.probes) {
    const NBestRun run = RunNBest(fx.classifier, g, kMaxNBest);
    const Classification direct = fx.classifier.Classify(g);
    ASSERT_GT(run.count, 0u);
    EXPECT_EQ(run.entries[0].class_id, direct.class_id);
    EXPECT_TRUE(BitEqual(run.entries[0].score, direct.score));
    EXPECT_TRUE(BitEqual(run.entries[0].probability, direct.probability));
    // The `top` out-param carries the full Classification, also bit-equal.
    EXPECT_EQ(run.top.class_id, direct.class_id);
    EXPECT_TRUE(BitEqual(run.top.score, direct.score));
    EXPECT_TRUE(BitEqual(run.top.probability, direct.probability));
    EXPECT_TRUE(BitEqual(run.top.mahalanobis_squared, direct.mahalanobis_squared));
  }
}

TEST(NBestTest, ZeroDepthStillFillsTopFromClassify) {
  const LexiconFixture& fx = Fixture();
  const NBestRun run = RunNBest(fx.classifier, fx.probes.front(), 0);
  EXPECT_EQ(run.count, 0u);
  const Classification direct = fx.classifier.Classify(fx.probes.front());
  EXPECT_EQ(run.top.class_id, direct.class_id);
  EXPECT_TRUE(BitEqual(run.top.score, direct.score));
}

TEST(NBestTest, DepthClampedToClassCount) {
  // A 2-class classifier asked for kMaxNBest entries returns exactly 2.
  GestureClassifier two;
  synth::NoiseModel noise;
  two.Train(synth::ToTrainingSet(synth::GenerateSet(synth::MakeUpDownSpecs(), noise, 6, 1991)));
  synth::Rng rng(3);
  const geom::Gesture g =
      synth::Generate(synth::MakeUpDownSpecs().front(), noise, rng).gesture;
  const NBestRun run = RunNBest(two, g, kMaxNBest);
  EXPECT_EQ(run.count, std::min<std::size_t>(two.num_classes(), kMaxNBest));
}

TEST(NBestTest, EntriesNameDistinctClasses) {
  const LexiconFixture& fx = Fixture();
  for (const geom::Gesture& g : fx.probes) {
    const NBestRun run = RunNBest(fx.classifier, g, kMaxNBest);
    for (std::size_t i = 0; i < run.count; ++i) {
      for (std::size_t j = i + 1; j < run.count; ++j) {
        EXPECT_NE(run.entries[i].class_id, run.entries[j].class_id);
      }
    }
  }
}

// Reference n-best: repeated first-max scans (EvaluateNBest runs the same
// scans itself on NaN input) and the plain softmax denominator. Its one-pass
// ranking and skipped-term denominator must match this bit for bit.
std::size_t ReferenceNBest(const std::vector<double>& scores, std::span<NBestEntry> out) {
  const std::size_t n = std::min(out.size(), scores.size());
  if (n == 0) {
    return 0;
  }
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  double prev_score = 0.0;
  std::size_t prev_id = kNone;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t best = kNone;
    for (std::size_t c = 0; c < scores.size(); ++c) {
      if (prev_id != kNone &&
          (scores[c] > prev_score || (scores[c] == prev_score && c <= prev_id))) {
        continue;
      }
      if (best == kNone || scores[c] > scores[best]) {
        best = c;
      }
    }
    if (best == kNone) {
      return k;
    }
    out[k].class_id = best;
    out[k].score = scores[best];
    prev_score = scores[best];
    prev_id = best;
  }
  const double v_top = out[0].score;
  double denom = 0.0;
  for (double v_j : scores) {
    denom += std::exp(v_j - v_top);
  }
  for (std::size_t k = 0; k < n; ++k) {
    out[k].probability = std::exp(out[k].score - v_top) / denom;
  }
  return n;
}

// A classifier whose scores are exactly `scores`: one feature, zero weights,
// the scores as biases, evaluated at f = 0 (bias + 0 * 0 is the bias, except
// that -0 becomes +0, which no case below uses).
LinearClassifier ScoresClassifier(const std::vector<double>& scores) {
  std::vector<linalg::Vector> weights(scores.size(), linalg::Vector{0.0});
  std::vector<linalg::Vector> means(scores.size(), linalg::Vector{0.0});
  return LinearClassifier::FromParameters(std::move(weights), scores, std::move(means),
                                          linalg::Matrix::Identity(1));
}

// Bit equality, except that any NaN matches any NaN.
bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || BitEqual(a, b);
}

void ExpectRankingMatchesReference(const std::vector<double>& scores, std::size_t depth) {
  const LinearClassifier c = ScoresClassifier(scores);
  const linalg::Vector f{0.0};
  std::vector<double> evaluated(scores.size());
  // Entries the NaN fallback leaves unwritten must match too: same sentinel.
  const NBestEntry sentinel{999, -7.0, -7.0};
  std::vector<NBestEntry> got(depth, sentinel);
  const std::size_t got_count = c.EvaluateNBest(
      f.view(), linalg::MutVecView(evaluated.data(), evaluated.size()), std::span(got));
  for (std::size_t j = 0; j < scores.size(); ++j) {
    ASSERT_TRUE(SameBits(evaluated[j], scores[j])) << "class " << j;
  }
  std::vector<NBestEntry> want(depth, sentinel);
  const std::size_t want_count = ReferenceNBest(evaluated, std::span(want));
  ASSERT_EQ(got_count, want_count) << "depth " << depth << " of " << scores.size();
  for (std::size_t k = 0; k < depth; ++k) {
    EXPECT_EQ(got[k].class_id, want[k].class_id) << "rank " << k << ", depth " << depth;
    EXPECT_TRUE(SameBits(got[k].score, want[k].score)) << "rank " << k << ", depth " << depth;
    EXPECT_TRUE(SameBits(got[k].probability, want[k].probability))
        << "rank " << k << ", depth " << depth;
  }
}

void ExpectRankingMatchesReferenceAtEveryDepth(const std::vector<double>& scores) {
  for (std::size_t depth = 1; depth <= scores.size() + 2; ++depth) {
    ExpectRankingMatchesReference(scores, depth);
  }
}

TEST(NBestTest, RankingMatchesRepeatedScansOnCraftedScores) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> cases = {
      {4.0},
      {4.0, 4.0},
      {1.0, 5.0, 5.0, 3.0, 5.0, 2.0},            // three-way tie at rank 0
      {9.0, 6.0, 8.0, 6.0, 7.0, 6.0, 1.0, 6.0},  // ties straddle every cut from 3 on
      {6.0, 6.0, 6.0, 6.0, 6.0, 6.0},
      {-inf, 2.0, -inf, -inf, 0.5},              // -Inf scores
      {-inf, -inf, -inf},                        // all -Inf: NaN probabilities
      {1.0, inf, 3.0, inf},                      // +Inf scores
      {-1e300, 1e300, 0.0, -0.5, 1e-300},
  };
  for (const std::vector<double>& scores : cases) {
    ExpectRankingMatchesReferenceAtEveryDepth(scores);
  }
}

TEST(NBestTest, RankingMatchesRepeatedScansOnDenseTies) {
  std::uint64_t state = 2026;
  for (int trial = 0; trial < 300; ++trial) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t classes = 1 + (state >> 33) % 40;
    std::vector<double> scores(classes);
    for (double& v : scores) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(static_cast<int>((state >> 33) % 7) - 3);
    }
    ExpectRankingMatchesReferenceAtEveryDepth(scores);
  }
}

// A NaN score leaves the one-pass order, so EvaluateNBest falls back to the
// repeated scans; the result must be theirs wherever the NaN sits.
TEST(NBestTest, RankingWithNanScoresFallsBackToRepeatedScans) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> base{2.0, 7.0, 7.0, -1.0, 4.0, 9.0, 4.0};
  for (const std::size_t at : {std::size_t{0}, base.size() / 2, base.size() - 1}) {
    std::vector<double> scores = base;
    scores[at] = nan;
    ExpectRankingMatchesReferenceAtEveryDepth(scores);
  }
  ExpectRankingMatchesReferenceAtEveryDepth({nan, nan, nan});
  ExpectRankingMatchesReferenceAtEveryDepth({1.0, nan, 1.0, nan});
}

// The ranking (ids, scores, probabilities) must be bitwise identical under
// every tier ForceTier accepts on this hardware — the SoA evaluator's
// cross-tier bit-identity contract extends through EvaluateNBest.
TEST(NBestTest, RankingIdenticalAcrossSimdTiers) {
  const LexiconFixture& fx = Fixture();
  const simd::Tier tiers[] = {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2};
  std::vector<std::vector<NBestRun>> per_tier;
  for (const simd::Tier t : tiers) {
    if (!simd::ForceTier(t)) {
      continue;
    }
    std::vector<NBestRun> runs;
    for (const geom::Gesture& g : fx.probes) {
      runs.push_back(RunNBest(fx.classifier, g, kMaxNBest));
    }
    per_tier.push_back(std::move(runs));
  }
  simd::ResetTier();
  ASSERT_GE(per_tier.size(), 1u);
  for (std::size_t t = 1; t < per_tier.size(); ++t) {
    ASSERT_EQ(per_tier[t].size(), per_tier[0].size());
    for (std::size_t s = 0; s < per_tier[t].size(); ++s) {
      const NBestRun& a = per_tier[0][s];
      const NBestRun& b = per_tier[t][s];
      ASSERT_EQ(a.count, b.count);
      for (std::size_t k = 0; k < a.count; ++k) {
        EXPECT_EQ(a.entries[k].class_id, b.entries[k].class_id);
        EXPECT_TRUE(BitEqual(a.entries[k].score, b.entries[k].score));
        EXPECT_TRUE(BitEqual(a.entries[k].probability, b.entries[k].probability));
      }
    }
  }
}

}  // namespace
}  // namespace grandma::classify
