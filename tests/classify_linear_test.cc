#include "classify/linear_classifier.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "classify/gesture_classifier.h"
#include "classify/training_set.h"
#include "features/extractor.h"
#include "linalg/simd.h"
#include "linalg/vec_view.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/sets.h"

namespace grandma::classify {
namespace {

// Two well-separated 2-D Gaussian-ish clusters.
FeatureTrainingSet TwoClusters() {
  FeatureTrainingSet data(2);
  const double a[][2] = {{0.0, 0.0}, {1.0, 0.5}, {-0.5, 1.0}, {0.5, -1.0}, {0.2, 0.3}};
  const double b[][2] = {{10.0, 10.0}, {11.0, 10.5}, {9.5, 11.0}, {10.5, 9.0}, {10.2, 10.3}};
  for (const auto& p : a) {
    data.Add(0, linalg::Vector{p[0], p[1]});
  }
  for (const auto& p : b) {
    data.Add(1, linalg::Vector{p[0], p[1]});
  }
  return data;
}

TEST(LinearClassifierTest, SeparatesTwoClusters) {
  LinearClassifier c;
  const double ridge = c.Train(TwoClusters());
  EXPECT_DOUBLE_EQ(ridge, 0.0);
  EXPECT_TRUE(c.trained());
  EXPECT_EQ(c.num_classes(), 2u);
  EXPECT_EQ(c.dimension(), 2u);
  EXPECT_EQ(c.Classify(linalg::Vector{0.1, 0.1}).class_id, 0u);
  EXPECT_EQ(c.Classify(linalg::Vector{10.1, 9.9}).class_id, 1u);
}

TEST(LinearClassifierTest, DecisionBoundaryPassesThroughMeanMidpoint) {
  LinearClassifier c;
  c.Train(TwoClusters());
  // With w_c = Sigma^-1 mu_c and w_c0 = -1/2 mu_c^T Sigma^-1 mu_c, the two
  // scores are exactly equal at the midpoint of the class means.
  const linalg::Vector midpoint = 0.5 * (c.mean(0) + c.mean(1));
  std::array<double, 2> scores{};
  c.EvaluateAllInto(midpoint.view(), linalg::ViewOf(scores));
  EXPECT_NEAR(scores[0], scores[1], 1e-6 * (1.0 + std::abs(scores[0])));
}

TEST(LinearClassifierTest, ProbabilityNearOneFarFromBoundaryAndHalfAtIt) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const Classification r = c.Classify(linalg::Vector{0.0, 0.0});
  EXPECT_GT(r.probability, 0.99);
  const linalg::Vector midpoint = 0.5 * (c.mean(0) + c.mean(1));
  const Classification mid = c.Classify(midpoint);
  EXPECT_NEAR(mid.probability, 0.5, 1e-6);
}

TEST(LinearClassifierTest, MahalanobisSmallAtMeanLargeFarAway) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const double at_mean = c.MahalanobisSquared(c.mean(0), 0);
  EXPECT_NEAR(at_mean, 0.0, 1e-9);
  const double far = c.MahalanobisSquared(linalg::Vector{100.0, -100.0}, 0);
  EXPECT_GT(far, 100.0);
}

TEST(LinearClassifierTest, BiasAdjustmentShiftsDecision) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const linalg::Vector midpoint{5.1, 5.1};
  // Bias class 0 heavily: midpoint now classifies 0.
  c.AdjustBias(0, 100.0);
  EXPECT_EQ(c.Classify(midpoint).class_id, 0u);
  c.AdjustBias(0, -200.0);
  EXPECT_EQ(c.Classify(midpoint).class_id, 1u);
}

TEST(LinearClassifierTest, WeightsMatchClosedForm) {
  LinearClassifier c;
  c.Train(TwoClusters());
  // w_c = Sigma^-1 mu_c ; w_c0 = -1/2 mu_c . w_c.
  for (ClassId k = 0; k < 2; ++k) {
    const linalg::Vector expected = linalg::Multiply(c.inverse_covariance(), c.mean(k));
    EXPECT_TRUE(AlmostEqual(c.weights(k), expected, 1e-9));
    EXPECT_NEAR(c.bias(k), -0.5 * linalg::Dot(c.weights(k), c.mean(k)), 1e-9);
  }
}

TEST(LinearClassifierTest, SingularCovarianceIsRepaired) {
  // A constant second feature makes the pooled covariance singular.
  FeatureTrainingSet data(2);
  data.Add(0, linalg::Vector{0.0, 5.0});
  data.Add(0, linalg::Vector{1.0, 5.0});
  data.Add(1, linalg::Vector{10.0, 5.0});
  data.Add(1, linalg::Vector{11.0, 5.0});
  LinearClassifier c;
  const double ridge = c.Train(data);
  EXPECT_GT(ridge, 0.0);
  EXPECT_EQ(c.Classify(linalg::Vector{0.5, 5.0}).class_id, 0u);
  EXPECT_EQ(c.Classify(linalg::Vector{10.5, 5.0}).class_id, 1u);
}

TEST(LinearClassifierTest, TrainingValidation) {
  LinearClassifier c;
  FeatureTrainingSet empty;
  EXPECT_THROW(c.Train(empty), std::invalid_argument);

  FeatureTrainingSet one_class(1);
  one_class.Add(0, linalg::Vector{1.0});
  EXPECT_THROW(c.Train(one_class), std::invalid_argument);

  // Two classes, one example each: no covariance degrees of freedom.
  FeatureTrainingSet starved(2);
  starved.Add(0, linalg::Vector{1.0});
  starved.Add(1, linalg::Vector{2.0});
  EXPECT_THROW(c.Train(starved), std::invalid_argument);
}

TEST(LinearClassifierTest, UsesBeforeTrainingThrow) {
  LinearClassifier c;
  std::array<double, 1> scores{};
  EXPECT_THROW(c.EvaluateAllInto(linalg::Vector{1.0}.view(), linalg::ViewOf(scores)),
               std::logic_error);
  EXPECT_THROW(c.MahalanobisSquared(linalg::Vector{1.0}, 0), std::logic_error);
}

linalg::VecView ViewOf(const std::vector<double>& v) { return {v.data(), v.size()}; }

TEST(RecognitionProbabilityTest, UniformScoresGiveOneOverC) {
  const std::vector<double> scores{3.0, 3.0, 3.0, 3.0};
  EXPECT_NEAR(RecognitionProbability(ViewOf(scores), 0), 0.25, 1e-12);
}

TEST(RecognitionProbabilityTest, DominantWinnerNearOne) {
  const std::vector<double> scores{100.0, 0.0, -5.0};
  EXPECT_NEAR(RecognitionProbability(ViewOf(scores), 0), 1.0, 1e-12);
}

// The plain softmax denominator: exp of every term, summed in index order.
// RecognitionProbability skips terms that cannot change this sum, so it must
// reproduce it bit for bit.
double FullSum(const std::vector<double>& scores, std::size_t winner) {
  double denom = 0.0;
  for (double v_j : scores) {
    denom += std::exp(v_j - scores[winner]);
  }
  return denom;
}

double FullSumProbability(const std::vector<double>& scores, std::size_t winner) {
  return 1.0 / FullSum(scores, winner);
}

// Bit equality, except that any NaN matches any NaN (the payload is not part
// of the contract; NaN-ness is).
::testing::AssertionResult SameBits(double expected, double actual) {
  if (std::isnan(expected) ? std::isnan(actual)
                           : std::memcmp(&expected, &actual, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << std::hexfloat << "expected " << expected << ", got "
                                       << actual;
}

void ExpectMatchesFullSum(const std::vector<double>& scores, std::size_t winner) {
  EXPECT_TRUE(SameBits(FullSumProbability(scores, winner),
                       RecognitionProbability(ViewOf(scores), winner)))
      << "winner " << winner << " of " << scores.size();
}

int BiasedExponent(double d) {
  return static_cast<int>((std::bit_cast<std::uint64_t>(d) >> 52) & 0x7FF);
}

// Terms at, one ulp below and one ulp above the skip bound (E - 1077) ln 2
// of the running sum they are added to, and the same one binade up, for
// every binade the sum can reach. The running sum before the probed term is
// 1 + exp(a) + exp(b) with the winner first (E >= 1023), or exp(a) + exp(b)
// with the winner last (E < 1023); the offsets vary the sum's low mantissa
// bits, so some probes are round-to-even ties that do change the sum.
TEST(RecognitionProbabilityTest, TermsAroundTheSkipBoundMatchFullSum) {
  const double kDown = -std::numeric_limits<double>::infinity();
  const double kUp = std::numeric_limits<double>::infinity();
  for (int e = 1; e < 2047; ++e) {
    for (int offset = 0; offset < 8; ++offset) {
      const double a = (e - 1024 + (offset + 0.5) / 8.0) * std::numbers::ln2;
      const double b = a - 0.25 - 0.1 * offset;
      const bool winner_first = e >= 1023;
      const double before =
          winner_first ? 1.0 + std::exp(a) + std::exp(b) : std::exp(a) + std::exp(b);
      for (int binades_up = 0; binades_up < 2; ++binades_up) {
        const double bound = (BiasedExponent(before) - 1077 + binades_up) * std::numbers::ln2;
        for (const double x : {bound, std::nextafter(bound, kDown), std::nextafter(bound, kUp)}) {
          if (winner_first) {
            ExpectMatchesFullSum({0.0, a, b, x}, 0);
          } else {
            ExpectMatchesFullSum({a, b, x, 0.0}, 3);
          }
        }
      }
    }
  }
}

// A running sum that crosses a binade at most steps (each step adds
// exp(step / 2)), probed after every step one ulp either side of the
// current skip bound and of the previous binade's bound.
TEST(RecognitionProbabilityTest, RunningSumsCrossingBinadesMatchFullSum) {
  const double kDown = -std::numeric_limits<double>::infinity();
  const double kUp = std::numeric_limits<double>::infinity();
  std::vector<double> scores{0.0};
  for (int step = 0; step < 40; ++step) {
    scores.push_back(step * 0.5);
    const double before = FullSum(scores, 0);
    for (int binades_down = 0; binades_down < 2; ++binades_down) {
      const double bound = (BiasedExponent(before) - 1077 - binades_down) * std::numbers::ln2;
      scores.push_back(std::nextafter(bound, kUp));
      scores.push_back(std::nextafter(bound, kDown));
    }
    ExpectMatchesFullSum(scores, 0);
  }
}

TEST(RecognitionProbabilityTest, CraftedVectorsMatchFullSum) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Pseudo-random scores spanning terms far below and near the winner.
  std::vector<double> spread;
  std::uint64_t state = 1991;
  for (int c = 0; c < 200; ++c) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    spread.push_back(-60.0 + 70.0 * static_cast<double>(state >> 11) * 0x1.0p-53);
  }
  const std::vector<std::vector<double>> cases = {
      {5.0},                                  // one class
      {1.0, 2.0},                             // two classes
      {2.0, 2.0},
      {1.0, 3.5, -2.0, 3.2},
      {3.0, 3.0, 3.0, 3.0},                   // all equal
      std::vector<double>(200, -1.25),
      spread,
      // Subnormal partial sums before the winner.
      {-744.0, -744.4, -745.0, -745.1, -746.4, -746.6, -800.0, -740.0, 0.0},
      {-745.0, -745.0, -745.0, -745.0, 0.0, -745.0},
      // -Inf terms (and a -Inf winner, whose own term is NaN).
      {-inf, 0.0, -inf, -1.0},
      // +Inf scores: the sum overflows, or the winner's own term is NaN.
      {inf, 0.0},
      {0.0, inf, 1.0},
      {0.0, 710.0, 1.0},
      // NaN scores: NaN must stay NaN wherever it sits.
      {nan, 0.0, 1.0},
      {0.0, 1.0, nan},
      {0.0, -1000.0, nan, -1000.0},
      {inf, nan, 0.0},
  };
  for (const std::vector<double>& scores : cases) {
    for (std::size_t winner = 0; winner < scores.size(); ++winner) {
      ExpectMatchesFullSum(scores, winner);
    }
  }
}

// Every prefix of held-out strokes (so early, ambiguous prefixes and
// finished strokes alike) at GDP's 11 classes and the lexicon's 200: the
// winner's probability, and two fixed anchors, match the full sum bit for
// bit.
void ExpectHeldOutPrefixesMatchFullSum(const std::vector<synth::PathSpec>& specs,
                                       std::size_t train_per_class) {
  const synth::NoiseModel noise;
  GestureClassifier classifier;
  classifier.Train(synth::ToTrainingSet(synth::GenerateSet(specs, noise, train_per_class, 1991)));
  const LinearClassifier& linear = classifier.linear();
  std::vector<double> scores(linear.num_classes());
  linalg::Vector masked(classifier.mask().count());
  std::size_t rows = 0;
  for (const synth::LabeledSamples& batch : synth::GenerateSet(specs, noise, 4, 2026)) {
    for (const synth::GestureSample& sample : batch.samples) {
      for (const linalg::Vector& f : features::ExtractPrefixFeatures(sample.gesture)) {
        classifier.mask().ProjectInto(f.view(), masked.view());
        linear.EvaluateInto(masked.view(), linalg::MutVecView(scores.data(), scores.size()));
        for (const std::size_t winner :
             {linalg::simd::ArgMax(scores.data(), scores.size()), std::size_t{0},
              scores.size() - 1}) {
          ASSERT_TRUE(SameBits(FullSumProbability(scores, winner),
                               RecognitionProbability(ViewOf(scores), winner)))
              << "row " << rows << ", winner " << winner;
        }
        ++rows;
      }
    }
  }
  EXPECT_GT(rows, 40 * specs.size());
}

TEST(RecognitionProbabilityTest, HeldOutGdpPrefixesMatchFullSum) {
  ExpectHeldOutPrefixesMatchFullSum(synth::MakeGdpSpecs(), 10);
}

TEST(RecognitionProbabilityTest, HeldOutLexiconPrefixesMatchFullSum) {
  synth::LexiconOptions lex;
  lex.num_classes = 200;
  ExpectHeldOutPrefixesMatchFullSum(synth::MakeExtensiveLexicon(lex), 4);
}

// The zero-allocation kernel surface (EvaluateInto / BestClassView /
// ClassifyView / MahalanobisSquaredView) must be bit-identical to the
// allocating Classify it backs, and the scores to the classic per-class
// "Dot(w_c, f) + w_c0" loop — exact == on doubles, no tolerance.
TEST(LinearClassifierTest, KernelSurfaceMatchesAllocatingSurfaceBitForBit) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const linalg::Vector probes[] = {
      {0.1, 0.1}, {10.1, 9.9}, {5.0, 5.0}, {-3.0, 17.0}, {0.0, 0.0}};
  std::array<double, 2> scores_buf{};
  std::array<double, 2> diff_buf{};
  const linalg::MutVecView scores = linalg::ViewOf(scores_buf);
  const linalg::MutVecView diff = linalg::ViewOf(diff_buf);
  for (const linalg::Vector& f : probes) {
    std::vector<double> legacy_scores;
    for (ClassId k = 0; k < c.num_classes(); ++k) {
      legacy_scores.push_back(linalg::Dot(c.weights(k), f) + c.bias(k));
    }
    c.EvaluateInto(f.view(), scores);
    ASSERT_EQ(legacy_scores.size(), scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(legacy_scores[i], scores[i]) << "class " << i;
    }

    const Classification legacy = c.Classify(f);
    EXPECT_EQ(c.BestClassView(f.view(), scores), legacy.class_id);
    const Classification kernel = c.ClassifyView(f.view(), scores, diff);
    EXPECT_EQ(kernel.class_id, legacy.class_id);
    EXPECT_EQ(kernel.score, legacy.score);
    EXPECT_EQ(kernel.probability, legacy.probability);
    EXPECT_EQ(kernel.mahalanobis_squared, legacy.mahalanobis_squared);

    for (ClassId cls = 0; cls < c.num_classes(); ++cls) {
      EXPECT_EQ(c.MahalanobisSquaredView(f.view(), cls, diff), c.MahalanobisSquared(f, cls));
    }
  }
}

TEST(LinearClassifierTest, KernelSurfaceValidatesScratchSizes) {
  LinearClassifier c;
  c.Train(TwoClusters());
  const linalg::Vector f{0.0, 0.0};
  std::array<double, 4> buf{};
  // scores must be exactly num_classes(), diff exactly dimension().
  EXPECT_THROW(c.EvaluateInto(f.view(), linalg::ViewOf(buf, 1)), std::invalid_argument);
  EXPECT_THROW(c.EvaluateInto(f.view(), linalg::ViewOf(buf, 3)), std::invalid_argument);
  EXPECT_THROW(
      c.ClassifyView(f.view(), linalg::ViewOf(buf, 2), linalg::ViewOf(buf, 1)),
      std::invalid_argument);
  EXPECT_THROW(c.MahalanobisSquaredView(f.view(), 0, linalg::ViewOf(buf, 3)),
               std::invalid_argument);
  // Wrong feature width.
  const linalg::Vector bad{1.0};
  EXPECT_THROW(c.EvaluateInto(bad.view(), linalg::ViewOf(buf, 2)), std::invalid_argument);
}

TEST(LinearClassifierTest, FromParametersRoundTrip) {
  LinearClassifier c;
  c.Train(TwoClusters());
  LinearClassifier copy = LinearClassifier::FromParameters(
      {c.weights(0), c.weights(1)}, {c.bias(0), c.bias(1)}, {c.mean(0), c.mean(1)},
      c.inverse_covariance());
  const linalg::Vector probe{2.0, 3.0};
  EXPECT_EQ(copy.Classify(probe).class_id, c.Classify(probe).class_id);
  EXPECT_NEAR(copy.Classify(probe).score, c.Classify(probe).score, 1e-12);
}

}  // namespace
}  // namespace grandma::classify
