#include "eager/accidental_mover.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>

#include "classify/gesture_classifier.h"
#include "linalg/matrix.h"
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

Fixture Make(const std::vector<synth::PathSpec>& specs, std::size_t per_class,
             std::uint64_t seed) {
  Fixture f;
  synth::NoiseModel noise;
  f.training = synth::ToTrainingSet(synth::GenerateSet(specs, noise, per_class, seed));
  f.full.Train(f.training);
  f.partition = LabelSubgestures(f.full, f.training);
  return f;
}

TEST(AccidentalMoverTest, IncompleteMeansComputed) {
  Fixture f = Make(synth::MakeUpDownSpecs(), 15, 1991);
  const auto means = IncompleteSetMeans(f.partition);
  ASSERT_EQ(means.size(), 2u);
  std::size_t non_empty = 0;
  for (const auto& m : means) {
    if (m.has_value()) {
      ++non_empty;
      EXPECT_EQ(m->size(), f.full.mask().count());
    }
  }
  EXPECT_GE(non_empty, 1u);
}

TEST(AccidentalMoverTest, MovesAccidentallyCompleteHorizontalPrefixes) {
  // Figure 6's point: along the shared horizontal segment some prefixes are
  // accidentally complete (classified "their" class by luck); after the move
  // step they are all incomplete.
  Fixture f = Make(synth::MakeUpDownSpecs(), 15, 1991);
  const std::size_t complete_before = f.partition.total_complete();
  const MoverReport report = MoveAccidentallyComplete(f.full, f.partition);
  EXPECT_GT(report.threshold, 0.0);
  EXPECT_GT(report.moved, 0u);
  EXPECT_EQ(f.partition.total_complete(), complete_before - report.moved);
  // Counts remain consistent after the rebuild.
  std::size_t total = 0;
  for (const auto& pg : f.partition.per_gesture) {
    total += pg.subgestures.size();
  }
  EXPECT_EQ(total, f.partition.total_complete() + f.partition.total_incomplete());
}

TEST(AccidentalMoverTest, MovedSubgesturesLandInNearestIncompleteSet) {
  Fixture f = Make(synth::MakeUpDownSpecs(), 15, 1991);
  MoveAccidentallyComplete(f.full, f.partition);
  for (const auto& pg : f.partition.per_gesture) {
    for (const auto& sub : pg.subgestures) {
      if (sub.moved_to_incomplete >= 0) {
        EXPECT_TRUE(sub.complete);  // originally complete
        EXPECT_FALSE(sub.EffectivelyComplete());
        EXPECT_LT(static_cast<std::size_t>(sub.moved_to_incomplete),
                  f.partition.incomplete_sets.size());
      }
    }
  }
}

TEST(AccidentalMoverTest, MovesAreLargestToSmallestContiguous) {
  // Once one complete subgesture moves, all smaller complete ones of the
  // same gesture move too: within each gesture, the still-complete ones form
  // a suffix.
  Fixture f = Make(synth::MakeUpDownSpecs(), 15, 1991);
  MoveAccidentallyComplete(f.full, f.partition);
  for (const auto& pg : f.partition.per_gesture) {
    bool seen_still_complete = false;
    for (const auto& sub : pg.subgestures) {
      if (seen_still_complete && sub.complete) {
        EXPECT_TRUE(sub.EffectivelyComplete())
            << "a smaller complete subgesture moved while a larger one stayed";
      }
      seen_still_complete = seen_still_complete || sub.EffectivelyComplete();
    }
  }
}

TEST(AccidentalMoverTest, FlooredDistancesReported) {
  // With the bare right-stroke class (Section 4.5's pitfall), the incomplete
  // horizontal prefixes look like full R gestures: that tiny distance must
  // be excluded by the floor rather than collapsing the threshold to ~0.
  Fixture udr = Make(synth::MakeUpDownRightSpecs(), 15, 1991);
  const MoverReport report = MoveAccidentallyComplete(udr.full, udr.partition);
  EXPECT_GT(report.floored_out, 0u);
  EXPECT_GT(report.threshold, 0.0);
}

TEST(AccidentalMoverTest, NoIncompleteSetsMeansNoMoves) {
  // Two classes distinct from the very first points: nearly everything is
  // complete. Build a degenerate partition with no incomplete subgestures by
  // filtering them out manually.
  Fixture f = Make(synth::MakeUpDownSpecs(), 10, 7);
  for (auto& pg : f.partition.per_gesture) {
    std::vector<LabeledSubgesture> kept;
    for (auto& sub : pg.subgestures) {
      if (sub.complete) {
        kept.push_back(sub);
      }
    }
    pg.subgestures = std::move(kept);
  }
  RebuildSets(f.partition);
  ASSERT_EQ(f.partition.total_incomplete(), 0u);
  const MoverReport report = MoveAccidentallyComplete(f.full, f.partition);
  EXPECT_EQ(report.moved, 0u);
  EXPECT_EQ(report.threshold, 0.0);
}


// --- The nearest-mean screen against the full scan -------------------------

// The mover as it ran before the screen: every full-class-to-set and every
// subgesture-to-set distance is the exact chain, and every decision is taken
// over all of them.
struct FullScan {
  MoverReport report;
  std::vector<int> moved_to;  // moved_to_incomplete of each subgesture, in order
};

FullScan FullScanMove(const classify::GestureClassifier& full, SubgesturePartition partition,
                      const MoverOptions& options) {
  FullScan out;
  MoverReport& report = out.report;
  const auto means = IncompleteSetMeans(partition);
  std::vector<const linalg::Vector*> present;
  std::vector<int> set;
  for (std::size_t k = 0; k < means.size(); ++k) {
    if (means[k].has_value()) {
      present.push_back(&*means[k]);
      set.push_back(static_cast<int>(k));
    }
  }
  const std::size_t count = present.size();
  const linalg::Matrix& metric = full.linear().inverse_covariance();
  std::vector<double> distances(full.num_classes() * count);
  if (!distances.empty()) {
    const std::vector<double> block = linalg::FeatureMajorBlock(present);
    for (classify::ClassId c = 0; c < full.num_classes(); ++c) {
      linalg::QuadraticDistances(full.linear().mean(c).view(), metric, block.data(), count,
                                 linalg::MutVecView(distances.data() + c * count, count));
    }
    const double max_distance = *std::max_element(distances.begin(), distances.end());
    const double floor = options.floor_fraction * max_distance;
    double min_distance = std::numeric_limits<double>::infinity();
    for (double d : distances) {
      if (d < floor) {
        ++report.floored_out;
        continue;
      }
      min_distance = std::min(min_distance, d);
    }
    if (!std::isfinite(min_distance)) {
      min_distance = *std::min_element(distances.begin(), distances.end());
    }
    report.min_distance = min_distance;
    report.threshold = options.threshold_fraction * min_distance;
    std::vector<double> to_means(count);
    for (GestureSubgestures& gesture : partition.per_gesture) {
      bool moving = false;
      for (std::size_t k = gesture.subgestures.size(); k-- > 0;) {
        LabeledSubgesture& sub = gesture.subgestures[k];
        if (!sub.EffectivelyComplete()) {
          continue;
        }
        linalg::QuadraticDistances(partition.Row(sub.row), metric, block.data(), count,
                                   linalg::MutVecView(to_means.data(), count));
        int nearest = -1;
        double nearest_distance = std::numeric_limits<double>::infinity();
        for (std::size_t m = 0; m < count; ++m) {
          if (to_means[m] < nearest_distance) {
            nearest_distance = to_means[m];
            nearest = set[m];
          }
        }
        if (nearest < 0) {
          break;
        }
        moving = moving || nearest_distance < report.threshold;
        if (moving) {
          sub.moved_to_incomplete = nearest;
          ++report.moved;
        }
      }
    }
  }
  for (const GestureSubgestures& gesture : partition.per_gesture) {
    for (const LabeledSubgesture& sub : gesture.subgestures) {
      out.moved_to.push_back(sub.moved_to_incomplete);
    }
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Runs the mover and the full scan on copies of `partition` and compares
// every move and every report field, bit for bit. Returns the move count.
std::size_t ExpectMatchesFullScan(const classify::GestureClassifier& full,
                                  const SubgesturePartition& partition,
                                  const std::string& label, const MoverOptions& options = {}) {
  const FullScan expected = FullScanMove(full, partition, options);
  SubgesturePartition moved = partition;
  const MoverReport report = MoveAccidentallyComplete(full, moved, options);
  EXPECT_TRUE(SameBits(report.threshold, expected.report.threshold))
      << label << ": threshold " << report.threshold << " vs " << expected.report.threshold;
  EXPECT_TRUE(SameBits(report.min_distance, expected.report.min_distance))
      << label << ": min_distance " << report.min_distance << " vs "
      << expected.report.min_distance;
  EXPECT_EQ(report.floored_out, expected.report.floored_out) << label;
  EXPECT_EQ(report.moved, expected.report.moved) << label;
  std::size_t i = 0;
  for (const GestureSubgestures& gesture : moved.per_gesture) {
    for (const LabeledSubgesture& sub : gesture.subgestures) {
      EXPECT_EQ(sub.moved_to_incomplete, expected.moved_to[i]) << label << ": subgesture " << i;
      ++i;
    }
  }
  return report.moved;
}

TEST(MoverScreenTest, MatchesFullScanOnTrainedPartitions) {
  for (const auto& specs : {synth::MakeUpDownSpecs(), synth::MakeUpDownRightSpecs(),
                            synth::MakeGdpSpecs()}) {
    const Fixture f = Make(specs, 15, 1991);
    EXPECT_GT(ExpectMatchesFullScan(f.full, f.partition, "trained"), 0u);
  }
  synth::LexiconOptions lex;
  lex.num_classes = 50;
  Fixture f;
  f.training = synth::ToTrainingSet(
      synth::GenerateSet(synth::MakeExtensiveLexicon(lex), synth::NoiseModel{}, 8, 1991));
  f.full.Train(f.training);
  f.partition = LabelSubgestures(f.full, f.training);
  EXPECT_GT(ExpectMatchesFullScan(f.full, f.partition, "lexicon-50"), 0u);
}

// A synthetic mover input: a metric, class means and a partition whose
// features come from `feature`, so the screen meets inputs no trained
// classifier produces.
struct Synthetic {
  classify::GestureClassifier full;
  SubgesturePartition partition;
};

using FeatureFn = std::function<double(std::size_t row, std::size_t i)>;

Synthetic MakeSynthetic(const linalg::Matrix& metric, std::size_t classes, std::size_t gestures,
                        std::size_t prefixes, std::uint64_t seed, const FeatureFn& feature) {
  std::mt19937_64 rng(seed);
  const std::size_t dim = metric.rows();
  Synthetic out;
  classify::ClassRegistry registry;
  std::vector<linalg::Vector> weights;
  std::vector<linalg::Vector> means;
  for (std::size_t c = 0; c < classes; ++c) {
    registry.Intern("c" + std::to_string(c));
    weights.emplace_back(dim);
    linalg::Vector mean(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      mean[i] = feature(static_cast<std::size_t>(-1) - c, i);
    }
    means.push_back(mean);
  }
  out.full = classify::GestureClassifier::FromParameters(
      registry, features::FeatureMask::All(),
      classify::LinearClassifier::FromParameters(weights, std::vector<double>(classes), means,
                                                 metric));
  SubgesturePartition& p = out.partition;
  p.dim = dim;
  p.complete_sets.resize(classes);
  p.incomplete_sets.resize(classes);
  std::size_t row = 0;
  for (std::size_t g = 0; g < gestures; ++g) {
    GestureSubgestures gesture;
    gesture.true_class = rng() % classes;
    for (std::size_t k = 0; k < prefixes; ++k, ++row) {
      LabeledSubgesture sub;
      sub.row = row;
      sub.prefix_len = k + 3;
      sub.gesture_len = prefixes + 2;
      sub.true_class = gesture.true_class;
      sub.predicted_class = rng() % classes;
      sub.complete = rng() % 3 != 0;
      gesture.subgestures.push_back(sub);
      for (std::size_t i = 0; i < dim; ++i) {
        p.features.push_back(feature(row, i));
      }
    }
    p.per_gesture.push_back(gesture);
  }
  RebuildSets(p);
  return out;
}

// Uniform in [-1, 1), a fixed function of (seed, row, i).
double Hash01(std::uint64_t seed, std::size_t row, std::size_t i) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
  h ^= (row + 0x632BE59BD9B4E019ULL) * 0xBF58476D1CE4E5B9ULL;
  h ^= (i + 1) * 0x94D049BB133111EBULL;
  h ^= h >> 31;
  h *= 0xD6E8FEB86994D049ULL;
  h ^= h >> 29;
  return static_cast<double>(h >> 11) * 0x1p-52 - 1.0;
}

// B B^T + shift I for a random B: symmetric positive definite.
linalg::Matrix RandomSpd(std::size_t n, std::uint64_t seed, double shift) {
  linalg::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b(i, j) = Hash01(seed, i, j);
    }
  }
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = i == j ? shift : 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += b(i, k) * b(j, k);
      }
      m(i, j) = sum;
    }
  }
  return m;
}

TEST(MoverScreenTest, MatchesFullScanOnRandomPartitions) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t dim = seed % 3 == 0 ? 4 : 13;
    const linalg::Matrix metric = RandomSpd(dim, seed, 0.5);
    const Synthetic s = MakeSynthetic(metric, 5 + seed * 3, 40, 12, seed,
                                      [&](std::size_t row, std::size_t i) {
                                        return Hash01(seed, row, i);
                                      });
    ExpectMatchesFullScan(s.full, s.partition, "seed " + std::to_string(seed));
    MoverOptions wide;
    wide.threshold_fraction = 4.0;  // moves nearly everything
    wide.floor_fraction = 0.5;      // floors out half the pairs
    EXPECT_GT(ExpectMatchesFullScan(s.full, s.partition, "wide " + std::to_string(seed), wide),
              0u);
  }
}

// Sets with identical means tie exactly, on every complete subgesture: the
// first set in order must win, as in the full scan. Every incomplete row of
// sets 2k and 2k + 1 holds the same vector, of multiples of 2^-10, so each
// mean is that vector exactly.
TEST(MoverScreenTest, DuplicateMeansTieToTheFirstSet) {
  const linalg::Matrix metric = RandomSpd(13, 77, 1.0);
  Synthetic s = MakeSynthetic(metric, 9, 30, 10, 77, [](std::size_t row, std::size_t i) {
    return Hash01(77, row, i);
  });
  SubgesturePartition& p = s.partition;
  for (const GestureSubgestures& gesture : p.per_gesture) {
    for (const LabeledSubgesture& sub : gesture.subgestures) {
      if (!sub.EffectivelyComplete()) {
        for (std::size_t i = 0; i < p.dim; ++i) {
          p.features[sub.row * p.dim + i] =
              std::round(1024.0 * Hash01(78, sub.EffectiveSet() / 2, i)) / 1024.0;
        }
      }
    }
  }
  const auto means = IncompleteSetMeans(p);
  ASSERT_TRUE(means[0].has_value() && means[1].has_value());
  ASSERT_EQ(*means[0], *means[1]);
  EXPECT_GT(ExpectMatchesFullScan(s.full, p, "duplicates", MoverOptions{2.0, 0.05}), 0u);
}

// Two single-row sets whose means differ in one feature by one ulp, far from
// the origin, so their distances from every point agree to a few ulps and the
// order of the two is the exact chains' alone; plus a point exactly on a
// mean (distance 0).
TEST(MoverScreenTest, NearTiesAndPointsOnMeansFollowTheExactChains) {
  for (const double offset : {0.0, 1e3, 1e6}) {
    const std::size_t dim = 13;
    const linalg::Matrix metric = RandomSpd(dim, 5, 0.25);
    classify::ClassRegistry registry;
    SubgesturePartition p;
    p.dim = dim;
    p.complete_sets.resize(3);
    p.incomplete_sets.resize(3);
    std::vector<double> base(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      base[i] = offset + Hash01(5, 0, i);
    }
    // Rows 0, 1: incomplete sets 0 and 1, one ulp apart in feature 3.
    std::vector<double> nudged = base;
    nudged[3] = std::nextafter(nudged[3], 1e300);
    GestureSubgestures incomplete;
    for (std::size_t r = 0; r < 2; ++r) {
      LabeledSubgesture sub;
      sub.row = r;
      sub.predicted_class = r;
      incomplete.subgestures.push_back(sub);
      p.features.insert(p.features.end(), (r == 0 ? nudged : base).begin(),
                        (r == 0 ? nudged : base).end());
    }
    p.per_gesture.push_back(incomplete);
    // Complete subgestures: points near both means in every direction, and
    // the two means themselves.
    GestureSubgestures complete;
    for (std::size_t r = 2; r < 200; ++r) {
      LabeledSubgesture sub;
      sub.row = r;
      sub.predicted_class = 2;
      sub.complete = true;
      complete.subgestures.push_back(sub);
      for (std::size_t i = 0; i < dim; ++i) {
        const double step =
            r < 4 ? 0.0 : std::ldexp(Hash01(9, r, i), -30 - static_cast<int>(r % 20));
        p.features.push_back((r == 2 ? nudged : base)[i] + step * (offset + 1.0));
      }
    }
    p.per_gesture.push_back(complete);
    RebuildSets(p);
    std::vector<linalg::Vector> means(3, linalg::Vector(dim));
    for (std::size_t c = 0; c < 3; ++c) {
      registry.Intern("c" + std::to_string(c));
      for (std::size_t i = 0; i < dim; ++i) {
        means[c][i] = base[i] + Hash01(11, c, i);
      }
    }
    const classify::GestureClassifier full = classify::GestureClassifier::FromParameters(
        registry, features::FeatureMask::All(),
        classify::LinearClassifier::FromParameters(
            std::vector<linalg::Vector>(3, linalg::Vector(dim)), std::vector<double>(3), means,
            metric));
    MoverOptions everything;
    everything.threshold_fraction = 1e300;  // every complete subgesture moves
    EXPECT_GT(ExpectMatchesFullScan(full, p, "offset " + std::to_string(offset), everything),
              100u);
  }
}

// Features and metric over twelve decades, and features so small that the
// distances are a few subnormal steps, where only the slack's absolute term
// covers the rounding.
TEST(MoverScreenTest, MatchesFullScanAcrossFeatureScales) {
  for (const double scale : {1e-6, 1e-3, 1.0, 1e3, 1e6, 1e-160, 1e-161, 3e-162}) {
    for (const bool rescale_metric : {false, true}) {
      linalg::Matrix metric = RandomSpd(13, 21, 0.5);
      if (rescale_metric && scale >= 1e-6) {
        metric = metric * (1.0 / (scale * scale));
      }
      const Synthetic s =
          MakeSynthetic(metric, 12, 30, 10, 21, [&](std::size_t row, std::size_t i) {
            return scale * Hash01(21, row % 40, i);
          });
      ExpectMatchesFullScan(s.full, s.partition,
                            "scale " + std::to_string(scale) + (rescale_metric ? " M/s^2" : ""),
                            MoverOptions{3.0, 0.05});
    }
  }
}

// Metrics whose symmetric part is not the matrix itself, is nearly singular,
// or has no Cholesky factor (the screen then stays off).
TEST(MoverScreenTest, MatchesFullScanOnAwkwardMetrics) {
  const std::size_t dim = 13;
  std::vector<std::pair<std::string, linalg::Matrix>> metrics;
  {
    linalg::Matrix m = RandomSpd(dim, 31, 0.5);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = i + 1; j < dim; ++j) {
        const double skew = 3.0 * Hash01(32, i, j);
        m(i, j) += skew;
        m(j, i) -= skew;
      }
    }
    metrics.emplace_back("non-symmetric", m);
  }
  {
    // Eigenvalues from 1e-6 to 1e6, congruent to a well-conditioned matrix.
    linalg::Matrix m(dim, dim);
    for (std::size_t i = 0; i < dim; ++i) {
      m(i, i) = std::pow(10.0, -6.0 + 12.0 * static_cast<double>(i) / (dim - 1));
    }
    const linalg::Matrix r = RandomSpd(dim, 34, 2.0);
    metrics.emplace_back("ill-conditioned", linalg::Multiply(linalg::Multiply(r, m), r));
  }
  {
    linalg::Matrix m = RandomSpd(dim, 35, 0.5);
    m(4, 4) = -3.0;  // indefinite: the factorization rejects it
    metrics.emplace_back("indefinite", m);
  }
  metrics.emplace_back("zero", linalg::Matrix(dim, dim));
  for (const auto& [name, metric] : metrics) {
    const Synthetic s = MakeSynthetic(metric, 15, 30, 10, 41, [](std::size_t row, std::size_t i) {
      return Hash01(41, row, i);
    });
    ExpectMatchesFullScan(s.full, s.partition, name, MoverOptions{3.0, 0.05});
  }
}

// NaN and infinite features in complete subgestures, in an incomplete set
// (its mean) and in a class mean: each takes the full exact scan where it
// reaches.
TEST(MoverScreenTest, NonFiniteFeaturesFallBackToTheFullScan) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const linalg::Matrix metric = RandomSpd(13, 51, 0.5);
  for (const double poison : {kNaN, kInf, -kInf}) {
    for (const std::size_t poisoned_row : {std::size_t{3}, std::size_t{17}, std::size_t{1000}}) {
      const Synthetic s =
          MakeSynthetic(metric, 10, 30, 10, 51, [&](std::size_t row, std::size_t i) {
            return row == poisoned_row && i == 5 ? poison : Hash01(51, row, i);
          });
      ExpectMatchesFullScan(s.full, s.partition, "row " + std::to_string(poisoned_row),
                            MoverOptions{3.0, 0.05});
    }
    Synthetic s = MakeSynthetic(metric, 10, 30, 10, 52, [&](std::size_t row, std::size_t i) {
      return Hash01(52, row, i);
    });
    // A poisoned class mean.
    std::vector<linalg::Vector> means;
    for (classify::ClassId c = 0; c < s.full.num_classes(); ++c) {
      means.push_back(s.full.linear().mean(c));
    }
    means[2][0] = poison;
    const classify::GestureClassifier full = classify::GestureClassifier::FromParameters(
        s.full.registry(), features::FeatureMask::All(),
        classify::LinearClassifier::FromParameters(
            std::vector<linalg::Vector>(means.size(), linalg::Vector(13)),
            std::vector<double>(means.size()), means, metric));
    ExpectMatchesFullScan(full, s.partition, "class mean", MoverOptions{3.0, 0.05});
  }
}

}  // namespace
}  // namespace grandma::eager
