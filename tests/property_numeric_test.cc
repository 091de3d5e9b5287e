// Randomized numeric property tests: linear algebra identities on random
// matrices, geometric transform round-trips, and serialization robustness
// against corrupted input. Deterministic seeds; failures print the seed.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "geom/transform.h"
#include "io/serialize.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "linalg/stats.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma {
namespace {

linalg::Matrix RandomMatrix(std::mt19937_64& rng, std::size_t n, double scale = 1.0) {
  std::uniform_real_distribution<double> dist(-scale, scale);
  linalg::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = dist(rng);
    }
  }
  return m;
}

// Random SPD matrix: A^T A + eps I.
linalg::Matrix RandomSpd(std::mt19937_64& rng, std::size_t n) {
  const linalg::Matrix a = RandomMatrix(rng, n);
  linalg::Matrix spd = Multiply(a.Transposed(), a);
  for (std::size_t i = 0; i < n; ++i) {
    spd(i, i) += 0.1;
  }
  return spd;
}

class LinalgPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinalgPropertySweep, LuInverseIdentity) {
  std::mt19937_64 rng(GetParam());
  for (std::size_t n : {2u, 3u, 5u, 8u, 13u}) {
    const linalg::Matrix a = RandomMatrix(rng, n, 5.0);
    linalg::LuDecomposition lu(a);
    if (!lu.ok()) {
      continue;  // random singular matrix: astronomically unlikely, but legal
    }
    EXPECT_TRUE(AlmostEqual(Multiply(a, lu.Inverse()), linalg::Matrix::Identity(n), 1e-7))
        << "seed " << GetParam() << " n " << n;
  }
}

TEST_P(LinalgPropertySweep, CholeskyAgreesWithLuOnSpd) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t n : {2u, 4u, 9u, 13u}) {
    const linalg::Matrix spd = RandomSpd(rng, n);
    linalg::Vector b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = dist(rng);
    }
    linalg::CholeskyDecomposition chol(spd);
    ASSERT_TRUE(chol.ok()) << "seed " << GetParam();
    linalg::LuDecomposition lu(spd);
    ASSERT_TRUE(lu.ok());
    EXPECT_TRUE(AlmostEqual(chol.Solve(b), lu.Solve(b), 1e-7));
    EXPECT_NEAR(chol.Determinant(), lu.Determinant(),
                1e-6 * std::abs(lu.Determinant()) + 1e-12);
  }
}

TEST_P(LinalgPropertySweep, MahalanobisQuadraticFormIsNonNegative) {
  std::mt19937_64 rng(GetParam() * 77 + 3);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  const std::size_t n = 6;
  const linalg::Matrix spd = RandomSpd(rng, n);
  const auto inv = linalg::Invert(spd);
  ASSERT_TRUE(inv.has_value());
  for (int trial = 0; trial < 20; ++trial) {
    linalg::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = dist(rng);
    }
    EXPECT_GE(QuadraticForm(x, *inv, x), -1e-9);
  }
}

TEST_P(LinalgPropertySweep, ScatterAccumulatorOrderInvariance) {
  // Welford updates must not depend (beyond roundoff) on sample order.
  std::mt19937_64 rng(GetParam() * 13 + 1);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  std::vector<linalg::Vector> samples;
  for (int i = 0; i < 24; ++i) {
    samples.push_back(linalg::Vector{dist(rng), dist(rng), dist(rng)});
  }
  linalg::ScatterAccumulator forward(3);
  for (const auto& s : samples) {
    forward.Add(s);
  }
  linalg::ScatterAccumulator backward(3);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    backward.Add(*it);
  }
  EXPECT_TRUE(AlmostEqual(forward.Mean(), backward.Mean(), 1e-9));
  EXPECT_TRUE(AlmostEqual(forward.Scatter(), backward.Scatter(), 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinalgPropertySweep, ::testing::Values(1u, 2u, 3u, 4u, 5u));

class TransformPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformPropertySweep, RotationRoundTripsAndPreservesDistance) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> dist(-100.0, 100.0);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  for (int trial = 0; trial < 10; ++trial) {
    const double theta = angle(rng);
    const double cx = dist(rng);
    const double cy = dist(rng);
    const auto fwd = geom::AffineTransform::Rotation(theta, cx, cy);
    const auto back = geom::AffineTransform::Rotation(-theta, cx, cy);
    const geom::TimedPoint p{dist(rng), dist(rng), 42.0};
    const geom::TimedPoint q{dist(rng), dist(rng), 43.0};
    const geom::TimedPoint rp = back.Apply(fwd.Apply(p));
    EXPECT_NEAR(rp.x, p.x, 1e-9);
    EXPECT_NEAR(rp.y, p.y, 1e-9);
    // Isometry: distances preserved.
    EXPECT_NEAR(geom::Distance(fwd.Apply(p), fwd.Apply(q)), geom::Distance(p, q), 1e-9);
  }
}

TEST_P(TransformPropertySweep, ComposeMatchesSequentialApplication) {
  std::mt19937_64 rng(GetParam() * 5 + 2);
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  const auto f = geom::AffineTransform::Rotation(0.7, dist(rng), dist(rng));
  const auto g = geom::AffineTransform::Scale(1.3, dist(rng), dist(rng));
  const auto h = geom::AffineTransform::Translation(dist(rng), dist(rng));
  const auto combined = h.Compose(g.Compose(f));
  for (int trial = 0; trial < 10; ++trial) {
    const geom::TimedPoint p{dist(rng), dist(rng), 0.0};
    const geom::TimedPoint sequential = h.Apply(g.Apply(f.Apply(p)));
    const geom::TimedPoint composed = combined.Apply(p);
    EXPECT_NEAR(composed.x, sequential.x, 1e-9);
    EXPECT_NEAR(composed.y, sequential.y, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformPropertySweep, ::testing::Values(1u, 2u, 3u));

class IoFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoFuzzSweep, TruncatedAndMutatedInputNeverCrashes) {
  synth::NoiseModel noise;
  const auto set =
      synth::ToTrainingSet(synth::GenerateSet(synth::MakeUpDownSpecs(), noise, 3, GetParam()));
  std::stringstream buffer;
  ASSERT_TRUE(io::SaveGestureSet(set, buffer));
  const std::string text = buffer.str();

  std::mt19937_64 rng(GetParam());
  // Truncations at random points: must return a Status or a valid set, never
  // crash or hang.
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t cut = rng() % text.size();
    std::stringstream in(text.substr(0, cut));
    (void)io::LoadGestureSetOr(in);
  }
  // Byte mutations.
  for (int trial = 0; trial < 20; ++trial) {
    std::string mutated = text;
    mutated[rng() % mutated.size()] = static_cast<char>('!' + rng() % 90);
    std::stringstream in(mutated);
    const auto loaded = io::LoadGestureSetOr(in);
    if (loaded.ok()) {
      // If it parsed, it must be structurally sound.
      EXPECT_LE(loaded->num_classes(), 10u);
    }
  }
}

TEST_P(IoFuzzSweep, ClassifierRoundTripUnderReparse) {
  synth::NoiseModel noise;
  const auto training =
      synth::ToTrainingSet(synth::GenerateSet(synth::MakeUpDownSpecs(), noise, 6, GetParam()));
  classify::GestureClassifier classifier;
  classifier.Train(training);
  std::stringstream buffer;
  ASSERT_TRUE(io::SaveClassifier(classifier, buffer));
  // Save(Load(Save(x))) == Save(x): the format is a fixed point.
  auto loaded = io::LoadClassifierOr(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::stringstream buffer2;
  ASSERT_TRUE(io::SaveClassifier(*loaded, buffer2));
  EXPECT_EQ(buffer.str(), buffer2.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzSweep, ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace grandma
