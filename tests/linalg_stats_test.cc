#include "linalg/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

namespace grandma::linalg {
namespace {

TEST(MeanAccumulatorTest, EmptyMeanIsZero) {
  MeanAccumulator acc(2);
  EXPECT_EQ(acc.Mean(), Vector({0.0, 0.0}));
  EXPECT_EQ(acc.count(), 0u);
}

TEST(MeanAccumulatorTest, ComputesMean) {
  MeanAccumulator acc(2);
  acc.Add(Vector{1.0, 10.0});
  acc.Add(Vector{3.0, 20.0});
  EXPECT_EQ(acc.Mean(), Vector({2.0, 15.0}));
}

TEST(MeanAccumulatorTest, DimensionMismatchThrows) {
  MeanAccumulator acc(2);
  EXPECT_THROW(acc.Add(Vector{1.0}), std::invalid_argument);
}

TEST(ScatterAccumulatorTest, MatchesClosedFormCovariance) {
  // Samples with known covariance structure.
  ScatterAccumulator acc(2);
  const double samples[4][2] = {{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}, {4.0, 8.0}};
  for (const auto& s : samples) {
    acc.Add(Vector{s[0], s[1]});
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_TRUE(AlmostEqual(acc.Mean(), Vector{2.5, 5.0}, 1e-12));
  const Matrix cov = acc.SampleCovariance();
  // x variance: sum of (x - 2.5)^2 / 3 = (2.25 + 0.25 + 0.25 + 2.25)/3.
  EXPECT_NEAR(cov(0, 0), 5.0 / 3.0, 1e-12);
  // y = 2x exactly: cov(x, y) = 2 var(x), var(y) = 4 var(x).
  EXPECT_NEAR(cov(0, 1), 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 20.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), cov(1, 0), 1e-12);
}

TEST(ScatterAccumulatorTest, CovarianceNeedsTwoSamples) {
  ScatterAccumulator acc(1);
  acc.Add(Vector{1.0});
  EXPECT_THROW(acc.SampleCovariance(), std::logic_error);
}

TEST(PooledCovarianceTest, PoolsAcrossClasses) {
  // Two classes, each with two samples; pooled dof = 4 - 2 = 2.
  ScatterAccumulator class_a(1);
  class_a.Add(Vector{0.0});
  class_a.Add(Vector{2.0});  // scatter = 2
  ScatterAccumulator class_b(1);
  class_b.Add(Vector{10.0});
  class_b.Add(Vector{14.0});  // scatter = 8

  PooledCovariance pooled(1);
  pooled.AddClass(class_a);
  pooled.AddClass(class_b);
  EXPECT_EQ(pooled.num_classes(), 2u);
  EXPECT_EQ(pooled.total_examples(), 4u);
  const Matrix sigma = pooled.Estimate();
  EXPECT_NEAR(sigma(0, 0), (2.0 + 8.0) / 2.0, 1e-12);
}

TEST(PooledCovarianceTest, RequiresPositiveDof) {
  ScatterAccumulator one(1);
  one.Add(Vector{1.0});
  PooledCovariance pooled(1);
  pooled.AddClass(one);
  EXPECT_THROW(pooled.Estimate(), std::logic_error);
}

TEST(PooledCovarianceTest, DimensionMismatchThrows) {
  PooledCovariance pooled(2);
  ScatterAccumulator acc(3);
  EXPECT_THROW(pooled.AddClass(acc), std::invalid_argument);
}

// The allocating full-matrix Welford step ScatterAccumulator::Add used to
// run, kept as the reference its scratch-and-mirror rewrite must match.
struct ReferenceScatter {
  Vector mean;
  Matrix scatter;
  std::size_t count = 0;

  void Add(const Vector& sample) {
    ++count;
    const Vector delta = sample - mean;
    mean += delta / static_cast<double>(count);
    const Vector delta2 = sample - mean;
    for (std::size_t i = 0; i < mean.size(); ++i) {
      for (std::size_t j = 0; j < mean.size(); ++j) {
        scatter(i, j) += 0.5 * (delta[i] * delta2[j] + delta[j] * delta2[i]);
      }
    }
  }
};

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectSameBits(const ScatterAccumulator& acc, const ReferenceScatter& ref) {
  ASSERT_EQ(acc.count(), ref.count);
  const Vector mean = acc.Mean();
  for (std::size_t i = 0; i < ref.mean.size(); ++i) {
    EXPECT_TRUE(SameBits(mean[i], ref.mean[i])) << "mean " << i;
    for (std::size_t j = 0; j < ref.mean.size(); ++j) {
      EXPECT_TRUE(SameBits(acc.Scatter()(i, j), ref.scatter(i, j))) << "scatter " << i << "," << j;
    }
  }
}

Vector RandomVector(std::mt19937_64& rng, std::size_t dim, double scale) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  Vector v(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    v[i] = scale * unit(rng);
  }
  return v;
}

TEST(ScatterAccumulatorTest, AddMatchesAllocatingFullMatrixUpdateBitForBit) {
  std::mt19937_64 rng(1991);
  for (const std::size_t dim : {1u, 2u, 13u}) {
    ScatterAccumulator acc(dim);
    ReferenceScatter ref{Vector(dim), Matrix(dim, dim)};
    for (std::size_t n = 0; n < 200; ++n) {
      // Mixed magnitudes, so the two products of a term round differently.
      const Vector sample = RandomVector(rng, dim, n % 3 == 0 ? 1e6 : 1.0);
      acc.Add(sample);
      ref.Add(sample);
    }
    ExpectSameBits(acc, ref);
  }
}

// An accumulator restored through FromMoments may carry an asymmetric
// scatter; the mirrored update must still add the same term to each entry.
TEST(ScatterAccumulatorTest, AddAfterFromMomentsWithAsymmetricScatterMatchesBitForBit) {
  std::mt19937_64 rng(2026);
  constexpr std::size_t kDim = 13;
  const Vector mean = RandomVector(rng, kDim, 10.0);
  Matrix scatter(kDim, kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      scatter(i, j) = RandomVector(rng, 1, 100.0)[0];
    }
  }
  ASSERT_FALSE(scatter.IsSymmetric());
  ScatterAccumulator acc = ScatterAccumulator::FromMoments(mean, scatter, 7);
  ReferenceScatter ref{mean, scatter, 7};
  for (std::size_t n = 0; n < 50; ++n) {
    const Vector sample = RandomVector(rng, kDim, 10.0);
    acc.Add(sample);
    ref.Add(sample);
  }
  ExpectSameBits(acc, ref);
}

}  // namespace
}  // namespace grandma::linalg
