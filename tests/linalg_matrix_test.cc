#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace grandma::linalg {
namespace {

TEST(MatrixTest, InitializerListAndAccess) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix d = Matrix::Diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, OuterProduct) {
  const Matrix m = Matrix::Outer(Vector{1.0, 2.0}, Vector{3.0, 4.0, 5.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 10.0);
}

TEST(MatrixTest, ArithmeticAndTranspose) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_EQ(a + b, (Matrix{{6.0, 8.0}, {10.0, 12.0}}));
  EXPECT_EQ(b - a, (Matrix{{4.0, 4.0}, {4.0, 4.0}}));
  EXPECT_EQ(a * 2.0, (Matrix{{2.0, 4.0}, {6.0, 8.0}}));
  EXPECT_EQ(a.Transposed(), (Matrix{{1.0, 3.0}, {2.0, 4.0}}));
}

TEST(MatrixTest, MatrixVectorProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = Multiply(a, Vector{1.0, 1.0});
  EXPECT_EQ(y, Vector({3.0, 7.0}));
  EXPECT_THROW(Multiply(a, Vector{1.0}), std::invalid_argument);
}

TEST(MatrixTest, MatrixMatrixProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_EQ(Multiply(a, b), (Matrix{{2.0, 1.0}, {4.0, 3.0}}));
  const Matrix i = Matrix::Identity(2);
  EXPECT_EQ(Multiply(a, i), a);
  EXPECT_EQ(Multiply(i, a), a);
}

TEST(MatrixTest, QuadraticForm) {
  const Matrix m{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_DOUBLE_EQ(QuadraticForm(Vector{1.0, 1.0}, m, Vector{1.0, 1.0}), 5.0);
  EXPECT_DOUBLE_EQ(QuadraticForm(Vector{1.0, 0.0}, m, Vector{0.0, 1.0}), 0.0);
}

TEST(MatrixTest, SymmetryCheck) {
  EXPECT_TRUE((Matrix{{1.0, 2.0}, {2.0, 1.0}}).IsSymmetric());
  EXPECT_FALSE((Matrix{{1.0, 2.0}, {2.1, 1.0}}).IsSymmetric());
  EXPECT_FALSE(Matrix(2, 3).IsSymmetric());
}

TEST(MatrixTest, RowColMaxAbs) {
  const Matrix a{{1.0, -9.0}, {3.0, 4.0}};
  EXPECT_EQ(a.Row(0), Vector({1.0, -9.0}));
  EXPECT_EQ(a.Col(1), Vector({-9.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 9.0);
}

// Bits, except that every NaN matches every NaN: which NaN payload survives
// an operation with two NaN operands depends on operand order, which the
// compiler may commute, and is no part of the kernel's contract.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b);
  }
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// One value for the distance sweep: mostly ordinary, and with probability
// `special` one of ±0.0, a subnormal, ±Inf or NaN.
double SweepValue(std::mt19937_64& rng, double special) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  if (unit(rng) >= special) {
    return 4.0 * unit(rng) - 2.0;
  }
  constexpr double kSpecials[] = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::denorm_min(),
                                  -3.0 * std::numeric_limits<double>::denorm_min(),
                                  1e-310,
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
  return kSpecials[static_cast<std::size_t>(unit(rng) * 8.0) % 8];
}

// Every lane and the scalar tail against QuadraticForm(x - p, m, x - p), for
// counts on both sides of the four-lane block and dimensions 1, 13 and 40,
// with and without special values, on a feature-major block whose stride is
// wider than the count.
TEST(QuadraticDistancesTest, MatchesQuadraticFormOnEachDifferenceBitForBit) {
  std::mt19937_64 rng(20261017);
  std::size_t specials_seen = 0;
  for (const std::size_t dim : {1u, 13u, 40u}) {
    for (const std::size_t count : {0u, 1u, 3u, 4u, 5u, 8u, 9u}) {
      for (const double special : {0.0, 0.05, 0.3}) {
        const std::size_t stride = count + 3;
        Matrix m(dim, dim);
        for (std::size_t r = 0; r < dim; ++r) {
          for (std::size_t c = 0; c < dim; ++c) {
            m(r, c) = SweepValue(rng, special);
          }
        }
        Vector x(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          x[i] = SweepValue(rng, special);
        }
        std::vector<double> points(dim * stride);
        for (double& v : points) {
          v = SweepValue(rng, special);
        }
        std::vector<double> out(count + 1, 12345.0);
        QuadraticDistances(x.view(), m, points.data(), stride, MutVecView(out.data(), count));
        EXPECT_EQ(out[count], 12345.0) << "wrote past the count";
        for (std::size_t k = 0; k < count; ++k) {
          Vector p(dim);
          for (std::size_t i = 0; i < dim; ++i) {
            p[i] = points[i * stride + k];
          }
          const Vector d = x - p;
          const double expected = QuadraticForm(d, m, d);
          specials_seen += std::isfinite(expected) ? 0 : 1;
          EXPECT_TRUE(SameBits(out[k], expected))
              << "dim " << dim << " count " << count << " k " << k << ": " << out[k]
              << " vs " << expected;
        }
      }
    }
  }
  EXPECT_GT(specials_seen, 0u) << "the sweep never produced a non-finite distance";
}

// Signed zeros are the one place where starting a chain from 0.0 shows:
// here every outer term is -0.0, so QuadraticForm's sum (from 0.0) is +0.0
// where a sum started from its first term would be -0.0.
TEST(QuadraticDistancesTest, AllNegativeZeroTermsSumToPositiveZero) {
  for (const std::size_t count : {1u, 4u, 5u}) {
    const Matrix m{{1.0, 1.0}, {1.0, 1.0}};
    const Vector x{-0.0, -0.0};
    std::vector<double> points(2 * count, 0.0);
    std::vector<double> out(count);
    QuadraticDistances(x.view(), m, points.data(), count, MutVecView(out.data(), count));
    const Vector d = x - Vector{0.0, 0.0};
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(SameBits(out[k], QuadraticForm(d, m, d))) << "count " << count;
      EXPECT_FALSE(std::signbit(out[k])) << "count " << count;
    }
  }
}

TEST(QuadraticDistancesTest, DimensionMismatchThrows) {
  const Matrix m = Matrix::Identity(2);
  const Vector x{1.0, 2.0, 3.0};
  std::vector<double> points(3, 0.0);
  double out = 0.0;
  EXPECT_THROW(QuadraticDistances(x.view(), m, points.data(), 1, MutVecView(&out, 1)),
               std::invalid_argument);
}

TEST(QuadraticDistancesTest, FeatureMajorBlockFeedsTheKernel) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, 4.0};
  const Vector c{5.0, 6.0};
  const std::vector<double> block = FeatureMajorBlock({&a, &b, &c});
  EXPECT_EQ(block, (std::vector<double>{1.0, 3.0, 5.0, 2.0, 4.0, 6.0}));
  EXPECT_TRUE(FeatureMajorBlock({}).empty());
  const Vector short_point{1.0};
  EXPECT_THROW(FeatureMajorBlock({&a, &short_point}), std::invalid_argument);

  const Matrix m{{2.0, 0.5}, {0.5, 1.0}};
  const Vector x{0.25, -1.0};
  std::vector<double> out(3);
  QuadraticDistances(x.view(), m, block.data(), 3, MutVecView(out.data(), 3));
  for (const auto& [k, p] : {std::pair{0, &a}, std::pair{1, &b}, std::pair{2, &c}}) {
    const Vector d = x - *p;
    EXPECT_TRUE(SameBits(out[static_cast<std::size_t>(k)], QuadraticForm(d, m, d))) << k;
  }
}

}  // namespace
}  // namespace grandma::linalg
