// Kernel-equivalence property tests for the dispatch ladder in
// linalg/simd.h: every tier the build/CPU supports is forced in turn and
// compared bit for bit against the scalar reference, over odd lengths,
// every lane tail, and signed-zero, subnormal, NaN and Inf inputs.
//
// This TU is compiled with -ffp-contract=off (tests/CMakeLists.txt) so the
// in-test scalar references cannot pick up FMA contraction that the kernels
// themselves forbid.
#include "linalg/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "classify/linear_classifier.h"
#include "classify/training_set.h"
#include "linalg/vec_view.h"
#include "linalg/vector.h"

namespace grandma::linalg::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Restores the startup tier selection on scope exit, so a failing test can
// never leak a forced tier into the rest of the binary.
struct TierGuard {
  ~TierGuard() { ResetTier(); }
};

// Deterministic pseudo-random doubles in roughly [-2, 2): SplitMix64 mapped
// to the unit interval. Seeded per call site so failures reproduce.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  double Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * (4.0 / 9007199254740992.0) - 2.0;
  }
  std::vector<double> Fill(std::size_t n) {
    std::vector<double> out(n);
    for (double& x : out) {
      x = Next();
    }
    return out;
  }

 private:
  std::uint64_t state_;
};

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> out{Tier::kScalar};
  for (Tier t : {Tier::kSse2, Tier::kAvx2}) {
    TierGuard guard;
    if (ForceTier(t)) {
      out.push_back(t);
    }
  }
  return out;
}

TEST(SimdDispatchTest, TierNamesAndBestTier) {
  EXPECT_STREQ(TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(TierName(Tier::kAvx2), "avx2");
  if (!kCompiledIn) {
    EXPECT_EQ(BestSupportedTier(), Tier::kScalar);
  }
}

TEST(SimdDispatchTest, ForceTierRoundTrips) {
  TierGuard guard;
  for (Tier t : SupportedTiers()) {
    ASSERT_TRUE(ForceTier(t)) << TierName(t);
    EXPECT_EQ(ActiveTier(), t);
  }
  ResetTier();
  EXPECT_EQ(ActiveTier(), BestSupportedTier());
}

TEST(SimdDispatchTest, ForcingUnsupportedTierFailsAndKeepsActive) {
  if (kCompiledIn && BestSupportedTier() == Tier::kAvx2) {
    GTEST_SKIP() << "every tier is supported on this CPU";
  }
  TierGuard guard;
  ASSERT_TRUE(ForceTier(Tier::kScalar));
  const Tier unsupported = kCompiledIn ? Tier::kAvx2 : Tier::kSse2;
  EXPECT_FALSE(ForceTier(unsupported));
  EXPECT_EQ(ActiveTier(), Tier::kScalar);
}

// Bits, except that every NaN matches every NaN: which NaN payload survives
// an operation with two NaN operands depends on operand order, which the
// compiler may commute, and is no part of any kernel's contract.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b);
  }
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The scalar chain the quadratic kernels promise on every tier, written out
// here so no dispatch tier can reach the reference: row i's dot starts at
// 0.0 and adds m_ij * y_j in column order, and the outer sum starts at 0.0
// and adds x_i * dot_i in row order.
double QuadraticChain(const double* x, const double* m, const double* y, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double dot = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dot += m[i * n + j] * y[j];
    }
    sum += x[i] * dot;
  }
  return sum;
}

// QuadraticChain on d = x - p_k for feature-major point k, the mover's
// distance as the scalar kernel computed it.
double DistanceChain(const std::vector<double>& x, const std::vector<double>& m,
                     const std::vector<double>& points, std::size_t stride, std::size_t k) {
  std::vector<double> d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    d[i] = x[i] - points[i * stride + k];
  }
  return QuadraticChain(d.data(), m.data(), d.data(), x.size());
}

// Mostly ordinary values in [-2, 2); with probability `special` one of ±0.0,
// a subnormal, ±Inf or NaN.
double SweepValue(Rng& rng, double special) {
  constexpr double kSpecials[] = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::denorm_min(),
                                  -3.0 * std::numeric_limits<double>::denorm_min(),
                                  1e-310,
                                  kInf,
                                  -kInf,
                                  kNaN};
  const double u = 0.25 * (rng.Next() + 2.0);  // in [0, 1)
  if (u >= special) {
    return rng.Next();
  }
  return kSpecials[static_cast<std::size_t>(0.25 * (rng.Next() + 2.0) * 8.0) % 8];
}

// QuadraticForm (the Mahalanobis^2 every classification carries) is the
// scalar chain on every tier, for row counts on both sides of the AVX2
// tier's four-row blocks and a non-symmetric matrix.
TEST(SimdKernelTest, QuadraticFormIsBitIdenticalAcrossTiers) {
  TierGuard guard;
  for (std::size_t n = 1; n <= kMaxColumns; ++n) {
    for (const double special : {0.0, 0.05}) {
      Rng rng(4000 + n);
      std::vector<double> m(n * n);
      for (double& v : m) {
        v = SweepValue(rng, special);
      }
      std::vector<double> x(n);
      std::vector<double> y(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = SweepValue(rng, special);
        y[i] = SweepValue(rng, special);
      }
      const double reference = QuadraticChain(x.data(), m.data(), y.data(), n);
      for (Tier t : SupportedTiers()) {
        ASSERT_TRUE(ForceTier(t));
        const double got = simd::QuadraticForm(VecView(x.data(), n), m.data(), VecView(y.data(), n));
        EXPECT_TRUE(SameBits(got, reference))
            << TierName(t) << " n=" << n << " special=" << special << ": " << got << " vs "
            << reference;
      }
    }
  }
}

// NaN/Inf classification agrees across tiers, down to the bits: a NaN term
// poisons every row; a lone Inf gives every row that Inf; +Inf and -Inf in
// the same row give NaN. Every row holds a rotation of the same entries, so
// every lane of a vector tier meets them.
TEST(SimdKernelTest, NanAndInfPropagationAgreesAcrossTiers) {
  TierGuard guard;
  for (std::size_t n = 2; n <= 17; ++n) {
    for (int scenario = 0; scenario < 3; ++scenario) {
      Rng rng(5000 + 100 * n + scenario);
      std::vector<double> a = rng.Fill(n);
      if (scenario == 0) {
        a[n / 2] = kNaN;
      } else if (scenario == 1) {
        a[n / 3] = kInf;
      } else {
        a[0] = kInf;
        a[n - 1] = -kInf;
      }
      std::vector<double> m(n * n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          m[i * n + j] = a[(i + j) % n];
        }
      }
      const std::vector<double> ones(n, 1.0);
      const double reference = QuadraticChain(ones.data(), m.data(), ones.data(), n);
      EXPECT_EQ(std::isnan(reference), scenario != 1) << "n=" << n;
      for (Tier t : SupportedTiers()) {
        ASSERT_TRUE(ForceTier(t));
        const double got =
            simd::QuadraticForm(VecView(ones.data(), n), m.data(), VecView(ones.data(), n));
        EXPECT_TRUE(SameBits(got, reference))
            << TierName(t) << " n=" << n << " scenario=" << scenario;
      }
    }
  }
}

// QuadraticDistances is the scalar distance chain on every tier: every
// dimension up to kMaxColumns (the AVX2 tier's four-row blocks and their
// row tails), counts 0-9 and 200 (every four-point lane tail), a
// non-symmetric matrix, a stride wider than the count, and signed zeros,
// subnormals, Inf and NaN among the entries.
TEST(SimdKernelTest, QuadraticDistancesIsBitIdenticalToScalarChainOnEveryTier) {
  TierGuard guard;
  std::size_t non_finite = 0;
  for (std::size_t n = 1; n <= kMaxColumns; ++n) {
    for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 200u}) {
      for (const double special : {0.0, 0.02, 0.2}) {
        Rng rng(7000 + 1000 * n + count);
        const std::size_t stride = count + 3;
        std::vector<double> m(n * n);
        for (double& v : m) {
          v = SweepValue(rng, special);
        }
        std::vector<double> x(n);
        for (double& v : x) {
          v = SweepValue(rng, special);
        }
        std::vector<double> points(n * stride);
        for (double& v : points) {
          v = SweepValue(rng, special);
        }
        std::vector<double> expected(count);
        for (std::size_t k = 0; k < count; ++k) {
          expected[k] = DistanceChain(x, m, points, stride, k);
          non_finite += std::isfinite(expected[k]) ? 0 : 1;
        }
        for (Tier t : SupportedTiers()) {
          ASSERT_TRUE(ForceTier(t));
          std::vector<double> out(count + 1, 12345.0);
          simd::QuadraticDistances(VecView(x.data(), n), m.data(), points.data(), stride,
                                   MutVecView(out.data(), count));
          EXPECT_EQ(out[count], 12345.0) << TierName(t) << " wrote past the count";
          for (std::size_t k = 0; k < count; ++k) {
            EXPECT_TRUE(SameBits(out[k], expected[k]))
                << TierName(t) << " n=" << n << " count=" << count << " special=" << special
                << " k=" << k << ": " << out[k] << " vs " << expected[k];
          }
        }
      }
    }
  }
  EXPECT_GT(non_finite, 0u) << "the sweep never produced a non-finite distance";
}

// DistanceBounds is one chain per point on every tier: the squared
// differences summed in feature order, then the slack, exactly as simd.h
// writes them. Counts on both sides of the AVX2 tier's 16- and 4-point
// blocks, every dimension up to kMaxColumns, special values included.
TEST(SimdKernelTest, DistanceBoundsIsBitIdenticalToScalarChainOnEveryTier) {
  TierGuard guard;
  const SlackCoefficients slack{0x1p-19 * 3.0, 1e-24, 0x1p-1000};
  for (std::size_t n = 1; n <= kMaxColumns; ++n) {
    for (const std::size_t count : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 17u, 21u, 169u}) {
      for (const double special : {0.0, 0.2}) {
        Rng rng(9000 + 1000 * n + count);
        const std::size_t stride = count + 3;
        std::vector<double> y(n);
        for (double& v : y) {
          v = SweepValue(rng, special);
        }
        std::vector<double> points(n * stride);
        for (double& v : points) {
          v = SweepValue(rng, special);
        }
        std::vector<double> radii(count);
        for (double& v : radii) {
          v = std::fabs(SweepValue(rng, special));
        }
        const double radius = std::fabs(SweepValue(rng, special));
        std::vector<double> expect_lo(count);
        std::vector<double> expect_hi(count);
        for (std::size_t k = 0; k < count; ++k) {
          double a = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double d = y[i] - points[i * stride + k];
            a += d * d;
          }
          const double r = radius + radii[k];
          const double sk = (slack.relative * a + slack.cross * (r * r)) + slack.floor;
          expect_lo[k] = a - sk;
          expect_hi[k] = a + sk;
        }
        for (Tier t : SupportedTiers()) {
          ASSERT_TRUE(ForceTier(t));
          std::vector<double> lo(count + 1, 12345.0);
          std::vector<double> hi(count + 1, 12345.0);
          simd::DistanceBounds(VecView(y.data(), n), radius, points.data(), radii.data(), stride,
                               slack, MutVecView(lo.data(), count), MutVecView(hi.data(), count));
          EXPECT_EQ(lo[count], 12345.0) << TierName(t) << " wrote past the count";
          EXPECT_EQ(hi[count], 12345.0) << TierName(t) << " wrote past the count";
          for (std::size_t k = 0; k < count; ++k) {
            EXPECT_TRUE(SameBits(lo[k], expect_lo[k]) && SameBits(hi[k], expect_hi[k]))
                << TierName(t) << " n=" << n << " count=" << count << " k=" << k;
          }
        }
      }
    }
  }
}

// EvaluateAll carries the strongest contract: bit-identical across every
// tier AND to the classic per-class "bias + Dot(weights_row, feature)"
// chain, for any class count (vector blocks, 2/4-wide tails, scalar tails).
TEST(SimdKernelTest, EvaluateAllIsBitIdenticalAcrossTiersAndToRowForm) {
  TierGuard guard;
  const std::size_t dim = 13;
  for (std::size_t classes : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
                              std::size_t{8}, std::size_t{11}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{26}, std::size_t{33}}) {
    Rng rng(6000 + classes);
    const std::size_t stride = (classes + 7) / 8 * 8;
    AlignedBuffer soa(dim * stride);
    std::vector<std::vector<double>> rows(classes, std::vector<double>(dim));
    for (std::size_t c = 0; c < classes; ++c) {
      for (std::size_t i = 0; i < dim; ++i) {
        rows[c][i] = rng.Next();
        soa[i * stride + c] = rows[c][i];
      }
    }
    const std::vector<double> biases = rng.Fill(classes);
    const std::vector<double> f = rng.Fill(dim);

    // The pre-SoA formulation the refactor replaced: per-class row dot in
    // index order, bias added via commutative final add. Written as a plain
    // loop so no dispatch tier (and, with -ffp-contract=off, no FMA) can
    // sneak into the reference.
    std::vector<double> row_form(classes);
    for (std::size_t c = 0; c < classes; ++c) {
      double sum = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        sum += rows[c][i] * f[i];
      }
      row_form[c] = biases[c] + sum;
    }

    for (Tier t : SupportedTiers()) {
      ASSERT_TRUE(ForceTier(t));
      std::vector<double> scores(classes, kNaN);
      simd::EvaluateAll(soa.data(), stride, biases.data(), f.data(), dim, scores.data(), classes);
      for (std::size_t c = 0; c < classes; ++c) {
        EXPECT_EQ(scores[c], row_form[c]) << TierName(t) << " classes=" << classes
                                          << " c=" << c;
      }
    }
  }
}

// ArgMax: every tier must return the exact index the running strict->
// scan keeps — first occurrence of the maximum, NaN never displacing an
// earlier winner. Lengths straddle every lane boundary; adversarial
// placements put the max at the head, the tail, inside duplicated ties,
// next to ±0.0, and after NaNs.
TEST(SimdKernelTest, ArgMaxMatchesScalarScanExactly) {
  TierGuard guard;
  for (std::size_t n = 1; n <= 35; ++n) {
    Rng rng(9000 + n);
    std::vector<std::vector<double>> cases;
    cases.push_back(rng.Fill(n));
    {
      std::vector<double> v(n, 1.5);  // all-tie: index 0 must win
      cases.push_back(v);
    }
    {
      std::vector<double> v = rng.Fill(n);
      v[0] = 100.0;  // max at head
      cases.push_back(v);
      v[0] = rng.Next();
      v[n - 1] = 100.0;  // max at tail
      cases.push_back(v);
    }
    {
      std::vector<double> v = rng.Fill(n);
      const std::size_t a = n / 3;
      const std::size_t b = 2 * n / 3;
      v[a] = 7.25;
      v[b] = 7.25;  // duplicated max: first occurrence wins
      cases.push_back(v);
    }
    {
      std::vector<double> v(n, -1.0);
      if (n >= 2) {
        v[n / 2 - (n / 2 == 0 ? 0 : 1)] = -0.0;
        v[n / 2] = 0.0;  // -0.0 then +0.0: neither displaces the other
      } else {
        v[0] = -0.0;
      }
      cases.push_back(v);
    }
    for (std::size_t nan_at = 0; nan_at < n; nan_at += (n < 6 ? 1 : n / 3)) {
      std::vector<double> v = rng.Fill(n);
      v[nan_at] = kNaN;
      cases.push_back(v);
      if (n >= 2) {
        std::vector<double> all_nan(n, kNaN);
        all_nan[n - 1] = 1.0;
        cases.push_back(all_nan);
      }
    }
    {
      std::vector<double> v = rng.Fill(n);
      v[0] = kInf;
      cases.push_back(v);
      v[0] = -kInf;
      cases.push_back(v);
    }
    for (const std::vector<double>& v : cases) {
      // Reference: the scalar scan written out, independent of dispatch.
      std::size_t expect = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (v[i] > v[expect]) {
          expect = i;
        }
      }
      for (Tier t : SupportedTiers()) {
        ASSERT_TRUE(ForceTier(t));
        EXPECT_EQ(ArgMax(v.data(), n), expect) << TierName(t) << " n=" << n;
      }
    }
  }
  EXPECT_EQ(ArgMax(nullptr, 0), 0u);
}

// The fire check on a batch of one row (the AUC's per-point and training
// entry) must agree with "evaluate, then scalar first-max scan, then winner
// < split" on every tier, for every split position — including split 0 /
// past-the-end, exact ties straddling the split (the prefix must win those:
// first index wins), and NaN scores (scalar-scan semantics: NaN never
// displaces the running winner).
// FirstArgMaxInPrefix on the one projected row `f`: true when the row
// fires. The row is read both in place, through simd::kIdentityColumns, and
// gathered through a copy of that list; the two reads must agree.
bool RowFires(const AlignedBuffer& soa, std::size_t stride, const std::vector<double>& biases,
              const std::vector<double>& f, std::size_t split, std::size_t classes) {
  const std::vector<std::size_t> copied(simd::kIdentityColumns.begin(),
                                        simd::kIdentityColumns.begin() + f.size());
  const auto fires = [&](const std::size_t* columns) {
    return simd::FirstArgMaxInPrefix(soa.data(), stride, biases.data(), f.data(), 1, f.size(),
                                     columns, f.size(), split, classes) == 0;
  };
  const bool in_place = fires(simd::kIdentityColumns.data());
  EXPECT_EQ(fires(copied.data()), in_place) << "classes=" << classes << " split=" << split;
  return in_place;
}

TEST(SimdKernelTest, FirstArgMaxInPrefixBatchOfOneMatchesScalarArgMax) {
  TierGuard guard;
  const std::size_t dim = 13;
  for (std::size_t classes : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
                              std::size_t{8}, std::size_t{11}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{26}, std::size_t{33},
                              std::size_t{40}}) {
    Rng rng(11000 + classes);
    const std::size_t stride = (classes + 7) / 8 * 8;
    AlignedBuffer soa(dim * stride);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t c = 0; c < classes; ++c) {
        soa[i * stride + c] = rng.Next();
      }
    }
    const std::vector<double> biases = rng.Fill(classes);

    std::vector<std::vector<double>> features;
    features.push_back(rng.Fill(dim));
    features.push_back(rng.Fill(dim));
    {
      std::vector<double> f = rng.Fill(dim);
      f[dim / 2] = kNaN;  // every score NaN: scalar fallback, winner stays 0
      features.push_back(f);
    }

    std::vector<std::size_t> splits = {0, 1, classes / 2, classes - 1, classes, classes + 3};
    for (const std::vector<double>& f : features) {
      // Reference: scores via the dispatched evaluator (bit-identical on
      // all tiers by the EvaluateAll contract), then the scalar first-max
      // scan written out.
      std::vector<double> scores(classes, kNaN);
      ASSERT_TRUE(ForceTier(Tier::kScalar));
      simd::EvaluateAll(soa.data(), stride, biases.data(), f.data(), dim, scores.data(),
                        classes);
      std::size_t winner = 0;
      for (std::size_t c = 1; c < classes; ++c) {
        if (scores[c] > scores[winner]) {
          winner = c;
        }
      }
      for (std::size_t split : splits) {
        const bool expect = winner < split;
        for (Tier t : SupportedTiers()) {
          ASSERT_TRUE(ForceTier(t));
          EXPECT_EQ(RowFires(soa, stride, biases, f, split, classes), expect)
              << TierName(t) << " classes=" << classes << " split=" << split;
        }
      }
    }
  }

  // Exact tie straddling the split: zero weights make scores == biases, the
  // duplicated maximum sits at split-1 and split, and the prefix must win.
  for (std::size_t classes : {std::size_t{6}, std::size_t{16}, std::size_t{33}}) {
    const std::size_t stride = (classes + 7) / 8 * 8;
    AlignedBuffer soa(dim * stride);  // all zeros
    const std::size_t split = classes / 2;
    std::vector<double> biases(classes, -2.0);
    biases[split - 1] = 4.5;
    biases[split] = 4.5;
    const std::vector<double> f(dim, 1.0);
    for (Tier t : SupportedTiers()) {
      ASSERT_TRUE(ForceTier(t));
      EXPECT_TRUE(RowFires(soa, stride, biases, f, split, classes))
          << TierName(t) << " classes=" << classes;
      // Move both tie copies into the suffix: now the prefix must lose.
      std::vector<double> suffix_biases(classes, -2.0);
      suffix_biases[split] = 4.5;
      if (split + 1 < classes) {
        suffix_biases[split + 1] = 4.5;
      }
      EXPECT_FALSE(RowFires(soa, stride, suffix_biases, f, split, classes))
          << TierName(t) << " classes=" << classes;
    }
  }
}

// --- FirstArgMaxInPrefix: the batched, column-list fire check ------------

// A random SoA weight block plus biases for one set count.
struct PrefixModel {
  std::size_t dim = 0;
  std::size_t classes = 0;
  std::size_t stride = 0;
  AlignedBuffer soa;
  std::vector<double> biases;

  PrefixModel(std::size_t dim_in, std::size_t classes_in, Rng& rng)
      : dim(dim_in), classes(classes_in), stride((classes_in + 7) / 8 * 8),
        soa(dim_in * stride) {
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t c = 0; c < classes; ++c) {
        soa[i * stride + c] = rng.Next();
      }
    }
    biases = rng.Fill(classes);
  }

  // The per-row scalar reference, written out: EvaluateAll's chain for each
  // class of the gathered row, then the strict-> first-max scan (first index
  // wins ties, NaN never displaces the winner), then winner < split.
  bool RowFires(const double* row, const std::vector<std::size_t>& columns,
                std::size_t split) const {
    std::size_t winner = 0;
    double best = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < columns.size(); ++i) {
        acc += row[columns[i]] * soa[i * stride + c];
      }
      acc += biases[c];
      if (c == 0 || acc > best) {
        best = acc;
        winner = c;
      }
    }
    return winner < split;
  }

  std::size_t Reference(const std::vector<double>& rows, std::size_t batch,
                        const std::vector<std::size_t>& columns, std::size_t split) const {
    for (std::size_t r = 0; r < batch; ++r) {
      if (RowFires(rows.data() + r * kRowStride, columns, split)) {
        return r;
      }
    }
    return batch;
  }

  // The kernel with the block's floating-point filter (built only above the
  // rows-in-lanes limit), which must change no answer.
  std::size_t Kernel(const std::vector<double>& rows, std::size_t batch,
                     const std::vector<std::size_t>& columns, std::size_t split) const {
    const FireFilter filter =
        FireFilter::Build(soa.data(), stride, biases.data(), columns.size(), split, classes);
    return FirstArgMaxInPrefix(soa.data(), stride, biases.data(), rows.data(), batch, kRowStride,
                               columns.data(), columns.size(), split, classes, &filter);
  }

  // Unprojected snapshot rows: 13 features each, as EagerStream stores them.
  static constexpr std::size_t kRowStride = 13;
};

// Set counts on both sides of the AVX2 tier's rows-in-lanes limit (128).
const std::vector<std::size_t>& PrefixSetCounts() {
  static const std::vector<std::size_t> counts = {1, 2, 3, 11, 19, 22, 32, 33, 40, 128, 129, 279};
  return counts;
}

// Column lists over a 13-feature row: all of them, GeometryOnly's 11 (the
// two time features dropped), and a single feature.
std::vector<std::vector<std::size_t>> PrefixColumnLists() {
  std::vector<std::size_t> all(13);
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  const std::vector<std::size_t> geometry(all.begin(), all.begin() + 11);
  return {all, geometry, {5}};
}

// Every batch size 1..16 (so every quad tail), every split position,
// random rows: the first firing row equals the per-row scalar scan's.
TEST(SimdKernelTest, FirstArgMaxInPrefixMatchesPerRowScan) {
  TierGuard guard;
  for (std::size_t classes : PrefixSetCounts()) {
    for (const std::vector<std::size_t>& columns : PrefixColumnLists()) {
      Rng rng(12000 + classes * 16 + columns.size());
      const PrefixModel model(columns.size(), classes, rng);
      const std::vector<double> rows = rng.Fill(16 * PrefixModel::kRowStride);
      for (std::size_t split : {std::size_t{0}, std::size_t{1}, classes / 2, classes - 1, classes,
                                classes + 3}) {
        for (std::size_t batch = 0; batch <= 16; ++batch) {
          const std::size_t expect = model.Reference(rows, batch, columns, split);
          for (Tier t : SupportedTiers()) {
            ASSERT_TRUE(ForceTier(t));
            EXPECT_EQ(model.Kernel(rows, batch, columns, split), expect)
                << TierName(t) << " classes=" << classes << " dim=" << columns.size()
                << " split=" << split << " batch=" << batch;
          }
        }
      }
    }
  }
}

// The first firing row at every position of every batch size: rows before
// it do not fire, the rows after it are random. Position == batch means no
// row fires.
TEST(SimdKernelTest, FirstArgMaxInPrefixFindsFiringRowAtEveryPosition) {
  TierGuard guard;
  constexpr std::size_t kStride = PrefixModel::kRowStride;
  for (std::size_t classes : PrefixSetCounts()) {
    if (classes < 2) {
      continue;  // no split has both a firing and a non-firing row
    }
    for (const std::vector<std::size_t>& columns : PrefixColumnLists()) {
      Rng rng(13000 + classes * 16 + columns.size());
      const PrefixModel model(columns.size(), classes, rng);
      // Draw rows until there is one that fires and four that do not. A
      // one-feature model's winners can all sit on one side of a split, so
      // the split moves on until both sides are reachable.
      std::size_t split = classes / 2;
      std::vector<double> firing;
      std::vector<std::vector<double>> quiet;
      for (std::size_t s = 0; s < classes && (firing.empty() || quiet.size() < 4); ++s) {
        split = (classes / 2 + s) % classes;
        firing.clear();
        quiet.clear();
        for (int draw = 0; draw < 4000 && (firing.empty() || quiet.size() < 4); ++draw) {
          std::vector<double> row = rng.Fill(kStride);
          for (double& x : row) {
            x *= 1.0 + static_cast<double>(draw % 7);
          }
          if (model.RowFires(row.data(), columns, split)) {
            firing = row;
          } else if (quiet.size() < 4) {
            quiet.push_back(row);
          }
        }
      }
      ASSERT_FALSE(firing.empty()) << "classes=" << classes << " dim=" << columns.size();
      ASSERT_EQ(quiet.size(), 4u) << "classes=" << classes << " dim=" << columns.size();
      const std::vector<double> tail = rng.Fill(16 * kStride);
      for (std::size_t batch = 1; batch <= 16; ++batch) {
        for (std::size_t pos = 0; pos <= batch; ++pos) {
          std::vector<double> rows = tail;
          for (std::size_t r = 0; r < pos; ++r) {
            std::copy(quiet[r % 4].begin(), quiet[r % 4].end(), rows.begin() + r * kStride);
          }
          if (pos < batch) {
            std::copy(firing.begin(), firing.end(), rows.begin() + pos * kStride);
          }
          for (Tier t : SupportedTiers()) {
            ASSERT_TRUE(ForceTier(t));
            EXPECT_EQ(model.Kernel(rows, batch, columns, split), pos)
                << TierName(t) << " classes=" << classes << " dim=" << columns.size()
                << " batch=" << batch;
          }
        }
      }
    }
  }
}

// One NaN row among finite rows: the rows beside it (same quad included)
// keep their own answers. On the poisoned feature every set weighs -1 except
// the ones listed below; an infinite feature times a 0 weight is NaN.
//   feature 4: set 1 -> 0, set split -> +1. +inf: NaN in set 1 (prefix),
//     suffix wins, no fire. -inf: set 0 wins.
//   feature 6: set 0 -> 0, set split -> +1. +inf: NaN in set 0, which the
//     scalar scan never displaces: fires although the suffix holds the
//     largest value (a lane max that drops NaNs would say otherwise).
//   feature 8: set split+1 -> 0, set split+2 -> +1. +inf: NaN in the suffix
//     only, and a larger suffix score after it: no fire.
//   feature 10: set split+1 -> 0. +inf: NaN in the suffix only, every other
//     score -inf: set 0 wins.
TEST(SimdKernelTest, FirstArgMaxInPrefixNanRowFallsBackAlone) {
  TierGuard guard;
  constexpr std::size_t kStride = PrefixModel::kRowStride;
  std::vector<std::size_t> columns(13);
  for (std::size_t i = 0; i < columns.size(); ++i) {
    columns[i] = i;
  }
  struct Poison {
    std::size_t feature;
    double value;
    bool fires;
  };
  const Poison poisons[] = {
      {4, kInf, false}, {4, -kInf, true}, {6, kInf, true},
      {8, kInf, false}, {10, kInf, true},
      {4, kNaN, true},  // every score NaN, set 0 wins
  };
  for (std::size_t classes :
       {std::size_t{11}, std::size_t{19}, std::size_t{40}, std::size_t{140}}) {
    Rng rng(14000 + classes);
    PrefixModel model(columns.size(), classes, rng);
    const std::size_t split = classes / 2;
    for (std::size_t c = 0; c < classes; ++c) {
      const double w = c == split ? 1.0 : -1.0;
      model.soa[4 * model.stride + c] = c == 1 ? 0.0 : w;
      model.soa[6 * model.stride + c] = c == 0 ? 0.0 : w;
      model.soa[8 * model.stride + c] = c == split + 1 ? 0.0 : (c == split + 2 ? 1.0 : -1.0);
      model.soa[10 * model.stride + c] = c == split + 1 ? 0.0 : -1.0;
    }
    std::vector<double> firing;
    std::vector<double> quiet;
    for (int draw = 0; draw < 4000 && (firing.empty() || quiet.empty()); ++draw) {
      std::vector<double> row = rng.Fill(kStride);
      (model.RowFires(row.data(), columns, split) ? firing : quiet) = row;
    }
    ASSERT_FALSE(firing.empty());
    ASSERT_FALSE(quiet.empty());
    for (const Poison& poison : poisons) {
      std::vector<double> nan_row = quiet;
      nan_row[poison.feature] = poison.value;
      ASSERT_EQ(model.RowFires(nan_row.data(), columns, split), poison.fires);
      for (std::size_t batch = 1; batch <= 16; ++batch) {
        for (std::size_t q = 0; q < batch; ++q) {
          // Quiet rows everywhere, the NaN row at q, a firing row at q + 1.
          std::vector<double> rows(16 * kStride);
          for (std::size_t r = 0; r < 16; ++r) {
            const std::vector<double>& src = r == q ? nan_row : (r == q + 1 ? firing : quiet);
            std::copy(src.begin(), src.end(), rows.begin() + r * kStride);
          }
          const std::size_t expect = poison.fires ? q : std::min(q + 1, batch);
          ASSERT_EQ(model.Reference(rows, batch, columns, split), expect);
          for (Tier t : SupportedTiers()) {
            ASSERT_TRUE(ForceTier(t));
            EXPECT_EQ(model.Kernel(rows, batch, columns, split), expect)
                << TierName(t) << " classes=" << classes << " feature=" << poison.feature
                << " value=" << poison.value << " batch=" << batch << " q=" << q;
          }
        }
      }
    }
  }
}

// Exact ties straddling the split: feature 0 feeds sets split-1 and split
// equally, feature 1 feeds sets split and split+1 equally, every other
// weight is 0 and every other bias far below. A row (5, 0) ties across the
// split, so the prefix wins and it fires; a row (0, 5) ties inside the
// suffix, so it does not.
TEST(SimdKernelTest, FirstArgMaxInPrefixResolvesTiesAcrossTheSplitToThePrefix) {
  TierGuard guard;
  constexpr std::size_t kStride = PrefixModel::kRowStride;
  std::vector<std::size_t> columns(13);
  for (std::size_t i = 0; i < columns.size(); ++i) {
    columns[i] = i;
  }
  for (std::size_t classes :
       {std::size_t{6}, std::size_t{19}, std::size_t{33}, std::size_t{140}}) {
    Rng rng(15000 + classes);
    PrefixModel model(columns.size(), classes, rng);
    const std::size_t split = classes / 2;
    for (std::size_t i = 0; i < model.dim; ++i) {
      for (std::size_t c = 0; c < classes; ++c) {
        model.soa[i * model.stride + c] = 0.0;
      }
    }
    model.soa[split - 1] = 1.0;
    model.soa[split] = 1.0;
    model.soa[model.stride + split] = 1.0;
    model.soa[model.stride + split + 1] = 1.0;
    for (std::size_t c = 0; c < classes; ++c) {
      model.biases[c] = c + 1 >= split && c <= split + 1 ? 0.0 : -100.0;
    }
    std::vector<double> across(kStride, 0.0);
    across[0] = 5.0;
    std::vector<double> inside(kStride, 0.0);
    inside[1] = 5.0;
    ASSERT_TRUE(model.RowFires(across.data(), columns, split));
    ASSERT_FALSE(model.RowFires(inside.data(), columns, split));
    for (std::size_t batch = 1; batch <= 16; ++batch) {
      for (std::size_t pos = 0; pos <= batch; ++pos) {
        std::vector<double> rows(16 * kStride);
        for (std::size_t r = 0; r < 16; ++r) {
          const std::vector<double>& src = r == pos ? across : inside;
          std::copy(src.begin(), src.end(), rows.begin() + r * kStride);
        }
        for (Tier t : SupportedTiers()) {
          ASSERT_TRUE(ForceTier(t));
          EXPECT_EQ(model.Kernel(rows, batch, columns, split), pos)
              << TierName(t) << " classes=" << classes << " batch=" << batch;
        }
      }
    }
  }
}

TEST(SimdAlignedBufferTest, AllocationsAreBlockAligned) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{13}, std::size_t{64},
                        std::size_t{1000}}) {
    AlignedBuffer buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBlockAlignment, 0u) << n;
    EXPECT_EQ(buf.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(buf[i], 0.0);
    }
  }
  AlignedBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
}

TEST(SimdAlignedBufferTest, ValueSemantics) {
  AlignedBuffer a(4);
  a[0] = 1.0;
  a[3] = 4.0;

  AlignedBuffer copy(a);
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_EQ(copy[0], 1.0);
  EXPECT_EQ(copy[3], 4.0);
  copy[0] = 9.0;
  EXPECT_EQ(a[0], 1.0);  // deep copy

  AlignedBuffer assigned;
  assigned = a;
  EXPECT_EQ(assigned[3], 4.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(assigned.data()) % kBlockAlignment, 0u);

  AlignedBuffer moved(std::move(copy));
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(moved[0], 9.0);
  EXPECT_EQ(copy.size(), 0u);      // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.data(), nullptr);  // NOLINT(bugprone-use-after-move)

  moved = AlignedBuffer(2);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[1], 0.0);

  // assign reuses the allocation when the size matches.
  const double* before = moved.data();
  moved.assign(2, 7.0);
  EXPECT_EQ(moved.data(), before);
  EXPECT_EQ(moved[0], 7.0);
}

}  // namespace
}  // namespace grandma::linalg::simd
