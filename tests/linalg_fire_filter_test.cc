// Exactness of the floating-point filter in front of the large-block fire
// check (simd::FireFilter, used by FirstArgMaxInPrefix above the
// rows-in-lanes limit of 128 sets). The filter may only ever rule a row out,
// so on every tier, with and without a filter, every row's answer must equal
// the scalar first-max scan of the scores — on random blocks, on exact
// ties and 1-ulp separations across the split, on extreme features, on
// blocks the filter must refuse, and through non-identity column lists.
// Labeled `lexicon` with the other large-lexicon tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "linalg/simd.h"

namespace grandma::linalg::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kRowStride = 13;  // unprojected snapshot rows
constexpr std::size_t kLargeSetCounts[] = {129, 200, 279};

#if defined(__x86_64__) || defined(__i386__)
constexpr bool kFilterBuilt = kCompiledIn;
#else
constexpr bool kFilterBuilt = false;
#endif

struct TierGuard {
  ~TierGuard() { ResetTier(); }
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

// SplitMix64 doubles in [-1, 1).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  double Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * (2.0 / 9007199254740992.0) - 1.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<std::size_t> Identity() {
  std::vector<std::size_t> all(kRowStride);
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return all;
}

// Column lists: all 13 in order, reversed, a permuted 11-feature subset,
// and three scattered features.
std::vector<std::vector<std::size_t>> ColumnLists() {
  std::vector<std::size_t> reversed = Identity();
  std::reverse(reversed.begin(), reversed.end());
  return {Identity(), reversed, {10, 2, 7, 0, 9, 4, 1, 8, 3, 6, 5}, {12, 3, 7}};
}

// A weight block whose features differ in scale by up to 10^3, as Rubine's
// features do.
struct Block {
  std::size_t dim;
  std::size_t classes;
  std::size_t split;
  std::size_t stride;
  AlignedBuffer soa;
  std::vector<double> biases;

  Block(std::size_t dim_in, std::size_t classes_in, std::size_t split_in, Rng& rng)
      : dim(dim_in), classes(classes_in), split(split_in), stride((classes_in + 7) / 8 * 8),
        soa(dim_in * stride), biases(classes_in) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double scale = std::pow(10.0, static_cast<double>(i % 4));
      for (std::size_t c = 0; c < classes; ++c) {
        soa[i * stride + c] = rng.Next() * scale;
      }
    }
    for (double& b : biases) {
      b = 50.0 * rng.Next();
    }
  }

  double& W(std::size_t i, std::size_t c) { return soa[i * stride + c]; }

  FireFilter Filter() const {
    return FireFilter::Build(soa.data(), stride, biases.data(), dim, split, classes);
  }

  std::vector<double> Gather(const double* row, const std::vector<std::size_t>& columns) const {
    std::vector<double> f(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      f[i] = row[columns[i]];
    }
    return f;
  }

  // The reference answer: the scalar tier's scores, the strict-> first-max
  // scan, then winner < split.
  bool Fires(const double* row, const std::vector<std::size_t>& columns) const {
    TierGuard guard;
    EXPECT_TRUE(ForceTier(Tier::kScalar));
    const std::vector<double> f = Gather(row, columns);
    std::vector<double> scores(classes);
    EvaluateAll(soa.data(), stride, biases.data(), f.data(), dim, scores.data(), classes);
    std::size_t winner = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (scores[c] > scores[winner]) {
        winner = c;
      }
    }
    return winner < split;
  }

  // Each class's feature sum without its bias, under the scalar tier: the
  // exact value the kernels add the bias to.
  std::vector<double> Partials(const double* row, const std::vector<std::size_t>& columns) const {
    TierGuard guard;
    EXPECT_TRUE(ForceTier(Tier::kScalar));
    const std::vector<double> f = Gather(row, columns);
    const std::vector<double> zero(classes, 0.0);
    std::vector<double> out(classes);
    EvaluateAll(soa.data(), stride, zero.data(), f.data(), dim, out.data(), classes);
    return out;
  }
};

std::vector<double> RandomRows(std::size_t n, double scale, Rng& rng) {
  std::vector<double> rows(n * kRowStride);
  for (double& x : rows) {
    x = scale * rng.Next();
  }
  return rows;
}

// Every row alone and the rows in chunks of up to 16, on every tier, with
// and without the block's filter, against the scalar reference.
void ExpectExact(const Block& block, const std::vector<double>& rows,
                 const std::vector<std::size_t>& columns, const std::string& what) {
  TierGuard guard;
  const std::size_t n = rows.size() / kRowStride;
  std::vector<bool> fires(n);
  for (std::size_t r = 0; r < n; ++r) {
    fires[r] = block.Fires(rows.data() + r * kRowStride, columns);
  }
  const FireFilter filter = block.Filter();
  const auto first_in_prefix = [&](std::size_t begin, std::size_t batch, const FireFilter* f) {
    return FirstArgMaxInPrefix(block.soa.data(), block.stride, block.biases.data(),
                               rows.data() + begin * kRowStride, batch, kRowStride,
                               columns.data(), block.dim, block.split, block.classes, f);
  };
  for (Tier t : SupportedTiers()) {
    ASSERT_TRUE(ForceTier(t));
    for (const FireFilter* f : {static_cast<const FireFilter*>(nullptr), &filter}) {
      const std::string where = what + " tier=" + TierName(t) +
                                (f == nullptr ? " unfiltered" : " filtered") +
                                " classes=" + std::to_string(block.classes) +
                                " dim=" + std::to_string(block.dim);
      for (std::size_t r = 0; r < n; ++r) {
        EXPECT_EQ(first_in_prefix(r, 1, f) == 0, fires[r]) << where << " row=" << r;
      }
      for (std::size_t begin = 0; begin < n; begin += 16) {
        const std::size_t batch = std::min<std::size_t>(16, n - begin);
        std::size_t expect = batch;
        for (std::size_t r = 0; r < batch && expect == batch; ++r) {
          expect = fires[begin + r] ? r : batch;
        }
        EXPECT_EQ(first_in_prefix(begin, batch, f), expect) << where << " begin=" << begin;
      }
    }
  }
}

TEST(FireFilterTest, RandomRowsMatchTheScalarCheck) {
  for (std::size_t classes : kLargeSetCounts) {
    for (const std::vector<std::size_t>& columns : ColumnLists()) {
      for (std::size_t split : {std::size_t{1}, classes * 2 / 3, classes - 1}) {
        Rng rng(31000 + classes * 64 + columns.size() * 8 + split);
        const Block block(columns.size(), classes, split, rng);
        if (kFilterBuilt) {
          ASSERT_FALSE(block.Filter().empty());
        }
        ExpectExact(block, RandomRows(48, 3.0, rng), columns, "random");
      }
    }
  }
}

// The top suffix score set exactly equal to the top prefix score (a tie,
// which the prefix wins: fires), one ulp above it (does not fire) and one
// ulp below it (fires), by solving the top suffix set's bias. Every other
// suffix set is pushed below the prefix maximum first, so the top suffix
// set alone decides.
TEST(FireFilterTest, ExactTiesAndOneUlpSeparationsAcrossTheSplit) {
  for (std::size_t classes : kLargeSetCounts) {
    for (const std::vector<std::size_t>& columns : ColumnLists()) {
      Rng rng(32000 + classes * 64 + columns.size());
      const Block base(columns.size(), classes, classes * 2 / 3, rng);
      const std::vector<double> rows = RandomRows(8, 3.0, rng);
      for (std::size_t r = 0; r < 8; ++r) {
        const double* row = rows.data() + r * kRowStride;
        const std::vector<double> partial = base.Partials(row, columns);
        std::size_t top_prefix = 0;
        for (std::size_t c = 1; c < base.split; ++c) {
          if (partial[c] + base.biases[c] > partial[top_prefix] + base.biases[top_prefix]) {
            top_prefix = c;
          }
        }
        const double prefix_max = partial[top_prefix] + base.biases[top_prefix];
        std::size_t top_suffix = base.split;
        for (std::size_t c = base.split + 1; c < classes; ++c) {
          if (partial[c] + base.biases[c] > partial[top_suffix] + base.biases[top_suffix]) {
            top_suffix = c;
          }
        }
        for (const int ulps : {0, 1, -1}) {
          Block block = base;
          for (std::size_t c = block.split; c < classes; ++c) {
            const double s = partial[c] + block.biases[c];
            if (c != top_suffix && s >= prefix_max) {
              block.biases[c] -= (s - prefix_max) + 1.0;
            }
          }
          double target = prefix_max;
          if (ulps != 0) {
            target = std::nextafter(prefix_max, ulps > 0 ? kInf : -kInf);
          }
          // Solve partial + b == target exactly, nudging b an ulp at a time.
          double& b = block.biases[top_suffix];
          b = target - partial[top_suffix];
          for (int step = 0; step < 64 && partial[top_suffix] + b != target; ++step) {
            b = std::nextafter(b, partial[top_suffix] + b < target ? kInf : -kInf);
          }
          ASSERT_EQ(partial[top_suffix] + b, target);
          const std::vector<double> one(row, row + kRowStride);
          ASSERT_EQ(block.Fires(one.data(), columns), ulps <= 0) << "ulps=" << ulps;
          ExpectExact(block, one, columns, "tie ulps=" + std::to_string(ulps));
        }
      }
    }
  }
}

// Subnormal, tiny, huge, infinite and NaN features, alone and together,
// at every column a list reads. Finite rows past the 2^64 guard and rows
// with non-finite features take the exact sweep; subnormal ones stay inside
// the filter's underflow term.
TEST(FireFilterTest, ExtremeFeaturesMatchTheScalarCheck) {
  const double extremes[] = {std::numeric_limits<double>::denorm_min(),
                             -1e-310,
                             1e-40,  // normal double, subnormal float
                             -1e-45,
                             0.0,
                             -0.0,
                             1e30,
                             -1e30,
                             0x1p64,
                             std::nextafter(0x1p64, 0.0),
                             3e38,
                             kInf,
                             -kInf,
                             kNaN};
  for (std::size_t classes : kLargeSetCounts) {
    for (const std::vector<std::size_t>& columns : ColumnLists()) {
      Rng rng(33000 + classes * 64 + columns.size());
      const Block block(columns.size(), classes, classes * 2 / 3, rng);
      std::vector<double> rows;
      for (const double x : extremes) {
        for (const std::size_t col : columns) {
          std::vector<double> row = RandomRows(1, 3.0, rng);
          row[col] = x;
          rows.insert(rows.end(), row.begin(), row.end());
        }
        // Every feature extreme, and every feature extreme but one.
        std::vector<double> all(kRowStride, x);
        rows.insert(rows.end(), all.begin(), all.end());
        all[columns.front()] = 1.0;
        rows.insert(rows.end(), all.begin(), all.end());
      }
      ExpectExact(block, rows, columns, "extreme");
    }
  }
}

// Weights or biases a float cannot hold switch the filter off; float
// subnormal weights and FLT_MAX do not. Either way the answers stay exact,
// including rows whose bound passes the guard only for small features.
TEST(FireFilterTest, OutOfFloatRangeBlocksBuildNoFilter) {
  const double flt_max = std::numeric_limits<float>::max();
  struct Case {
    const char* name;
    double weight;  // written to set 5, feature 0 (kNaN: leave the weight)
    double bias;    // written to set 7 (kNaN: leave the bias)
    bool builds;
  };
  const Case cases[] = {
      {"huge weight", 1e39, kNaN, false},
      {"negative huge weight", -2.0 * flt_max, kNaN, false},
      {"infinite weight", kInf, kNaN, false},
      {"huge bias", kNaN, -1e39, false},
      {"flt_max weight", flt_max, kNaN, true},
      {"flt_max bias", kNaN, flt_max, true},
      {"float-subnormal weight", 1e-42, kNaN, true},
  };
  for (std::size_t classes : kLargeSetCounts) {
    for (const Case& c : cases) {
      const std::vector<std::size_t> columns = Identity();
      Rng rng(34000 + classes);
      Block block(columns.size(), classes, classes * 2 / 3, rng);
      if (!std::isnan(c.weight)) {
        block.W(0, 5) = c.weight;
      }
      if (!std::isnan(c.bias)) {
        block.biases[7] = c.bias;
      }
      EXPECT_EQ(block.Filter().empty(), !(kFilterBuilt && c.builds))
          << c.name << " classes=" << classes;
      std::vector<double> rows = RandomRows(32, 3.0, rng);
      for (std::size_t r = 16; r < 32; ++r) {
        rows[r * kRowStride] = r % 2 == 0 ? 0.0 : 1e-30;  // the large weight's feature
      }
      ExpectExact(block, rows, columns, c.name);
    }
  }
  // Blocks rows in lanes takes, and blocks with an empty side, get no mirror.
  Rng rng(34999);
  EXPECT_TRUE(Block(13, 128, 64, rng).Filter().empty());
  EXPECT_TRUE(Block(13, 200, 0, rng).Filter().empty());
  EXPECT_TRUE(Block(13, 200, 200, rng).Filter().empty());
}

// A filter built for another block shape is ignored, not misread.
TEST(FireFilterTest, FilterForAnotherShapeIsIgnored) {
  TierGuard guard;
  const std::vector<std::size_t> columns = Identity();
  Rng rng(35000);
  const Block block(columns.size(), 200, 140, rng);
  const Block other(columns.size(), 200, 60, rng);
  const FireFilter stale = other.Filter();
  const std::vector<double> rows = RandomRows(64, 3.0, rng);
  for (Tier t : SupportedTiers()) {
    ASSERT_TRUE(ForceTier(t));
    for (std::size_t r = 0; r < 64; ++r) {
      const std::size_t got =
          FirstArgMaxInPrefix(block.soa.data(), block.stride, block.biases.data(),
                              rows.data() + r * kRowStride, 1, kRowStride, columns.data(),
                              block.dim, block.split, block.classes, &stale);
      EXPECT_EQ(got == 0, block.Fires(rows.data() + r * kRowStride, columns))
          << TierName(t) << " row=" << r;
    }
  }
}

}  // namespace
}  // namespace grandma::linalg::simd
