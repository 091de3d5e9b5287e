// Runtime-dispatched SIMD kernels for the recognition hot path, plus the
// aligned-allocation facility the flat weight blocks live in.
//
// Three tiers form the dispatch ladder:
//   kScalar — plain loops, the reference implementation every other tier is
//             tested against, bit for bit;
//   kSse2   — 2-wide double vectors: SSE2 on x86-64 (baseline, always
//             available there), NEON on aarch64;
//   kAvx2   — 4-wide double vectors (x86 only, detected at runtime).
//
// The tier is selected ONCE, on first kernel call: the GRANDMA_SIMD
// environment variable ("scalar", "sse2", "neon", "avx2") wins if it names a
// supported tier, otherwise the best tier the CPU supports. Tests and
// benches can override with ForceTier; the swap is an atomic pointer store,
// so concurrent readers always see a coherent kernel table (but mixing
// ForceTier with in-flight kernels changes which tier those kernels use —
// force tiers only from single-threaded setup code).
//
// Numerical contract: every kernel is bit-identical across ALL tiers. Each
// score or row dot is an independent accumulation chain in a fixed order
// (the SIMD tiers vectorize ACROSS chains — classes, rows or points — never
// within one), and no FMA contraction is permitted in this translation unit
// (-ffp-contract=off). tests/linalg_simd_test.cc checks every tier bitwise
// against the scalar reference.
//
// Building with -DGRANDMA_SIMD=OFF defines GRANDMA_SIMD_DISABLED: only the
// scalar tier is compiled, BestSupportedTier() == kScalar, and ForceTier to
// any vector tier fails — the fallback path can be CI-gated directly.
#ifndef GRANDMA_SRC_LINALG_SIMD_H_
#define GRANDMA_SRC_LINALG_SIMD_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "linalg/vec_view.h"

namespace grandma::linalg::simd {

enum class Tier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

// True unless the library was built with -DGRANDMA_SIMD=OFF.
#ifdef GRANDMA_SIMD_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

// "scalar", "sse2" (or "neon" on aarch64), "avx2".
const char* TierName(Tier t);

// The widest tier this build + CPU supports.
Tier BestSupportedTier();

// The tier the dispatched kernels below currently run at.
Tier ActiveTier();

// Forces dispatch to `t`; false (and no change) when the tier is not
// supported by this build/CPU. For tests and benches.
bool ForceTier(Tier t);

// Drops any forced tier and re-runs the startup selection (env, then best).
void ResetTier();

// --- Dispatched kernels ------------------------------------------------
// Size agreement is assert-checked, exactly like the scalar kernels in
// vec_view.h: these sit inside the per-point loop.

// x^T m y over a row-major n x n matrix block (n = x.size() == y.size()).
// Row i's dot starts at 0.0 and adds m_ij * y_j in column order; the outer
// sum starts at 0.0 and adds x_i * dot_i in row order. Not dispatched:
// every tier runs this one scalar chain. This is the Mahalanobis^2 every
// classification carries, so its bits do not depend on the tier.
double QuadraticForm(VecView x, const double* m, VecView y);

// Squared distances from one point to many: out[k] = QuadraticForm(d_k, m,
// d_k) with d_k = x - p_k, bit for bit, for every k < out.size(). The points
// are stored feature-major, p_k[i] = points[i * stride + k], and m is
// row-major with side n = x.size(). Not dispatched: like QuadraticForm,
// every tier runs the one scalar chain (four points side by side in plain
// arrays). No allocation.
void QuadraticDistances(VecView x, const double* m, const double* points, std::size_t stride,
                        MutVecView out);

// The coefficients of DistanceBounds' slack.
struct SlackCoefficients {
  double relative = 0.0;
  double cross = 0.0;
  double floor = 0.0;
};

// The approximate pass of a nearest-point screen (the accidental-complete
// mover's; eager/accidental_mover.cc derives the bound it feeds). For every
// k < lo.size(), with p_k[i] = points[i * stride + k]:
//   a_k   = sum_i (y[i] - p_k[i])^2, summed in feature order from 0.0,
//   s_k   = (relative * a_k + cross * (r_k * r_k)) + floor,
//           r_k = radius + radii[k],
//   lo[k] = a_k - s_k,  hi[k] = a_k + s_k.
// Every tier computes these chains bit for bit (the AVX2 tier runs points in
// its four lanes). No allocation.
void DistanceBounds(VecView y, double radius, const double* points, const double* radii,
                    std::size_t stride, const SlackCoefficients& slack, MutVecView lo,
                    MutVecView hi);

// The batched evaluator primitive. For every class c in [0, classes):
//   scores[c] = (sum_i f[i] * soa[i * stride + c]) + biases[c]
// with the sum accumulated in feature order, which makes the result
// bit-identical to the classic per-class "bias + Dot(weights_row, f)"
// (addition is commutative; the chain is the same sequence of operations).
// `soa` is the feature-major structure-of-arrays weight block: row i holds
// class-indexed weights for feature i, rows are `stride` doubles apart
// (stride >= classes; padding lanes are never stored to).
void EvaluateAll(const double* soa, std::size_t stride, const double* biases,
                 const double* f, std::size_t dim, double* scores, std::size_t classes);

// Index of the maximum element under the running strict-> scan semantics
// every argmax in the classifier uses: the FIRST occurrence of the maximum
// wins ties, and the result is identical across tiers (it is an index, so
// "bit-identical" is exact equality). The vector tiers compute the max and
// then locate its first occurrence — equivalent to the scalar scan whenever
// no element is NaN; any NaN input falls back to the scalar scan so the
// NaN-never-displaces-the-winner property is preserved exactly. n == 0
// returns 0.
std::size_t ArgMax(const double* v, std::size_t n);

// Widest feature row FirstArgMaxInPrefix reads through a column list.
inline constexpr std::size_t kMaxColumns = 32;

// The identity column list: rows read through it are already projected.
inline constexpr std::array<std::size_t, kMaxColumns> kIdentityColumns = [] {
  std::array<std::size_t, kMaxColumns> columns{};
  for (std::size_t i = 0; i < kMaxColumns; ++i) {
    columns[i] = i;
  }
  return columns;
}();

struct FireFilter;

// The batched fire check for prefix-partitioned class layouts: the index of
// the FIRST of `batch` rows whose first-max winner (ArgMax semantics above,
// over the EvaluateAll scores) lands in the class prefix [0, split), or
// `batch` when none does. The AUC keeps complete sets in the prefix, so this
// is its whole fire decision: no score buffer, no argmax pass. For NaN-free
// scores a row fires exactly when !(max over [split, classes) > max over
// [0, split)) (first index wins, so exact ties go to the prefix); a row with
// a NaN score defers to the scalar first-max scan, so every row's answer is
// the same on every tier. split == 0 returns `batch`; split >= classes
// returns 0.
//
// Row r's feature i is rows[r * row_stride + columns[i]] for i < dim (dim <=
// kMaxColumns), so a caller holding unprojected snapshots passes its mask's
// column-index list instead of projecting every row, and a caller holding
// one projected row passes batch 1 and kIdentityColumns. The AVX2 tier
// stops a row's suffix sweep at the first score above the prefix maximum,
// and evaluates up to four rows at once, one row per vector lane (see
// simd.cc for when it does). On blocks too large for that, it screens each
// row first with `filter` when one is given and matches the block (see
// FireFilter); the filter changes no answer.
std::size_t FirstArgMaxInPrefix(const double* soa, std::size_t stride, const double* biases,
                                const double* rows, std::size_t batch, std::size_t row_stride,
                                const std::size_t* columns, std::size_t dim, std::size_t split,
                                std::size_t classes, const FireFilter* filter = nullptr);

// --- Aligned allocation -------------------------------------------------

// Cache-line alignment for the flat kernel blocks: covers 32-byte AVX2
// vectors and keeps each block from straddling lines it doesn't own.
inline constexpr std::size_t kBlockAlignment = 64;

// Owning, kBlockAlignment-aligned array of trivially copyable values with
// value semantics. The hot-path counterpart of std::vector for the flat
// weight/mean blocks: allocation happens at (re)build time only, never
// inside a kernel.
template <typename T>
class AlignedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  AlignedArray() = default;
  explicit AlignedArray(std::size_t size) { assign(size, T{}); }
  AlignedArray(const AlignedArray& other) { CopyFrom(other); }
  AlignedArray(AlignedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  AlignedArray& operator=(const AlignedArray& other) {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }
  AlignedArray& operator=(AlignedArray&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~AlignedArray() { Release(); }

  // Reallocates to `size` elements (keeping the allocation when the size
  // matches), all set to `value`.
  void assign(std::size_t size, T value) {
    if (size != size_) {
      Release();
      if (size != 0) {
        data_ = static_cast<T*>(
            ::operator new[](size * sizeof(T), std::align_val_t(kBlockAlignment)));
        size_ = size;
      }
    }
    std::fill(data_, data_ + size_, value);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  T operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

 private:
  void CopyFrom(const AlignedArray& other) {
    assign(other.size_, T{});
    std::copy(other.data_, other.data_ + size_, data_);
  }
  void Release() {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t(kBlockAlignment));
      data_ = nullptr;
    }
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

using AlignedBuffer = AlignedArray<double>;

// --- Floating-point filter ------------------------------------------------

// A single-precision mirror of a weight block whose firing classes are the
// prefix [0, split), for the filter FirstArgMaxInPrefix runs in front of its
// exact per-row sweep on large blocks. Per row, the filter scores every
// class in float and bounds the distance of each float score from the
// double one; a suffix score above the float prefix maximum by more than
// twice that bound proves the row does not fire. It never proves the
// opposite: every row it cannot settle, firing rows included, takes the
// exact sweep, so answers are bit-identical with or without a filter. The
// bound and its guards are derived in simd.cc and docs/PERFORMANCE.md
// ("Floating-point filter").
//
// Immutable once built; derived from the double block, never persisted.
struct FireFilter {
  // The mirror of FirstArgMaxInPrefix's (soa, stride, biases, dim, split,
  // classes) block. Empty when no kernel would read it (a scalar-only or
  // non-x86 build, a block small enough for rows in lanes, an empty side)
  // and when a weight or bias is outside float range.
  static FireFilter Build(const double* soa, std::size_t stride, const double* biases,
                          std::size_t dim, std::size_t split, std::size_t classes);

  bool empty() const { return weights.empty(); }
  // True when built for exactly this block shape.
  bool Matches(std::size_t dim_in, std::size_t split_in, std::size_t classes_in) const {
    return !empty() && dim == dim_in && split == split_in && classes == classes_in;
  }

  // Feature-major float weights, weights[i * lanes + k]: lanes
  // [0, prefix_lanes) hold the prefix classes, the rest the suffix classes,
  // each side padded to a multiple of 8 with copies of its last class (a
  // copy changes no maximum and no "some score above" test).
  AlignedArray<float> weights;
  AlignedArray<float> biases;
  std::size_t prefix_lanes = 0;
  std::size_t lanes = 0;
  // M_i = max_c |w_ci| (zero past dim) and B = max_c |b_c|.
  std::array<double, kMaxColumns> feature_bound{};
  double bias_bound = 0.0;
  // kappa and eta of the per-score error bound kappa * E + eta, where
  // E = sum_i M_i |f_i| + B.
  double relative_bound = 0.0;
  double underflow_bound = 0.0;
  std::size_t dim = 0;
  std::size_t split = 0;
  std::size_t classes = 0;
};

}  // namespace grandma::linalg::simd

#endif  // GRANDMA_SRC_LINALG_SIMD_H_
