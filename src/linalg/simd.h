// Runtime-dispatched SIMD kernels for the recognition hot path, plus the
// aligned-allocation facility the flat weight blocks live in.
//
// Three tiers form the dispatch ladder:
//   kScalar — plain loops, the reference implementation every other tier is
//             tested against (bounded-ULP for reduction kernels, bit-exact
//             for EvaluateAll);
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
// Numerical contract:
//   - EvaluateAll is bit-identical across ALL tiers: each class's score is
//     an independent accumulation chain in feature order (the SIMD tiers
//     vectorize ACROSS classes, never within a chain) and no FMA contraction
//     is permitted in this translation unit (-ffp-contract=off).
//   - Axpy is element-wise and therefore also bit-identical across tiers.
//   - Dot / SquaredNorm / QuadraticForm use per-lane partial sums, so their
//     results differ from scalar by reassociation only: the error is bounded
//     by n*eps*sum|terms| (enforced by tests/linalg_simd_test.cc).
//
// Building with -DGRANDMA_SIMD=OFF defines GRANDMA_SIMD_DISABLED: only the
// scalar tier is compiled, BestSupportedTier() == kScalar, and ForceTier to
// any vector tier fails — the fallback path can be CI-gated directly.
#ifndef GRANDMA_SRC_LINALG_SIMD_H_
#define GRANDMA_SRC_LINALG_SIMD_H_

#include <cstddef>

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

// Inner product (per-lane partial sums; bounded-ULP vs scalar).
double Dot(VecView a, VecView b);

// y += alpha * x (element-wise; bit-identical across tiers).
void Axpy(double alpha, VecView x, MutVecView y);

// sum v[i]^2 (per-lane partial sums; bounded-ULP vs scalar).
double SquaredNorm(VecView v);

// x^T m y over a row-major n x n matrix block (n = x.size() == y.size());
// per-row dots use the dispatched Dot.
double QuadraticForm(VecView x, const double* m, VecView y);

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

// Two feature vectors through ONE sweep of the weight block: s0/s1 get
// exactly what two EvaluateAll calls would produce, bit for bit (each
// point's per-class chain is the same operation sequence; pairing only
// shares the weight loads between the two chains). This is the batch
// evaluator's memory-bandwidth lever: at 200+ classes the SoA block
// no longer fits L1, and pairing halves the per-point weight traffic.
void EvaluateAll2(const double* soa, std::size_t stride, const double* biases,
                  const double* f0, const double* f1, std::size_t dim, double* s0, double* s1,
                  std::size_t classes);

// A whole batch of feature rows through class-tiled sweeps of the weight
// block: row r's scores land at scores + r * scores_stride and are bit-
// identical to a row-at-a-time EvaluateAll (class tiling and row pairing
// never reorder a per-(row, class) chain). One weight-block sweep serves
// the entire batch — at 200+ classes the block outgrows L1 and this is the
// difference between per-point and per-batch memory traffic.
void EvaluateBatch(const double* soa, std::size_t stride, const double* biases,
                   const double* features, std::size_t batch, std::size_t feature_stride,
                   double* scores, std::size_t scores_stride, std::size_t dim,
                   std::size_t classes);

// Index of the maximum element under the running strict-> scan semantics
// every argmax in the classifier uses: the FIRST occurrence of the maximum
// wins ties, and the result is identical across tiers (it is an index, so
// "bit-identical" is exact equality). The vector tiers compute the max and
// then locate its first occurrence — equivalent to the scalar scan whenever
// no element is NaN; any NaN input falls back to the scalar scan so the
// NaN-never-displaces-the-winner property is preserved exactly. n == 0
// returns 0.
std::size_t ArgMax(const double* v, std::size_t n);

// Fused evaluate + fire-side check for prefix-partitioned class layouts:
// computes the EvaluateAll scores for `f` WITHOUT storing them and returns
// whether the first-max winner (ArgMax semantics above) lands in the class
// prefix [0, split). The AUC keeps complete sets in the prefix, so this is
// its entire per-point fire decision — one weight-block sweep, no score
// buffer, no argmax pass. Winner-in-prefix reduces to
//   !(max over [split, classes) > max over [0, split))
// for NaN-free scores (first-index-wins resolves exact ties to the prefix);
// any NaN score defers to the scalar scan, so the result is identical
// across tiers in all cases. split == 0 returns false; split >= classes
// returns true.
bool EvaluateArgMaxInPrefix(const double* soa, std::size_t stride, const double* biases,
                            const double* f, std::size_t dim, std::size_t split,
                            std::size_t classes);

// Widest feature row FirstArgMaxInPrefix reads through a column list.
inline constexpr std::size_t kMaxColumns = 32;

// The batched fire check: the index of the FIRST of `batch` rows whose
// EvaluateArgMaxInPrefix answer is true, or `batch` when none is. Row r's
// feature i is rows[r * row_stride + columns[i]] for i < dim (dim <=
// kMaxColumns), so a caller holding unprojected snapshots passes its mask's
// column-index list instead of projecting every row. Each row's answer is
// bit-identical to EvaluateArgMaxInPrefix on that row's gathered features,
// on every tier. The AVX2 tier stops a row's suffix sweep at the first
// score above the prefix maximum, and evaluates up to four rows at once,
// one row per vector lane (see simd.cc for when it does).
std::size_t FirstArgMaxInPrefix(const double* soa, std::size_t stride, const double* biases,
                                const double* rows, std::size_t batch, std::size_t row_stride,
                                const std::size_t* columns, std::size_t dim, std::size_t split,
                                std::size_t classes);

// --- Aligned allocation -------------------------------------------------

// Cache-line alignment for the flat kernel blocks: covers 32-byte AVX2
// vectors and keeps each block from straddling lines it doesn't own.
inline constexpr std::size_t kBlockAlignment = 64;

// Owning, kBlockAlignment-aligned buffer of doubles with value semantics.
// The hot-path counterpart of std::vector<double> for the classifier's flat
// weight/mean blocks: allocation happens at (re)build time only, never
// inside a kernel.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t size) { assign(size, 0.0); }
  AlignedBuffer(const AlignedBuffer& other);
  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(const AlignedBuffer& other);
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  ~AlignedBuffer();

  // Reallocates to `size` doubles, all set to `value`.
  void assign(std::size_t size, double value);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double* data() { return data_; }
  const double* data() const { return data_; }

  double& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  double operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

 private:
  void Release();

  double* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace grandma::linalg::simd

#endif  // GRANDMA_SRC_LINALG_SIMD_H_
