// Kernel tables for the dispatch ladder declared in simd.h. This file is
// compiled with -ffp-contract=off (see src/linalg/CMakeLists.txt): no
// mul+add here may fuse into an FMA, or the bit-identity contract between
// the scalar and vector tiers of EvaluateAll would silently break on
// FMA-capable hardware.
#include "linalg/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#if !defined(GRANDMA_SIMD_DISABLED)
#if defined(__x86_64__) || defined(__i386__)
#define GRANDMA_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define GRANDMA_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace grandma::linalg::simd {

namespace {

// Raw-pointer kernel signatures; the VecView entry points below unwrap once
// and assert sizes, so the per-tier implementations stay branch-light.
struct KernelTable {
  Tier tier;
  void (*distance_bounds)(const double* y, std::size_t n, double radius, const double* points,
                          const double* radii, std::size_t stride, const SlackCoefficients& slack,
                          double* lo, double* hi, std::size_t count);
  void (*evaluate_all)(const double* soa, std::size_t stride, const double* biases,
                       const double* f, std::size_t dim, double* scores, std::size_t classes);
  std::size_t (*argmax)(const double* v, std::size_t n);
  std::size_t (*first_in_prefix)(const double* soa, std::size_t stride, const double* biases,
                                 const double* rows, std::size_t batch, std::size_t row_stride,
                                 const std::size_t* columns, std::size_t dim, std::size_t split,
                                 std::size_t classes, const FireFilter* filter);
};

// --- Scalar tier (the reference) ---------------------------------------

// Adds rows [i, i + kRows) of x^T m y to `sum`: the rows' dots run side by
// side in a plain array, each starting at 0.0 and adding m_ij * y_j in
// column order, then join the sum in row order. Lanes hold different rows,
// so every row keeps its own chain.
template <std::size_t kRows>
double AddRowTerms(double sum, const double* x, const double* m, const double* y,
                   std::size_t n, std::size_t i) {
  double dot[kRows] = {};
  for (std::size_t j = 0; j < n; ++j) {
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kRows; ++r) {
      dot[r] += m[(i + r) * n + j] * y[j];
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    sum += x[i + r] * dot[r];
  }
  return sum;
}

// x^T m y as one chain per row: the outer sum starts at 0.0 and adds
// x_i * dot_i in row order. Four rows at a time (the compiler pairs them
// into 2-wide ops), then one at a time. QuadraticForm runs it on every
// tier, and QuadraticDistances computes exactly this chain.
double QuadraticFormScalar(const double* x, const double* m, const double* y, std::size_t n) {
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    sum = AddRowTerms<4>(sum, x, m, y, n, i);
  }
  for (; i < n; ++i) {
    sum = AddRowTerms<1>(sum, x, m, y, n, i);
  }
  return sum;
}

// QuadraticFormScalar's chain on d = x - p_l for kLanes points stored
// feature-major, p_l[i] = p[i * stride + l], one per array lane.
template <std::size_t kLanes>
void DistanceLanes(const double* x, const double* m, std::size_t n, const double* p,
                   std::size_t stride, double* out) {
  double sum[kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    double dot[kLanes] = {};
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        dot[l] += m[i * n + j] * (x[j] - p[j * stride + l]);
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      sum[l] += (x[i] - p[i * stride + l]) * dot[l];
    }
  }
  std::copy(sum, sum + kLanes, out);
}

// Four points at a time (the compiler pairs the lanes into 2-wide ops),
// then one at a time.
void QuadraticDistancesScalar(const double* x, const double* m, std::size_t n,
                              const double* points, std::size_t stride, double* out,
                              std::size_t count) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    DistanceLanes<4>(x, m, n, points + k, stride, out + k);
  }
  for (; k < count; ++k) {
    DistanceLanes<1>(x, m, n, points + k, stride, out + k);
  }
}

// DistanceBounds' chains for kLanes points stored feature-major, p_l[i] =
// p[i * stride + l], one per array lane: the squared difference summed in
// feature order from 0.0, then the slack, in the order simd.h gives.
template <std::size_t kLanes>
void BoundLanes(const double* y, std::size_t n, double radius, const double* p,
                const double* radii, std::size_t stride, const SlackCoefficients& slack,
                double* lo, double* hi) {
  double a[kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double d = y[i] - p[i * stride + l];
      a[l] += d * d;
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    const double r = radius + radii[l];
    const double s = (slack.relative * a[l] + slack.cross * (r * r)) + slack.floor;
    lo[l] = a[l] - s;
    hi[l] = a[l] + s;
  }
}

// Four points at a time (the compiler pairs the lanes into 2-wide ops),
// then one at a time.
void DistanceBoundsScalar(const double* y, std::size_t n, double radius, const double* points,
                          const double* radii, std::size_t stride,
                          const SlackCoefficients& slack, double* lo, double* hi,
                          std::size_t count) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    BoundLanes<4>(y, n, radius, points + k, radii + k, stride, slack, lo + k, hi + k);
  }
  for (; k < count; ++k) {
    BoundLanes<1>(y, n, radius, points + k, radii + k, stride, slack, lo + k, hi + k);
  }
}

void EvaluateAllScalar(const double* soa, std::size_t stride, const double* biases,
                       const double* f, std::size_t dim, double* scores,
                       std::size_t classes) {
  for (std::size_t c = 0; c < classes; ++c) {
    scores[c] = 0.0;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    const double alpha = f[i];
    const double* row = soa + i * stride;
    for (std::size_t c = 0; c < classes; ++c) {
      scores[c] += alpha * row[c];
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    scores[c] += biases[c];
  }
}

std::size_t ArgMaxScalar(const double* v, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] > v[best]) {
      best = i;
    }
  }
  return best;
}

// One class's score, exactly as EvaluateAllScalar computes it: the feature
// sum in index order, bias added last.
double ScoreAtScalar(const double* soa, std::size_t stride, const double* biases,
                     const double* f, std::size_t dim, std::size_t c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += f[i] * soa[i * stride + c];
  }
  return acc + biases[c];
}

// The fused fire-check reference: evaluate every class's score (same chains
// as EvaluateAll) and report whether the running strict-> argmax — first
// index wins ties, NaN never displaces the winner — lands in [0, split).
// No score buffer: this is the per-point AUC decision, where only the
// winner's SIDE of the split matters, never its index or value.
bool EvaluateArgMaxInPrefixScalar(const double* soa, std::size_t stride, const double* biases,
                                  const double* f, std::size_t dim, std::size_t split,
                                  std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  double best = ScoreAtScalar(soa, stride, biases, f, dim, 0);
  std::size_t winner = 0;
  for (std::size_t c = 1; c < classes; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (s > best) {
      best = s;
      winner = c;
    }
  }
  return winner < split;
}

using InPrefixKernel = bool (*)(const double* soa, std::size_t stride, const double* biases,
                                const double* f, std::size_t dim, std::size_t split,
                                std::size_t classes);

// The per-row batched fire check: gathers each row through the column list
// (a row read through kIdentityColumns is read in place) and runs a tier's
// per-row fused kernel on it, stopping at the first row that fires. The
// scalar and 2-wide tiers use nothing else (and no filter); the AVX2 tier
// uses it for a short quad tail.
template <InPrefixKernel kInPrefix>
std::size_t FirstInPrefixPerRow(const double* soa, std::size_t stride, const double* biases,
                                const double* rows, std::size_t batch, std::size_t row_stride,
                                const std::size_t* columns, std::size_t dim, std::size_t split,
                                std::size_t classes, const FireFilter* /*filter*/ = nullptr) {
  double gathered[kMaxColumns];
  for (std::size_t r = 0; r < batch; ++r) {
    const double* f = rows + r * row_stride;
    if (columns != kIdentityColumns.data()) {
      for (std::size_t i = 0; i < dim; ++i) {
        gathered[i] = f[columns[i]];
      }
      f = gathered;
    }
    if (kInPrefix(soa, stride, biases, f, dim, split, classes)) {
      return r;
    }
  }
  return batch;
}

constexpr KernelTable kScalarTable{Tier::kScalar, DistanceBoundsScalar, EvaluateAllScalar,
                                   ArgMaxScalar, FirstInPrefixPerRow<EvaluateArgMaxInPrefixScalar>};

#if defined(GRANDMA_SIMD_X86)

// --- SSE2 tier (x86-64 baseline) ---------------------------------------

void EvaluateAllSse2(const double* soa, std::size_t stride, const double* biases,
                     const double* f, std::size_t dim, double* scores, std::size_t classes) {
  std::size_t c = 0;
  // 8-class blocks: four independent accumulators hide the add latency.
  for (; c + 8 <= classes; c += 8) {
    __m128d a0 = _mm_setzero_pd();
    __m128d a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd();
    __m128d a3 = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m128d ff = _mm_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm_add_pd(a0, _mm_mul_pd(ff, _mm_loadu_pd(row)));
      a1 = _mm_add_pd(a1, _mm_mul_pd(ff, _mm_loadu_pd(row + 2)));
      a2 = _mm_add_pd(a2, _mm_mul_pd(ff, _mm_loadu_pd(row + 4)));
      a3 = _mm_add_pd(a3, _mm_mul_pd(ff, _mm_loadu_pd(row + 6)));
    }
    _mm_storeu_pd(scores + c, _mm_add_pd(a0, _mm_loadu_pd(biases + c)));
    _mm_storeu_pd(scores + c + 2, _mm_add_pd(a1, _mm_loadu_pd(biases + c + 2)));
    _mm_storeu_pd(scores + c + 4, _mm_add_pd(a2, _mm_loadu_pd(biases + c + 4)));
    _mm_storeu_pd(scores + c + 6, _mm_add_pd(a3, _mm_loadu_pd(biases + c + 6)));
  }
  for (; c + 2 <= classes; c += 2) {
    __m128d acc = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(f[i]), _mm_loadu_pd(col + i * stride)));
    }
    _mm_storeu_pd(scores + c, _mm_add_pd(acc, _mm_loadu_pd(biases + c)));
  }
  for (; c < classes; ++c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      acc += f[i] * soa[i * stride + c];
    }
    scores[c] = acc + biases[c];
  }
}

std::size_t ArgMaxSse2(const double* v, std::size_t n) {
  if (n < 4) {
    return ArgMaxScalar(v, n);
  }
  // Pass 1: the maximum value, plus a NaN sweep. maxpd's NaN behaviour is
  // operand-order dependent, so any NaN anywhere means the vector max is
  // untrustworthy — defer to the scalar scan, whose strict-> semantics
  // (NaN never displaces the winner) are the contract. Four independent
  // accumulators: a single max chain is latency-bound (this pass IS the
  // kernel's cost at large n).
  __m128d m0 = _mm_loadu_pd(v);
  __m128d m1 = m0;
  __m128d m2 = m0;
  __m128d m3 = m0;
  __m128d unord = _mm_cmpunord_pd(m0, m0);
  std::size_t i = 2;
  for (; i + 8 <= n; i += 8) {
    const __m128d x0 = _mm_loadu_pd(v + i);
    const __m128d x1 = _mm_loadu_pd(v + i + 2);
    const __m128d x2 = _mm_loadu_pd(v + i + 4);
    const __m128d x3 = _mm_loadu_pd(v + i + 6);
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x0, x0));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x1, x1));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x2, x2));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x3, x3));
    m0 = _mm_max_pd(m0, x0);
    m1 = _mm_max_pd(m1, x1);
    m2 = _mm_max_pd(m2, x2);
    m3 = _mm_max_pd(m3, x3);
  }
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_loadu_pd(v + i);
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(x, x));
    m0 = _mm_max_pd(m0, x);
  }
  if (_mm_movemask_pd(unord) != 0) {
    return ArgMaxScalar(v, n);
  }
  const __m128d vmax = _mm_max_pd(_mm_max_pd(m0, m1), _mm_max_pd(m2, m3));
  double lanes[2];
  _mm_storeu_pd(lanes, vmax);
  double m = lanes[0] >= lanes[1] ? lanes[0] : lanes[1];
  for (; i < n; ++i) {
    if (!(v[i] == v[i])) {
      return ArgMaxScalar(v, n);
    }
    if (v[i] > m) {
      m = v[i];
    }
  }
  // Pass 2: first index holding the max. With no NaNs this is exactly the
  // index the running strict-> scan keeps (ties never displace), and ±0.0
  // compare equal under cmpeq just as neither displaces the other under >.
  const __m128d vm = _mm_set1_pd(m);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const int mask = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(v + j), vm));
    if (mask != 0) {
      return j + ((mask & 1) != 0 ? 0 : 1);
    }
  }
  for (; j < n; ++j) {
    if (v[j] == m) {
      return j;
    }
  }
  return 0;  // Unreachable: m was read from v.
}

// Max score over classes [begin, end): the same per-class chains as
// EvaluateAllSse2, max-merged in registers instead of stored. Max is
// associative and commutative on VALUES (only the sign of a +/-0 tie and
// NaN ordering depend on merge order), so the merged maximum equals the
// scalar running maximum for any NaN-free range; *nan_seen reports NaNs so
// the caller can fall back to the exact scalar scan.
double MaxScoresRangeSse2(const double* soa, std::size_t stride, const double* biases,
                          const double* f, std::size_t dim, std::size_t begin, std::size_t end,
                          bool* nan_seen) {
  const __m128d ninf = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  __m128d best0 = ninf;
  __m128d best1 = ninf;
  __m128d best2 = ninf;
  __m128d best3 = ninf;
  __m128d unord = _mm_setzero_pd();
  std::size_t c = begin;
  for (; c + 8 <= end; c += 8) {
    __m128d a0 = _mm_setzero_pd();
    __m128d a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd();
    __m128d a3 = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m128d ff = _mm_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm_add_pd(a0, _mm_mul_pd(ff, _mm_loadu_pd(row)));
      a1 = _mm_add_pd(a1, _mm_mul_pd(ff, _mm_loadu_pd(row + 2)));
      a2 = _mm_add_pd(a2, _mm_mul_pd(ff, _mm_loadu_pd(row + 4)));
      a3 = _mm_add_pd(a3, _mm_mul_pd(ff, _mm_loadu_pd(row + 6)));
    }
    a0 = _mm_add_pd(a0, _mm_loadu_pd(biases + c));
    a1 = _mm_add_pd(a1, _mm_loadu_pd(biases + c + 2));
    a2 = _mm_add_pd(a2, _mm_loadu_pd(biases + c + 4));
    a3 = _mm_add_pd(a3, _mm_loadu_pd(biases + c + 6));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a0, a0));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a1, a1));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a2, a2));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(a3, a3));
    best0 = _mm_max_pd(best0, a0);
    best1 = _mm_max_pd(best1, a1);
    best2 = _mm_max_pd(best2, a2);
    best3 = _mm_max_pd(best3, a3);
  }
  for (; c + 2 <= end; c += 2) {
    __m128d acc = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(f[i]), _mm_loadu_pd(col + i * stride)));
    }
    acc = _mm_add_pd(acc, _mm_loadu_pd(biases + c));
    unord = _mm_or_pd(unord, _mm_cmpunord_pd(acc, acc));
    best0 = _mm_max_pd(best0, acc);
  }
  if (_mm_movemask_pd(unord) != 0) {
    *nan_seen = true;
    return 0.0;
  }
  const __m128d merged = _mm_max_pd(_mm_max_pd(best0, best1), _mm_max_pd(best2, best3));
  double lanes[2];
  _mm_storeu_pd(lanes, merged);
  double m = lanes[0] >= lanes[1] ? lanes[0] : lanes[1];
  for (; c < end; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (!(s == s)) {
      *nan_seen = true;
      return 0.0;
    }
    if (s > m) {
      m = s;
    }
  }
  return m;
}

bool EvaluateArgMaxInPrefixSse2(const double* soa, std::size_t stride, const double* biases,
                                const double* f, std::size_t dim, std::size_t split,
                                std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  // The winner's index is never needed — only which side of the split it
  // falls on. Prefix classes come first, so the first-max winner is in the
  // prefix exactly when the suffix max does not strictly beat the prefix
  // max. NaN anywhere defers to the scalar scan, whose sticky-NaN argmax
  // semantics are the contract.
  bool nan_seen = false;
  const double prefix_max =
      MaxScoresRangeSse2(soa, stride, biases, f, dim, 0, split, &nan_seen);
  if (!nan_seen) {
    const double suffix_max =
        MaxScoresRangeSse2(soa, stride, biases, f, dim, split, classes, &nan_seen);
    if (!nan_seen) {
      return !(suffix_max > prefix_max);
    }
  }
  return EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes);
}

constexpr KernelTable kSse2Table{Tier::kSse2, DistanceBoundsScalar, EvaluateAllSse2, ArgMaxSse2,
                                 FirstInPrefixPerRow<EvaluateArgMaxInPrefixSse2>};

// --- AVX2 tier (runtime-detected) --------------------------------------

// BoundLanes' chains for 4 * kVecs points, four to a vector, one sum per
// vector. Mul and add stay separate (no FMA), so every lane computes the
// scalar chain's exact bits.
template <int kVecs>
__attribute__((target("avx2"), always_inline)) inline void BoundVectorsAvx2(
    const double* y, std::size_t n, double radius, const double* p, const double* radii,
    std::size_t stride, const SlackCoefficients& slack, double* lo, double* hi) {
  __m256d a[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    a[v] = _mm256_setzero_pd();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d yi = _mm256_set1_pd(y[i]);
    for (int v = 0; v < kVecs; ++v) {
      const __m256d d = _mm256_sub_pd(yi, _mm256_loadu_pd(p + i * stride + 4 * v));
      a[v] = _mm256_add_pd(a[v], _mm256_mul_pd(d, d));
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    const __m256d r = _mm256_add_pd(_mm256_set1_pd(radius), _mm256_loadu_pd(radii + 4 * v));
    const __m256d s = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(slack.relative), a[v]),
                      _mm256_mul_pd(_mm256_set1_pd(slack.cross), _mm256_mul_pd(r, r))),
        _mm256_set1_pd(slack.floor));
    _mm256_storeu_pd(lo + 4 * v, _mm256_sub_pd(a[v], s));
    _mm256_storeu_pd(hi + 4 * v, _mm256_add_pd(a[v], s));
  }
}

// Sixteen points per block (four independent sums), then four, then the
// scalar body for the rest.
__attribute__((target("avx2"))) void DistanceBoundsAvx2(
    const double* y, std::size_t n, double radius, const double* points, const double* radii,
    std::size_t stride, const SlackCoefficients& slack, double* lo, double* hi,
    std::size_t count) {
  std::size_t k = 0;
  for (; k + 16 <= count; k += 16) {
    BoundVectorsAvx2<4>(y, n, radius, points + k, radii + k, stride, slack, lo + k, hi + k);
  }
  for (; k + 4 <= count; k += 4) {
    BoundVectorsAvx2<1>(y, n, radius, points + k, radii + k, stride, slack, lo + k, hi + k);
  }
  DistanceBoundsScalar(y, n, radius, points + k, radii + k, stride, slack, lo + k, hi + k,
                       count - k);
}

__attribute__((target("avx2"))) void EvaluateAllAvx2(const double* soa, std::size_t stride,
                                                     const double* biases, const double* f,
                                                     std::size_t dim, double* scores,
                                                     std::size_t classes) {
  std::size_t c = 0;
  // 16-class blocks: four independent 4-wide accumulators.
  for (; c + 16 <= classes; c += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d ff = _mm256_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ff, _mm256_loadu_pd(row)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 12)));
    }
    _mm256_storeu_pd(scores + c, _mm256_add_pd(a0, _mm256_loadu_pd(biases + c)));
    _mm256_storeu_pd(scores + c + 4, _mm256_add_pd(a1, _mm256_loadu_pd(biases + c + 4)));
    _mm256_storeu_pd(scores + c + 8, _mm256_add_pd(a2, _mm256_loadu_pd(biases + c + 8)));
    _mm256_storeu_pd(scores + c + 12, _mm256_add_pd(a3, _mm256_loadu_pd(biases + c + 12)));
  }
  for (; c + 4 <= classes; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(_mm256_set1_pd(f[i]), _mm256_loadu_pd(col + i * stride)));
    }
    _mm256_storeu_pd(scores + c, _mm256_add_pd(acc, _mm256_loadu_pd(biases + c)));
  }
  for (; c < classes; ++c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      acc += f[i] * soa[i * stride + c];
    }
    scores[c] = acc + biases[c];
  }
}

__attribute__((target("avx2"))) std::size_t ArgMaxAvx2(const double* v, std::size_t n) {
  if (n < 8) {
    return ArgMaxSse2(v, n);
  }
  // Same two-pass shape as the SSE2 kernel, 4 lanes wide, with the same
  // four-accumulator unroll to break the max latency chain.
  __m256d m0 = _mm256_loadu_pd(v);
  __m256d m1 = m0;
  __m256d m2 = m0;
  __m256d m3 = m0;
  __m256d unord = _mm256_cmp_pd(m0, m0, _CMP_UNORD_Q);
  std::size_t i = 4;
  for (; i + 16 <= n; i += 16) {
    const __m256d x0 = _mm256_loadu_pd(v + i);
    const __m256d x1 = _mm256_loadu_pd(v + i + 4);
    const __m256d x2 = _mm256_loadu_pd(v + i + 8);
    const __m256d x3 = _mm256_loadu_pd(v + i + 12);
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x0, x0, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x1, x1, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x2, x2, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x3, x3, _CMP_UNORD_Q));
    m0 = _mm256_max_pd(m0, x0);
    m1 = _mm256_max_pd(m1, x1);
    m2 = _mm256_max_pd(m2, x2);
    m3 = _mm256_max_pd(m3, x3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
    m0 = _mm256_max_pd(m0, x);
  }
  if (_mm256_movemask_pd(unord) != 0) {
    return ArgMaxScalar(v, n);
  }
  const __m256d vmax = _mm256_max_pd(_mm256_max_pd(m0, m1), _mm256_max_pd(m2, m3));
  double lanes[4];
  _mm256_storeu_pd(lanes, vmax);
  double m = lanes[0];
  for (int lane = 1; lane < 4; ++lane) {
    if (lanes[lane] > m) {
      m = lanes[lane];
    }
  }
  for (; i < n; ++i) {
    if (!(v[i] == v[i])) {
      return ArgMaxScalar(v, n);
    }
    if (v[i] > m) {
      m = v[i];
    }
  }
  const __m256d vm = _mm256_set1_pd(m);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(v + j), vm, _CMP_EQ_OQ));
    if (mask != 0) {
      return j + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; j < n; ++j) {
    if (v[j] == m) {
      return j;
    }
  }
  return 0;  // Unreachable: m was read from v.
}

// Max score over classes [begin, end): EvaluateAllAvx2's 16-class block
// shape, max-merged in registers instead of stored (see the SSE2 variant
// for why the merged max equals the scalar running max on NaN-free input).
__attribute__((target("avx2"))) double MaxScoresRangeAvx2(const double* soa, std::size_t stride,
                                                          const double* biases, const double* f,
                                                          std::size_t dim, std::size_t begin,
                                                          std::size_t end, bool* nan_seen) {
  const __m256d ninf = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d best0 = ninf;
  __m256d best1 = ninf;
  __m256d best2 = ninf;
  __m256d best3 = ninf;
  __m256d unord = _mm256_setzero_pd();
  std::size_t c = begin;
  for (; c + 16 <= end; c += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d ff = _mm256_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ff, _mm256_loadu_pd(row)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 12)));
    }
    a0 = _mm256_add_pd(a0, _mm256_loadu_pd(biases + c));
    a1 = _mm256_add_pd(a1, _mm256_loadu_pd(biases + c + 4));
    a2 = _mm256_add_pd(a2, _mm256_loadu_pd(biases + c + 8));
    a3 = _mm256_add_pd(a3, _mm256_loadu_pd(biases + c + 12));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a0, a0, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a1, a1, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a2, a2, _CMP_UNORD_Q));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(a3, a3, _CMP_UNORD_Q));
    best0 = _mm256_max_pd(best0, a0);
    best1 = _mm256_max_pd(best1, a1);
    best2 = _mm256_max_pd(best2, a2);
    best3 = _mm256_max_pd(best3, a3);
  }
  for (; c + 4 <= end; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(_mm256_set1_pd(f[i]), _mm256_loadu_pd(col + i * stride)));
    }
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(biases + c));
    unord = _mm256_or_pd(unord, _mm256_cmp_pd(acc, acc, _CMP_UNORD_Q));
    best0 = _mm256_max_pd(best0, acc);
  }
  if (_mm256_movemask_pd(unord) != 0) {
    *nan_seen = true;
    return 0.0;
  }
  const __m256d merged = _mm256_max_pd(_mm256_max_pd(best0, best1), _mm256_max_pd(best2, best3));
  double lanes[4];
  _mm256_storeu_pd(lanes, merged);
  double m = lanes[0];
  for (int lane = 1; lane < 4; ++lane) {
    if (lanes[lane] > m) {
      m = lanes[lane];
    }
  }
  for (; c < end; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (!(s == s)) {
      *nan_seen = true;
      return 0.0;
    }
    if (s > m) {
      m = s;
    }
  }
  return m;
}

// The batched fire check only needs the first-max winner's side of the
// split. Scanning classes in order, the winner leaves the prefix exactly when
// some suffix score is > the prefix maximum (a NaN score compares false and
// never displaces the winner). So once the prefix is NaN-free and its
// maximum known, the suffix can stop at the first score above it: a row
// that does not fire, the common case before a gesture becomes unambiguous,
// usually costs the prefix plus part of the suffix. A NaN in the prefix
// defers to the scalar scan.

// Per-row sweep with that early exit: the per-row kernel's prefix maximum,
// then the suffix in the same 16-, 4- and 1-class blocks, stopping at the
// first block holding a score above it.
__attribute__((target("avx2"))) bool InPrefixEarlyExitAvx2(const double* soa, std::size_t stride,
                                                           const double* biases, const double* f,
                                                           std::size_t dim, std::size_t split,
                                                           std::size_t classes) {
  bool nan_seen = false;
  const double prefix_max = MaxScoresRangeAvx2(soa, stride, biases, f, dim, 0, split, &nan_seen);
  if (nan_seen) {
    return EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes);
  }
  const __m256d pmax = _mm256_set1_pd(prefix_max);
  std::size_t c = split;
  for (; c + 16 <= classes; c += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d ff = _mm256_set1_pd(f[i]);
      const double* row = col + i * stride;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ff, _mm256_loadu_pd(row)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(ff, _mm256_loadu_pd(row + 12)));
    }
    a0 = _mm256_add_pd(a0, _mm256_loadu_pd(biases + c));
    a1 = _mm256_add_pd(a1, _mm256_loadu_pd(biases + c + 4));
    a2 = _mm256_add_pd(a2, _mm256_loadu_pd(biases + c + 8));
    a3 = _mm256_add_pd(a3, _mm256_loadu_pd(biases + c + 12));
    const __m256d above =
        _mm256_or_pd(_mm256_or_pd(_mm256_cmp_pd(a0, pmax, _CMP_GT_OQ),
                                  _mm256_cmp_pd(a1, pmax, _CMP_GT_OQ)),
                     _mm256_or_pd(_mm256_cmp_pd(a2, pmax, _CMP_GT_OQ),
                                  _mm256_cmp_pd(a3, pmax, _CMP_GT_OQ)));
    if (_mm256_movemask_pd(above) != 0) {
      return false;
    }
  }
  for (; c + 4 <= classes; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(_mm256_set1_pd(f[i]), _mm256_loadu_pd(col + i * stride)));
    }
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(biases + c));
    if (_mm256_movemask_pd(_mm256_cmp_pd(acc, pmax, _CMP_GT_OQ)) != 0) {
      return false;
    }
  }
  for (; c < classes; ++c) {
    if (ScoreAtScalar(soa, stride, biases, f, dim, c) > prefix_max) {
      return false;
    }
  }
  return true;
}

// Scores of classes c0..c0+3 for four rows at once, one row per lane: `ft`
// holds the rows transposed (ft[4 * i + k] is feature i of lane k). Each
// (lane, class) chain is EvaluateAll's chain exactly: zero, += f[i] * w[i][c]
// in feature order, + bias; mul is commutative, and -ffp-contract=off keeps
// mul and add apart. Classes past `last` repeat class `last`, which cannot
// change a maximum or an "any score above" test.
__attribute__((target("avx2"), always_inline)) inline void ScoreGroupLanesAvx2(
    const double* soa, std::size_t stride, const double* biases, const double* ft,
    std::size_t dim, std::size_t c0, std::size_t last, __m256d& a0, __m256d& a1, __m256d& a2,
    __m256d& a3) {
  const std::size_t c1 = c0 + 1 < last ? c0 + 1 : last;
  const std::size_t c2 = c0 + 2 < last ? c0 + 2 : last;
  const std::size_t c3 = c0 + 3 < last ? c0 + 3 : last;
  a0 = _mm256_setzero_pd();
  a1 = _mm256_setzero_pd();
  a2 = _mm256_setzero_pd();
  a3 = _mm256_setzero_pd();
  for (std::size_t i = 0; i < dim; ++i) {
    const __m256d x = _mm256_load_pd(ft + 4 * i);
    const double* w = soa + i * stride;
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(x, _mm256_set1_pd(w[c0])));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(x, _mm256_set1_pd(w[c1])));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(x, _mm256_set1_pd(w[c2])));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(x, _mm256_set1_pd(w[c3])));
  }
  a0 = _mm256_add_pd(a0, _mm256_set1_pd(biases[c0]));
  a1 = _mm256_add_pd(a1, _mm256_set1_pd(biases[c1]));
  a2 = _mm256_add_pd(a2, _mm256_set1_pd(biases[c2]));
  a3 = _mm256_add_pd(a3, _mm256_set1_pd(biases[c3]));
}

// When the AVX2 tier scores rows in lanes. Measured pinned to one core of
// a 4-vCPU x86 VM (gcc 12, RelWithDebInfo), minimum of 3-4 runs over the
// pre-fire snapshot rows of held-out strokes, rows in lanes vs the per-row
// sweep, both with the early exit:
//
// Set count, 16-row chunks. 19 sets (GDP): 26 vs 61 ns per row, AddSpan 92
// vs 119 ns per point. 85 sets: 82 vs 95 ns per row. 132 sets: 119 vs 122
// ns per row but AddSpan 185 vs 180. 279 sets (200-class lexicon): 178 vs
// 175 ns per row, AddSpan 265 vs 236. Past about 128 sets a quad's weight
// reuse no longer pays for scoring four rows when the first may fire.
constexpr std::size_t kRowsInLanesMaxSets = 128;
// Rows left in the chunk, 19 sets. One row as a quad wastes three lanes:
// 103 vs 76 ns per row with 1-point spans, so a single row takes the
// per-row sweep. Two rows as a quad beat two sweeps: 53 vs 71 ns per row
// with 2-point spans.
constexpr std::size_t kRowsInLanesMinRows = 2;

// --- Floating-point filter -----------------------------------------------
//
// Large blocks (more sets than rows in lanes takes) screen each row with the
// FireFilter mirror before the exact early-exit sweep. The filter can only
// answer "this row does not fire"; every other row takes the sweep, so the
// answer is bit-identical to it by construction. The argument (Shewchuk's
// floating-point filter for exact predicates, applied to the fire check):
//
// Let t_c = sum_i f_i w_ci + b_c over the double inputs in exact arithmetic,
// s_c the double score the exact kernels compute, and s~_c the float score
// computed here from f~_i = fl32(f_i), w~_ci = fl32(w_ci), b~_c = fl32(b_c).
// With u = 2^-24, a float conversion or product is off by at most u|x| plus
// 2^-150 (half the subnormal spacing), and float additions of the d products
// and the bias, in any order, add at most gamma_d (Higham, recursive
// summation). With a_c = sum_i |f_i||w_ci| + |b_c| <= E = sum_i M_i |f_i| + B,
//   |s~_c - t_c| <= ((1 + u)^(d+3) - 1) a_c + (underflow terms),
//   |s_c - t_c|  <= gamma_(d+1) a_c at unit roundoff 2^-53 (the double chain).
// So |s~_c - s_c| <= (d + 3) u E + r, where r collects the second-order terms
// of (1 + u)^(d+3) (below 2^-37 E at d <= kMaxColumns), the double chain
// (below 2^-47 E) and the underflow terms. eta bounds the underflow terms
// twice over: a feature that underflows in float moves a score by 2^-150 M_i,
// a weight that does by 2^-150 |f_i| <= 2^-86 under the guard, a product or
// bias by 2^-150, a double product by 2^-1075 (sums of subnormals are exact),
// and eta = 2^-148 sum_i M_i + 2^-78.
//
// The test: with p~ the float prefix maximum, a row is ruled out when some
// suffix s~_c exceeds tau = fl32(p~ + 2(kappa E + eta)), kappa = (d + 4) u.
// Every prefix score has s_c' <= p~ + (d + 3) u E + r, and s~_c > tau gives
// s_c >= s~_c - (d + 3) u E - r. Rounding tau to the nearest float loses at
// most 1.01 u E + 2^-150, as |p~| <= (1 + 2^-19) E + eta; the double
// roundings of E and of the sum lose below 2^-50 E. The spare unit of
// kappa, doubled, is 2 u E: it covers the rounding of tau and twice the
// second-order and double-chain terms, and 2 eta covers twice the underflow
// terms and tau's 2^-150. So s_c > every s_c': the first-max winner leaves
// the prefix and the row does not fire.
//
// Guards: the filter runs only when every |f_i| and E are below 2^64. Then
// the float features, products and sums are finite (the mirror exists only
// when every weight and bias is within float range), every double score is
// finite as well, and so no score is NaN on either side.
constexpr double kFilterGuard = 0x1p64;

// Float scores of kBlocks consecutive 8-lane blocks of the mirror, from
// lane k, for the float row `ft`: each chain sums the features in order,
// then the bias (the bound holds for any summation order), and each
// broadcast feature feeds every block.
template <int kBlocks>
__attribute__((target("avx2"), always_inline)) inline void FilterScoresAvx2(
    const FireFilter& m, const float* ft, std::size_t dim, std::size_t k,
    __m256 (&s)[kBlocks]) {
  const float* w = m.weights.data() + k;
  const std::size_t lanes = m.lanes;
#pragma GCC unroll 4
  for (int g = 0; g < kBlocks; ++g) {
    s[g] = _mm256_setzero_ps();
  }
  for (std::size_t i = 0; i < dim; ++i) {
    const __m256 x = _mm256_broadcast_ss(ft + i);
#pragma GCC unroll 4
    for (int g = 0; g < kBlocks; ++g) {
      s[g] = _mm256_add_ps(s[g], _mm256_mul_ps(x, _mm256_load_ps(w + i * lanes + 8 * g)));
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < kBlocks; ++g) {
    s[g] = _mm256_add_ps(s[g], _mm256_load_ps(m.biases.data() + k + 8 * g));
  }
}

// True when the mirror proves the gathered row `f` (zero past dim, up to a
// multiple of 4) does not fire. `hint` is the suffix block that settled the
// previous row of this call; the suffix scan starts there, and a settling
// block becomes the next hint.
__attribute__((target("avx2"))) bool FilterRulesOutAvx2(const FireFilter& m, const double* f,
                                                        std::size_t dim, std::size_t& hint) {
  alignas(32) float ft[kMaxColumns];
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d guard = _mm256_set1_pd(kFilterGuard);
  __m256d sum = _mm256_setzero_pd();
  int in_range = 0xF;
  for (std::size_t i = 0; i < dim; i += 4) {
    const __m256d x = _mm256_load_pd(f + i);
    const __m256d ax = _mm256_andnot_pd(sign, x);
    in_range &= _mm256_movemask_pd(_mm256_cmp_pd(ax, guard, _CMP_LT_OQ));
    sum = _mm256_add_pd(sum, _mm256_mul_pd(ax, _mm256_loadu_pd(m.feature_bound.data() + i)));
    _mm_store_ps(ft + i, _mm256_cvtpd_ps(x));
  }
  alignas(32) double parts[4];
  _mm256_store_pd(parts, sum);
  const double bound = ((parts[0] + parts[1]) + (parts[2] + parts[3])) + m.bias_bound;
  if (in_range != 0xF || !(bound < kFilterGuard)) {
    return false;
  }
  __m256 best = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  std::size_t k = 0;
  for (; k + 32 <= m.prefix_lanes; k += 32) {
    __m256 s[4];
    FilterScoresAvx2(m, ft, dim, k, s);
    best = _mm256_max_ps(best, _mm256_max_ps(_mm256_max_ps(s[0], s[1]), _mm256_max_ps(s[2], s[3])));
  }
  for (; k < m.prefix_lanes; k += 8) {
    __m256 s[1];
    FilterScoresAvx2(m, ft, dim, k, s);
    best = _mm256_max_ps(best, s[0]);
  }
  __m128 half = _mm_max_ps(_mm256_castps256_ps128(best), _mm256_extractf128_ps(best, 1));
  half = _mm_max_ps(half, _mm_movehl_ps(half, half));
  half = _mm_max_ss(half, _mm_shuffle_ps(half, half, 1));
  // Rounded to the nearest float: kappa's spare unit covers that rounding.
  const __m256 threshold = _mm256_set1_ps(
      static_cast<float>(static_cast<double>(_mm_cvtss_f32(half)) +
                         2.0 * (m.relative_bound * bound + m.underflow_bound)));
  const std::size_t blocks = (m.lanes - m.prefix_lanes) / 8;
  for (std::size_t n = 0, b = hint; n < blocks; ++n, b = b + 1 == blocks ? 0 : b + 1) {
    __m256 s[1];
    FilterScoresAvx2(m, ft, dim, m.prefix_lanes + 8 * b, s);
    if (_mm256_movemask_ps(_mm256_cmp_ps(s[0], threshold, _CMP_GT_OQ)) != 0) {
      hint = b;
      return true;
    }
  }
  return false;
}

// The per-row path for blocks above the rows-in-lanes limit: the filter
// first when `filter` matches the block, then the exact early-exit sweep.
__attribute__((target("avx2"))) std::size_t FirstInPrefixLargeAvx2(
    const double* soa, std::size_t stride, const double* biases, const double* rows,
    std::size_t batch, std::size_t row_stride, const std::size_t* columns, std::size_t dim,
    std::size_t split, std::size_t classes, const FireFilter* filter) {
  const bool filtered = filter != nullptr && filter->Matches(dim, split, classes);
  alignas(32) double f[kMaxColumns] = {};
  std::size_t hint = 0;
  for (std::size_t r = 0; r < batch; ++r) {
    const double* row = rows + r * row_stride;
    for (std::size_t i = 0; i < dim; ++i) {
      f[i] = row[columns[i]];
    }
    if (filtered && FilterRulesOutAvx2(*filter, f, dim, hint)) {
      continue;
    }
    if (InPrefixEarlyExitAvx2(soa, stride, biases, f, dim, split, classes)) {
      return r;
    }
  }
  return batch;
}

// Rows in lanes: lane k of every vector is row r + k, so one pass over the
// weight block scores four rows, and the prefix maximum and the "suffix
// beat it" flags stay per lane (no padded class lanes, no blends, no
// horizontal reductions). The suffix stops once every live lane is beaten.
// A lane with a NaN in its prefix redoes that row alone with the scalar
// scan. Lanes are checked in row order, so the first firing row wins.
// Larger blocks take FirstInPrefixLargeAvx2.
__attribute__((target("avx2"))) std::size_t FirstArgMaxInPrefixAvx2(
    const double* soa, std::size_t stride, const double* biases, const double* rows,
    std::size_t batch, std::size_t row_stride, const std::size_t* columns, std::size_t dim,
    std::size_t split, std::size_t classes, const FireFilter* filter) {
  if (classes > kRowsInLanesMaxSets) {
    return FirstInPrefixLargeAvx2(soa, stride, biases, rows, batch, row_stride, columns, dim,
                                  split, classes, filter);
  }
  std::size_t r = 0;
  alignas(32) double ft[4 * kMaxColumns];
  for (; r + kRowsInLanesMinRows <= batch; r += 4) {
    const std::size_t lanes = batch - r < 4 ? batch - r : 4;
    // A short quad repeats its last row in the spare lanes, so every lane
    // holds real features; those lanes are ignored below.
    const double* r0 = rows + r * row_stride;
    const double* r1 = lanes > 1 ? r0 + row_stride : r0;
    const double* r2 = lanes > 2 ? r1 + row_stride : r1;
    const double* r3 = lanes > 3 ? r2 + row_stride : r2;
    for (std::size_t i = 0; i < dim; ++i) {
      const std::size_t col = columns[i];
      _mm256_store_pd(ft + 4 * i, _mm256_set_pd(r3[col], r2[col], r1[col], r0[col]));
    }
    __m256d a0;
    __m256d a1;
    __m256d a2;
    __m256d a3;
    __m256d prefix_max = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
    __m256d unord = _mm256_setzero_pd();
    for (std::size_t c0 = 0; c0 < split; c0 += 4) {
      ScoreGroupLanesAvx2(soa, stride, biases, ft, dim, c0, split - 1, a0, a1, a2, a3);
      // unord(x, y) is true when either is NaN.
      unord = _mm256_or_pd(unord, _mm256_or_pd(_mm256_cmp_pd(a0, a1, _CMP_UNORD_Q),
                                               _mm256_cmp_pd(a2, a3, _CMP_UNORD_Q)));
      prefix_max = _mm256_max_pd(prefix_max,
                                 _mm256_max_pd(_mm256_max_pd(a0, a1), _mm256_max_pd(a2, a3)));
    }
    const int nans = _mm256_movemask_pd(unord);
    const int live = ((1 << lanes) - 1) & ~nans;
    int beaten = 0;
    for (std::size_t c0 = split; c0 < classes && (beaten & live) != live; c0 += 4) {
      ScoreGroupLanesAvx2(soa, stride, biases, ft, dim, c0, classes - 1, a0, a1, a2, a3);
      const __m256d above = _mm256_or_pd(
          _mm256_or_pd(_mm256_cmp_pd(a0, prefix_max, _CMP_GT_OQ),
                       _mm256_cmp_pd(a1, prefix_max, _CMP_GT_OQ)),
          _mm256_or_pd(_mm256_cmp_pd(a2, prefix_max, _CMP_GT_OQ),
                       _mm256_cmp_pd(a3, prefix_max, _CMP_GT_OQ)));
      beaten |= _mm256_movemask_pd(above);
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      if ((nans >> k & 1) != 0) {
        double f[kMaxColumns];
        for (std::size_t i = 0; i < dim; ++i) {
          f[i] = ft[4 * i + k];
        }
        if (EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes)) {
          return r + k;
        }
      } else if ((beaten >> k & 1) == 0) {
        return r + k;
      }
    }
  }
  if (r >= batch) {
    return batch;
  }
  return r + FirstInPrefixPerRow<InPrefixEarlyExitAvx2>(soa, stride, biases,
                                                        rows + r * row_stride, batch - r,
                                                        row_stride, columns, dim, split,
                                                        classes);
}

constexpr KernelTable kAvx2Table{Tier::kAvx2, DistanceBoundsAvx2, EvaluateAllAvx2, ArgMaxAvx2,
                                 FirstArgMaxInPrefixAvx2};

#elif defined(GRANDMA_SIMD_NEON)

// --- NEON tier (aarch64 baseline; fills the kSse2 rung) -----------------

void EvaluateAllNeon(const double* soa, std::size_t stride, const double* biases,
                     const double* f, std::size_t dim, double* scores, std::size_t classes) {
  std::size_t c = 0;
  for (; c + 8 <= classes; c += 8) {
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    float64x2_t a2 = vdupq_n_f64(0.0);
    float64x2_t a3 = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const float64x2_t ff = vdupq_n_f64(f[i]);
      const double* row = col + i * stride;
      a0 = vaddq_f64(a0, vmulq_f64(ff, vld1q_f64(row)));
      a1 = vaddq_f64(a1, vmulq_f64(ff, vld1q_f64(row + 2)));
      a2 = vaddq_f64(a2, vmulq_f64(ff, vld1q_f64(row + 4)));
      a3 = vaddq_f64(a3, vmulq_f64(ff, vld1q_f64(row + 6)));
    }
    vst1q_f64(scores + c, vaddq_f64(a0, vld1q_f64(biases + c)));
    vst1q_f64(scores + c + 2, vaddq_f64(a1, vld1q_f64(biases + c + 2)));
    vst1q_f64(scores + c + 4, vaddq_f64(a2, vld1q_f64(biases + c + 4)));
    vst1q_f64(scores + c + 6, vaddq_f64(a3, vld1q_f64(biases + c + 6)));
  }
  for (; c + 2 <= classes; c += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(f[i]), vld1q_f64(col + i * stride)));
    }
    vst1q_f64(scores + c, vaddq_f64(acc, vld1q_f64(biases + c)));
  }
  for (; c < classes; ++c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      acc += f[i] * soa[i * stride + c];
    }
    scores[c] = acc + biases[c];
  }
}

std::size_t ArgMaxNeon(const double* v, std::size_t n) {
  if (n < 4) {
    return ArgMaxScalar(v, n);
  }
  // vceqq(x, x) is all-ones per lane unless the lane is NaN; AND-accumulate
  // so any NaN clears a lane, then defer to the scalar scan (same contract
  // as the x86 kernels). Four max accumulators break the latency chain.
  float64x2_t m0 = vld1q_f64(v);
  float64x2_t m1 = m0;
  float64x2_t m2 = m0;
  float64x2_t m3 = m0;
  uint64x2_t ord = vceqq_f64(m0, m0);
  std::size_t i = 2;
  for (; i + 8 <= n; i += 8) {
    const float64x2_t x0 = vld1q_f64(v + i);
    const float64x2_t x1 = vld1q_f64(v + i + 2);
    const float64x2_t x2 = vld1q_f64(v + i + 4);
    const float64x2_t x3 = vld1q_f64(v + i + 6);
    ord = vandq_u64(ord, vceqq_f64(x0, x0));
    ord = vandq_u64(ord, vceqq_f64(x1, x1));
    ord = vandq_u64(ord, vceqq_f64(x2, x2));
    ord = vandq_u64(ord, vceqq_f64(x3, x3));
    m0 = vmaxq_f64(m0, x0);
    m1 = vmaxq_f64(m1, x1);
    m2 = vmaxq_f64(m2, x2);
    m3 = vmaxq_f64(m3, x3);
  }
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vld1q_f64(v + i);
    ord = vandq_u64(ord, vceqq_f64(x, x));
    m0 = vmaxq_f64(m0, x);
  }
  if (vgetq_lane_u64(ord, 0) == 0 || vgetq_lane_u64(ord, 1) == 0) {
    return ArgMaxScalar(v, n);
  }
  const float64x2_t vmax = vmaxq_f64(vmaxq_f64(m0, m1), vmaxq_f64(m2, m3));
  const double lane0 = vgetq_lane_f64(vmax, 0);
  const double lane1 = vgetq_lane_f64(vmax, 1);
  double m = lane0 >= lane1 ? lane0 : lane1;
  for (; i < n; ++i) {
    if (!(v[i] == v[i])) {
      return ArgMaxScalar(v, n);
    }
    if (v[i] > m) {
      m = v[i];
    }
  }
  const float64x2_t vm = vdupq_n_f64(m);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const uint64x2_t eq = vceqq_f64(vld1q_f64(v + j), vm);
    if (vgetq_lane_u64(eq, 0) != 0) {
      return j;
    }
    if (vgetq_lane_u64(eq, 1) != 0) {
      return j + 1;
    }
  }
  for (; j < n; ++j) {
    if (v[j] == m) {
      return j;
    }
  }
  return 0;  // Unreachable: m was read from v.
}

// Max score over classes [begin, end): EvaluateAllNeon's 8-class block
// shape, max-merged in registers instead of stored (see the SSE2 variant
// for why the merged max equals the scalar running max on NaN-free input).
double MaxScoresRangeNeon(const double* soa, std::size_t stride, const double* biases,
                          const double* f, std::size_t dim, std::size_t begin, std::size_t end,
                          bool* nan_seen) {
  const float64x2_t ninf = vdupq_n_f64(-std::numeric_limits<double>::infinity());
  float64x2_t best0 = ninf;
  float64x2_t best1 = ninf;
  float64x2_t best2 = ninf;
  float64x2_t best3 = ninf;
  uint64x2_t ord = vdupq_n_u64(~0ULL);
  std::size_t c = begin;
  for (; c + 8 <= end; c += 8) {
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    float64x2_t a2 = vdupq_n_f64(0.0);
    float64x2_t a3 = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const float64x2_t ff = vdupq_n_f64(f[i]);
      const double* row = col + i * stride;
      a0 = vaddq_f64(a0, vmulq_f64(ff, vld1q_f64(row)));
      a1 = vaddq_f64(a1, vmulq_f64(ff, vld1q_f64(row + 2)));
      a2 = vaddq_f64(a2, vmulq_f64(ff, vld1q_f64(row + 4)));
      a3 = vaddq_f64(a3, vmulq_f64(ff, vld1q_f64(row + 6)));
    }
    a0 = vaddq_f64(a0, vld1q_f64(biases + c));
    a1 = vaddq_f64(a1, vld1q_f64(biases + c + 2));
    a2 = vaddq_f64(a2, vld1q_f64(biases + c + 4));
    a3 = vaddq_f64(a3, vld1q_f64(biases + c + 6));
    ord = vandq_u64(ord, vceqq_f64(a0, a0));
    ord = vandq_u64(ord, vceqq_f64(a1, a1));
    ord = vandq_u64(ord, vceqq_f64(a2, a2));
    ord = vandq_u64(ord, vceqq_f64(a3, a3));
    best0 = vmaxq_f64(best0, a0);
    best1 = vmaxq_f64(best1, a1);
    best2 = vmaxq_f64(best2, a2);
    best3 = vmaxq_f64(best3, a3);
  }
  for (; c + 2 <= end; c += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(f[i]), vld1q_f64(col + i * stride)));
    }
    acc = vaddq_f64(acc, vld1q_f64(biases + c));
    ord = vandq_u64(ord, vceqq_f64(acc, acc));
    best0 = vmaxq_f64(best0, acc);
  }
  if (vgetq_lane_u64(ord, 0) == 0 || vgetq_lane_u64(ord, 1) == 0) {
    *nan_seen = true;
    return 0.0;
  }
  const float64x2_t merged = vmaxq_f64(vmaxq_f64(best0, best1), vmaxq_f64(best2, best3));
  const double lane0 = vgetq_lane_f64(merged, 0);
  const double lane1 = vgetq_lane_f64(merged, 1);
  double m = lane0 >= lane1 ? lane0 : lane1;
  for (; c < end; ++c) {
    const double s = ScoreAtScalar(soa, stride, biases, f, dim, c);
    if (!(s == s)) {
      *nan_seen = true;
      return 0.0;
    }
    if (s > m) {
      m = s;
    }
  }
  return m;
}

bool EvaluateArgMaxInPrefixNeon(const double* soa, std::size_t stride, const double* biases,
                                const double* f, std::size_t dim, std::size_t split,
                                std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  bool nan_seen = false;
  const double prefix_max =
      MaxScoresRangeNeon(soa, stride, biases, f, dim, 0, split, &nan_seen);
  if (!nan_seen) {
    const double suffix_max =
        MaxScoresRangeNeon(soa, stride, biases, f, dim, split, classes, &nan_seen);
    if (!nan_seen) {
      return !(suffix_max > prefix_max);
    }
  }
  return EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes);
}

constexpr KernelTable kSse2Table{Tier::kSse2, DistanceBoundsScalar, EvaluateAllNeon, ArgMaxNeon,
                                 FirstInPrefixPerRow<EvaluateArgMaxInPrefixNeon>};

#endif  // GRANDMA_SIMD_X86 / GRANDMA_SIMD_NEON

bool TierSupported(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kSse2:
#if defined(GRANDMA_SIMD_X86) || defined(GRANDMA_SIMD_NEON)
      return true;
#else
      return false;
#endif
    case Tier::kAvx2:
#if defined(GRANDMA_SIMD_X86)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* TableFor(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return &kScalarTable;
    case Tier::kSse2:
#if defined(GRANDMA_SIMD_X86) || defined(GRANDMA_SIMD_NEON)
      return &kSse2Table;
#else
      return &kScalarTable;
#endif
    case Tier::kAvx2:
#if defined(GRANDMA_SIMD_X86)
      return &kAvx2Table;
#else
      return &kScalarTable;
#endif
  }
  return &kScalarTable;
}

// The startup selection: GRANDMA_SIMD env override when it names a
// supported tier, otherwise the best supported tier.
Tier StartupTier() {
  if (const char* env = std::getenv("GRANDMA_SIMD")) {
    const std::string v(env);
    Tier requested = Tier::kScalar;
    bool recognized = true;
    if (v == "scalar" || v == "off") {
      requested = Tier::kScalar;
    } else if (v == "sse2" || v == "neon") {
      requested = Tier::kSse2;
    } else if (v == "avx2") {
      requested = Tier::kAvx2;
    } else {
      recognized = false;
    }
    if (recognized && TierSupported(requested)) {
      return requested;
    }
  }
  return BestSupportedTier();
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First call (or a racing pair of first calls — both compute the same
    // table, so the double store is benign).
    table = TableFor(StartupTier());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

}  // namespace

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
#if defined(GRANDMA_SIMD_NEON)
      return "neon";
#else
      return "sse2";
#endif
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier BestSupportedTier() {
  if (TierSupported(Tier::kAvx2)) {
    return Tier::kAvx2;
  }
  if (TierSupported(Tier::kSse2)) {
    return Tier::kSse2;
  }
  return Tier::kScalar;
}

Tier ActiveTier() { return Active().tier; }

bool ForceTier(Tier t) {
  if (!TierSupported(t)) {
    return false;
  }
  g_active.store(TableFor(t), std::memory_order_release);
  return true;
}

void ResetTier() { g_active.store(TableFor(StartupTier()), std::memory_order_release); }

double QuadraticForm(VecView x, const double* m, VecView y) {
  assert(x.size() == y.size());
  return QuadraticFormScalar(x.data(), m, y.data(), x.size());
}

void QuadraticDistances(VecView x, const double* m, const double* points, std::size_t stride,
                        MutVecView out) {
  QuadraticDistancesScalar(x.data(), m, x.size(), points, stride, out.data(), out.size());
}

void DistanceBounds(VecView y, double radius, const double* points, const double* radii,
                    std::size_t stride, const SlackCoefficients& slack, MutVecView lo,
                    MutVecView hi) {
  assert(lo.size() == hi.size());
  Active().distance_bounds(y.data(), y.size(), radius, points, radii, stride, slack, lo.data(),
                           hi.data(), lo.size());
}

void EvaluateAll(const double* soa, std::size_t stride, const double* biases,
                 const double* f, std::size_t dim, double* scores, std::size_t classes) {
  assert(stride >= classes);
  Active().evaluate_all(soa, stride, biases, f, dim, scores, classes);
}

std::size_t ArgMax(const double* v, std::size_t n) {
  if (n == 0) {
    return 0;
  }
  return Active().argmax(v, n);
}

std::size_t FirstArgMaxInPrefix(const double* soa, std::size_t stride, const double* biases,
                                const double* rows, std::size_t batch, std::size_t row_stride,
                                const std::size_t* columns, std::size_t dim, std::size_t split,
                                std::size_t classes, const FireFilter* filter) {
  assert(stride >= classes);
  assert(dim <= kMaxColumns);
  // The same early answers as the per-row kernel, for the whole batch: the
  // tier bodies may assume a non-empty prefix and a non-empty suffix.
  if (split == 0) {
    return batch;
  }
  if (split >= classes) {
    return 0;
  }
  return Active().first_in_prefix(soa, stride, biases, rows, batch, row_stride, columns, dim,
                                  split, classes, filter);
}

FireFilter FireFilter::Build([[maybe_unused]] const double* soa,
                             [[maybe_unused]] std::size_t stride,
                             [[maybe_unused]] const double* biases,
                             [[maybe_unused]] std::size_t dim, [[maybe_unused]] std::size_t split,
                             [[maybe_unused]] std::size_t classes) {
  FireFilter out;
#if defined(GRANDMA_SIMD_X86)
  if (classes <= kRowsInLanesMaxSets || split == 0 || split >= classes || dim > kMaxColumns) {
    return out;
  }
  // Checked as doubles: converting a value outside float range is undefined.
  const auto fits = [](double x) { return std::fabs(x) <= std::numeric_limits<float>::max(); };
  double bound_sum = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t c = 0; c < classes; ++c) {
      const double w = soa[i * stride + c];
      if (!fits(w)) {
        return FireFilter{};
      }
      out.feature_bound[i] = std::max(out.feature_bound[i], std::fabs(w));
    }
    bound_sum += out.feature_bound[i];
  }
  for (std::size_t c = 0; c < classes; ++c) {
    if (!fits(biases[c])) {
      return FireFilter{};
    }
    out.bias_bound = std::max(out.bias_bound, std::fabs(biases[c]));
  }
  const auto round_up_8 = [](std::size_t n) { return (n + 7) / 8 * 8; };
  out.prefix_lanes = round_up_8(split);
  out.lanes = out.prefix_lanes + round_up_8(classes - split);
  out.weights.assign(dim * out.lanes, 0.0F);
  out.biases.assign(out.lanes, 0.0F);
  for (std::size_t k = 0; k < out.lanes; ++k) {
    const std::size_t c = k < out.prefix_lanes ? std::min(k, split - 1)
                                               : std::min(split + (k - out.prefix_lanes),
                                                          classes - 1);
    for (std::size_t i = 0; i < dim; ++i) {
      out.weights[i * out.lanes + k] = static_cast<float>(soa[i * stride + c]);
    }
    out.biases[k] = static_cast<float>(biases[c]);
  }
  // The constants derived above FilterScoresAvx2.
  out.relative_bound = static_cast<double>(dim + 4) * 0x1p-24;
  out.underflow_bound = 0x1p-148 * bound_sum + 0x1p-78;
  out.dim = dim;
  out.split = split;
  out.classes = classes;
#endif
  return out;
}

}  // namespace grandma::linalg::simd
