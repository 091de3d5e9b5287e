// Kernel tables for the dispatch ladder declared in simd.h. This file is
// compiled with -ffp-contract=off (see src/linalg/CMakeLists.txt): no
// mul+add here may fuse into an FMA, or the bit-identity contract between
// the scalar and vector tiers of EvaluateAll would silently break on
// FMA-capable hardware.
#include "linalg/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
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
  double (*dot)(const double* a, const double* b, std::size_t n);
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  double (*squared_norm)(const double* v, std::size_t n);
  void (*evaluate_all)(const double* soa, std::size_t stride, const double* biases,
                       const double* f, std::size_t dim, double* scores, std::size_t classes);
  void (*evaluate_all2)(const double* soa, std::size_t stride, const double* biases,
                        const double* f0, const double* f1, std::size_t dim, double* s0,
                        double* s1, std::size_t classes);
  std::size_t (*argmax)(const double* v, std::size_t n);
  bool (*argmax_in_prefix)(const double* soa, std::size_t stride, const double* biases,
                           const double* f, std::size_t dim, std::size_t split,
                           std::size_t classes);
  std::size_t (*first_in_prefix)(const double* soa, std::size_t stride, const double* biases,
                                 const double* rows, std::size_t batch, std::size_t row_stride,
                                 const std::size_t* columns, std::size_t dim, std::size_t split,
                                 std::size_t classes);
};

// --- Scalar tier (the reference) ---------------------------------------

double DotScalar(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void AxpyScalar(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

double SquaredNormScalar(const double* v, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += v[i] * v[i];
  }
  return sum;
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

// Two points through one weight-block sweep. Each point's per-class chain
// is the exact operation sequence of EvaluateAllScalar (zero, += in feature
// order, bias last), so the results are bit-identical to two single-point
// calls — the pairing only changes which chain a weight row feeds next,
// never the order within a chain.
void EvaluateAll2Scalar(const double* soa, std::size_t stride, const double* biases,
                        const double* f0, const double* f1, std::size_t dim, double* s0,
                        double* s1, std::size_t classes) {
  for (std::size_t c = 0; c < classes; ++c) {
    s0[c] = 0.0;
    s1[c] = 0.0;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    const double a0 = f0[i];
    const double a1 = f1[i];
    const double* row = soa + i * stride;
    for (std::size_t c = 0; c < classes; ++c) {
      s0[c] += a0 * row[c];
      s1[c] += a1 * row[c];
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    s0[c] += biases[c];
    s1[c] += biases[c];
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
// and runs a tier's per-row fused kernel on it, stopping at the first row
// that fires. The scalar and 2-wide tiers use nothing else; the AVX2 tier
// uses it where rows in lanes does not pay.
template <InPrefixKernel kInPrefix>
std::size_t FirstInPrefixPerRow(const double* soa, std::size_t stride, const double* biases,
                                const double* rows, std::size_t batch, std::size_t row_stride,
                                const std::size_t* columns, std::size_t dim, std::size_t split,
                                std::size_t classes) {
  double f[kMaxColumns];
  for (std::size_t r = 0; r < batch; ++r) {
    const double* row = rows + r * row_stride;
    for (std::size_t i = 0; i < dim; ++i) {
      f[i] = row[columns[i]];
    }
    if (kInPrefix(soa, stride, biases, f, dim, split, classes)) {
      return r;
    }
  }
  return batch;
}

constexpr KernelTable kScalarTable{Tier::kScalar,
                                   DotScalar,
                                   AxpyScalar,
                                   SquaredNormScalar,
                                   EvaluateAllScalar,
                                   EvaluateAll2Scalar,
                                   ArgMaxScalar,
                                   EvaluateArgMaxInPrefixScalar,
                                   FirstInPrefixPerRow<EvaluateArgMaxInPrefixScalar>};

#if defined(GRANDMA_SIMD_X86)

// --- SSE2 tier (x86-64 baseline) ---------------------------------------

double DotSse2(const double* a, const double* b, std::size_t n) {
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = _mm_add_pd(acc, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  // Lane 0 + lane 1, then the odd tail element in order.
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void AxpySse2(double alpha, const double* x, double* y, std::size_t n) {
  const __m128d va = _mm_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d prod = _mm_mul_pd(va, _mm_loadu_pd(x + i));
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

double SquaredNormSse2(const double* v, std::size_t n) { return DotSse2(v, v, n); }

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

void EvaluateAll2Sse2(const double* soa, std::size_t stride, const double* biases,
                      const double* f0, const double* f1, std::size_t dim, double* s0,
                      double* s1, std::size_t classes) {
  std::size_t c = 0;
  // 8-class blocks, both points at once: each weight load feeds two chains.
  for (; c + 8 <= classes; c += 8) {
    __m128d p0a0 = _mm_setzero_pd();
    __m128d p0a1 = _mm_setzero_pd();
    __m128d p0a2 = _mm_setzero_pd();
    __m128d p0a3 = _mm_setzero_pd();
    __m128d p1a0 = _mm_setzero_pd();
    __m128d p1a1 = _mm_setzero_pd();
    __m128d p1a2 = _mm_setzero_pd();
    __m128d p1a3 = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m128d ff0 = _mm_set1_pd(f0[i]);
      const __m128d ff1 = _mm_set1_pd(f1[i]);
      const double* row = col + i * stride;
      const __m128d w0 = _mm_loadu_pd(row);
      const __m128d w1 = _mm_loadu_pd(row + 2);
      const __m128d w2 = _mm_loadu_pd(row + 4);
      const __m128d w3 = _mm_loadu_pd(row + 6);
      p0a0 = _mm_add_pd(p0a0, _mm_mul_pd(ff0, w0));
      p0a1 = _mm_add_pd(p0a1, _mm_mul_pd(ff0, w1));
      p0a2 = _mm_add_pd(p0a2, _mm_mul_pd(ff0, w2));
      p0a3 = _mm_add_pd(p0a3, _mm_mul_pd(ff0, w3));
      p1a0 = _mm_add_pd(p1a0, _mm_mul_pd(ff1, w0));
      p1a1 = _mm_add_pd(p1a1, _mm_mul_pd(ff1, w1));
      p1a2 = _mm_add_pd(p1a2, _mm_mul_pd(ff1, w2));
      p1a3 = _mm_add_pd(p1a3, _mm_mul_pd(ff1, w3));
    }
    const __m128d b0 = _mm_loadu_pd(biases + c);
    const __m128d b1 = _mm_loadu_pd(biases + c + 2);
    const __m128d b2 = _mm_loadu_pd(biases + c + 4);
    const __m128d b3 = _mm_loadu_pd(biases + c + 6);
    _mm_storeu_pd(s0 + c, _mm_add_pd(p0a0, b0));
    _mm_storeu_pd(s0 + c + 2, _mm_add_pd(p0a1, b1));
    _mm_storeu_pd(s0 + c + 4, _mm_add_pd(p0a2, b2));
    _mm_storeu_pd(s0 + c + 6, _mm_add_pd(p0a3, b3));
    _mm_storeu_pd(s1 + c, _mm_add_pd(p1a0, b0));
    _mm_storeu_pd(s1 + c + 2, _mm_add_pd(p1a1, b1));
    _mm_storeu_pd(s1 + c + 4, _mm_add_pd(p1a2, b2));
    _mm_storeu_pd(s1 + c + 6, _mm_add_pd(p1a3, b3));
  }
  for (; c + 2 <= classes; c += 2) {
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m128d w = _mm_loadu_pd(col + i * stride);
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_set1_pd(f0[i]), w));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_set1_pd(f1[i]), w));
    }
    const __m128d b = _mm_loadu_pd(biases + c);
    _mm_storeu_pd(s0 + c, _mm_add_pd(acc0, b));
    _mm_storeu_pd(s1 + c, _mm_add_pd(acc1, b));
  }
  for (; c < classes; ++c) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double w = soa[i * stride + c];
      acc0 += f0[i] * w;
      acc1 += f1[i] * w;
    }
    s0[c] = acc0 + biases[c];
    s1[c] = acc1 + biases[c];
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

constexpr KernelTable kSse2Table{Tier::kSse2,
                                 DotSse2,
                                 AxpySse2,
                                 SquaredNormSse2,
                                 EvaluateAllSse2,
                                 EvaluateAll2Sse2,
                                 ArgMaxSse2,
                                 EvaluateArgMaxInPrefixSse2,
                                 FirstInPrefixPerRow<EvaluateArgMaxInPrefixSse2>};

// --- AVX2 tier (runtime-detected) --------------------------------------

__attribute__((target("avx2"))) double DotAvx2(const double* a, const double* b,
                                               std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

__attribute__((target("avx2"))) void AxpyAvx2(double alpha, const double* x, double* y,
                                              std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

__attribute__((target("avx2"))) double SquaredNormAvx2(const double* v, std::size_t n) {
  return DotAvx2(v, v, n);
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

__attribute__((target("avx2"))) void EvaluateAll2Avx2(const double* soa, std::size_t stride,
                                                      const double* biases, const double* f0,
                                                      const double* f1, std::size_t dim,
                                                      double* s0, double* s1,
                                                      std::size_t classes) {
  std::size_t c = 0;
  // 16-class blocks, both points at once: 4 weight loads + 2 broadcasts feed
  // 8 accumulators (14 live ymm registers).
  for (; c + 16 <= classes; c += 16) {
    __m256d p0a0 = _mm256_setzero_pd();
    __m256d p0a1 = _mm256_setzero_pd();
    __m256d p0a2 = _mm256_setzero_pd();
    __m256d p0a3 = _mm256_setzero_pd();
    __m256d p1a0 = _mm256_setzero_pd();
    __m256d p1a1 = _mm256_setzero_pd();
    __m256d p1a2 = _mm256_setzero_pd();
    __m256d p1a3 = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d ff0 = _mm256_set1_pd(f0[i]);
      const __m256d ff1 = _mm256_set1_pd(f1[i]);
      const double* row = col + i * stride;
      const __m256d w0 = _mm256_loadu_pd(row);
      const __m256d w1 = _mm256_loadu_pd(row + 4);
      const __m256d w2 = _mm256_loadu_pd(row + 8);
      const __m256d w3 = _mm256_loadu_pd(row + 12);
      p0a0 = _mm256_add_pd(p0a0, _mm256_mul_pd(ff0, w0));
      p0a1 = _mm256_add_pd(p0a1, _mm256_mul_pd(ff0, w1));
      p0a2 = _mm256_add_pd(p0a2, _mm256_mul_pd(ff0, w2));
      p0a3 = _mm256_add_pd(p0a3, _mm256_mul_pd(ff0, w3));
      p1a0 = _mm256_add_pd(p1a0, _mm256_mul_pd(ff1, w0));
      p1a1 = _mm256_add_pd(p1a1, _mm256_mul_pd(ff1, w1));
      p1a2 = _mm256_add_pd(p1a2, _mm256_mul_pd(ff1, w2));
      p1a3 = _mm256_add_pd(p1a3, _mm256_mul_pd(ff1, w3));
    }
    const __m256d b0 = _mm256_loadu_pd(biases + c);
    const __m256d b1 = _mm256_loadu_pd(biases + c + 4);
    const __m256d b2 = _mm256_loadu_pd(biases + c + 8);
    const __m256d b3 = _mm256_loadu_pd(biases + c + 12);
    _mm256_storeu_pd(s0 + c, _mm256_add_pd(p0a0, b0));
    _mm256_storeu_pd(s0 + c + 4, _mm256_add_pd(p0a1, b1));
    _mm256_storeu_pd(s0 + c + 8, _mm256_add_pd(p0a2, b2));
    _mm256_storeu_pd(s0 + c + 12, _mm256_add_pd(p0a3, b3));
    _mm256_storeu_pd(s1 + c, _mm256_add_pd(p1a0, b0));
    _mm256_storeu_pd(s1 + c + 4, _mm256_add_pd(p1a1, b1));
    _mm256_storeu_pd(s1 + c + 8, _mm256_add_pd(p1a2, b2));
    _mm256_storeu_pd(s1 + c + 12, _mm256_add_pd(p1a3, b3));
  }
  for (; c + 4 <= classes; c += 4) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d w = _mm256_loadu_pd(col + i * stride);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(f0[i]), w));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(f1[i]), w));
    }
    const __m256d b = _mm256_loadu_pd(biases + c);
    _mm256_storeu_pd(s0 + c, _mm256_add_pd(acc0, b));
    _mm256_storeu_pd(s1 + c, _mm256_add_pd(acc1, b));
  }
  for (; c < classes; ++c) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double w = soa[i * stride + c];
      acc0 += f0[i] * w;
      acc1 += f1[i] * w;
    }
    s0[c] = acc0 + biases[c];
    s1[c] = acc1 + biases[c];
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

__attribute__((target("avx2"))) bool EvaluateArgMaxInPrefixAvx2(const double* soa,
                                                                std::size_t stride,
                                                                const double* biases,
                                                                const double* f, std::size_t dim,
                                                                std::size_t split,
                                                                std::size_t classes) {
  if (split == 0) {
    return false;
  }
  if (split >= classes) {
    return true;
  }
  bool nan_seen = false;
  const double prefix_max =
      MaxScoresRangeAvx2(soa, stride, biases, f, dim, 0, split, &nan_seen);
  if (!nan_seen) {
    const double suffix_max =
        MaxScoresRangeAvx2(soa, stride, biases, f, dim, split, classes, &nan_seen);
    if (!nan_seen) {
      return !(suffix_max > prefix_max);
    }
  }
  return EvaluateArgMaxInPrefixScalar(soa, stride, biases, f, dim, split, classes);
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

// Rows in lanes: lane k of every vector is row r + k, so one pass over the
// weight block scores four rows, and the prefix maximum and the "suffix
// beat it" flags stay per lane (no padded class lanes, no blends, no
// horizontal reductions). The suffix stops once every live lane is beaten.
// A lane with a NaN in its prefix redoes that row alone with the scalar
// scan. Lanes are checked in row order, so the first firing row wins.
__attribute__((target("avx2"))) std::size_t FirstArgMaxInPrefixAvx2(
    const double* soa, std::size_t stride, const double* biases, const double* rows,
    std::size_t batch, std::size_t row_stride, const std::size_t* columns, std::size_t dim,
    std::size_t split, std::size_t classes) {
  std::size_t r = 0;
  if (classes <= kRowsInLanesMaxSets) {
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
  }
  const std::size_t first =
      FirstInPrefixPerRow<InPrefixEarlyExitAvx2>(soa, stride, biases, rows + r * row_stride,
                                                 batch - r, row_stride, columns, dim, split,
                                                 classes);
  return r + first;
}

constexpr KernelTable kAvx2Table{Tier::kAvx2,
                                 DotAvx2,
                                 AxpyAvx2,
                                 SquaredNormAvx2,
                                 EvaluateAllAvx2,
                                 EvaluateAll2Avx2,
                                 ArgMaxAvx2,
                                 EvaluateArgMaxInPrefixAvx2,
                                 FirstArgMaxInPrefixAvx2};

#elif defined(GRANDMA_SIMD_NEON)

// --- NEON tier (aarch64 baseline; fills the kSse2 rung) -----------------

double DotNeon(const double* a, const double* b, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_f64(acc, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  double sum = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void AxpyNeon(double alpha, const double* x, double* y, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

double SquaredNormNeon(const double* v, std::size_t n) { return DotNeon(v, v, n); }

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

void EvaluateAll2Neon(const double* soa, std::size_t stride, const double* biases,
                      const double* f0, const double* f1, std::size_t dim, double* s0,
                      double* s1, std::size_t classes) {
  std::size_t c = 0;
  for (; c + 8 <= classes; c += 8) {
    float64x2_t p0a0 = vdupq_n_f64(0.0);
    float64x2_t p0a1 = vdupq_n_f64(0.0);
    float64x2_t p0a2 = vdupq_n_f64(0.0);
    float64x2_t p0a3 = vdupq_n_f64(0.0);
    float64x2_t p1a0 = vdupq_n_f64(0.0);
    float64x2_t p1a1 = vdupq_n_f64(0.0);
    float64x2_t p1a2 = vdupq_n_f64(0.0);
    float64x2_t p1a3 = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const float64x2_t ff0 = vdupq_n_f64(f0[i]);
      const float64x2_t ff1 = vdupq_n_f64(f1[i]);
      const double* row = col + i * stride;
      const float64x2_t w0 = vld1q_f64(row);
      const float64x2_t w1 = vld1q_f64(row + 2);
      const float64x2_t w2 = vld1q_f64(row + 4);
      const float64x2_t w3 = vld1q_f64(row + 6);
      p0a0 = vaddq_f64(p0a0, vmulq_f64(ff0, w0));
      p0a1 = vaddq_f64(p0a1, vmulq_f64(ff0, w1));
      p0a2 = vaddq_f64(p0a2, vmulq_f64(ff0, w2));
      p0a3 = vaddq_f64(p0a3, vmulq_f64(ff0, w3));
      p1a0 = vaddq_f64(p1a0, vmulq_f64(ff1, w0));
      p1a1 = vaddq_f64(p1a1, vmulq_f64(ff1, w1));
      p1a2 = vaddq_f64(p1a2, vmulq_f64(ff1, w2));
      p1a3 = vaddq_f64(p1a3, vmulq_f64(ff1, w3));
    }
    vst1q_f64(s0 + c, vaddq_f64(p0a0, vld1q_f64(biases + c)));
    vst1q_f64(s0 + c + 2, vaddq_f64(p0a1, vld1q_f64(biases + c + 2)));
    vst1q_f64(s0 + c + 4, vaddq_f64(p0a2, vld1q_f64(biases + c + 4)));
    vst1q_f64(s0 + c + 6, vaddq_f64(p0a3, vld1q_f64(biases + c + 6)));
    vst1q_f64(s1 + c, vaddq_f64(p1a0, vld1q_f64(biases + c)));
    vst1q_f64(s1 + c + 2, vaddq_f64(p1a1, vld1q_f64(biases + c + 2)));
    vst1q_f64(s1 + c + 4, vaddq_f64(p1a2, vld1q_f64(biases + c + 4)));
    vst1q_f64(s1 + c + 6, vaddq_f64(p1a3, vld1q_f64(biases + c + 6)));
  }
  for (; c + 2 <= classes; c += 2) {
    float64x2_t acc0 = vdupq_n_f64(0.0);
    float64x2_t acc1 = vdupq_n_f64(0.0);
    const double* col = soa + c;
    for (std::size_t i = 0; i < dim; ++i) {
      const float64x2_t w = vld1q_f64(col + i * stride);
      acc0 = vaddq_f64(acc0, vmulq_f64(vdupq_n_f64(f0[i]), w));
      acc1 = vaddq_f64(acc1, vmulq_f64(vdupq_n_f64(f1[i]), w));
    }
    const float64x2_t b = vld1q_f64(biases + c);
    vst1q_f64(s0 + c, vaddq_f64(acc0, b));
    vst1q_f64(s1 + c, vaddq_f64(acc1, b));
  }
  for (; c < classes; ++c) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double w = soa[i * stride + c];
      acc0 += f0[i] * w;
      acc1 += f1[i] * w;
    }
    s0[c] = acc0 + biases[c];
    s1[c] = acc1 + biases[c];
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

constexpr KernelTable kSse2Table{Tier::kSse2,
                                 DotNeon,
                                 AxpyNeon,
                                 SquaredNormNeon,
                                 EvaluateAllNeon,
                                 EvaluateAll2Neon,
                                 ArgMaxNeon,
                                 EvaluateArgMaxInPrefixNeon,
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

double Dot(VecView a, VecView b) {
  assert(a.size() == b.size());
  return Active().dot(a.data(), b.data(), a.size());
}

void Axpy(double alpha, VecView x, MutVecView y) {
  assert(x.size() == y.size());
  Active().axpy(alpha, x.data(), y.data(), x.size());
}

double SquaredNorm(VecView v) { return Active().squared_norm(v.data(), v.size()); }

double QuadraticForm(VecView x, const double* m, VecView y) {
  assert(x.size() == y.size());
  const KernelTable& table = Active();
  const std::size_t n = x.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += x[i] * table.dot(m + i * n, y.data(), n);
  }
  return sum;
}

void EvaluateAll(const double* soa, std::size_t stride, const double* biases,
                 const double* f, std::size_t dim, double* scores, std::size_t classes) {
  assert(stride >= classes);
  Active().evaluate_all(soa, stride, biases, f, dim, scores, classes);
}

void EvaluateAll2(const double* soa, std::size_t stride, const double* biases,
                  const double* f0, const double* f1, std::size_t dim, double* s0, double* s1,
                  std::size_t classes) {
  assert(stride >= classes);
  Active().evaluate_all2(soa, stride, biases, f0, f1, dim, s0, s1, classes);
}

void EvaluateBatch(const double* soa, std::size_t stride, const double* biases,
                   const double* features, std::size_t batch, std::size_t feature_stride,
                   double* scores, std::size_t scores_stride, std::size_t dim,
                   std::size_t classes) {
  assert(stride >= classes);
  assert(feature_stride >= dim);
  assert(scores_stride >= classes);
  // Hold the table once so every row of the batch runs the same tier even
  // if a ForceTier races in (documented single-threaded-only, but cheap to
  // be coherent about).
  const KernelTable& table = Active();
  // Class tiles sized so one tile's weight rows (kClassTile * dim doubles;
  // 6.5 KiB at the 13-feature extractor) stay L1-resident across the whole
  // batch: the full block is swept once per BATCH instead of once per row,
  // which is where the per-point cost at 200+ classes goes. Tiling classes
  // never touches a per-(row, class) accumulation chain, so results stay
  // bit-identical to row-at-a-time EvaluateAll on every tier. The tile
  // width is a multiple of every kernel's widest class block (16), so only
  // the final tile runs tail lanes.
  constexpr std::size_t kClassTile = 64;
  for (std::size_t c0 = 0; c0 < classes; c0 += kClassTile) {
    const std::size_t tile = classes - c0 < kClassTile ? classes - c0 : kClassTile;
    std::size_t r = 0;
    for (; r + 2 <= batch; r += 2) {
      table.evaluate_all2(soa + c0, stride, biases + c0, features + r * feature_stride,
                          features + (r + 1) * feature_stride, dim,
                          scores + r * scores_stride + c0, scores + (r + 1) * scores_stride + c0,
                          tile);
    }
    if (r < batch) {
      table.evaluate_all(soa + c0, stride, biases + c0, features + r * feature_stride, dim,
                         scores + r * scores_stride + c0, tile);
    }
  }
}

std::size_t ArgMax(const double* v, std::size_t n) {
  if (n == 0) {
    return 0;
  }
  return Active().argmax(v, n);
}

bool EvaluateArgMaxInPrefix(const double* soa, std::size_t stride, const double* biases,
                            const double* f, std::size_t dim, std::size_t split,
                            std::size_t classes) {
  assert(stride >= classes);
  return Active().argmax_in_prefix(soa, stride, biases, f, dim, split, classes);
}

std::size_t FirstArgMaxInPrefix(const double* soa, std::size_t stride, const double* biases,
                                const double* rows, std::size_t batch, std::size_t row_stride,
                                const std::size_t* columns, std::size_t dim, std::size_t split,
                                std::size_t classes) {
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
                                  split, classes);
}

// --- AlignedBuffer ------------------------------------------------------

AlignedBuffer::AlignedBuffer(const AlignedBuffer& other) {
  assign(other.size_, 0.0);
  if (size_ != 0) {
    std::memcpy(data_, other.data_, size_ * sizeof(double));
  }
}

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

AlignedBuffer& AlignedBuffer::operator=(const AlignedBuffer& other) {
  if (this != &other) {
    assign(other.size_, 0.0);
    if (size_ != 0) {
      std::memcpy(data_, other.data_, size_ * sizeof(double));
    }
  }
  return *this;
}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

AlignedBuffer::~AlignedBuffer() { Release(); }

void AlignedBuffer::Release() {
  if (data_ != nullptr) {
    ::operator delete[](data_, std::align_val_t(kBlockAlignment));
    data_ = nullptr;
  }
  size_ = 0;
}

void AlignedBuffer::assign(std::size_t size, double value) {
  if (size != size_) {
    Release();
    if (size != 0) {
      data_ = static_cast<double*>(
          ::operator new[](size * sizeof(double), std::align_val_t(kBlockAlignment)));
      size_ = size;
    }
  }
  for (std::size_t i = 0; i < size_; ++i) {
    data_[i] = value;
  }
}

}  // namespace grandma::linalg::simd
