#include "eager/accidental_mover.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/stats.h"

namespace grandma::eager {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The non-empty incomplete-set means as one linalg::FeatureMajorBlock, in
// set order, with the set index of each: the exact chains and the screen's
// whitening read the means from it.
struct MeanBlock {
  std::vector<double> block;
  std::vector<int> set;

  std::size_t count() const { return set.size(); }
};

MeanBlock BuildMeanBlock(const std::vector<std::optional<linalg::Vector>>& means) {
  MeanBlock out;
  std::vector<const linalg::Vector*> present;
  for (std::size_t k = 0; k < means.size(); ++k) {
    if (means[k].has_value()) {
      out.set.push_back(static_cast<int>(k));
      present.push_back(&*means[k]);
    }
  }
  out.block = linalg::FeatureMajorBlock(present);
  return out;
}

// --- The nearest-mean screen -----------------------------------------------
//
// Every distance the mover decides on is the exact chain D = QuadraticDistances
// (x, M, p) on d = x - p, and every decision (the threshold's maximum, floor
// and minimum; each subgesture's first nearest set) is taken on those bits.
// The screen only proves, from a cheap approximation A, that some chains
// cannot change a decision, and skips them.
//
// Let S = (M + M^T)/2, so D approximates d^T S d. Factor the computed S as
// L L^T (linalg::CholeskyDecomposition) and whiten once: y = fl(L^T x),
// a_x = ||(|L^T| |x|)|| for every point. Then A = fl(sum_i (y_x,i - y_p,i)^2)
// (simd::DistanceBounds, 13 multiply-adds per pair against the chain's 169).
// With u = 2^-53, gamma_k = k u / (1 - k u), n the dimension, t = ||L^T d||
// for the exact d, and E = S - L L^T (S exact):
//   |D - d^T S d| <= gamma_(2n+2) |d|^T |M| |d| <= gamma_(2n+2) ||M|| ||d||^2
//     (the difference, each row dot and the outer sum; ||M|| is ||(|M|)||),
//   |d^T S d - t^2| <= ||E|| ||d||^2,   ||d||^2 <= lambda t^2, lambda = ||L^-1||^2,
// so |D - t^2| <= kappa t^2, kappa = (gamma_(2n+2) ||M|| + ||E||) lambda. On
// the whitened side w = y_x - y_p is L^T d off by at most
// eps = gamma_n (a_x + a_p) (the two triangular products), and
// |A - ||w||^2| <= gamma_(n+3) ||w||^2 (the differences, squares and sum).
// With 2 ||w|| eps <= eta ||w||^2 + eps^2 / eta, eta = 2^-20,
//   |t^2 - A| <= (eta + g) / (1 - g) A + (1 + 1/eta) eps^2,   g = gamma_(n+3),
// and since t^2 <= A + |t^2 - A|,
//   |D - A| <= c_A A + c_e (a_x + a_p)^2,
//   c_A = kappa + (1 + kappa)(eta + g) / (1 - g),
//   c_e = 2 (1 + kappa)(1 + 1/eta) gamma_n^2
// (the 2 splits eps^2 between the rounding and the underflow part below).
//
// The slack s = 2 c_A A + 2 c_e (a_x + a_p)^2 + 2^-1000 bounds |D - A| with
// room to spare. Doubling covers the roundings of a, of s and of
// lo = A - s, hi = A + s (each a few ulps of A + s, and s >= 2^-20 A), and of
// the norm bounds. The absolute term covers underflow: with ||M|| and lambda
// at most 2^100 (else the screen is off), subnormal products move D, A and
// the whitened points by less than 2^-1060 (1 + t^2), and the t^2 part is
// the 2^-900 added to kappa. ||M||, ||E|| and ||L^-1|| are bounded from
// above by n times their largest entry, each entry bounded with its own
// rounding terms (NormBound, Screen's constructor); ||L^-1|| <=
// ||X|| / (1 - ||I - L X||) for the computed inverse X.
//
// Overflow: a point is screened only when every hi is below 2^800. Then
// t^2 <= hi for every mean, ||d||^2 <= 2^900, and no exact chain's term
// nears overflow, so the bounds hold for every chain and D_p >= lo_p,
// D_p <= hi_p. A NaN or infinite feature makes some hi NaN or infinite:
// that point gets infinite bounds and runs every exact chain (a full scan),
// as does every point when the factorization fails or ||M|| or lambda
// exceeds 2^100.
//
// Decisions: the first nearest mean is the first minimum of D. A mean with
// lo_p > min_k hi_k has D_p > D_k* for the k* attaining that minimum, so it
// is neither the minimum nor tied with it; every other mean runs the exact
// chain, and the first minimum among those is the full scan's, bits and all.
// The threshold's maximum, floor count and minimum are settled the same way
// (SetThreshold).
constexpr double kScreenGuard = 0x1p800;

// An upper bound on the spectral norm of the n x n matrix with entries
// at(i, j) >= 0: n times the largest entry (which bounds the Frobenius
// norm), rounded up. Not finite when an entry is not.
template <typename At>
double NormBound(std::size_t n, At at) {
  double max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double v = at(i, j);
      max = v > max || v != v ? v : max;
    }
  }
  return static_cast<double>(n) * max * (1.0 + 0x1p-50);
}

double Gamma(std::size_t k) {
  const double ku = static_cast<double>(k) * 0x1p-53;
  return ku / (1.0 - ku);
}

// The whitened means and the slack coefficients of one metric.
class Screen {
 public:
  Screen(const linalg::Matrix& metric, const MeanBlock& means);

  // Bounds every exact distance from x to the means, D_k in [lo[k], hi[k]],
  // and returns the smallest hi. Where x cannot be screened (the metric was
  // rejected, or some hi is not below kScreenGuard) every bound is
  // infinite, so every mean is a candidate.
  double Bound(linalg::VecView x, linalg::MutVecView lo, linalg::MutVecView hi);

 private:
  // y = fl(L^T x); returns a_x.
  double Whiten(const double* x, std::size_t x_stride, double* y) const;

  bool ok_ = false;
  std::size_t n_ = 0;
  std::size_t count_ = 0;
  linalg::Matrix l_;
  std::vector<double> white_;  // whitened means, feature-major, stride count_
  std::vector<double> radii_;  // a_p of each mean
  std::vector<double> y_;      // Bound's whitened point
  linalg::simd::SlackCoefficients slack_;
};

Screen::Screen(const linalg::Matrix& metric, const MeanBlock& means)
    : n_(metric.rows()), count_(means.count()) {
  const std::size_t n = n_;
  if (n == 0 || n != metric.cols()) {
    return;
  }
  linalg::Matrix s(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) = 0.5 * (metric(i, j) + metric(j, i));
    }
  }
  const linalg::CholeskyDecomposition chol(s);
  if (!chol.ok()) {
    return;
  }
  l_ = chol.factor();
  const linalg::Matrix& l = l_;
  // E = S - L L^T and F = I - L X for X = L^-1 by forward substitution:
  // each entry is bounded by its computed residual plus the roundings of
  // its chain (gamma_(n+2) of its terms, twice its initial value for the
  // rounding of S) and of underflow.
  linalg::Matrix x(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    x(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t k = j; k < i; ++k) {
        sum += l(i, k) * x(k, j);
      }
      x(i, j) = -sum / l(i, i);
    }
  }
  const double g = Gamma(n + 2);
  const auto residual = [&](double r, std::size_t i, std::size_t k0, std::size_t k1,
                            auto&& b) {
    double terms = 2.0 * std::fabs(r);
    for (std::size_t k = k0; k <= k1; ++k) {
      r -= l(i, k) * b(k);
      terms += std::fabs(l(i, k) * b(k));
    }
    return std::fabs(r) + g * terms + static_cast<double>(n) * 0x1p-1073;
  };
  const double norm_e = NormBound(n, [&](std::size_t i, std::size_t j) {
    return residual(s(i, j), i, 0, std::min(i, j), [&](std::size_t k) { return l(j, k); });
  });
  const double norm_f = NormBound(n, [&](std::size_t i, std::size_t j) {
    return residual(i == j ? 1.0 : 0.0, i, j, i, [&](std::size_t k) { return x(k, j); });
  });
  if (!(norm_f < 0.5)) {
    return;
  }
  const double norm_x =
      NormBound(n, [&](std::size_t i, std::size_t j) { return std::fabs(x(i, j)); });
  const double inverse_bound = norm_x / (1.0 - norm_f) * (1.0 + 0x1p-40);
  const double lambda = inverse_bound * inverse_bound * (1.0 + 0x1p-40);
  const double norm_m =
      NormBound(n, [&](std::size_t i, std::size_t j) { return std::fabs(metric(i, j)); });
  if (!(norm_m <= 0x1p100 && lambda <= 0x1p100)) {
    return;
  }
  const double kappa =
      ((Gamma(2 * n + 2) * norm_m + norm_e) * lambda + 0x1p-900) * (1.0 + 0x1p-40);
  if (!std::isfinite(kappa)) {
    return;
  }
  constexpr double kEta = 0x1p-20;
  const double gw = Gamma(n + 3);
  const double gn = Gamma(n);
  slack_.relative = 2.0 * (kappa + (1.0 + kappa) * (kEta + gw) / (1.0 - gw));
  slack_.cross = 2.0 * 2.0 * (1.0 + kappa) * (1.0 + 1.0 / kEta) * gn * gn;
  slack_.floor = 0x1p-1000;

  white_.resize(n * count_);
  radii_.resize(count_);
  y_.resize(n);
  for (std::size_t k = 0; k < count_; ++k) {
    radii_[k] = Whiten(means.block.data() + k, count_, y_.data());
    for (std::size_t i = 0; i < n; ++i) {
      white_[i * count_ + k] = y_[i];
    }
  }
  ok_ = true;
}

double Screen::Whiten(const double* x, std::size_t x_stride, double* y) const {
  double a2 = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    double yi = 0.0;
    double ai = 0.0;
    for (std::size_t j = i; j < n_; ++j) {
      const double xj = x[j * x_stride];
      yi += l_(j, i) * xj;
      ai += std::fabs(l_(j, i)) * std::fabs(xj);
    }
    y[i] = yi;
    a2 += ai * ai;
  }
  return std::sqrt(a2);
}

double Screen::Bound(linalg::VecView x, linalg::MutVecView lo, linalg::MutVecView hi) {
  bool below = ok_;
  double min_hi = kInf;
  if (ok_) {
    const double radius = Whiten(x.data(), 1, y_.data());
    linalg::simd::DistanceBounds(linalg::VecView(y_.data(), n_), radius, white_.data(),
                                 radii_.data(), count_, slack_, lo, hi);
    for (const double h : hi) {
      below = below && h < kScreenGuard;
      min_hi = std::min(min_hi, h);
    }
  }
  if (!below) {
    std::fill(lo.begin(), lo.end(), -kInf);
    std::fill(hi.begin(), hi.end(), kInf);
    min_hi = kInf;
  }
  return min_hi;
}

// The move threshold — 50% of the minimum full-class-to-incomplete-set
// distance, excluding distances under the floor — from bounds
// lo[p] <= D_p <= hi[p] on each pair's exact chain, `exact(p)`. Each
// decision (the maximum, every floor comparison, the minimum) runs the
// chain only where an interval straddles it, and takes the value the plain
// loops over every D_p take: std::max_element for the maximum, a running
// `d < min` for the minimum, std::min_element when everything is floored.
// Those keep pair 0 when it is NaN and skip every later NaN, so pair 0
// always runs. With infinite bounds every pair runs.
template <typename Exact>
void SetThreshold(const std::vector<double>& lo, const std::vector<double>& hi, Exact&& exact,
                  const MoverOptions& options, MoverReport& report) {
  const std::size_t pairs = lo.size();
  // A NaN entry is not known yet; a NaN chain just runs again.
  std::vector<double> known(pairs, std::numeric_limits<double>::quiet_NaN());
  const auto at = [&](std::size_t p) {
    if (known[p] != known[p]) {
      known[p] = exact(p);
    }
    return known[p];
  };
  // Only a pair whose upper bound reaches the largest lower bound can hold
  // the maximum.
  const double max_lo = *std::max_element(lo.begin(), lo.end());
  double max_distance = at(0);
  for (std::size_t p = 1; p < pairs; ++p) {
    if (hi[p] >= max_lo && max_distance < at(p)) {
      max_distance = at(p);
    }
  }
  const double floor = options.floor_fraction * max_distance;
  std::vector<bool> floored(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    floored[p] = hi[p] < floor || (lo[p] < floor && at(p) < floor);
    report.floored_out += floored[p] ? 1 : 0;
  }
  // The minimum over the unfloored pairs; over all of them when none is.
  const auto minimum = [&](bool all) {
    double min_hi = kInf;
    for (std::size_t p = 0; p < pairs; ++p) {
      if (all || !floored[p]) {
        min_hi = std::min(min_hi, hi[p]);
      }
    }
    double m = all ? at(0) : kInf;
    for (std::size_t p = 0; p < pairs; ++p) {
      if ((all || !floored[p]) && lo[p] <= min_hi && at(p) < m) {
        m = at(p);
      }
    }
    return m;
  };
  double min_distance = minimum(false);
  if (!std::isfinite(min_distance)) {
    // Everything was floored out — degenerate; fall back to the raw minimum
    // so the rule still produces some threshold.
    min_distance = minimum(true);
  }
  report.min_distance = min_distance;
  report.threshold = options.threshold_fraction * min_distance;
}

}  // namespace

std::vector<std::optional<linalg::Vector>> IncompleteSetMeans(
    const SubgesturePartition& partition) {
  std::vector<std::optional<linalg::Vector>> means(partition.incomplete_sets.size());
  for (std::size_t k = 0; k < partition.incomplete_sets.size(); ++k) {
    const auto& set = partition.incomplete_sets[k];
    if (set.empty()) {
      continue;
    }
    linalg::MeanAccumulator acc(partition.dim);
    for (const std::size_t row : set) {
      acc.Add(partition.Row(row));
    }
    means[k] = acc.Mean();
  }
  return means;
}

MoverReport MoveAccidentallyComplete(const classify::GestureClassifier& full,
                                     SubgesturePartition& partition,
                                     const MoverOptions& options) {
  MoverReport report;
  const classify::LinearClassifier& linear = full.linear();
  const MeanBlock means = BuildMeanBlock(IncompleteSetMeans(partition));
  const linalg::Matrix& metric = linear.inverse_covariance();
  const std::size_t count = means.count();
  if (full.num_classes() * count == 0) {
    return report;  // No incomplete sets at all; nothing can move.
  }
  // The exact chain from x to mean m.
  const auto distance = [&](linalg::VecView x, std::size_t m) {
    double d = 0.0;
    linalg::QuadraticDistances(x, metric, means.block.data() + m, count,
                               linalg::MutVecView(&d, 1));
    return d;
  };
  Screen screen(metric, means);

  // Compute the threshold: 50% of the minimum distance from any full-class
  // mean to any incomplete-set mean, excluding distances under the floor.
  std::vector<double> lo(full.num_classes() * count);
  std::vector<double> hi(lo.size());
  for (classify::ClassId c = 0; c < full.num_classes(); ++c) {
    screen.Bound(linear.mean(c).view(), linalg::MutVecView(lo.data() + c * count, count),
                 linalg::MutVecView(hi.data() + c * count, count));
  }
  SetThreshold(
      lo, hi, [&](std::size_t p) { return distance(linear.mean(p / count).view(), p % count); },
      options, report);

  // Walk each gesture's complete subgestures from largest (the full gesture)
  // to smallest; once one is accidentally complete, it and every smaller
  // complete subgesture move to their nearest incomplete sets. The nearest
  // set is the first minimum in set order; the screen runs the exact chain
  // only to the means that can hold it.
  const linalg::MutVecView lo_view(lo.data(), count);
  const linalg::MutVecView hi_view(hi.data(), count);
  for (GestureSubgestures& gesture : partition.per_gesture) {
    bool moving = false;
    for (std::size_t k = gesture.subgestures.size(); k-- > 0;) {
      LabeledSubgesture& sub = gesture.subgestures[k];
      if (!sub.EffectivelyComplete()) {
        continue;
      }
      const linalg::VecView x = partition.Row(sub.row);
      const double min_hi = screen.Bound(x, lo_view, hi_view);
      int nearest = -1;
      double nearest_distance = kInf;
      for (std::size_t m = 0; m < count; ++m) {
        if (lo[m] > min_hi) {
          continue;
        }
        const double d = distance(x, m);
        if (d < nearest_distance) {
          nearest_distance = d;
          nearest = means.set[m];
        }
      }
      if (nearest < 0) {
        break;  // No incomplete set to move into.
      }
      if (!moving && nearest_distance < report.threshold) {
        moving = true;
      }
      if (moving) {
        sub.moved_to_incomplete = nearest;
        ++report.moved;
      }
    }
  }
  RebuildSets(partition);
  return report;
}

}  // namespace grandma::eager
