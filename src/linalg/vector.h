// Dense double-precision vector for the small feature-space problems GRANDMA
// solves (typical dimension: 13 features, a few dozen classes). Simplicity and
// numerical transparency are preferred over BLAS-grade performance.
#ifndef GRANDMA_SRC_LINALG_VECTOR_H_
#define GRANDMA_SRC_LINALG_VECTOR_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/vec_view.h"

namespace grandma::linalg {

// A resizable dense vector of doubles. Value semantics throughout: copies are
// deep and cheap at the sizes this library works with.
//
// Element access comes in two flavors with different checking guarantees:
//   - operator[] is assert-checked, i.e. checked in debug builds only
//     (builds without NDEBUG); in release builds an out-of-range index is
//     undefined behavior.
//   - at() throws std::out_of_range on a bad index in ALL builds.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Assert-checked access: bounds are verified in debug builds only; an
  // out-of-range index in a release (NDEBUG) build is undefined behavior.
  double& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  double operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  // Checked access: throws std::out_of_range on a bad index in all builds.
  double& at(std::size_t i) { return data_.at(i); }
  double at(std::size_t i) const { return data_.at(i); }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  // Non-owning views over the storage (see linalg/vec_view.h); valid until
  // the vector is resized or destroyed.
  VecView view() const { return VecView(data_.data(), data_.size()); }
  MutVecView view() { return MutVecView(data_.data(), data_.size()); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  // Element-wise arithmetic. Sizes must match; mismatches throw
  // std::invalid_argument (dimension errors are programmer errors but are
  // cheap to diagnose eagerly at these sizes).
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(Vector lhs, double s) { return lhs *= s; }
  friend Vector operator*(double s, Vector rhs) { return rhs *= s; }
  friend Vector operator/(Vector lhs, double s) { return lhs /= s; }

  bool operator==(const Vector& rhs) const { return data_ == rhs.data_; }

  // Euclidean norm and its square.
  double norm() const;
  double squared_norm() const;

  // Fills every element with `value`.
  void fill(double value);

  // Human-readable "[a, b, c]" rendering, mainly for test diagnostics.
  std::string ToString() const;

 private:
  std::vector<double> data_;
};

// Inner product. Sizes must match.
double Dot(const Vector& a, const Vector& b);

// Returns max_i |a_i - b_i|; vectors must be the same size.
double MaxAbsDifference(const Vector& a, const Vector& b);

// True when every |a_i - b_i| <= tol.
bool AlmostEqual(const Vector& a, const Vector& b, double tol);

}  // namespace grandma::linalg

#endif  // GRANDMA_SRC_LINALG_VECTOR_H_
