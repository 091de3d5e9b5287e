// Dense row-major double matrix sized for classifier training: covariance
// matrices of ~13 features and their inverses.
#ifndef GRANDMA_SRC_LINALG_MATRIX_H_
#define GRANDMA_SRC_LINALG_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/vec_view.h"
#include "linalg/vector.h"

namespace grandma::linalg {

// A dense rows x cols matrix of doubles, row-major. Value semantics.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Builds from nested initializer lists; all rows must be the same length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix Identity(std::size_t n);
  // Diagonal matrix from the entries of `d`.
  static Matrix Diagonal(const Vector& d);
  // Rank-1 matrix a * b^T.
  static Matrix Outer(const Vector& a, const Vector& b);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  // Assert-checked access, like Vector::operator[].
  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  // Checked access; throws std::out_of_range in all builds.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

  bool operator==(const Matrix& rhs) const = default;

  Matrix Transposed() const;

  // Returns row r as a vector.
  Vector Row(std::size_t r) const;
  Vector Col(std::size_t c) const;

  // Non-owning view of row r (rows are contiguous in the row-major storage);
  // valid until the matrix is resized or destroyed. Assert-checked.
  VecView RowView(std::size_t r) const {
    assert(r < rows_);
    return VecView(data_.data() + r * cols_, cols_);
  }

  // Raw row-major storage (rows * cols doubles, rows contiguous); valid
  // until the matrix is resized or destroyed. For the SIMD kernels.
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  // Largest absolute entry; 0 for an empty matrix.
  double MaxAbs() const;

  // True when the matrix equals its transpose to within `tol`.
  bool IsSymmetric(double tol = 1e-12) const;

  std::string ToString() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Matrix-vector product; x.size() must equal m.cols().
Vector Multiply(const Matrix& m, const Vector& x);

// Matrix-matrix product; a.cols() must equal b.rows().
Matrix Multiply(const Matrix& a, const Matrix& b);

// Quadratic form x^T m y (m must be square with side x.size() == y.size()).
double QuadraticForm(const Vector& x, const Matrix& m, const Vector& y);

// View flavor: both run simd::QuadraticForm (one chain per row in column
// order, outer sum in row order; one scalar body on every tier), no
// allocation. Dimension mismatches throw std::invalid_argument, as in the
// Vector overload — the check is once per call, not per element.
double QuadraticForm(VecView x, const Matrix& m, VecView y);

// Squared distances from one point to many under the square matrix m:
// out[k] = (x - p_k)^T m (x - p_k) for k < out.size(), where the points are
// stored feature-major, p_k[i] = points[i * stride + k]. Runs
// simd::QuadraticDistances, which computes exactly QuadraticForm's chain on
// d = x - p_k (every row dot starts at 0.0 and adds in column order, then
// the outer sum starts at 0.0 and adds in row order) with one scalar body on
// every tier, so out[k] is bit-identical to QuadraticForm(x - p_k, m,
// x - p_k) for any dimension, count and tier. No allocation. m must be x.size()
// square (throws std::invalid_argument otherwise).
void QuadraticDistances(VecView x, const Matrix& m, const double* points, std::size_t stride,
                        MutVecView out);

// Lays points out feature-major for QuadraticDistances: point k's feature i
// at block[i * points.size() + k], so the stride is points.size(). Every
// point must have the same size (throws std::invalid_argument otherwise).
std::vector<double> FeatureMajorBlock(const std::vector<const Vector*>& points);

// True when every entry differs by at most tol.
bool AlmostEqual(const Matrix& a, const Matrix& b, double tol);

}  // namespace grandma::linalg

#endif  // GRANDMA_SRC_LINALG_MATRIX_H_
