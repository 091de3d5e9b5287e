#include "linalg/matrix.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "linalg/simd.h"

namespace grandma::linalg {

namespace {
void CheckSameShape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("Matrix shape mismatch in ") + op);
  }
}
}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix initializer rows have differing lengths");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    m(i, i) = d[i];
  }
  return m;
}

Matrix Matrix::Outer(const Vector& a, const Vector& b) {
  Matrix m(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      m(i, j) = a[i] * b[j];
    }
  }
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at index out of range");
  }
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at index out of range");
  }
  return data_[r * cols_ + c];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  CheckSameShape(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += rhs.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  CheckSameShape(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= rhs.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) {
    v *= s;
  }
  return *this;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Vector Matrix::Row(std::size_t r) const {
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) {
    v[c] = (*this)(r, c);
  }
  return v;
}

Vector Matrix::Col(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    v[r] = (*this)(r, c);
  }
  return v;
}

double Matrix::MaxAbs() const {
  double max_abs = 0.0;
  for (double v : data_) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  return max_abs;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) {
    return false;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) {
        return false;
      }
    }
  }
  return true;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r != 0) {
      os << "; ";
    }
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c != 0) {
        os << ", ";
      }
      os << (*this)(r, c);
    }
  }
  os << "]";
  return os.str();
}

Vector Multiply(const Matrix& m, const Vector& x) {
  if (m.cols() != x.size()) {
    throw std::invalid_argument("Multiply(Matrix, Vector): dimension mismatch");
  }
  Vector y(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      sum += m(r, c) * x[c];
    }
    y[r] = sum;
  }
  return y;
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("Multiply(Matrix, Matrix): dimension mismatch");
  }
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

double QuadraticForm(const Vector& x, const Matrix& m, const Vector& y) {
  return QuadraticForm(x.view(), m, y.view());
}

double QuadraticForm(VecView x, const Matrix& m, VecView y) {
  if (m.rows() != x.size() || m.cols() != y.size() || x.size() != y.size()) {
    throw std::invalid_argument("QuadraticForm: dimension mismatch");
  }
  return simd::QuadraticForm(x, m.data(), y);
}

void QuadraticDistances(VecView x, const Matrix& m, const double* points, std::size_t stride,
                        MutVecView out) {
  const std::size_t n = x.size();
  if (m.rows() != n || m.cols() != n) {
    throw std::invalid_argument("QuadraticDistances: dimension mismatch");
  }
  simd::QuadraticDistances(x, m.data(), points, stride, out);
}

std::vector<double> FeatureMajorBlock(const std::vector<const Vector*>& points) {
  const std::size_t count = points.size();
  const std::size_t dim = count > 0 ? points[0]->size() : 0;
  std::vector<double> block(dim * count);
  for (std::size_t k = 0; k < count; ++k) {
    if (points[k]->size() != dim) {
      throw std::invalid_argument("FeatureMajorBlock: dimension mismatch");
    }
    for (std::size_t i = 0; i < dim; ++i) {
      block[i * count + k] = (*points[k])[i];
    }
  }
  return block;
}

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return false;
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c) - b(r, c)) > tol) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace grandma::linalg
