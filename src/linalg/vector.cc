#include "linalg/vector.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace grandma::linalg {

namespace {
void CheckSameSize(const Vector& a, const Vector& b, const char* op) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string("Vector size mismatch in ") + op + ": " +
                                std::to_string(a.size()) + " vs " + std::to_string(b.size()));
  }
}
}  // namespace

Vector& Vector::operator+=(const Vector& rhs) {
  CheckSameSize(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += rhs.data_[i];
  }
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  CheckSameSize(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= rhs.data_[i];
  }
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& v : data_) {
    v *= s;
  }
  return *this;
}

Vector& Vector::operator/=(double s) {
  for (double& v : data_) {
    v /= s;
  }
  return *this;
}

double Vector::norm() const { return std::sqrt(squared_norm()); }

double Vector::squared_norm() const {
  double sum = 0.0;
  for (double v : data_) {
    sum += v * v;
  }
  return sum;
}

void Vector::fill(double value) {
  for (double& v : data_) {
    v = value;
  }
}

std::string Vector::ToString() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (i != 0) {
      os << ", ";
    }
    os << data_[i];
  }
  os << "]";
  return os.str();
}

double Dot(const Vector& a, const Vector& b) {
  CheckSameSize(a, b, "Dot");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

double MaxAbsDifference(const Vector& a, const Vector& b) {
  CheckSameSize(a, b, "MaxAbsDifference");
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

bool AlmostEqual(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) {
    return false;
  }
  return MaxAbsDifference(a, b) <= tol;
}

}  // namespace grandma::linalg
