#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace flexcore::linalg {

CMat::CMat(std::initializer_list<std::initializer_list<cplx>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("CMat: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

CMat CMat::identity(std::size_t n) {
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cplx{1.0, 0.0};
  return m;
}

CMat CMat::diag(const CVec& d) {
  CMat m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

CVec CMat::col(std::size_t c) const {
  assert(c < cols_);
  CVec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

CVec CMat::row(std::size_t r) const {
  assert(r < rows_);
  CVec v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

void CMat::set_col(std::size_t c, const CVec& v) {
  assert(c < cols_ && v.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void CMat::swap_cols(std::size_t a, std::size_t b) {
  assert(a < cols_ && b < cols_);
  if (a == b) return;
  for (std::size_t r = 0; r < rows_; ++r) {
    std::swap((*this)(r, a), (*this)(r, b));
  }
}

CMat CMat::hermitian() const {
  CMat m(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) m(c, r) = std::conj((*this)(r, c));
  return m;
}

CMat CMat::transpose() const {
  CMat m(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) m(c, r) = (*this)(r, c);
  return m;
}

CMat CMat::operator+(const CMat& o) const {
  assert(same_shape(o));
  CMat m = *this;
  m += o;
  return m;
}

CMat CMat::operator-(const CMat& o) const {
  assert(same_shape(o));
  CMat m = *this;
  m -= o;
  return m;
}

CMat& CMat::operator+=(const CMat& o) {
  assert(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

CMat& CMat::operator-=(const CMat& o) {
  assert(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

FLEXCORE_NO_FMA_VECTORIZE
CMat CMat::operator*(const CMat& o) const {
  assert(cols_ == o.rows_);
  CMat m(rows_, o.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cplx a = (*this)(r, k);
      if (a == cplx{0.0, 0.0}) continue;
      for (std::size_t c = 0; c < o.cols_; ++c) {
        m(r, c) += a * o(k, c);
      }
    }
  }
  return m;
}

FLEXCORE_NO_FMA_VECTORIZE
CVec CMat::operator*(const CVec& v) const {
  assert(cols_ == v.size());
  CVec out(rows_, cplx{0.0, 0.0});
  for (std::size_t r = 0; r < rows_; ++r) {
    cplx s{0.0, 0.0};
    const cplx* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) s += row[c] * v[c];
    out[r] = s;
  }
  return out;
}

CMat CMat::operator*(cplx s) const {
  CMat m = *this;
  for (auto& z : m.data_) z *= s;
  return m;
}

double CMat::frobenius_norm() const {
  double s = 0.0;
  for (cplx z : data_) s += abs2(z);
  return std::sqrt(s);
}

double CMat::max_abs_diff(const CMat& a, const CMat& b) {
  assert(a.same_shape(b));
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

FLEXCORE_NO_FMA_VECTORIZE
void accumulate_gram(CMatView h, CMat* gram) {
  const std::size_t rows = h.rows();
  const std::size_t cols = h.cols();
  assert(gram != nullptr && gram->rows() == cols && gram->cols() == cols);
  const cplx* data = h.data();
  cplx* g = gram->data();
  // Row-by-row rank-1 updates, row-major walk on both sides.  The summation
  // order over rows matches CMat::operator* (inner dimension ascending), so
  // a one-shot full-matrix Gram here is bit-identical to h.hermitian() * h.
  for (std::size_t r = 0; r < rows; ++r) {
    const cplx* row = data + r * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      const cplx hj = std::conj(row[j]);
      cplx* grow = g + j * cols;
      for (std::size_t k = 0; k < cols; ++k) grow[k] += hj * row[k];
    }
  }
}

std::string CMat::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      cplx z = (*this)(r, c);
      os << z.real() << (z.imag() >= 0 ? "+" : "") << z.imag() << "j";
      if (c + 1 < cols_) os << ", ";
    }
    os << (r + 1 == rows_ ? "]" : ";\n");
  }
  return os.str();
}

}  // namespace flexcore::linalg
