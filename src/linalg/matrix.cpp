#include "linalg/matrix.h"

#include <utility>

namespace flexcore::linalg {

CMat CMat::identity(std::size_t n) {
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cplx{1.0, 0.0};
  return m;
}

CVec CMat::col(std::size_t c) const {
  assert(c < cols_);
  CVec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
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

}  // namespace flexcore::linalg
