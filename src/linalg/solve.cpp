#include "linalg/solve.h"

#include <cmath>
#include <stdexcept>

namespace flexcore::linalg {

namespace {
constexpr double kPivotTol = 1e-13;

// Gauss-Jordan with partial pivoting, reducing [a | rhs] in place to
// [I | a^-1 rhs]. rhs may have any number of columns.
FLEXCORE_NO_FMA_VECTORIZE
void gauss_jordan(CMat& a, CMat& rhs) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |a(i,k)| for i >= k.
    std::size_t piv = k;
    double pmax = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > pmax) {
        piv = i;
        pmax = v;
      }
    }
    if (pmax < kPivotTol) {
      throw std::runtime_error("gauss_jordan: singular matrix");
    }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      for (std::size_t j = 0; j < rhs.cols(); ++j) {
        std::swap(rhs(k, j), rhs(piv, j));
      }
    }
    const cplx inv_p = cplx{1.0, 0.0} / a(k, k);
    for (std::size_t j = 0; j < n; ++j) a(k, j) *= inv_p;
    for (std::size_t j = 0; j < rhs.cols(); ++j) rhs(k, j) *= inv_p;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == k) continue;
      const cplx f = a(i, k);
      if (f == cplx{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < n; ++j) a(i, j) -= f * a(k, j);
      for (std::size_t j = 0; j < rhs.cols(); ++j) rhs(i, j) -= f * rhs(k, j);
    }
  }
}
}  // namespace

CMat inverse(const CMat& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("inverse: non-square");
  CMat work = a;
  CMat rhs = CMat::identity(a.rows());
  gauss_jordan(work, rhs);
  return rhs;
}

FLEXCORE_NO_FMA_VECTORIZE
CMat cholesky(const CMat& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: non-square");
  const std::size_t n = a.rows();
  CMat l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j).real();
    for (std::size_t k = 0; k < j; ++k) d -= abs2(l(j, k));
    if (d <= 0.0) {
      throw std::runtime_error("cholesky: matrix not positive definite");
    }
    const double ljj = std::sqrt(d);
    l(j, j) = cplx{ljj, 0.0};
    for (std::size_t i = j + 1; i < n; ++i) {
      cplx s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * std::conj(l(j, k));
      l(i, j) = s / ljj;
    }
  }
  return l;
}

CMat zf_filter(const CMat& h) {
  const CMat hh = h.hermitian();
  return inverse(hh * h) * hh;
}

CMat mmse_filter(const CMat& h, double noise_var) {
  const CMat hh = h.hermitian();
  CMat gram = hh * h;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    gram(i, i) += cplx{noise_var, 0.0};
  }
  return inverse(gram) * hh;
}

}  // namespace flexcore::linalg
