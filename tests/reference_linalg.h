// Matrix measures the tests check the library against: the entry-wise
// distance and Frobenius norm of CMats, and singular values by one-sided
// Jacobi rotations.
//
// The paper reasons about channel conditioning ("a low condition number is
// an indicator of a favorable channel", §5.1); the channel and QR property
// tests quantify it with condition_number and check that a QR preserves
// the singular values.  No library code path needs either.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>

#include "linalg/matrix.h"
#include "linalg/types.h"

namespace flexcore::testref {

/// Max |a_ij - b_ij| between two same-shape matrices.
inline double max_abs_diff(const linalg::CMat& a, const linalg::CMat& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

/// Frobenius norm.
inline double frobenius_norm(const linalg::CMat& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    s += linalg::abs2(a.data()[i]);
  }
  return std::sqrt(s);
}

/// All singular values of `a` (descending), via one-sided Jacobi rotations.
/// Accurate to ~1e-10 for the small matrices used here.
inline linalg::RVec singular_values(const linalg::CMat& a) {
  using linalg::abs2;
  using linalg::cplx;
  constexpr double kTol = 1e-14;
  constexpr int kMaxSweeps = 64;
  // Rotate column pairs of a working copy until all pairs are orthogonal;
  // the singular values are then the column norms.
  linalg::CMat w = (a.rows() >= a.cols()) ? a : a.hermitian();
  const std::size_t n = w.cols();
  const std::size_t m = w.rows();

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Gram entries of the (p,q) column pair.
        double app = 0.0, aqq = 0.0;
        cplx apq{0.0, 0.0};
        for (std::size_t i = 0; i < m; ++i) {
          const cplx u = w(i, p), v = w(i, q);
          app += abs2(u);
          aqq += abs2(v);
          apq += std::conj(u) * v;
        }
        const double offmag = std::abs(apq);
        if (offmag <= kTol * std::sqrt(app * aqq) || offmag == 0.0) continue;
        converged = false;

        // Complex Jacobi rotation zeroing u^H v.
        const cplx alpha = apq / offmag;
        const double zeta = (aqq - app) / (2.0 * offmag);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        const cplx alpha_conj = std::conj(alpha);
        for (std::size_t i = 0; i < m; ++i) {
          const cplx u = w(i, p), v = w(i, q);
          w(i, p) = c * u - s * alpha_conj * v;
          w(i, q) = s * alpha * u + c * v;
        }
      }
    }
    if (converged) break;
  }

  linalg::RVec sv(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) s2 += abs2(w(i, j));
    sv[j] = std::sqrt(s2);
  }
  std::sort(sv.begin(), sv.end(), std::greater<>());
  return sv;
}

/// 2-norm condition number sigma_max / sigma_min.  Returns +inf when the
/// smallest singular value underflows.
inline double condition_number(const linalg::CMat& a) {
  const linalg::RVec sv = singular_values(a);
  if (sv.empty()) return 0.0;
  const double smin = sv.back();
  if (smin <= std::numeric_limits<double>::min()) {
    return std::numeric_limits<double>::infinity();
  }
  return sv.front() / smin;
}

}  // namespace flexcore::testref
