// Column-at-a-time modified Gram-Schmidt: the bit-identity reference of
// the library's MGS core (linalg/qr.cpp and its lane kernel,
// linalg/qr_kernel.inc).  Also the scalar Q^H y loop, the reference of the
// rotation lane kernel (linalg::hermitian_mul_into).
//
// The library orthogonalizes in the output Q's own storage and updates
// every later column row by row, in lanes.  This reference is the textbook
// form: each residual column is copied out, projected and written back one
// column at a time, with the residual norms in their own array.  Both sum
// each projection and each norm over rows in ascending order, so Q, R and
// the permutation must agree bit for bit (tests/linalg_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/types.h"

namespace flexcore::testref {

// dot and axpy stay out of GCC's loop vectorizer for the reason given at
// hermitian_mul_scalar below: where the target has FMA, it would fuse their
// complex multiply-adds in spite of -ffp-contract=off.

/// Hermitian inner product <a, b> = a^H b.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-loop-vectorize")))
#endif
inline linalg::cplx dot(const linalg::CVec& a, const linalg::CVec& b) {
  linalg::cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
  return s;
}

/// y += alpha * x
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-loop-vectorize")))
#endif
inline void axpy(linalg::cplx alpha, const linalg::CVec& x,
                 linalg::CVec& y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// MGS over the columns of `h` in the order `pick_next(k, norms2)` chooses
/// (norms2: squared residual norms, NaN for processed columns).  Tolerant:
/// a pivot below 1e-12 gives a zero Q column and R row instead of a throw.
template <typename PickFn>
linalg::QrResult mgs_by_columns(linalg::CMatView h, bool tolerant,
                                PickFn pick_next) {
  using linalg::CMat;
  using linalg::CVec;
  using linalg::cplx;
  constexpr double kRankTol = 1e-12;
  const std::size_t nr = h.rows();
  const std::size_t nt = h.cols();
  if (nr < nt) throw std::runtime_error("qr: requires rows >= cols");

  CMat a = h.materialize();
  CMat q(nr, nt);
  CMat r(nt, nt);
  std::vector<std::size_t> perm(nt);
  std::iota(perm.begin(), perm.end(), 0);

  std::vector<double> norms2(nt);
  for (std::size_t j = 0; j < nt; ++j) norms2[j] = linalg::norm2(a.col(j));

  for (std::size_t k = 0; k < nt; ++k) {
    const std::size_t pick = pick_next(k, norms2);
    if (pick != k) {
      a.swap_cols(k, pick);
      r.swap_cols(k, pick);
      std::swap(perm[k], perm[pick]);
      std::swap(norms2[k], norms2[pick]);
    }

    CVec qk = a.col(k);
    const double nrm = std::sqrt(linalg::norm2(qk));
    if (!std::isfinite(nrm)) {
      throw std::runtime_error("qr: non-finite matrix entries");
    }
    if (nrm < kRankTol) {
      if (tolerant) {
        norms2[k] = std::numeric_limits<double>::quiet_NaN();
        continue;
      }
      throw std::runtime_error("qr: rank-deficient matrix");
    }
    r(k, k) = cplx{nrm, 0.0};
    for (auto& z : qk) z /= nrm;
    q.set_col(k, qk);

    for (std::size_t j = k + 1; j < nt; ++j) {
      CVec aj = a.col(j);
      const cplx proj = dot(qk, aj);
      r(k, j) = proj;
      axpy(-proj, qk, aj);
      a.set_col(j, aj);
      norms2[j] = std::max(0.0, norms2[j] - linalg::abs2(proj));
    }
    norms2[k] = std::numeric_limits<double>::quiet_NaN();
  }
  return linalg::QrResult{std::move(q), std::move(r), std::move(perm)};
}

inline linalg::QrResult qr_mgs_by_columns(linalg::CMatView h,
                                          bool tolerant = false) {
  return mgs_by_columns(h, tolerant,
                        [](std::size_t k, const std::vector<double>&) {
                          return k;
                        });
}

inline linalg::QrResult sorted_qr_wubben_by_columns(linalg::CMatView h) {
  return mgs_by_columns(
      h, false, [](std::size_t k, const std::vector<double>& norms2) {
        std::size_t best = k;
        for (std::size_t j = k + 1; j < norms2.size(); ++j) {
          if (norms2[j] < norms2[best]) best = j;
        }
        return best;
      });
}

/// out = m^H v as the scalar std::complex loop: each entry starts from
/// +0 and adds conj(m(j, i)) * v[j] in ascending j.  Kept out of GCC's
/// loop vectorizer: where the target has FMA (-march=native), GCC 12
/// vectorizes this loop's complex multiply into fused multiply-adds in
/// spite of -ffp-contract=off, and the reference must be the twice-rounded
/// product the portable build computes.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-loop-vectorize")))
#endif
inline void hermitian_mul_scalar(linalg::CMatView m,
                                 std::span<const linalg::cplx> v,
                                 std::span<linalg::cplx> out) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t i = 0; i < cols; ++i) out[i] = linalg::cplx{0.0, 0.0};
  const linalg::cplx* data = m.data();
  for (std::size_t j = 0; j < rows; ++j) {
    const linalg::cplx vj = v[j];
    const linalg::cplx* row = data + j * cols;
    for (std::size_t i = 0; i < cols; ++i) out[i] += std::conj(row[i]) * vj;
  }
}

}  // namespace flexcore::testref
