#include "linalg/qr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "linalg/kernel_copies.h"
#include "linalg/kernel_isa.h"
#include "linalg/solve.h"
#include "parallel/hot_path.h"

namespace flexcore::linalg {

namespace {

constexpr double kRankTol = 1e-12;

#if FLEXCORE_KERNEL_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("sse4.1")
#define FLEXCORE_ISA_NS isa_sse41
#define FLEXCORE_ISA_VEC_BYTES 16
#include "linalg/qr_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
#define FLEXCORE_ISA_NS isa_avx2
#define FLEXCORE_ISA_VEC_BYTES 32
#include "linalg/qr_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define FLEXCORE_ISA_NS isa_avx512
#define FLEXCORE_ISA_VEC_BYTES 64
#include "linalg/qr_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options
#endif  // FLEXCORE_KERNEL_MULTIVERSION

#define FLEXCORE_ISA_NS isa_base
#define FLEXCORE_ISA_VEC_BYTES FLEXCORE_KERNEL_BASE_VEC_BYTES
#include "linalg/qr_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS

/// One ISA copy of the MGS lane kernel (linalg/qr_kernel.inc).
struct MgsKernel {
  void (*norms)(const double*, std::size_t, std::size_t, double*);
  void (*step)(double*, std::size_t, std::size_t, std::size_t, double,
               double*);
};

MgsKernel pick_mgs() {
#if FLEXCORE_KERNEL_MULTIVERSION
  constexpr MgsKernel copies[] = {
      {isa_base::mgs_norms, isa_base::mgs_step},
      {isa_sse41::mgs_norms, isa_sse41::mgs_step},
      {isa_avx2::mgs_norms, isa_avx2::mgs_step},
      {isa_avx512::mgs_norms, isa_avx512::mgs_step}};
#else
  constexpr MgsKernel copies[] = {{isa_base::mgs_norms, isa_base::mgs_step}};
#endif
  return copies[static_cast<std::size_t>(kernel_copy())];
}

const MgsKernel g_mgs = pick_mgs();

// The one MGS core: orthogonalizes the columns of `h` in the order chosen
// by `pick_next` into caller storage — Q, R and, when `perm` is non-null,
// the column permutation — reusing its capacity.  Q is the working matrix
// of the lane kernel (linalg/qr_kernel.inc), which normalizes column k and
// projects it out of every later column, row by row in lanes; each
// projection and each column norm still sums its rows in ascending order,
// bit for bit what a column-at-a-time MGS computes.  Until column j is
// processed, r(j, j) holds its downdated squared residual norm (the
// standard SQRD trick; the only per-column state `pick_next(k, r)` reads)
// and, in its imaginary part, the squared norm the kernel accumulated.
// With Tolerant set, a pivot below the rank tolerance produces a zero Q
// column and a zero R row instead of throwing (the shard-partial contract
// of qr_mgs_tolerant_into); the branch is compile-time, so the full-rank code
// path is the same instructions either way.
template <bool Tolerant, typename PickFn>
FLEXCORE_HOT_PATH
void mgs_core(CMatView h, CMat& q, CMat& r, std::vector<std::size_t>* perm,
              PickFn pick_next) {
  const std::size_t nr = h.rows();
  const std::size_t nt = h.cols();
  if (nr < nt) throw std::runtime_error("qr: requires rows >= cols");

  // flexcore-lint: allow-next-line(HP001) warm-capacity growth of Q
  q.assign(h);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth of R
  r.assign(nt, nt, cplx{0.0, 0.0});
  if (perm != nullptr) {
    // flexcore-lint: allow-next-line(HP001) warm-capacity growth of the perm
    perm->resize(nt);
    std::iota(perm->begin(), perm->end(), std::size_t{0});
  }
  // std::complex<double> is array-compatible with double[2].
  double* qd = reinterpret_cast<double*>(q.data());
  double* rd = reinterpret_cast<double*>(r.data());
  g_mgs.norms(qd, nr, nt, rd);

  for (std::size_t k = 0; k < nt; ++k) {
    const std::size_t pick = pick_next(k, r);
    if (pick != k) {
      q.swap_cols(k, pick);
      // The computed rows of R, and the two norm slots.
      for (std::size_t i = 0; i < k; ++i) std::swap(r(i, k), r(i, pick));
      std::swap(r(k, k), r(pick, pick));
      if (perm != nullptr) std::swap((*perm)[k], (*perm)[pick]);
    }

    const double nrm = std::sqrt(r(k, k).imag());
    if (!std::isfinite(nrm)) {
      // NaN/Inf entries would otherwise sail PAST the rank tolerance (NaN
      // comparisons are false) and poison Q/R silently.  Thrown in the
      // tolerant path too: zeroing a non-finite column would corrupt the
      // shard-partial stack rather than degrade it.
      throw std::runtime_error("qr: non-finite matrix entries");
    }
    if (nrm < kRankTol) {
      if constexpr (Tolerant) {
        // Residual column k lies in the span of the processed ones: zero
        // q's column k and r's row k.  H = Q R still holds (column k of H
        // reconstructs from the r(0..k-1, k) entries already stored), and
        // the dead level contributes nothing to R^H R.
        for (std::size_t i = 0; i < nr; ++i) q(i, k) = cplx{0.0, 0.0};
        r(k, k) = cplx{0.0, 0.0};
        continue;
      }
      throw std::runtime_error("qr: rank-deficient matrix");
    }
    r(k, k) = cplx{nrm, 0.0};
    g_mgs.step(qd, nr, nt, k, nrm, rd);
    // Cheap norm downdate, clamped against negative drift.
    for (std::size_t j = k + 1; j < nt; ++j) {
      r(j, j).real(std::max(0.0, r(j, j).real() - abs2(r(k, j))));
    }
  }
}

constexpr auto kNaturalOrder = [](std::size_t k, const CMat&) { return k; };

}  // namespace

void qr_mgs_into(CMatView h, QrResult* out) {
  mgs_core<false>(h, out->Q, out->R, &out->perm, kNaturalOrder);
}

void qr_mgs_tolerant_into(CMatView h, CMat* q, CMat* r) {
  mgs_core<true>(h, *q, *r, nullptr, kNaturalOrder);
}

void sorted_qr_wubben_into(CMatView h, QrResult* out) {
  // The not-yet-processed column of minimum residual norm.
  mgs_core<false>(h, out->Q, out->R, &out->perm,
                  [](std::size_t k, const CMat& r) {
                    std::size_t best = k;
                    for (std::size_t j = k + 1; j < r.cols(); ++j) {
                      if (r(j, j).real() < r(best, best).real()) best = j;
                    }
                    return best;
                  });
}

QrResult qr_mgs(CMatView h) {
  QrResult out;
  qr_mgs_into(h, &out);
  return out;
}

QrResult sorted_qr_wubben(CMatView h) {
  QrResult out;
  sorted_qr_wubben_into(h, &out);
  return out;
}

QrResult fcsd_sorted_qr(CMatView h, std::size_t full_levels) {
  const std::size_t nt = h.cols();
  if (full_levels > nt) {
    throw std::invalid_argument("fcsd_sorted_qr: full_levels > Nt");
  }

  // One Gram accumulation up front: the Gram of any column subset is a
  // principal submatrix of H^H H, so the per-iteration pseudo-inverses
  // below never have to re-touch the (potentially many-antenna-row) H.
  // Entry-wise this matches the old per-iteration hr^H hr bit for bit
  // (same row-ascending summation), so the ordering is unchanged.
  CMat full_gram(nt, nt);
  accumulate_gram(h, &full_gram);

  // Iteratively pick detection order. Iteration i selects the stream
  // detected at tree level Nt-i (i.e. column nt-1-i of the permuted H).
  std::vector<std::size_t> remaining(nt);
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<std::size_t> order(nt);  // order[i] = original col detected i-th

  for (std::size_t i = 0; i < nt; ++i) {
    // Pseudo-inverse of the remaining channel: G = (Hr^H Hr)^-1 Hr^H.
    // Noise amplification of stream j is the squared norm of G's row j.
    CMat gram(remaining.size(), remaining.size());
    for (std::size_t j = 0; j < remaining.size(); ++j) {
      for (std::size_t k = 0; k < remaining.size(); ++k) {
        gram(j, k) = full_gram(remaining[j], remaining[k]);
      }
    }
    const CMat ginv = inverse(gram);
    // row j of G = (ginv * Hr^H) has squared norm = (ginv * gram * ginv^H)_jj
    // = ginv_jj for Hermitian gram; use the direct identity to avoid forming G.
    std::size_t best = 0;
    double best_amp = ginv(0, 0).real();
    for (std::size_t j = 1; j < remaining.size(); ++j) {
      const double amp = ginv(j, j).real();
      const bool want_max = i < full_levels;
      if (want_max ? (amp > best_amp) : (amp < best_amp)) {
        best = j;
        best_amp = amp;
      }
    }
    order[i] = remaining[best];
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
  }

  // Column nt-1-i of the permuted matrix is detected i-th.
  std::vector<std::size_t> perm(nt);
  for (std::size_t i = 0; i < nt; ++i) perm[nt - 1 - i] = order[i];

  CMat hp(h.rows(), nt);
  for (std::size_t j = 0; j < nt; ++j) hp.set_col(j, h.col(perm[j]));
  QrResult qr = qr_mgs(hp);
  qr.perm = perm;
  return qr;
}

}  // namespace flexcore::linalg
