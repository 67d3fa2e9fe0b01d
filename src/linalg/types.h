// Basic scalar/vector types shared by the whole library.
//
// Two complex-number representations coexist, by deliberate convention:
//
//  * std::complex<double> (`cplx`, interleaved re/im) is the default for
//    everything off the per-path hot loop — matrices, QR, preprocessing,
//    channel models, detector plumbing.  Dimensions are tiny (MIMO sizes
//    up to 16x16), so clarity and numerical robustness win there.
//  * Split-complex structure-of-arrays (linalg/simd.h: two contiguous
//    double arrays re[], im[]) is the layout of the
//    lane-parallel kernel engine (detect/path_kernels.h), where thousands
//    of identical per-path programs run per received vector and the
//    auto-vectorizer needs branch-light split arithmetic to fill SIMD
//    lanes.
//
// Use cplx until a loop is hot enough to block over paths; then compile
// the state into a PathPlan once per channel and evaluate split.  The
// split double tier is bit-identical to the cplx formulas on finite
// values (same naive multiply std::complex evaluates to), which is what
// lets the kernels swap in without changing any result.
//
// One lane kernel reads cplx storage as it is: the Q^H y rotation
// (linalg::hermitian_mul_into) loads interleaved (re, im) pairs straight
// into lanes and swaps each pair in-register, so every Q — the
// detectors' and the shard clusters' — stays in one layout, with no
// split copy to rebuild per channel.  It keeps the same naive-multiply
// bit-identity.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

/// Keeps a function's std::complex arithmetic out of GCC's vectorizers
/// where the target has FMA (-march=native).  GCC 12's loop vectorizer and
/// its SLP complex-multiply pattern fuse vectorized complex multiply-adds
/// in spite of -ffp-contract=off, so such a function would round
/// differently from the portable build.  Expands to nothing in every other
/// build, which therefore compiles unchanged.
#if defined(__GNUC__) && !defined(__clang__) && defined(__FMA__)
#define FLEXCORE_NO_FMA_VECTORIZE \
  __attribute__((optimize("no-tree-loop-vectorize", "no-tree-slp-vectorize")))
#else
#define FLEXCORE_NO_FMA_VECTORIZE
#endif

namespace flexcore::linalg {

using cplx = std::complex<double>;

/// Dense complex column vector.
using CVec = std::vector<cplx>;

/// Dense real vector.
using RVec = std::vector<double>;

/// Squared magnitude |z|^2 (cheaper than std::abs which takes a sqrt).
inline double abs2(cplx z) noexcept {
  return z.real() * z.real() + z.imag() * z.imag();
}

/// Squared Euclidean norm of a complex vector.
inline double norm2(const CVec& v) noexcept {
  double s = 0.0;
  for (cplx z : v) s += abs2(z);
  return s;
}

/// Element-wise difference a - b.
inline CVec sub(const CVec& a, const CVec& b) {
  CVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

}  // namespace flexcore::linalg
