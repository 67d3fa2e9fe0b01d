// Split-complex structure-of-arrays helpers for the lane-parallel kernel
// engine (detect/path_kernels.h).
//
// The convention: a sequence of complex numbers that a hot kernel walks
// lane-parallel is stored as two contiguous scalar arrays (re[], im[])
// instead of interleaved std::complex — the layout CPU SIMD units want
// (every lane loads from the same array at consecutive offsets) and the
// CPU analogue of the paper's SIMT registers.  Split arithmetic also
// sidesteps libstdc++'s Annex-G complex multiply/divide helpers
// (__muldc3 and friends): a split multiply is four independent scalar
// multiplies the auto-vectorizer can fuse across lanes, with the exact
// same finite-value results as std::complex.
//
// `kSimdLanes` is the block width the path kernels evaluate per call:
// wide enough to fill an AVX-512 register of doubles (16 lanes would gain
// little and double the tail waste), and a multiple of every narrower
// vector width so the tail handling stays in one place.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/types.h"

namespace flexcore::linalg {

/// Paths evaluated per path_metric_block call (lanes per block).
inline constexpr std::size_t kSimdLanes = 8;

/// Lanes per block of the int16 quantized tier: the same register budget
/// holds twice as many 32-bit accumulator lanes as doubles, so the i16
/// plans block their paths twice as wide (detect::PathPlanI16::kLanes).
inline constexpr std::size_t kSimdLanesI16 = 2 * kSimdLanes;

/// Rounds a count up to whole blocks of kSimdLanes.
inline constexpr std::size_t simd_blocks(std::size_t n) noexcept {
  return (n + kSimdLanes - 1) / kSimdLanes;
}

/// Rounds a count up to whole blocks of `lanes` (i16 tier: kSimdLanesI16).
inline constexpr std::size_t simd_blocks_of(std::size_t n,
                                            std::size_t lanes) noexcept {
  return (n + lanes - 1) / lanes;
}

/// A complex sequence stored as two parallel double arrays: the exact fp64
/// plan's layout (the quantized tier keeps its int16 rows in plain vectors).
struct SplitVec {
  std::vector<double> re, im;

  void resize(std::size_t n) {
    re.resize(n);
    im.resize(n);
  }

  void clear() {
    re.clear();
    im.clear();
  }

  void set(std::size_t i, cplx z) {
    re[i] = z.real();
    im[i] = z.imag();
  }

  /// Packs an interleaved complex sequence into the split layout.
  void assign(std::span<const cplx> src) {
    resize(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) set(i, src[i]);
  }
};

}  // namespace flexcore::linalg
