// Square QAM constellations with Gray bit mapping.
//
// All constellations are normalized to unit average symbol energy (Es = 1),
// the convention assumed by the probability model of the paper (Eq. 4) and
// by the SNR definitions in the simulation harness.
//
// Internally a square M-QAM symbol is the pair (iI, iQ) of PAM indices,
// iI, iQ in [0, sqrt(M)), with amplitude (2*idx - (m-1)) * scale on each
// axis.  The *symbol index* is iI * m + iQ.  Bits map to each axis
// independently through a binary-reflected Gray code, so adjacent
// constellation points differ in exactly one bit per axis.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "linalg/types.h"

namespace flexcore::modulation {

using linalg::cplx;

/// Supported modulation orders.
enum class QamOrder : int {
  kQam4 = 4,
  kQam16 = 16,
  kQam64 = 64,
  kQam256 = 256,
};

/// Square M-QAM constellation with Gray mapping and unit average energy.
class Constellation {
 public:
  /// Builds an M-QAM constellation.  `order` must be a perfect square power
  /// of four (4, 16, 64, 256); throws std::invalid_argument otherwise.
  explicit Constellation(int order);
  explicit Constellation(QamOrder order) : Constellation(static_cast<int>(order)) {}

  int order() const noexcept { return order_; }                ///< M
  int side() const noexcept { return side_; }                  ///< sqrt(M)
  int bits_per_symbol() const noexcept { return bits_; }       ///< log2(M)
  double scale() const noexcept { return scale_; }             ///< PAM step / 2
  /// Precomputed 1 / scale(): the slicer quantizes by multiplying with
  /// this (division is the single hottest op on the detection fast path).
  /// Kernels replicating the slicer must use this same value so their
  /// decisions stay bit-identical.
  double inv_scale() const noexcept { return inv_scale_; }
  /// Minimum distance between adjacent constellation points (= 2*scale).
  double min_distance() const noexcept { return 2.0 * scale_; }

  /// All constellation points, indexed by symbol index.
  const std::vector<cplx>& points() const noexcept { return points_; }
  cplx point(int index) const { return points_[static_cast<std::size_t>(index)]; }

  /// PAM amplitude for axis index i in [0, side): (2i - (side-1)) * scale.
  double pam_level(int i) const noexcept {
    return (2.0 * i - (side_ - 1)) * scale_;
  }

  /// Symbol index from per-axis PAM indices.
  int index_from_axes(int i_re, int i_im) const noexcept {
    return i_re * side_ + i_im;
  }
  int axis_re(int index) const noexcept { return index / side_; }
  int axis_im(int index) const noexcept { return index % side_; }

  /// Nearest constellation point to z (hard decision), O(1).
  int slice(cplx z) const noexcept;

  /// Nearest *integer lattice* axis index to the given coordinate, without
  /// clamping to the constellation boundary.  Used by the FlexCore ordering
  /// LUT, where the slicer square may be centered outside the constellation.
  int unbounded_axis_index(double coord) const noexcept;

  /// Whether an (unbounded) axis-index pair addresses a real symbol.
  bool axes_in_range(int i_re, int i_im) const noexcept {
    return i_re >= 0 && i_re < side_ && i_im >= 0 && i_im < side_;
  }

  /// The k-th closest constellation point to z (k is 1-based), by exhaustive
  /// distance sort.  O(M log M); reference implementation used by tests and
  /// by the exact-ordering detection variant.
  int kth_nearest_exact(cplx z, int k) const;

  /// Gray-maps `bits_per_symbol()` bits (MSB first) to a symbol index.
  int map_bits(const std::vector<std::uint8_t>& bits, std::size_t offset = 0) const;

  /// Inverse of map_bits: appends `bits_per_symbol()` bits to `out`.
  void unmap_bits(int index, std::vector<std::uint8_t>& out) const;

 private:
  int order_;
  int side_;
  int bits_;
  double scale_;
  double inv_scale_;
  std::vector<cplx> points_;
  std::vector<int> gray_to_axis_;  // gray code value -> PAM axis index
  std::vector<int> axis_to_gray_;  // PAM axis index -> gray code value
};

}  // namespace flexcore::modulation
