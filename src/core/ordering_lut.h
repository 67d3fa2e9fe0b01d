// Approximate k-th-closest-symbol ordering via the triangle LUT of Fig. 6.
//
// Detection needs "the k-th closest constellation point to the effective
// received point".  Computing that exactly costs |Q| distance evaluations
// plus a sort per level — exactly what FlexCore avoids.  Instead (§3.2):
//
//  * Quantize the received point to the nearest point of the (unbounded)
//    constellation lattice; the residual falls in a square of side d_min
//    centered on that lattice point.
//  * Split the square into 8 triangles.  For ONE canonical triangle store a
//    precomputed distance order of lattice offsets — the exact order at the
//    triangle's centroid; the other 7 follow by the constellation's
//    dihedral symmetry.  The paper instead takes the most frequent order
//    over points sampled in the triangle; the two agree on the head of the
//    order (tests/reference_lut.h holds the sampled derivation).
//  * The k-th entry of the (transformed) order added to the center gives
//    the k-th closest symbol.  If it lands outside the constellation the
//    corresponding processing element is deactivated (paper behaviour), or
//    optionally skipped (ablation).
#pragma once

#include <cstdint>
#include <vector>

#include "modulation/constellation.h"

namespace flexcore::core {

using linalg::cplx;
using modulation::Constellation;

/// What to do when the LUT addresses a symbol outside the constellation.
enum class InvalidEntryPolicy {
  /// Paper behaviour: the PE is deactivated; the path yields no candidate.
  kDeactivate,
  /// Ablation: advance to the next in-constellation entry.
  kSkipToValid,
};

class OrderingLut {
 public:
  /// Lattice offset relative to the slicer center, in d_min steps.
  struct Offset {
    std::int8_t di;  ///< real-axis steps
    std::int8_t dq;  ///< imaginary-axis steps
  };

  explicit OrderingLut(const Constellation& c);

  /// The symbol index of the k-th closest constellation point to z
  /// (k is 1-based, k <= |Q|), or -1 when the entry is invalid under
  /// `policy` (kDeactivate and out of constellation, or kSkipToValid with
  /// fewer than k valid entries).
  int kth_symbol(
      cplx z, int k,
      InvalidEntryPolicy policy = InvalidEntryPolicy::kDeactivate) const;

  /// Canonical (triangle-1) order, exposed for tests and benches.
  const std::vector<Offset>& base_order() const noexcept { return *base_; }

  const Constellation& constellation() const noexcept { return *c_; }

 private:
  const Constellation* c_;
  /// |Q| entries for triangle t1: the lattice offsets in ascending distance
  /// from its centroid.  One per constellation order, built the first time
  /// any LUT of that order is, and shared by every LUT of that order.
  const std::vector<Offset>* base_;
};

}  // namespace flexcore::core
