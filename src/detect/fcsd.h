// Fixed Complexity Sphere Decoder (Barbero & Thompson), the paper's main
// competitor.
//
// The FCSD fully expands the top `full_levels` (L) tree levels — visiting
// all |Q|^L combinations — and extends each combination greedily (branching
// factor one, nearest child) through the remaining Nt - L levels.  All
// |Q|^L paths are independent, so at minimum latency the FCSD needs exactly
// |Q|^L processing elements: the inflexibility FlexCore removes (§2).
#pragma once

#include <string>

#include "detect/path_detector.h"

namespace flexcore::detect {

/// The FCSD on the path-parallel engine (detect/path_detector.h): the QR
/// with the FCSD column order and the |Q|^L-path plan are its own; the
/// rotation, the grids, reconstruction and detection are the base's.
class FcsdDetector : public PathParallelDetector {
 public:
  /// `full_levels` = L, the number of fully-expanded levels (1 or 2 in the
  /// paper's evaluation).  `precision` selects the compute tier of the
  /// path grids (spec suffix ":i16"); everything outside the grid stays
  /// double.  Throws std::invalid_argument naming L and |Q| when |Q|^L
  /// does not fit std::size_t.
  FcsdDetector(const Constellation& c, std::size_t full_levels,
               Precision precision = Precision::kFloat64);

  std::string name() const override {
    return "fcsd-L" + std::to_string(full_levels_) +
           precision_suffix(precision());
  }

  /// |Q|^L — the number of independent paths / required PEs.
  std::size_t num_paths() const noexcept { return num_paths_; }
  std::size_t full_levels() const noexcept { return full_levels_; }

 private:
  void install_channel(const CMat& h, double noise_var) override;

  std::size_t full_levels_;
};

}  // namespace flexcore::detect
