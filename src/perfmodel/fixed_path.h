// FlexCore path evaluation on the 16-bit fixed-point datapath of the FPGA
// design (Fig. 7 / Table 3).
//
// The FPGA engines compute interference cancellation, the slicer-square
// lookup and the l2-norm in 16-bit fixed point.  This module mirrors that
// datapath in software so the repository can *verify* (rather than assume)
// that 16-bit quantization preserves FlexCore's decisions — the premise
// under which the Table 3 / Fig. 13 cost models adopt the paper's 16-bit
// synthesis numbers.
#pragma once

#include <vector>

#include "core/flexcore_detector.h"
#include "perfmodel/fixed_point.h"

namespace flexcore::perfmodel {

/// Result of one fixed-point path walk.
struct FixedPathEval {
  bool valid = false;
  double metric = 0.0;       ///< PED accumulated in fixed point
  std::vector<int> symbols;  ///< tree (permuted) order
};

/// Walks one position-vector path with every arithmetic operation quantized
/// to Q(16, kFracBits): quantized R, quantized 1/R(l,l) (the per-channel
/// reciprocal the hardware precomputes to avoid dividers, §4), quantized
/// interference cancellation and l2-norm.  A LUT entry outside the
/// constellation deactivates the path, as in the detectors.
FixedPathEval fixed_path_walk(const modulation::Constellation& c,
                              const core::OrderingLut& lut,
                              const linalg::CMat& r,
                              const core::PositionVector& p,
                              const linalg::CVec& ybar);

/// Fraction of detection decisions over `ys` where a full fixed-point
/// FlexCore (all active paths + min select) picks the same symbol vector as
/// the double-precision engine in `det`.  Used by tests and the
/// fixed-point ablation bench.
double fixed_vs_double_agreement(const core::FlexCoreDetector& det,
                                 const std::vector<linalg::CVec>& ys);

}  // namespace flexcore::perfmodel
