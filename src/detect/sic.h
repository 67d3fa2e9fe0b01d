// Ordered successive interference cancellation (V-BLAST style ZF-SIC).
//
// Uses the Wübben sorted QR so the most reliable stream is detected first;
// each decision is cancelled before detecting the next stream.  The paper
// uses SIC as the single-path reference point in Fig. 12 ("essentially a
// single-path FlexCore").
#pragma once

#include <span>

#include "detect/detector.h"
#include "detect/workspace.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class SicDetector : public Detector {
 public:
  explicit SicDetector(const Constellation& c) : constellation_(&c) {}

  DetectionResult detect(const CVec& y) const override;

  /// Sequential loop like the base class, but threading ONE workspace
  /// through the whole batch so per-vector scratch is not reallocated.
  void detect_batch(std::span<const CVec> ys, BatchResult* out) const override;

  std::string name() const override { return "zf-sic"; }

  /// Writes ybar = Q^H y into `out` without allocating (out.size() == Nt).
  void rotate_into(const CVec& y, std::span<linalg::cplx> out) const;

  /// Buffer-reusing core of detect(): rotation and per-level scratch live
  /// in `ws`; only the result's symbol vector is (re)allocated.
  void detect_into(const CVec& y, Workspace& ws, DetectionResult* res) const;

 private:
  void install_channel(const CMat& h, double noise_var) override;

  const Constellation* constellation_;
  linalg::QrResult qr_;
};

}  // namespace flexcore::detect
