// Ordered successive interference cancellation (V-BLAST style ZF-SIC).
//
// Uses the Wübben sorted QR so the most reliable stream is detected first;
// each decision is cancelled before detecting the next stream.  The paper
// uses SIC as the single-path reference point in Fig. 12 ("essentially a
// single-path FlexCore").
#pragma once

#include "detect/detector.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class SicDetector : public Detector {
 public:
  explicit SicDetector(const Constellation& c) : constellation_(&c) {}

  std::string name() const override { return "zf-sic"; }

 private:
  void install_channel(const CMat& h, double noise_var) override;
  /// Rotation and per-level scratch live in `ws`, so the batch loop
  /// reallocates nothing per vector.
  bool detect_into(const CVec& y, Workspace& ws,
                   DetectionResult* res) const override;

  const Constellation* constellation_;
  linalg::QrResult qr_;
};

}  // namespace flexcore::detect
