// Linear detectors: zero-forcing and MMSE.
//
// These are the detectors used by the large-MIMO systems the paper compares
// against (Argos, BigStation, SAM): one filter-matrix multiply per received
// vector, but poor throughput when the channel is ill-conditioned
// (Nt -> Nr), which is exactly the regime FlexCore targets.
#pragma once

#include "detect/detector.h"

namespace flexcore::detect {

/// Which linear equalizer to apply.
enum class LinearKind { kZeroForcing, kMmse };

class LinearDetector : public Detector {
 public:
  LinearDetector(const Constellation& c, LinearKind kind)
      : constellation_(&c), kind_(kind) {}

  std::string name() const override {
    return kind_ == LinearKind::kZeroForcing ? "zf" : "mmse";
  }

  /// The equalized (pre-slicing) estimate, exposed for soft-output use and
  /// for tests that check the filter algebra directly.
  CVec equalize(const CVec& y) const { return w_ * y; }

 private:
  void install_channel(const CMat& h, double noise_var) override;
  bool detect_into(const CVec& y, Workspace& ws,
                   DetectionResult* res) const override;

  const Constellation* constellation_;
  LinearKind kind_;
  CMat w_;  // receive filter
  CMat h_;
};

}  // namespace flexcore::detect
