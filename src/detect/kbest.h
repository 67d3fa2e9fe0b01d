// K-best breadth-first sphere decoder (related-work baseline, §6).
//
// Keeps the K lowest-PED partial paths at every tree level.  Included to
// quantify the paper's claim that K-best needs large K (hence heavy sorting)
// for dense constellations and large arrays, while FlexCore selects paths
// a-priori per channel instead.
#pragma once

#include "detect/detector.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class KBestDetector : public Detector {
 public:
  KBestDetector(const Constellation& c, std::size_t k)
      : constellation_(&c), k_(k) {}

  std::string name() const override { return "kbest-" + std::to_string(k_); }
  std::size_t parallel_tasks() const override { return k_; }

 private:
  void install_channel(const CMat& h, double noise_var) override;
  /// The per-level survivor/candidate lists live as flat arrays in `ws`,
  /// so the batch loop reallocates nothing per vector.
  bool detect_into(const CVec& y, Workspace& ws,
                   DetectionResult* res) const override;

  const Constellation* constellation_;
  std::size_t k_;
  linalg::QrResult qr_;
  std::vector<CVec> rx_;
};

}  // namespace flexcore::detect
