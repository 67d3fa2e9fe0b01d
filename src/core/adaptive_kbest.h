// Adaptive K-best: per-level survivor widths derived from FlexCore's
// probability model (the extension §6 of the paper proposes: "Using
// FlexCore's approach we can adaptively select the value of K, which will
// differ per Sphere decoding tree level").
//
// Classic K-best keeps a constant K survivors at every level, which §6
// criticizes: dense constellations and large arrays force K up (and the
// sorting cost with it) because a single K must cover the *worst* level.
// Here the pre-processing model fixes that: the per-level width K_l is the
// number of distinct path prefixes FlexCore's N_PE most promising position
// vectors pass through at level l, so reliable levels keep one survivor
// and weak levels get exactly the breadth the model says they need.
#pragma once

#include "core/preprocessing.h"
#include "detect/detector.h"
#include "linalg/qr.h"

namespace flexcore::core {

using detect::DetectionResult;
using detect::Detector;
using linalg::CMat;
using linalg::CVec;
using modulation::Constellation;

class AdaptiveKBestDetector : public Detector {
 public:
  /// `path_budget` plays the role of FlexCore's N_PE: the model allocates
  /// per-level widths as if that many processing elements were available.
  AdaptiveKBestDetector(const Constellation& c, std::size_t path_budget,
                        modulation::PeModel pe_model =
                            modulation::PeModel::kExactSer)
      : constellation_(&c), path_budget_(path_budget), pe_model_(pe_model) {}

  std::string name() const override {
    return "akbest-" + std::to_string(path_budget_);
  }
  std::size_t parallel_tasks() const override {
    std::size_t widest = 1;
    for (std::size_t k : level_k_) widest = std::max(widest, k);
    return widest;
  }

  /// The per-level survivor widths chosen for the current channel
  /// (array index = level - 1, i.e. detection order is back to front).
  const std::vector<std::size_t>& level_widths() const noexcept {
    return level_k_;
  }

 private:
  void install_channel(const CMat& h, double noise_var) override;
  bool detect_into(const CVec& y, detect::Workspace& ws,
                   DetectionResult* res) const override;

  const Constellation* constellation_;
  std::size_t path_budget_;
  modulation::PeModel pe_model_;
  linalg::QrResult qr_;
  std::vector<CVec> rx_;
  std::vector<std::size_t> level_k_;
};

}  // namespace flexcore::core
