// Trellis / add-compare-select parallel detector of Wu et al. [50].
//
// Views the detection tree as a trellis with |Q| states per level (one per
// constellation point) and keeps one survivor path per state, extending all
// survivors level by level.  One processing element per constellation point
// computes each state's metric, so the PE count is FIXED at |Q| — the
// inflexibility the paper contrasts with FlexCore in Fig. 9 ("[50] ...
// requires a fixed number of processing elements, equal to the QAM
// constellation's size").
#pragma once

#include "detect/detector.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class TrellisDetector : public Detector {
 public:
  explicit TrellisDetector(const Constellation& c) : constellation_(&c) {}

  std::string name() const override { return "trellis50"; }
  std::size_t parallel_tasks() const override {
    return static_cast<std::size_t>(constellation_->order());
  }

 private:
  void install_channel(const CMat& h, double noise_var) override;
  bool detect_into(const CVec& y, Workspace& ws,
                   DetectionResult* res) const override;

  const Constellation* constellation_;
  linalg::QrResult qr_;
  std::vector<CVec> rx_;
};

}  // namespace flexcore::detect
