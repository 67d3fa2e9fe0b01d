// Depth-first maximum-likelihood sphere decoder (Geosphere-class baseline).
//
// Transforms the ML problem argmin ||ybar - R s||^2 into a tree search
// (paper §2) over the Wübben sorted QR, and explores it depth-first with
// Schnorr-Euchner child ordering and radius pruning, which guarantees the
// exact ML solution.  This is the "ML" / "Geosphere" reference curve of
// Figs. 9 and 10, and the detector whose instrumented FLOP counts
// reproduce Table 1.
#pragma once

#include "detect/detector.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class MlSphereDecoder : public Detector {
 public:
  struct Options {
    /// Stop after visiting this many tree nodes (0 = search to completion).
    /// When truncated the decoder returns the best leaf found so far, so the
    /// result is no longer guaranteed ML.
    std::uint64_t max_nodes = 0;
  };

  explicit MlSphereDecoder(const Constellation& c)
      : constellation_(&c), opt_(Options()) {}
  MlSphereDecoder(const Constellation& c, Options opt)
      : constellation_(&c), opt_(opt) {}

  std::string name() const override { return "ml-sd"; }

 private:
  void install_channel(const CMat& h, double noise_var) override;
  bool detect_into(const CVec& y, Workspace& ws,
                   DetectionResult* res) const override;

  struct SearchState;
  void search(SearchState& st, std::size_t level, double ped) const;

  const Constellation* constellation_;
  Options opt_;
  linalg::QrResult qr_;
  // rx_[i][x] = R(i,i) * constellation point x, precomputed per channel.
  std::vector<CVec> rx_;
};

}  // namespace flexcore::detect
