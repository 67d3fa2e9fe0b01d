// The FlexCore parallel detector (paper §3.2): evaluate the pre-selected
// most-promising tree paths, one processing element per path, and return
// the minimum-distance candidate.
//
// This class is the library's primary public API.  Usage:
//
//   Constellation qam(64);
//   FlexCoreDetector det(qam, {.num_pes = 128});
//   det.set_channel(H, noise_var);        // QR + pre-processing
//   DetectionResult r = det.detect(y);    // parallel-friendly path walk
//
// set_channel compiles the selected paths into a detect::PathPlan, whose
// per-path walk is pure and thread-safe, so callers can fan the paths out
// across any execution resource.  Everything after the install is the
// path-parallel engine FlexCore shares with the FCSD
// (detect/path_detector.h): detect() scans the paths sequentially,
// detect_batch fans the single-channel grid across a thread pool, and
// api::UplinkPipeline::detect_frame runs whole OFDM frames as one
// multi-channel grid the way the paper maps tasks onto GPU threads / FPGA
// engines.
#pragma once

#include <string>

#include "core/ordering_lut.h"
#include "core/preprocessing.h"
#include "detect/path_detector.h"

namespace flexcore::core {

using detect::DetectionResult;
using detect::DetectionStats;
using detect::Detector;
using linalg::CMat;
using linalg::CVec;

/// How the k-th closest symbol is located during the path walk.  A
/// detector runs only kLut; kExactSort names the ablation that
/// bench/ablation_ordering runs on the scalar reference walk
/// (tests/reference_walk.h).
enum class OrderingMode {
  kLut,        ///< triangle LUT (the paper's design; no sorting)
  kExactSort,  ///< exhaustive per-level sort (ablation / upper bound)
};

/// FlexCore configuration.
struct FlexCoreConfig {
  /// Available processing elements = paths selected by pre-processing.
  std::size_t num_pes = 64;
  /// If > 0, run as a-FlexCore: activate only the first paths whose
  /// cumulative Pc reaches this threshold (0.95 in the paper's Fig. 10).
  double adaptive_threshold = 0.0;
  /// Per-level error-probability model (README, "Path selection").
  /// Default kExactSer: the SER-calibrated model the paper's Appendix
  /// validates in Fig. 14.  kPaperErfc (Eq. 4 exactly as printed, which
  /// drops the constellation minimum-distance factor) is kept as an
  /// ablation; for dense constellations it flattens the path allocation,
  /// capping every level at a low rank instead of following the levels'
  /// reliability (bench/ablation_pe_model).
  modulation::PeModel pe_model = modulation::PeModel::kExactSer;
  /// The paper's ordering: the triangle LUT, deactivating a path whose
  /// entry leaves the constellation.  These are the only legal values (the
  /// constructor throws std::invalid_argument for any other); the fields
  /// stay because the serving benchmark's replay reads them.
  OrderingMode ordering = OrderingMode::kLut;
  InvalidEntryPolicy invalid_policy = InvalidEntryPolicy::kDeactivate;
  /// Candidate-list cap for pre-processing (0 = num_pes, the paper's rule).
  std::size_t candidate_list_cap = 0;
  /// Pre-processing nodes expanded per round (1 = sequential).
  std::size_t batch_expand = 1;
  /// Compute tier of the path grids (detect/path_kernels.h): kFloat64 is
  /// the exact plan; kInt16 runs the quantized fixed-point kernel (spec
  /// suffix ":i16", accuracy bounded by detect::kI16SerTolerance).
  /// Winner reconstruction and the sequential detect() path run the exact
  /// plan in both tiers.
  detect::Precision precision = detect::Precision::kFloat64;
};

/// Soft-output extension (§7 "promising next step"): max-log LLRs computed
/// from the evaluated path list.
struct SoftOutput {
  /// llrs[a][b] = LLR of bit b of antenna a (original antenna order),
  /// positive = bit 0 more likely.  Clipped to +-`kLlrClip` when only one
  /// hypothesis appears in the candidate list.
  std::vector<std::vector<double>> llrs;
  DetectionResult hard;  ///< the ordinary hard decision
  static constexpr double kLlrClip = 50.0;
};

/// FlexCore on the path-parallel engine: its install runs the sorted QR
/// and the §3.1.1 path search and compiles the selected paths; a vector
/// whose every path is deactivated falls back to plain SIC.
class FlexCoreDetector : public detect::PathParallelDetector {
 public:
  FlexCoreDetector(const Constellation& c, FlexCoreConfig cfg);

  std::string name() const override;

  /// Number of paths actually evaluated per vector: |E| for plain FlexCore,
  /// the adaptive prefix size for a-FlexCore.
  std::size_t active_paths() const noexcept { return num_paths_; }

  /// Pre-processing output for the current channel (selected position
  /// vectors, Pe values, multiplication counts).
  const PreprocessingResult& preprocessing() const { return preproc_; }

  /// Hard detection + list-based max-log LLRs (soft extension).
  SoftOutput detect_soft(const CVec& y) const;

  const FlexCoreConfig& config() const noexcept { return cfg_; }
  const OrderingLut& lut() const noexcept { return lut_; }

 private:
  void install_channel(const CMat& h, double noise_var) override;

  FlexCoreConfig cfg_;
  OrderingLut lut_;
  linalg::QrResult qr_scratch_;  // set_channel factors here, swaps on success
  PreprocessingResult preproc_;
  PathSearchWorkspace search_ws_;  // preproc_'s warm search scratch
  double noise_var_ = 1.0;
};

}  // namespace flexcore::core
