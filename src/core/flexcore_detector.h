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
// across any execution resource; detect() scans them sequentially,
// detect_batch fans the single-channel grid across a thread pool, and
// api::UplinkPipeline::detect_frame runs whole OFDM frames as one
// multi-channel grid the way the paper maps tasks onto GPU threads / FPGA
// engines.
#pragma once

#include <span>

#include "core/ordering_lut.h"
#include "core/preprocessing.h"
#include "detect/detector.h"
#include "detect/path_grid.h"
#include "detect/path_kernels.h"
#include "detect/workspace.h"
#include "linalg/qr.h"

namespace flexcore::core {

using detect::DetectionResult;
using detect::DetectionStats;
using detect::Detector;
using linalg::CMat;
using linalg::CVec;

/// How the k-th closest symbol is located during the path walk.
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
  /// Per-level error-probability model (DESIGN.md "Eq. 4 prefactor").
  /// Default kExactSer: the SER-calibrated model the paper's Appendix
  /// validates in Fig. 14.  kPaperErfc (Eq. 4 exactly as printed, which
  /// drops the constellation minimum-distance factor) is kept as an
  /// ablation; it degenerates the path allocation for dense constellations.
  modulation::PeModel pe_model = modulation::PeModel::kExactSer;
  OrderingMode ordering = OrderingMode::kLut;
  InvalidEntryPolicy invalid_policy = InvalidEntryPolicy::kDeactivate;
  LutSource lut_source = LutSource::kCentroid;
  /// Candidate-list cap for pre-processing (0 = num_pes, the paper's rule).
  std::size_t candidate_list_cap = 0;
  /// Pre-processing nodes expanded per round (1 = sequential).
  std::size_t batch_expand = 1;
  /// Compute tier of the path grids (detect/path_kernels.h): kFloat64 is
  /// the exact plan; kInt16 runs the quantized fixed-point kernel (spec
  /// suffix ":i16", accuracy bounded by detect::kI16SerTolerance).  Winner
  /// reconstruction and the sequential detect() path run the exact plan in
  /// both tiers.
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

class FlexCoreDetector : public Detector {
 public:
  FlexCoreDetector(const Constellation& c, FlexCoreConfig cfg);

  DetectionResult detect(const CVec& y) const override;

  /// Batched detection over the attached thread pool: fans the flat
  /// vector x path grid (paper §4) across the pool, reconstructs the
  /// winning path per vector, and applies the SIC fallback to vectors
  /// whose every path was deactivated.  Symbols and metrics are identical
  /// to per-vector detect(); see detect::BatchResult for the stats
  /// contract.  Without an attached pool this falls back to the
  /// sequential base-class loop.
  void detect_batch(std::span<const CVec> ys,
                    detect::BatchResult* out) const override;
  void set_thread_pool(parallel::ThreadPool* pool) override { pool_ = pool; }

  std::string name() const override;
  std::size_t parallel_tasks() const override { return active_paths(); }

  /// Number of paths actually evaluated per vector: |E| for plain FlexCore,
  /// the adaptive prefix size for a-FlexCore.
  std::size_t active_paths() const;

  /// Pre-processing output for the current channel (selected position
  /// vectors, Pe values, multiplication counts).
  const PreprocessingResult& preprocessing() const { return preproc_; }

  /// Writes ybar = Q^H y into `out` without allocating.  out.size() must be
  /// Nt (= R.cols()).
  void rotate_into(const CVec& y, std::span<linalg::cplx> out) const;

  /// Rotates y into tree-search coordinates (ybar = Q^H y).
  CVec rotate(const CVec& y) const {
    CVec out(qr_.R.cols());
    rotate_into(y, out);
    return out;
  }

  /// Lane-parallel block kernel: metrics of paths [first_path,
  /// first_path + n_paths) in one call, through the PathPlan compiled by
  /// set_channel in the configured precision tier.  Thread-safe,
  /// allocation-free.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out_metrics) const {
    plans_.path_metric_block(ybar, first_path, n_paths, out_metrics);
  }

  /// Heap footprint of the compiled plans (exact + the reduced tier's).
  std::size_t plan_footprint_bytes() const { return plans_.footprint_bytes(); }

  /// The exact (fp64) plan of the current channel, compiled in every tier:
  /// the walk behind detect(), reconstruction, soft output and the SIC
  /// fallback, and in the fp64 tier the frame grid's trie walk where
  /// trie_wins(n) says it beats the block scan for a channel's n vectors.
  const detect::PathPlan& plan() const noexcept { return plans_.exact(); }

  /// The quantized plan of the current channel (compiled only when the
  /// configured precision is kInt16) — quantization introspection for
  /// tests and benches.
  const detect::PathPlanI16& plan_i16() const noexcept { return plans_.i16(); }

  /// Builds the final DetectionResults of a group of vectors of this
  /// channel from their grid verdicts (detect::run_frame_grid):
  /// vector k's rotated vector is ybars[k * Nt, (k + 1) * Nt), its verdict
  /// best_path[k] / best_metric[k], its result res[k].  The winners' exact
  /// walks run lane-batched (PathPlan::walk_paths); a vector whose
  /// `best_metric` is +infinity (every path deactivated) takes the
  /// plain-SIC fallback.  In the reduced tiers a winner the exact walk
  /// deactivates is first rescued by an exact block scan.  Symbols come
  /// back in ORIGINAL antenna order; stats are the closed form of the
  /// whole grid (PathPlan::walk_stats).  Returns the number of vectors the
  /// fallback fired for.  Scratch lives in `ws`.
  std::size_t reconstruct_winners(std::span<const linalg::cplx> ybars,
                                  std::span<const std::size_t> best_path,
                                  std::span<const double> best_metric,
                                  detect::Workspace& ws,
                                  std::span<DetectionResult> res) const;

  /// reconstruct_winners for one vector; returns true when the fallback
  /// fired.
  bool reconstruct_winner(std::span<const linalg::cplx> ybar,
                          std::size_t best_path, double best_metric,
                          detect::Workspace& ws, DetectionResult* res) const;

  /// Hard detection + list-based max-log LLRs (soft extension).
  SoftOutput detect_soft(const CVec& y) const;

  const linalg::QrResult& qr() const noexcept { return qr_; }
  const FlexCoreConfig& config() const noexcept { return cfg_; }
  const Constellation& constellation() const noexcept { return *constellation_; }
  const OrderingLut& lut() const noexcept { return lut_; }

 private:
  void install_channel(const CMat& h, double noise_var) override;

  /// Exact scan of every active path, then the winner's walk into
  /// `symbols`; +infinity when every path is deactivated.
  double walk_best(std::span<const linalg::cplx> ybar,
                   std::span<int> symbols) const;

  /// Completes a result from an exact walk already in `symbols` (metric
  /// `metric`), or from plain SIC into `symbols` when `metric` is
  /// +infinity; returns true when SIC fired.
  bool finish(std::span<const linalg::cplx> ybar, double metric,
              std::span<int> symbols, DetectionResult* res) const;

  /// detect() into caller storage; returns true when SIC fired.
  bool detect_into(const CVec& y, detect::Workspace& ws,
                   DetectionResult* res) const;

  const Constellation* constellation_;
  parallel::ThreadPool* pool_ = nullptr;
  FlexCoreConfig cfg_;
  OrderingLut lut_;
  linalg::QrResult qr_;
  linalg::QrResult qr_scratch_;  // set_channel factors here, swaps on success
  PreprocessingResult preproc_;
  PathSearchWorkspace search_ws_;  // preproc_'s warm search scratch
  std::size_t active_paths_ = 0;
  double noise_var_ = 1.0;
  detect::TieredPlans plans_;
  mutable detect::BatchScratch batch_;  // pooled detect_batch buffers
};

}  // namespace flexcore::core
