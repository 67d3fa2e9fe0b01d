// Fixed Complexity Sphere Decoder (Barbero & Thompson), the paper's main
// competitor.
//
// The FCSD fully expands the top `full_levels` (L) tree levels — visiting
// all |Q|^L combinations — and extends each combination greedily (branching
// factor one, nearest child) through the remaining Nt - L levels.  All
// |Q|^L paths are independent, so at minimum latency the FCSD needs exactly
// |Q|^L processing elements: the inflexibility FlexCore removes (§2).
#pragma once

#include <span>

#include "detect/detector.h"
#include "detect/path_grid.h"
#include "detect/path_kernels.h"
#include "detect/workspace.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class FcsdDetector : public Detector {
 public:
  /// `full_levels` = L, the number of fully-expanded levels (1 or 2 in the
  /// paper's evaluation).  `precision` selects the compute tier of the
  /// path grids (spec suffix ":i16"); everything outside the grid stays
  /// double.
  FcsdDetector(const Constellation& c, std::size_t full_levels,
               Precision precision = Precision::kFloat64)
      : constellation_(&c), full_levels_(full_levels), plans_(precision) {}

  DetectionResult detect(const CVec& y) const override;

  /// Batched detection over the attached thread pool: fans the flat
  /// vector x path grid (all |Q|^L paths per vector) across the pool and
  /// reconstructs the winning path per vector.  Symbols and metrics are
  /// identical to per-vector detect(); without an attached pool this falls
  /// back to the sequential base-class loop.
  void detect_batch(std::span<const CVec> ys,
                    BatchResult* out) const override;
  void set_thread_pool(parallel::ThreadPool* pool) override { pool_ = pool; }

  std::string name() const override {
    return "fcsd-L" + std::to_string(full_levels_) +
           precision_suffix(precision());
  }
  std::size_t parallel_tasks() const override { return num_paths(); }

  /// |Q|^L — the number of independent paths / required PEs.
  std::size_t num_paths() const;
  std::size_t full_levels() const noexcept { return full_levels_; }

  /// Writes ybar = Q^H y into `out` without allocating.  out.size() must be
  /// Nt (= R.cols()).
  void rotate_into(const CVec& y, std::span<linalg::cplx> out) const;

  /// Rotates a received vector into the tree-search domain (ybar = Q^H y).
  CVec rotate(const CVec& y) const {
    CVec out(qr_.R.cols());
    rotate_into(y, out);
    return out;
  }

  /// Lane-parallel block kernel over the PathPlan compiled by set_channel
  /// (the configured precision tier).  Thread-safe, allocation-free.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out_metrics) const {
    plans_.path_metric_block(ybar, first_path, n_paths, out_metrics);
  }

  Precision precision() const noexcept { return plans_.precision(); }

  /// Heap footprint of the compiled plans (exact + the reduced tier's).
  std::size_t plan_footprint_bytes() const { return plans_.footprint_bytes(); }

  /// The exact (fp64) plan of the current channel, compiled in every tier:
  /// the walk behind detect() and reconstruction.
  const PathPlan& plan() const noexcept { return plans_.exact(); }

  /// The quantized plan of the current channel (compiled only when the
  /// configured precision is kInt16).
  const PathPlanI16& plan_i16() const noexcept { return plans_.i16(); }

  /// Builds the final DetectionResults of a group of vectors of this
  /// channel from their grid verdicts (layout as in
  /// FlexCoreDetector::reconstruct_winners): the winners' exact walks, run
  /// lane-batched, symbols in ORIGINAL antenna order, stats the closed
  /// form of the whole grid.  Always returns 0 (every FCSD path is valid,
  /// so there is no fallback).  Scratch in `ws`.
  std::size_t reconstruct_winners(std::span<const linalg::cplx> ybars,
                                  std::span<const std::size_t> best_path,
                                  std::span<const double> best_metric,
                                  detect::Workspace& ws,
                                  std::span<DetectionResult> res) const;

  /// reconstruct_winners for one vector; always returns false.
  bool reconstruct_winner(std::span<const linalg::cplx> ybar,
                          std::size_t best_path, double best_metric,
                          detect::Workspace& ws, DetectionResult* res) const;

  const linalg::QrResult& qr() const noexcept { return qr_; }

 private:
  void install_channel(const CMat& h, double noise_var) override;

  const Constellation* constellation_;
  std::size_t full_levels_;
  parallel::ThreadPool* pool_ = nullptr;
  linalg::QrResult qr_;
  TieredPlans plans_;
  mutable BatchScratch batch_;  // pooled detect_batch buffers
};

}  // namespace flexcore::detect
