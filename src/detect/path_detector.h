// The engine FlexCore and the FCSD share (paper §4): each runs a fixed set
// of independent paths per received vector, one processing element per
// path — Nsc * |E| tasks for FlexCore against Nsc * |Q|^L for the FCSD,
// compared on equal hardware in Fig. 11.
//
// PathParallelDetector owns what the two have in common: the QR of the
// installed channel, the compiled path plans of the configured precision
// tier, the Q^H y rotation and the block kernel the grids scan, winner
// reconstruction, the exact sequential walk behind detect() and the pooled
// detect_batch.  A subclass supplies only its channel install — the QR and
// the plan compile — its name and its path count (the FCSD's |Q|^L at
// construction, FlexCore's by its install).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "detect/detector.h"
#include "detect/path_grid.h"
#include "detect/path_kernels.h"
#include "detect/workspace.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class PathParallelDetector : public Detector {
 public:
  /// Batched detection over the attached thread pool: fans the flat
  /// vector x path grid (paper §4) across the pool, reconstructs the
  /// winning path per vector (reconstruct_winners) and applies the SIC
  /// fallback to vectors whose every path was deactivated.  Symbols and
  /// metrics are identical to per-vector detect().  Without an attached
  /// pool this is the base class's sequential loop.
  void detect_batch(std::span<const CVec> ys, BatchResult* out) const override;
  void set_thread_pool(parallel::ThreadPool* pool) override { pool_ = pool; }

  /// Paths walked per vector: one task each.
  std::size_t parallel_tasks() const override { return num_paths_; }

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
  /// first_path + n_paths) in one call, through the plan of the configured
  /// precision tier compiled by set_channel.  Thread-safe, allocation-free.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out_metrics) const {
    plans_.path_metric_block(ybar, first_path, n_paths, out_metrics);
  }

  Precision precision() const noexcept { return plans_.precision(); }

  /// Heap footprint of the compiled plans (exact + the reduced tier's).
  std::size_t plan_footprint_bytes() const { return plans_.footprint_bytes(); }

  /// The exact (fp64) plan of the current channel, compiled in every tier:
  /// the walk behind detect(), reconstruction and the SIC fallback, and in
  /// the fp64 tier the frame grid's trie walk where trie_wins(n) says it
  /// beats the block scan for a channel's n vectors.
  const PathPlan& plan() const noexcept { return plans_.exact(); }

  /// The quantized plan of the current channel (compiled only when the
  /// configured precision is kInt16) — quantization introspection for
  /// tests and benches.
  const PathPlanI16& plan_i16() const noexcept { return plans_.i16(); }

  const linalg::QrResult& qr() const noexcept { return qr_; }
  const Constellation& constellation() const noexcept {
    return *constellation_;
  }

  /// Builds the final DetectionResults of a group of vectors of this
  /// channel from their grid verdicts (detect::run_frame_grid):
  /// vector k's rotated vector is ybars[k * Nt, (k + 1) * Nt), its verdict
  /// best_path[k] / best_metric[k], its result res[k].  The winners' exact
  /// walks run lane-batched (PathPlan::walk_paths); a vector whose
  /// `best_metric` is +infinity (every path deactivated) takes the
  /// plain-SIC fallback.  In the ":i16" tier a winner the exact walk
  /// deactivates is first rescued by an exact block scan.  Symbols come
  /// back in ORIGINAL antenna order; stats are the closed form of the
  /// whole grid (PathPlan::walk_stats).  Returns the number of vectors the
  /// fallback fired for (always 0 for the FCSD).  Scratch lives in `ws`.
  std::size_t reconstruct_winners(std::span<const linalg::cplx> ybars,
                                  std::span<const std::size_t> best_path,
                                  std::span<const double> best_metric,
                                  Workspace& ws,
                                  std::span<DetectionResult> res) const;

  /// reconstruct_winners for one vector; returns true when the fallback
  /// fired.
  bool reconstruct_winner(std::span<const linalg::cplx> ybar,
                          std::size_t best_path, double best_metric,
                          Workspace& ws, DetectionResult* res) const;

 protected:
  /// `sic_fallback`: whether a path can deactivate, so that a vector whose
  /// every path is dead takes plain SIC (FlexCore).  The FCSD's paths never
  /// deactivate — enumerated digits are always valid and greedy slices
  /// clamp — so its walks keep whatever metric they reach, +infinity
  /// included, and never run the SIC walk its plan does not compile.
  PathParallelDetector(const Constellation& c, Precision precision,
                       bool sic_fallback, std::size_t num_paths = 0)
      : constellation_(&c),
        plans_(precision),
        num_paths_(num_paths),
        sic_fallback_(sic_fallback) {}

  const Constellation* constellation_;
  linalg::QrResult qr_;
  TieredPlans plans_;
  std::size_t num_paths_;  ///< paths walked per vector

 private:
  /// The exact sequential walk: rotation, an exact scan of every path,
  /// then the winner's walk, completed like reconstruct_winners.
  bool detect_into(const CVec& y, Workspace& ws,
                   DetectionResult* res) const final;

  /// Exact scan of every path, then the winner's walk into `symbols`;
  /// +infinity, without a walk, when paths can deactivate and every one
  /// did.
  double walk_best(std::span<const linalg::cplx> ybar,
                   std::span<int> symbols) const;

  /// Completes a result from an exact walk already in `symbols` (metric
  /// `metric`), or from plain SIC into `symbols` when paths can deactivate
  /// and `metric` is +infinity; returns true when SIC fired.
  bool finish(std::span<const linalg::cplx> ybar, double metric,
              std::span<int> symbols, DetectionResult* res) const;

  bool sic_fallback_;
  parallel::ThreadPool* pool_ = nullptr;
  // The pooled detect_batch's buffers, kept at their high-water mark
  // across calls (zero steady-state allocations); guarded by the
  // detect_batch contract (one calling thread at a time).
  mutable FrameGridOutput grid_;
  mutable WorkspaceBank workspaces_;
  mutable std::vector<std::size_t> fell_;  // fallbacks per reconstruct group
};

}  // namespace flexcore::detect
