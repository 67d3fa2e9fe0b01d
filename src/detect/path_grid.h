// The flat task grids at the heart of FlexCore's parallel detection (paper
// §4): the GPU implementation generates Nsc * |E| threads (FlexCore) or
// Nsc * |Q|^L threads (FCSD); here the same grids are executed by a
// ThreadPool, with each task scanning one vector's paths through the
// lane-parallel block kernel (detect/path_kernels.h), or, on a channel
// where FlexCore's trie walk wins, a group of that channel's vectors
// through the walk.
//
// run_frame_grid is the multi-channel (subcarrier x vector x path) grid
// behind api::UplinkPipeline::detect_frame: one flat job covering every
// subcarrier of an OFDM frame.  PathParallelDetector::detect_batch
// (detect/path_detector.h) runs the same grid with a single channel and
// adds the winner reconstruction; the Fig. 11 benchmark times exactly that
// grid.
//
// reconstruct_grid completes the grid's verdicts per group of one
// channel's vectors, one lane-batched exact walk per group.
//
// Both are templates over the detector type D, a PathParallelDetector or
// a class derived from it; every member they call is the base's and
// non-virtual, so the grids dispatch nothing per task.
//
// The grid writes into a caller-owned output struct whose buffers are
// resized, never shrunk, so steady-state runs perform zero heap
// allocations (verified by the operator-new-counting tests in
// tests/frame_test.cpp).
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "detect/detector.h"
#include "detect/path_kernels.h"
#include "detect/workspace.h"
#include "linalg/simd.h"
#include "linalg/types.h"
#include "parallel/hot_path.h"
#include "parallel/thread_pool.h"

namespace flexcore::detect {

class PathParallelDetector;  // detect/path_detector.h

/// Paths per block-kernel call.  Sized for the widest tier: the int16
/// quantized plans evaluate a FUSED PAIR of 16-lane blocks per kernel call
/// (2 x kSimdLanesI16 = 32 paths — adjacent blocks share every per-level
/// scalar broadcast), and the fp plans accept any range (they re-block
/// internally), so scanning at this width never double-evaluates a block
/// in any tier and leaves the fp64 min-reduction order — hence its
/// bit-exact results — unchanged.
inline constexpr std::size_t kPathBlockLanes = 2 * linalg::kSimdLanesI16;

/// Scans paths [0, num_paths) of one rotated vector through a block kernel
/// (a PathParallelDetector or a compiled plan), tracking the minimum inline
/// (strict <, first index wins — the sequential reduction's tie-break, so
/// results are bit-identical at any thread count and block width).
template <typename K>
FLEXCORE_HOT_PATH
inline void scan_paths(const K& kernel, std::span<const linalg::cplx> ybar,
                       std::size_t num_paths, std::size_t* best_path,
                       double* best_metric) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_p = 0;
  double m[kPathBlockLanes];
  for (std::size_t p = 0; p < num_paths; p += kPathBlockLanes) {
    const std::size_t n = std::min(kPathBlockLanes, num_paths - p);
    kernel.path_metric_block(ybar, p, n, m);
    for (std::size_t k = 0; k < n; ++k) {
      if (m[k] < best) {
        best = m[k];
        best_p = p + k;
      }
    }
  }
  *best_path = best_p;
  *best_metric = best;
}

/// Output of one multi-channel frame-grid run.  "Unit" u = f * nv + t is
/// the (subcarrier f, vector t) pair, subcarrier-major — the same layout as
/// the input vectors.  Buffers are resized, never shrunk, so reusing the
/// same FrameGridOutput across frames of equal (or smaller) shape performs
/// no allocation at all.
struct FrameGridOutput {
  // flexcore-lint: allow-next-line(HP005) documented AoS handoff to detectors
  std::vector<linalg::cplx> ybars;     ///< flat rotated inputs, nt per unit
  std::vector<std::size_t> best_path;  ///< winning path index per unit
  std::vector<double> best_metric;     ///< its distance (+inf: all paths dead)
  std::size_t nt = 0;                  ///< levels per rotated vector
  std::size_t tasks = 0;               ///< sum over subcarriers of nv * paths
  double elapsed_seconds = 0.0;        ///< wall-clock of the task grid

  std::span<const linalg::cplx> ybar(std::size_t unit) const {
    return {ybars.data() + unit * nt, nt};
  }
};

/// Runs the subcarrier x vector x path grid of one frame: `dets[f]` is the
/// per-subcarrier detector (channel already installed) evaluating
/// `num_paths[f]` paths for each of the `vectors_per_channel` vectors
/// `ys[f * vectors_per_channel + ...]`.  Each task rotates its vector into
/// the flat ybar buffer and scans its paths through the block kernel with
/// the minimum tracked inline.  On a subcarrier whose plan's trie walk wins
/// for its vectors (every path scanned, PathPlan::trie_wins), the task of
/// every PathPlan::kTrieLanes-th vector instead rotates a group of up to
/// that many and scans them in one walk, and the others have nothing to
/// do; the verdicts are the same.  Steady-state tasks perform zero heap
/// allocations.
template <typename D>
  requires std::derived_from<D, PathParallelDetector>
FLEXCORE_HOT_PATH
void run_frame_grid(std::span<const D* const> dets,
                    std::span<const std::size_t> num_paths,
                    std::span<const linalg::CVec> ys,
                    std::size_t vectors_per_channel, std::size_t nt,
                    parallel::ThreadPool& pool, FrameGridOutput* out) {
  const std::size_t nsc = dets.size();
  const std::size_t nv = vectors_per_channel;
  const std::size_t units = nsc * nv;
  out->nt = nt;
  out->tasks = 0;
  for (std::size_t f = 0; f < nsc; ++f) {
    out->tasks += vectors_per_channel * num_paths[f];
  }
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  out->ybars.resize(units * nt);
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  out->best_path.assign(units, 0);
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  out->best_metric.assign(units, std::numeric_limits<double>::infinity());
  if (units == 0) {
    out->elapsed_seconds = 0.0;
    return;
  }

  const auto t0 = std::chrono::steady_clock::now();
  pool.parallel_for(units, [&](std::size_t u) {
    const std::size_t f = u / nv;
    const D& det = *dets[f];
    const PathPlan& plan = det.plan();
    if (num_paths[f] == plan.num_paths() && plan.trie_wins(nv)) {
      const std::size_t t = u % nv;
      if (t % PathPlan::kTrieLanes != 0) return;
      const std::size_t n = std::min(PathPlan::kTrieLanes, nv - t);
      for (std::size_t k = u; k < u + n; ++k) {
        det.rotate_into(ys[k], {out->ybars.data() + k * nt, nt});
      }
      plan.scan_trie({out->ybars.data() + u * nt, n * nt},
                     {out->best_path.data() + u, n},
                     {out->best_metric.data() + u, n});
      return;
    }
    const std::span<linalg::cplx> ybar{out->ybars.data() + u * nt, nt};
    det.rotate_into(ys[u], ybar);
    scan_paths(det, std::span<const linalg::cplx>(ybar), num_paths[f],
               &out->best_path[u], &out->best_metric[u]);
  });
  out->elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Winner reconstruction of a grid's verdicts across `pool`: the vectors
/// of channel f — `vectors_per_channel` consecutive units of `grid` — are
/// completed by dets[f]->reconstruct_winners in groups of at most
/// PathPlan::walk_lanes() vectors, one lane-batched exact walk per group,
/// on per-worker scratch
/// (the detector applies its fallback policy; the raw grid punts on it).
/// Writes results[u] per unit and one fallback count per group to `fell`;
/// returns their sum.
template <typename D>
  requires std::derived_from<D, PathParallelDetector>
FLEXCORE_HOT_PATH
std::size_t reconstruct_grid(std::span<const D* const> dets,
                             std::size_t vectors_per_channel,
                             const FrameGridOutput& grid,
                             parallel::ThreadPool& pool,
                             WorkspaceBank& workspaces,
                             std::vector<std::size_t>* fell,
                             std::span<DetectionResult> results) {
  const std::size_t nv = vectors_per_channel;
  const std::size_t nt = grid.nt;
  const std::size_t lanes = PathPlan::walk_lanes();
  const std::size_t per_channel = (nv + lanes - 1) / lanes;
  const std::size_t groups = dets.size() * per_channel;
  workspaces.ensure(pool.size());
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  fell->assign(groups, 0);
  pool.parallel_for_worker(groups, [&](std::size_t w, std::size_t g) {
    const std::size_t t = (g % per_channel) * lanes;
    const std::size_t n = std::min(lanes, nv - t);
    const std::size_t u = (g / per_channel) * nv + t;
    (*fell)[g] = dets[g / per_channel]->reconstruct_winners(
        std::span<const linalg::cplx>(grid.ybars).subspan(u * nt, n * nt),
        std::span<const std::size_t>(grid.best_path).subspan(u, n),
        std::span<const double>(grid.best_metric).subspan(u, n),
        workspaces.at(w), results.subspan(u, n));
  });
  std::size_t total = 0;
  for (const std::size_t k : *fell) total += k;
  return total;
}

}  // namespace flexcore::detect
