// Per-worker scratch arenas for the detection hot path.
//
// The task grids (detect/path_grid.h) and the buffer-reusing detector entry
// points (PathParallelDetector::reconstruct_winners, and every detector's
// detect_into, which Detector::detect_batch's sequential loop threads one
// Workspace through) take a Workspace instead of allocating CVecs and
// symbol vectors per call: every buffer grows to its high-water mark on
// first use and is reused afterwards, so steady-state path tasks perform
// zero heap allocations.  Group reconstruction keeps
// its per-lane symbols (levels per vector, vector-major) in `symbols` and
// the lanes' metrics in `d0`; the lane-batched walk stages each lane's
// rotated vector and selector codes on its own stack.
//
// A WorkspaceBank holds one Workspace per ThreadPool worker; tasks index it
// with the worker id from ThreadPool::parallel_for_worker, which never runs
// two concurrent iterations under the same worker index — no locking.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/types.h"

namespace flexcore::detect {

/// Reusable scratch buffers for one worker.  Contents are unspecified
/// between uses; callers size what they need via resize/assign (cheap once
/// capacity has been reached).
struct Workspace {
  linalg::CVec ybar;         ///< rotated receive vector (Q^H y)
  linalg::CVec s;            ///< per-level constellation points of a walk
  std::vector<int> symbols;  ///< per-level symbol decisions (tree order),
                             ///< levels per vector of a reconstruct group
  // Generic double/int pools for level-by-level detectors (K-best keeps its
  // survivor/candidate lists here instead of reallocating them per vector).
  std::vector<double> d0, d1;
  std::vector<int> i0, i1;
  std::vector<std::size_t> idx;
};

/// One Workspace per pool worker.
class WorkspaceBank {
 public:
  WorkspaceBank() = default;
  explicit WorkspaceBank(std::size_t workers) : ws_(workers) {}

  /// Grows to at least `workers` entries (never shrinks: workspaces keep
  /// their high-water-mark buffers across jobs).
  void ensure(std::size_t workers) {
    if (ws_.size() < workers) ws_.resize(workers);
  }

  Workspace& at(std::size_t worker) { return ws_[worker]; }
  std::size_t size() const noexcept { return ws_.size(); }

 private:
  std::vector<Workspace> ws_;
};

}  // namespace flexcore::detect
