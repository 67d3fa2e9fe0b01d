#include "detect/path_detector.h"

#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "parallel/hot_path.h"

namespace flexcore::detect {

FLEXCORE_HOT_PATH
void PathParallelDetector::rotate_into(const CVec& y,
                                       std::span<cplx> out) const {
  linalg::hermitian_mul_into(qr_.Q, y, out);
}

FLEXCORE_HOT_PATH
double PathParallelDetector::walk_best(std::span<const cplx> ybar,
                                       std::span<int> symbols) const {
  std::size_t best_path = 0;
  double best_metric = std::numeric_limits<double>::infinity();
  scan_paths(plan(), ybar, num_paths_, &best_path, &best_metric);
  return sic_fallback_ && std::isinf(best_metric)
             ? best_metric
             : plan().walk_path(ybar, best_path, symbols);
}

FLEXCORE_HOT_PATH
bool PathParallelDetector::finish(std::span<const cplx> ybar, double metric,
                                  std::span<int> symbols,
                                  DetectionResult* res) const {
  // Every PE deactivated (possible only for tiny path budgets at extreme
  // noise): plain SIC, which is always valid.
  const bool fell = sic_fallback_ && std::isinf(metric);
  res->metric = fell ? plan().walk_sic(ybar, symbols) : metric;
  res->stats = plan().walk_stats(num_paths_);
  // Unpermute the tree-order decisions straight into the caller's buffer
  // so steady state allocates nothing.
  linalg::unpermute_into(symbols, qr_.perm, &res->symbols);
  return fell;
}

FLEXCORE_HOT_PATH
std::size_t PathParallelDetector::reconstruct_winners(
    std::span<const cplx> ybars, std::span<const std::size_t> best_path,
    std::span<const double> best_metric, Workspace& ws,
    std::span<DetectionResult> res) const {
  const std::size_t nt = qr_.R.cols();
  const std::size_t n = best_path.size();
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.symbols.resize(n * nt);
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.d0.resize(n);
  plan().walk_paths(ybars, best_path, ws.d0, ws.symbols);
  std::size_t fell = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::span<const cplx> ybar = ybars.subspan(k * nt, nt);
    const std::span<int> symbols(ws.symbols.data() + k * nt, nt);
    double metric = sic_fallback_ && std::isinf(best_metric[k])
                        ? best_metric[k]
                        : ws.d0[k];
    // The exact walk can disagree with the grid only in the ":i16" tier,
    // where a decision that lands near a cell boundary can fall on the
    // other side of it: the int16 kernel may crown a path the exact walk
    // deactivates, or deactivate every path the exact walk keeps.  Those
    // vectors are rescued with one exact block scan (the quantized grid
    // already paid for the other 99%+); only when that scan also finds
    // every path dead does the vector drop to plain SIC, exactly like the
    // fp64 tier.
    if (sic_fallback_ && std::isinf(metric) &&
        precision() == Precision::kInt16) {
      obs::counter_add(obs::Counter::kI16BoundaryRescans);
      metric = walk_best(ybar, symbols);
    }
    fell += finish(ybar, metric, symbols, &res[k]);
  }
  return fell;
}

FLEXCORE_HOT_PATH
bool PathParallelDetector::reconstruct_winner(std::span<const cplx> ybar,
                                              std::size_t best_path,
                                              double best_metric,
                                              Workspace& ws,
                                              DetectionResult* res) const {
  return reconstruct_winners(ybar, {&best_path, 1}, {&best_metric, 1}, ws,
                             {res, 1}) != 0;
}

bool PathParallelDetector::detect_into(const CVec& y, Workspace& ws,
                                       DetectionResult* res) const {
  ws.ybar.resize(qr_.R.cols());
  rotate_into(y, ws.ybar);
  ws.symbols.resize(ws.ybar.size());
  return finish(ws.ybar, walk_best(ws.ybar, ws.symbols), ws.symbols, res);
}

void PathParallelDetector::detect_batch(std::span<const CVec> ys,
                                        BatchResult* out) const {
  if (pool_ == nullptr || num_paths_ == 0 || ys.empty()) {
    Detector::detect_batch(ys, out);
    return;
  }
  // The frame grid over this one channel, then its winner reconstruction.
  const std::size_t nv = ys.size();
  const PathParallelDetector* const dets[] = {this};
  run_frame_grid<PathParallelDetector>(dets, {&num_paths_, 1}, ys, nv,
                                       qr_.R.cols(), *pool_, &grid_);
  out->results.resize(nv);
  out->stats = DetectionStats{};
  out->tasks = grid_.tasks;
  out->elapsed_seconds = grid_.elapsed_seconds;
  out->sic_fallbacks = reconstruct_grid<PathParallelDetector>(
      dets, nv, grid_, *pool_, workspaces_, &fell_, out->results);
  for (const DetectionResult& r : out->results) out->stats += r.stats;
}

}  // namespace flexcore::detect
