#include "detect/fcsd.h"

#include <stdexcept>

#include "detect/path_grid.h"
#include "parallel/hot_path.h"

namespace flexcore::detect {

void FcsdDetector::set_channel(const CMat& h, double /*noise_var*/) {
  require_kernel_streams("FcsdDetector", h.cols());
  if (full_levels_ > h.cols()) {
    throw std::invalid_argument("FcsdDetector: full_levels > Nt");
  }
  qr_ = linalg::fcsd_sorted_qr(h, full_levels_);
  plans_.compile([&](auto& plan) {
    plan.compile_fcsd(qr_.R, full_levels_, *constellation_);
  });
}

std::size_t FcsdDetector::num_paths() const {
  std::size_t n = 1;
  for (std::size_t l = 0; l < full_levels_; ++l) {
    n *= static_cast<std::size_t>(constellation_->order());
  }
  return n;
}

FLEXCORE_HOT_PATH
void FcsdDetector::rotate_into(const CVec& y, std::span<cplx> out) const {
  linalg::hermitian_mul_into(qr_.Q, y, out);
}

FLEXCORE_HOT_PATH
bool FcsdDetector::reconstruct_winner(std::span<const cplx> ybar,
                                      std::size_t best_path,
                                      double /*best_metric*/,
                                      detect::Workspace& ws,
                                      DetectionResult* res) const {
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.symbols.resize(ybar.size());
  res->metric = plan().walk_path(ybar, best_path, ws.symbols);
  res->stats = plan().walk_stats(num_paths());
  linalg::unpermute_into(ws.symbols, qr_.perm, &res->symbols);
  return false;
}

DetectionResult FcsdDetector::detect(const CVec& y) const {
  const CVec ybar = rotate(y);
  std::size_t best_path = 0;
  double best_metric = 0.0;
  scan_paths(plan(), ybar, num_paths(), &best_path, &best_metric);
  detect::Workspace ws;
  DetectionResult res;
  reconstruct_winner(ybar, best_path, best_metric, ws, &res);
  return res;
}

void FcsdDetector::detect_batch(std::span<const CVec> ys,
                                BatchResult* out) const {
  const std::size_t paths = num_paths();
  if (pool_ == nullptr || paths == 0 || ys.empty()) {
    Detector::detect_batch(ys, out);
    return;
  }
  detect_batch_on_pool(*this, paths, ys, qr_.R.cols(), *pool_, &batch_, out);
}

}  // namespace flexcore::detect
