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
std::size_t FcsdDetector::reconstruct_winners(
    std::span<const cplx> ybars, std::span<const std::size_t> best_path,
    std::span<const double> /*best_metric*/, detect::Workspace& ws,
    std::span<DetectionResult> res) const {
  const std::size_t nt = qr_.R.cols();
  const std::size_t n = best_path.size();
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.symbols.resize(n * nt);
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.d0.resize(n);
  plan().walk_paths(ybars, best_path, ws.d0, ws.symbols);
  for (std::size_t k = 0; k < n; ++k) {
    res[k].metric = ws.d0[k];
    res[k].stats = plan().walk_stats(num_paths());
    linalg::unpermute_into<int>({ws.symbols.data() + k * nt, nt}, qr_.perm,
                                &res[k].symbols);
  }
  return 0;
}

FLEXCORE_HOT_PATH
bool FcsdDetector::reconstruct_winner(std::span<const cplx> ybar,
                                      std::size_t best_path,
                                      double best_metric,
                                      detect::Workspace& ws,
                                      DetectionResult* res) const {
  return reconstruct_winners(ybar, {&best_path, 1}, {&best_metric, 1}, ws,
                             {res, 1}) != 0;
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
