#include "detect/linear.h"

#include "linalg/solve.h"

namespace flexcore::detect {

void LinearDetector::install_channel(const CMat& h, double noise_var) {
  // The filter first: a singular channel throws here, before either member
  // changes, so the previous channel stays installed whole.
  w_ = (kind_ == LinearKind::kZeroForcing) ? linalg::zf_filter(h)
                                           : linalg::mmse_filter(h, noise_var);
  h_ = h;
}

bool LinearDetector::detect_into(const CVec& y, Workspace& /*ws*/,
                                 DetectionResult* res) const {
  const CVec x = w_ * y;
  res->symbols.resize(x.size());
  CVec s_hat(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    res->symbols[i] = constellation_->slice(x[i]);
    s_hat[i] = constellation_->point(res->symbols[i]);
  }
  // Report the true residual so linear results are comparable with
  // tree-search metrics.
  const CVec r = linalg::sub(y, h_ * s_hat);
  res->metric = linalg::norm2(r);
  res->stats = DetectionStats{};
  res->stats.paths_evaluated = 1;
  // Filter multiply: Nr*Nt complex mults.
  res->stats.real_mults = 4 * w_.rows() * w_.cols();
  res->stats.flops = 8 * w_.rows() * w_.cols();
  return false;
}

}  // namespace flexcore::detect
