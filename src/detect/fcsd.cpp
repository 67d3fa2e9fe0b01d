#include "detect/fcsd.h"

#include <stdexcept>

namespace flexcore::detect {

FcsdDetector::FcsdDetector(const Constellation& c, std::size_t full_levels)
    : PathParallelDetector(
          c, Precision::kFloat64, /*sic_fallback=*/false,
          fcsd_num_paths("FcsdDetector", static_cast<std::size_t>(c.order()),
                         full_levels)),
      full_levels_(full_levels) {}

void FcsdDetector::install_channel(const CMat& h, double /*noise_var*/) {
  require_kernel_streams("FcsdDetector", h.cols());
  if (full_levels_ > h.cols()) {
    throw std::invalid_argument("FcsdDetector: full_levels > Nt");
  }
  qr_ = linalg::fcsd_sorted_qr(h, full_levels_);
  plans_.compile_exact([&](PathPlan& plan) {
    plan.compile_fcsd(qr_.R, full_levels_, *constellation_);
  });
}

}  // namespace flexcore::detect
