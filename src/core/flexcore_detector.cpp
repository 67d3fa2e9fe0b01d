#include "core/flexcore_detector.h"

#include "parallel/hot_path.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flexcore::core {

FlexCoreDetector::FlexCoreDetector(const Constellation& c, FlexCoreConfig cfg)
    : PathParallelDetector(c, cfg.precision, /*sic_fallback=*/true),
      cfg_(cfg),
      lut_(c) {
  if (cfg_.num_pes == 0) {
    throw std::invalid_argument("FlexCoreDetector: num_pes must be >= 1");
  }
  if (cfg_.precision == detect::Precision::kInt16 &&
      (cfg_.ordering != OrderingMode::kLut ||
       cfg_.invalid_policy != InvalidEntryPolicy::kDeactivate)) {
    throw std::invalid_argument(
        "FlexCoreDetector: the :i16 tier runs only the triangle LUT with "
        "deactivation (no exact-sort or skip-to-valid ablation)");
  }
}

std::string FlexCoreDetector::name() const {
  std::string base = cfg_.adaptive_threshold > 0.0
                         ? "a-flexcore-" + std::to_string(cfg_.num_pes)
                         : "flexcore-" + std::to_string(cfg_.num_pes);
  base += detect::precision_suffix(cfg_.precision);
  return base;
}

FLEXCORE_HOT_PATH
void FlexCoreDetector::install_channel(const CMat& h, double noise_var) {
  detect::require_kernel_streams("FlexCoreDetector", h.cols());
  // Factor into scratch and swap on success: a refused channel (rank
  // deficient or non-finite) leaves the installed one, its noise variance
  // included, untouched.
  linalg::sorted_qr_wubben_into(h, &qr_scratch_);
  std::swap(qr_, qr_scratch_);
  noise_var_ = noise_var;

  PreprocessingConfig pcfg;
  pcfg.num_paths = cfg_.num_pes;
  pcfg.stop_threshold =
      cfg_.adaptive_threshold > 0.0 ? cfg_.adaptive_threshold : 1.0;
  pcfg.pe_model = cfg_.pe_model;
  pcfg.candidate_list_cap = cfg_.candidate_list_cap;
  pcfg.batch_expand = cfg_.batch_expand;
  find_most_promising_paths_into(qr_.R, noise_var, *constellation_, pcfg,
                                 search_ws_, &preproc_);
  num_paths_ = preproc_.paths.size();

  const bool exact = cfg_.ordering == OrderingMode::kExactSort;
  plans_.compile([&](auto& plan) {
    plan.compile_flexcore(qr_.R, preproc_.paths, *constellation_, lut_, exact,
                          cfg_.invalid_policy);
  });
}

SoftOutput FlexCoreDetector::detect_soft(const CVec& y) const {
  SoftOutput out;
  out.hard = detect(y);

  const CVec ybar = rotate(y);
  const std::size_t nt = ybar.size();
  const int bits = constellation_->bits_per_symbol();
  // min metric per (antenna, bit, value) over the candidate list.
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<std::array<double, 2>>> best(
      nt, std::vector<std::array<double, 2>>(static_cast<std::size_t>(bits),
                                             {inf, inf}));

  std::vector<int> tree(nt), sym;
  std::vector<std::uint8_t> bitbuf;
  for (std::size_t p = 0; p < num_paths_; ++p) {
    const double metric = plan().walk_path(ybar, p, tree);
    if (std::isinf(metric)) continue;
    linalg::unpermute_into(tree, qr_.perm, &sym);
    for (std::size_t a = 0; a < nt; ++a) {
      bitbuf.clear();
      constellation_->unmap_bits(sym[a], bitbuf);
      for (std::size_t b = 0; b < static_cast<std::size_t>(bits); ++b) {
        double& slot = best[a][b][bitbuf[b]];
        slot = std::min(slot, metric);
      }
    }
  }

  // Max-log LLRs: (min metric with bit=1 - min metric with bit=0) / sigma^2.
  // Bits for which the candidate list contains only one hypothesis get a
  // saturated LLR scaled to the strongest *resolved* evidence of this
  // vector — the standard list-sphere-decoder clipping rule; a fixed large
  // constant would let unresolved bits crush genuine soft information.
  out.llrs.assign(nt, std::vector<double>(static_cast<std::size_t>(bits), 0.0));
  const double inv_noise = 1.0 / std::max(noise_var_, 1e-12);
  double max_resolved = 0.0;
  for (std::size_t a = 0; a < nt; ++a) {
    for (int b = 0; b < bits; ++b) {
      const double m0 = best[a][static_cast<std::size_t>(b)][0];
      const double m1 = best[a][static_cast<std::size_t>(b)][1];
      if (!std::isinf(m0) && !std::isinf(m1)) {
        max_resolved = std::max(max_resolved, std::abs(m1 - m0) * inv_noise);
      }
    }
  }
  const double clip =
      std::min(SoftOutput::kLlrClip, std::max(1.0, 1.2 * max_resolved));
  for (std::size_t a = 0; a < nt; ++a) {
    for (int b = 0; b < bits; ++b) {
      const double m0 = best[a][static_cast<std::size_t>(b)][0];
      const double m1 = best[a][static_cast<std::size_t>(b)][1];
      double llr;
      if (std::isinf(m0) && std::isinf(m1)) {
        llr = 0.0;
      } else if (std::isinf(m1)) {
        llr = clip;
      } else if (std::isinf(m0)) {
        llr = -clip;
      } else {
        llr = std::clamp((m1 - m0) * inv_noise, -SoftOutput::kLlrClip,
                         SoftOutput::kLlrClip);
      }
      out.llrs[a][static_cast<std::size_t>(b)] = llr;
    }
  }
  return out;
}

}  // namespace flexcore::core
