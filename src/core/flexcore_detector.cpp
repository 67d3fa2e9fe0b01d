#include "core/flexcore_detector.h"

#include "parallel/hot_path.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "detect/path_grid.h"
#include "obs/obs.h"

namespace flexcore::core {

FlexCoreDetector::FlexCoreDetector(const Constellation& c, FlexCoreConfig cfg)
    : constellation_(&c),
      cfg_(cfg),
      lut_(c, cfg.lut_source),
      plans_(cfg.precision) {
  if (cfg_.num_pes == 0) {
    throw std::invalid_argument("FlexCoreDetector: num_pes must be >= 1");
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
void FlexCoreDetector::set_channel(const CMat& h, double noise_var) {
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
  active_paths_ = preproc_.paths.size();

  const bool exact = cfg_.ordering == OrderingMode::kExactSort;
  plans_.compile([&](auto& plan) {
    plan.compile_flexcore(qr_.R, preproc_.paths, *constellation_, lut_, exact,
                          cfg_.invalid_policy);
  });
}

std::size_t FlexCoreDetector::active_paths() const { return active_paths_; }

double FlexCoreDetector::active_pc_sum() const { return preproc_.pc_sum; }

FLEXCORE_HOT_PATH
void FlexCoreDetector::rotate_into(const CVec& y,
                                   std::span<cplx> out) const {
  linalg::hermitian_mul_into(qr_.Q, y, out);
}

FLEXCORE_HOT_PATH
double FlexCoreDetector::walk_best(std::span<const cplx> ybar,
                                   std::span<int> symbols) const {
  std::size_t best_path = 0;
  double best_metric = std::numeric_limits<double>::infinity();
  detect::scan_paths(plan(), ybar, active_paths_, &best_path, &best_metric);
  return std::isinf(best_metric) ? best_metric
                                 : plan().walk_path(ybar, best_path, symbols);
}

FLEXCORE_HOT_PATH
bool FlexCoreDetector::finish(std::span<const cplx> ybar, double metric,
                              std::span<int> symbols,
                              DetectionResult* res) const {
  // Every PE deactivated (possible only for tiny path budgets at extreme
  // noise): plain SIC, which is always valid.
  const bool fell = std::isinf(metric);
  res->metric = fell ? plan().walk_sic(ybar, symbols) : metric;
  res->stats = plan().walk_stats(active_paths_);
  // Unpermute the tree-order decisions straight into the caller's buffer
  // so steady state allocates nothing.
  linalg::unpermute_into(symbols, qr_.perm, &res->symbols);
  return fell;
}

FLEXCORE_HOT_PATH
std::size_t FlexCoreDetector::reconstruct_winners(
    std::span<const cplx> ybars, std::span<const std::size_t> best_path,
    std::span<const double> best_metric, detect::Workspace& ws,
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
    double metric = std::isinf(best_metric[k]) ? best_metric[k] : ws.d0[k];
    // The exact walk can disagree with the grid only in the ":i16" tier,
    // where a decision that lands near a cell boundary can fall on the
    // other side of it: the int16 kernel may crown a path the exact walk
    // deactivates, or deactivate every path the exact walk keeps.  Those
    // vectors are rescued with one exact block scan (the quantized grid
    // already paid for the other 99%+); only when that scan also finds
    // every path dead does the vector drop to plain SIC, exactly like the
    // fp64 tier.
    if (std::isinf(metric) && cfg_.precision == detect::Precision::kInt16) {
      obs::counter_add(obs::Counter::kI16BoundaryRescans);
      metric = walk_best(ybar, symbols);
    }
    fell += finish(ybar, metric, symbols, &res[k]);
  }
  return fell;
}

FLEXCORE_HOT_PATH
bool FlexCoreDetector::reconstruct_winner(std::span<const cplx> ybar,
                                          std::size_t best_path,
                                          double best_metric,
                                          detect::Workspace& ws,
                                          DetectionResult* res) const {
  return reconstruct_winners(ybar, {&best_path, 1}, {&best_metric, 1}, ws,
                             {res, 1}) != 0;
}

bool FlexCoreDetector::detect_into(const CVec& y, detect::Workspace& ws,
                                   DetectionResult* res) const {
  ws.ybar.resize(qr_.R.cols());
  rotate_into(y, ws.ybar);
  ws.symbols.resize(ws.ybar.size());
  return finish(ws.ybar, walk_best(ws.ybar, ws.symbols), ws.symbols, res);
}

void FlexCoreDetector::detect_batch(std::span<const CVec> ys,
                                    detect::BatchResult* out) const {
  if (pool_ == nullptr || active_paths_ == 0 || ys.empty()) {
    // Sequential loop with the base-class contract (tasks = vector
    // count), but with the SIC-fallback counter kept consistent with the
    // pooled grid path.
    out->results.assign(ys.size(), DetectionResult{});
    out->stats = DetectionStats{};
    out->sic_fallbacks = 0;
    out->tasks = ys.size();
    const auto t0 = std::chrono::steady_clock::now();
    detect::Workspace ws;
    for (std::size_t v = 0; v < ys.size(); ++v) {
      out->sic_fallbacks += detect_into(ys[v], ws, &out->results[v]);
      out->stats += out->results[v].stats;
    }
    out->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return;
  }
  detect::detect_batch_on_pool(*this, active_paths_, ys, qr_.R.cols(), *pool_,
                               &batch_, out);
}

DetectionResult FlexCoreDetector::detect(const CVec& y) const {
  detect::Workspace ws;
  DetectionResult res;
  detect_into(y, ws, &res);
  return res;
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
  for (std::size_t p = 0; p < active_paths_; ++p) {
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
