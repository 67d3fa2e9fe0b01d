#include "control/path_policy.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "channel/channel.h"
#include "core/preprocessing.h"
#include "modulation/error_rates.h"

namespace flexcore::control {

double nominal_level_pe(const modulation::Constellation& c, double snr_db) {
  const double noise_var = channel::noise_var_for_snr_db(snr_db);
  const double pe = modulation::level_error_probability(
      modulation::PeModel::kExactSer, c, 1.0, noise_var);
  return std::clamp(pe, 1e-12, 1.0 - 1e-12);
}

PathDecision solve_path_count(const modulation::Constellation& c,
                              std::size_t nt, double snr_db,
                              const PathPolicyConfig& cfg) {
  if (cfg.max_paths == 0) {
    throw std::invalid_argument("solve_path_count: max_paths must be >= 1");
  }
  if (!(cfg.target_error > 0.0 && cfg.target_error < 1.0)) {
    throw std::invalid_argument(
        "solve_path_count: target_error must be in (0, 1)");
  }
  if (nt == 0) {
    throw std::invalid_argument("control: nt must be >= 1");
  }
  const double coverage_goal = 1.0 - cfg.target_error;
  const std::vector<double> pe(nt, nominal_level_pe(c, snr_db));
  core::PreprocessingConfig pcfg;
  pcfg.num_paths = cfg.max_paths;
  pcfg.stop_threshold = coverage_goal;
  // An uncapped candidate list keeps the frontier exactly optimal, so the
  // solved count is the true model minimum (the budget is tiny next to a
  // detector's per-channel run; determinism matters more than the memory).
  pcfg.candidate_list_cap = cfg.max_paths + nt;
  const core::PreprocessingResult model =
      core::find_most_promising_paths(pe, c.order(), pcfg);

  PathDecision d;
  d.pe = model.pe.front();
  d.coverage = model.pc_sum;
  d.feasible = model.pc_sum >= coverage_goal;
  d.paths = std::clamp<std::size_t>(model.paths.size(), 1, cfg.max_paths);
  return d;
}

std::string path_spec(std::size_t paths) {
  if (paths == 0) {
    throw std::invalid_argument("path_spec: paths must be >= 1");
  }
  return "flexcore-" + std::to_string(paths);
}

}  // namespace flexcore::control
