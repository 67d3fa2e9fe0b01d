// Path budgeting by inverting FlexCore's probability model (Fig. 14).
//
// Pre-processing ranks tree paths by Pc(p) = prod_l Pl(p(l)) with Pl
// geometric in the closeness rank (Appendix Eq. 11; the fig14 bench
// validates the model against simulation).  The cumulative Pc of the N
// best paths is the model probability that the transmitted vector lies on
// an evaluated path, so 1 - pc_sum(N) is the model's residual detection
// error.  PathPolicy runs the same best-first search the detector's
// pre-processing runs, but over a *nominal* per-level error probability
// derived from an SNR estimate alone — the control plane decides the next
// coherence interval's path budget before that interval's channels exist —
// and stops as soon as coverage reaches 1 - target_error: the smallest
// path count meeting the target at that SNR.
//
//   control::PathPolicyConfig pcfg;
//   pcfg.target_error = 1e-2;
//   pcfg.max_paths = 128;                       // the cell's PE budget
//   control::PathDecision d =
//       control::solve_path_count(qam, nt, snr_db, pcfg);
//   // d.paths = minimum N with model coverage >= 0.99 (clamped)
#pragma once

#include <cstddef>
#include <string>

#include "modulation/constellation.h"

namespace flexcore::control {

struct PathPolicyConfig {
  /// Residual model error the path set must stay under: the solver picks
  /// the smallest N with pc_sum(N) >= 1 - target_error.
  double target_error = 1e-2;
  /// The cell's compute budget (its PE pool share), the upper end of the
  /// solved count's range [1, max_paths]; when even max_paths misses the
  /// target the decision reports feasible = false and returns max_paths.
  std::size_t max_paths = 256;
};

/// One solver verdict.
struct PathDecision {
  std::size_t paths = 0;  ///< smallest count meeting the target (clamped)
  double coverage = 0.0;  ///< model pc_sum of those paths
  double pe = 0.0;        ///< nominal per-level Pe the solve used
  bool feasible = false;  ///< coverage reached 1 - target within max_paths
};

/// Nominal per-level error probability at `snr_db`: the exact AWGN SER of
/// the constellation at unit gain (the kExactSer calibration Fig. 14
/// validates), clamped away from 0/1 for numeric sanity.
double nominal_level_pe(const modulation::Constellation& c, double snr_db);

/// Minimum path count meeting cfg.target_error for an Nt-user cell at the
/// estimated SNR.  Deterministic: same inputs, same decision.
PathDecision solve_path_count(const modulation::Constellation& c,
                              std::size_t nt, double snr_db,
                              const PathPolicyConfig& cfg);

/// Registry spec realizing `paths` paths: "flexcore-<paths>".  Throws
/// std::invalid_argument for 0 paths.
std::string path_spec(std::size_t paths);

}  // namespace flexcore::control
