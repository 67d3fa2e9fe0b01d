#include "core/adaptive_kbest.h"

#include <algorithm>
#include <set>
#include <string>

namespace flexcore::core {

using detect::DetectionStats;
using linalg::cplx;

void AdaptiveKBestDetector::install_channel(const CMat& h, double noise_var) {
  qr_ = linalg::sorted_qr_wubben(h);
  rx_ = detect::diagonal_points(qr_.R, *constellation_);
  const std::size_t nt = qr_.R.cols();

  // Per-level widths = number of DISTINCT path prefixes the most promising
  // position vectors need at each level.  (Not the maximum rank: a K-best
  // survivor list at level l must hold every partial hypothesis the
  // selected paths pass through, and two paths sharing ranks down to level
  // l occupy one survivor slot.)
  core::PreprocessingConfig pcfg;
  pcfg.num_paths = path_budget_;
  pcfg.pe_model = pe_model_;
  const auto pre =
      core::find_most_promising_paths(qr_.R, noise_var, *constellation_, pcfg);
  level_k_.assign(nt, 1);
  std::vector<std::set<std::string>> prefixes(nt);
  for (const auto& rp : pre.paths) {
    std::string key;
    for (std::size_t ii = 0; ii < nt; ++ii) {
      const std::size_t i = nt - 1 - ii;  // walk top level downwards
      key += std::to_string(rp.p[i]);
      key += ',';
      prefixes[i].insert(key);
    }
  }
  for (std::size_t i = 0; i < nt; ++i) {
    level_k_[i] = std::max<std::size_t>(1, prefixes[i].size());
  }
}

bool AdaptiveKBestDetector::detect_into(const CVec& y,
                                        detect::Workspace& /*ws*/,
                                        DetectionResult* res) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  const std::size_t q = static_cast<std::size_t>(constellation_->order());
  const CVec ybar = qr_.Q.hermitian() * y;

  struct Partial {
    double ped;
    std::vector<int> path;  // symbols, top level first
  };

  DetectionStats stats;
  std::vector<Partial> survivors{{0.0, {}}};

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    std::vector<Partial> candidates;
    candidates.reserve(survivors.size() * q);
    for (const Partial& sv : survivors) {
      cplx b = ybar[i];
      for (std::size_t j = i + 1; j < nt; ++j) {
        b -= r(i, j) * constellation_->point(sv.path[nt - 1 - j]);
        stats.real_mults += 4;
        stats.flops += 8;
      }
      for (std::size_t x = 0; x < q; ++x) {
        const double ped = sv.ped + linalg::abs2(b - rx_[i][x]);
        candidates.push_back({ped, sv.path});
        candidates.back().path.push_back(static_cast<int>(x));
      }
      stats.real_mults += 2 * q;
      stats.flops += 5 * q;
      ++stats.nodes_visited;
    }
    // The adaptive width for THIS level (classic K-best would use a
    // constant here).
    const std::size_t keep = std::min(level_k_[i], candidates.size());
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(keep),
                      candidates.end(),
                      [](const Partial& a, const Partial& b) { return a.ped < b.ped; });
    candidates.resize(keep);
    survivors = std::move(candidates);
  }

  const Partial& best = survivors.front();
  std::vector<int> detected(nt);
  for (std::size_t ii = 0; ii < nt; ++ii) detected[nt - 1 - ii] = best.path[ii];

  res->symbols = linalg::unpermute(detected, qr_.perm);
  res->metric = best.ped;
  res->stats = stats;
  res->stats.paths_evaluated = parallel_tasks();
  return false;
}

}  // namespace flexcore::core
