#include "detect/ml_sphere.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace flexcore::detect {

void MlSphereDecoder::install_channel(const CMat& h, double /*noise_var*/) {
  qr_ = linalg::sorted_qr_wubben(h);
  rx_ = diagonal_points(qr_.R, *constellation_);
}

struct MlSphereDecoder::SearchState {
  const CMat* r;
  CVec ybar;
  std::size_t nt;
  int q;

  std::vector<int> current;        // symbol index per level
  std::vector<int> best;           // best leaf found
  double best_metric;
  DetectionStats stats;
  std::uint64_t max_nodes;
  bool truncated = false;

  // Scratch reused across node expansions (one slot per level to survive
  // the recursion).
  std::vector<std::vector<int>> order;      // per-level child index sort
  std::vector<std::vector<double>> dist;    // per-level child distances
};

void MlSphereDecoder::search(SearchState& st, std::size_t level,
                             double ped) const {
  if (st.max_nodes && st.stats.nodes_visited >= st.max_nodes) {
    st.truncated = true;
    return;
  }
  ++st.stats.nodes_visited;
  const std::size_t i = level;

  // Interference-cancelled observation for this level.
  cplx b = st.ybar[i];
  for (std::size_t j = i + 1; j < st.nt; ++j) {
    b -= (*st.r)(i, j) * constellation_->point(st.current[j]);
  }
  st.stats.real_mults += 4 * (st.nt - i - 1);
  st.stats.flops += 8 * (st.nt - i - 1);

  // Distances to all children using the precomputed R(i,i)*x table, then
  // Schnorr-Euchner order = ascending distance.
  auto& dist = st.dist[i];
  auto& order = st.order[i];
  const CVec& rx = rx_[i];
  for (int x = 0; x < st.q; ++x) {
    const auto xi = static_cast<std::size_t>(x);
    dist[xi] = linalg::abs2(b - rx[xi]);
  }
  st.stats.real_mults += 2 * static_cast<std::uint64_t>(st.q);
  st.stats.flops += 5 * static_cast<std::uint64_t>(st.q);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int bdx) {
    return dist[static_cast<std::size_t>(a)] <
           dist[static_cast<std::size_t>(bdx)];
  });

  for (int x : order) {
    const double child = ped + dist[static_cast<std::size_t>(x)];
    if (child >= st.best_metric) break;  // sorted: all later children prune too
    st.current[i] = x;
    if (i == 0) {
      st.best_metric = child;
      st.best = st.current;
    } else {
      search(st, i - 1, child);
      if (st.truncated) return;
    }
  }
}

bool MlSphereDecoder::detect_into(const CVec& y, Workspace& /*ws*/,
                                  DetectionResult* res) const {
  const std::size_t nt = qr_.R.cols();
  SearchState st;
  st.r = &qr_.R;
  st.ybar = qr_.Q.hermitian() * y;
  st.nt = nt;
  st.q = constellation_->order();
  st.current.assign(nt, 0);
  st.best.assign(nt, 0);
  st.best_metric = std::numeric_limits<double>::infinity();
  st.max_nodes = opt_.max_nodes;
  st.order.assign(nt, std::vector<int>(static_cast<std::size_t>(st.q)));
  st.dist.assign(nt, std::vector<double>(static_cast<std::size_t>(st.q)));

  search(st, nt - 1, 0.0);

  res->symbols = linalg::unpermute(st.best, qr_.perm);
  res->metric = st.best_metric;
  res->stats = st.stats;
  res->stats.paths_evaluated = 1;
  return false;
}

}  // namespace flexcore::detect
