#include "detect/trellis.h"

#include <limits>

namespace flexcore::detect {

void TrellisDetector::install_channel(const CMat& h, double /*noise_var*/) {
  qr_ = linalg::sorted_qr_wubben(h);
  rx_ = diagonal_points(qr_.R, *constellation_);
}

FLEXCORE_NO_FMA_VECTORIZE
bool TrellisDetector::detect_into(const CVec& y, Workspace& /*ws*/,
                                  DetectionResult* res) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  const std::size_t q = static_cast<std::size_t>(constellation_->order());
  const CVec ybar = qr_.Q.hermitian() * y;

  struct Survivor {
    double metric;
    std::vector<int> path;  // path[j] = symbol at level j (array index)
  };

  DetectionStats stats;
  constexpr double inf = std::numeric_limits<double>::infinity();

  // Top level: one survivor per state, metric of its own symbol.
  std::vector<Survivor> cur(q);
  {
    const std::size_t i = nt - 1;
    for (std::size_t x = 0; x < q; ++x) {
      cur[x].metric = linalg::abs2(ybar[i] - rx_[i][x]);
      cur[x].path.assign(nt, 0);
      cur[x].path[i] = static_cast<int>(x);
    }
    stats.real_mults += 2 * q;
    stats.flops += 5 * q;
    stats.nodes_visited += q;
  }

  std::vector<Survivor> next(q);
  std::vector<cplx> b(q);  // interference-cancelled obs per predecessor

  for (std::size_t ii = 1; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    // Per-predecessor interference cancellation, shared across new states.
    for (std::size_t p = 0; p < q; ++p) {
      cplx bp = ybar[i];
      for (std::size_t j = i + 1; j < nt; ++j) {
        bp -= r(i, j) * constellation_->point(cur[p].path[j]);
        stats.real_mults += 4;
        stats.flops += 8;
      }
      b[p] = bp;
    }
    // Add-compare-select: each new state picks its best predecessor.
    for (std::size_t x = 0; x < q; ++x) {
      double best = inf;
      std::size_t best_p = 0;
      for (std::size_t p = 0; p < q; ++p) {
        const double m = cur[p].metric + linalg::abs2(b[p] - rx_[i][x]);
        if (m < best) {
          best = m;
          best_p = p;
        }
      }
      stats.real_mults += 2 * q;
      stats.flops += 5 * q;
      next[x].metric = best;
      next[x].path = cur[best_p].path;
      next[x].path[i] = static_cast<int>(x);
      ++stats.nodes_visited;
    }
    cur.swap(next);
  }

  std::size_t winner = 0;
  for (std::size_t x = 1; x < q; ++x) {
    if (cur[x].metric < cur[winner].metric) winner = x;
  }

  res->symbols = linalg::unpermute(cur[winner].path, qr_.perm);
  res->metric = cur[winner].metric;
  res->stats = stats;
  res->stats.paths_evaluated = q;
  return false;
}

}  // namespace flexcore::detect
