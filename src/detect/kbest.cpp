#include "detect/kbest.h"

#include <algorithm>

namespace flexcore::detect {

void KBestDetector::install_channel(const CMat& h, double /*noise_var*/) {
  qr_ = linalg::sorted_qr_wubben(h);
  rx_ = diagonal_points(qr_.R, *constellation_);
}

bool KBestDetector::detect_into(const CVec& y, Workspace& ws,
                                DetectionResult* res) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  const std::size_t q = static_cast<std::size_t>(constellation_->order());
  ws.ybar.resize(nt);
  linalg::hermitian_mul_into(qr_.Q, y, ws.ybar);

  // Survivor paths are stored flat with stride nt: entry s holds the
  // symbols of the levels processed so far, path[s * nt + d] being the
  // decision of the d-th processed level (tree level nt-1-d).  Peds in
  // ws.d0; candidate peds in ws.d1; the double-buffered paths live in
  // ws.i0/ws.i1, swapped per level.
  DetectionStats stats;
  std::size_t survivors = 1;
  ws.d0.assign(1, 0.0);
  ws.i0.resize(k_ * nt);
  ws.i1.resize(k_ * nt);

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    const std::size_t cands = survivors * q;
    ws.d1.resize(cands);
    for (std::size_t s = 0; s < survivors; ++s) {
      cplx b = ws.ybar[i];
      const int* path = ws.i0.data() + s * nt;
      for (std::size_t j = i + 1; j < nt; ++j) {
        b -= r(i, j) * constellation_->point(path[nt - 1 - j]);
        stats.real_mults += 4;
        stats.flops += 8;
      }
      for (std::size_t x = 0; x < q; ++x) {
        ws.d1[s * q + x] = ws.d0[s] + linalg::abs2(b - rx_[i][x]);
      }
      stats.real_mults += 2 * q;
      stats.flops += 5 * q;
      ++stats.nodes_visited;
    }
    // Keep the K lowest-PED candidates; ties break on candidate index so
    // the selection is deterministic.
    const std::size_t keep = std::min(k_, cands);
    ws.idx.resize(cands);
    for (std::size_t c = 0; c < cands; ++c) ws.idx[c] = c;
    std::partial_sort(ws.idx.begin(),
                      ws.idx.begin() + static_cast<std::ptrdiff_t>(keep),
                      ws.idx.end(), [&](std::size_t a, std::size_t b) {
                        return ws.d1[a] != ws.d1[b] ? ws.d1[a] < ws.d1[b]
                                                    : a < b;
                      });
    ws.d0.resize(keep);  // old peds are already folded into ws.d1
    for (std::size_t t = 0; t < keep; ++t) {
      const std::size_t c = ws.idx[t];
      const std::size_t s = c / q;
      int* dst = ws.i1.data() + t * nt;
      const int* src = ws.i0.data() + s * nt;
      for (std::size_t d = 0; d < ii; ++d) dst[d] = src[d];
      dst[ii] = static_cast<int>(c % q);
      ws.d0[t] = ws.d1[c];
    }
    std::swap(ws.i0, ws.i1);
    survivors = keep;
  }

  // Survivor 0 has the minimum PED (the selection sorts ascending).
  const int* best = ws.i0.data();
  ws.symbols.resize(nt);
  for (std::size_t ii = 0; ii < nt; ++ii) {
    ws.symbols[nt - 1 - ii] = best[ii];  // path was built top level first
  }

  linalg::unpermute_into<int>(ws.symbols, qr_.perm, &res->symbols);
  res->metric = ws.d0[0];
  res->stats = stats;
  res->stats.paths_evaluated = k_;
  return false;
}

}  // namespace flexcore::detect
