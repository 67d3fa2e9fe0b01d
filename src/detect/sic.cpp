#include "detect/sic.h"

namespace flexcore::detect {

void SicDetector::install_channel(const CMat& h, double /*noise_var*/) {
  qr_ = linalg::sorted_qr_wubben(h);
}

bool SicDetector::detect_into(const CVec& y, Workspace& ws,
                              DetectionResult* res) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  ws.ybar.resize(nt);
  linalg::hermitian_mul_into(qr_.Q, y, ws.ybar);
  ws.symbols.assign(nt, 0);
  ws.s.assign(nt, cplx{0.0, 0.0});

  double metric = 0.0;
  DetectionStats stats;
  stats.paths_evaluated = 1;

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;  // level i+1, detected top-down
    cplx b = ws.ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) {
      b -= r(i, j) * ws.s[j];
      stats.real_mults += 4;
      stats.flops += 8;
    }
    const cplx eff = b / r(i, i);
    ws.symbols[i] = constellation_->slice(eff);
    ws.s[i] = constellation_->point(ws.symbols[i]);
    metric += linalg::abs2(b - r(i, i) * ws.s[i]);
    stats.real_mults += 4;
    stats.flops += 11;  // complex mult + sub + abs2
    ++stats.nodes_visited;
  }

  linalg::unpermute_into<int>(ws.symbols, qr_.perm, &res->symbols);
  res->metric = metric;
  res->stats = stats;
  return false;
}

}  // namespace flexcore::detect
