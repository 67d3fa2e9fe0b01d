#include "perfmodel/fixed_path.h"

#include <limits>

namespace flexcore::perfmodel {

namespace {
using FC = FixedComplex<16, 11>;
using F = Fixed<16, 11>;
}  // namespace

FixedPathEval fixed_path_walk(const modulation::Constellation& c,
                              const core::OrderingLut& lut,
                              const linalg::CMat& r,
                              const core::PositionVector& p,
                              const linalg::CVec& ybar) {
  const std::size_t nt = r.cols();

  // Quantize the channel factors (a per-channel cost in hardware; done here
  // per call for simplicity — the quantization, not the caching, is what
  // the verification targets).
  std::vector<std::vector<FC>> rq(nt, std::vector<FC>(nt));
  std::vector<FC> rinv(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = i; j < nt; ++j) rq[i][j] = FC::from_cplx(r(i, j));
    rinv[i] = FC::from_cplx(linalg::cplx{1.0, 0.0} / r(i, i));
  }

  FixedPathEval ev;
  ev.symbols.assign(nt, 0);
  std::vector<FC> s(nt);
  F metric = F::from_double(0.0);

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    FC b = FC::from_cplx(ybar[i]);
    for (std::size_t j = i + 1; j < nt; ++j) b = b - rq[i][j] * s[j];
    const FC eff = b * rinv[i];
    const int x = lut.kth_symbol(eff.to_cplx(), p[i]);
    if (x < 0) return ev;
    ev.symbols[i] = x;
    s[i] = FC::from_cplx(c.point(x));
    const FC diff = b - rq[i][i] * s[i];
    metric = metric + diff.abs2();
  }
  ev.valid = true;
  ev.metric = metric.to_double();
  return ev;
}

double fixed_vs_double_agreement(const core::FlexCoreDetector& det,
                                 const std::vector<linalg::CVec>& ys) {
  if (ys.empty()) return 1.0;
  std::size_t same = 0;
  for (const auto& y : ys) {
    const auto dbl = det.detect(y);
    const linalg::CVec ybar = det.rotate(y);

    double best = std::numeric_limits<double>::infinity();
    std::vector<int> best_sym;
    for (std::size_t pidx = 0; pidx < det.active_paths(); ++pidx) {
      const auto ev =
          fixed_path_walk(det.constellation(), det.lut(), det.qr().R,
                          det.preprocessing().paths[pidx].p, ybar);
      if (ev.valid && ev.metric < best) {
        best = ev.metric;
        best_sym = ev.symbols;
      }
    }
    if (!best_sym.empty()) {
      const auto orig = linalg::unpermute(best_sym, det.qr().perm);
      same += (orig == dbl.symbols);
    }
  }
  return static_cast<double>(same) / static_cast<double>(ys.size());
}

}  // namespace flexcore::perfmodel
