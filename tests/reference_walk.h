// Scalar reference walks: the per-path tree walks of FlexCore (§3.2), the
// FCSD and plain SIC written as straightforward std::complex<double> code.
//
// The library runs every exact walk through the compiled
// detect::PathPlan (lane-parallel block walk, width-1 single-path walk,
// clamped rank-1 SIC walk).  These walks are the bit-identity reference
// that plan is tested against — same operations in the same order on the
// same values — and the "scalar" rows fig17_kernel_engine and
// micro_kernels time the plan against.  They also keep the per-walk
// Table 2 instrumentation the plan's closed-form walk_stats must match.
//
// A reference snapshots the detector's installed channel (R, 1/R(i,i) and
// the R(i,i) * point tables): rebuild it after every set_channel.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/flexcore_detector.h"
#include "detect/detector.h"
#include "detect/fcsd.h"
#include "linalg/qr.h"
#include "linalg/types.h"

namespace flexcore::testref {

using linalg::CMat;
using linalg::CVec;
using linalg::cplx;

/// One walked path.  `valid` is false when a LUT entry pointed outside the
/// constellation and the policy deactivated the PE, or (exact sort) the
/// path's rank lies outside 1..|Q|; `symbols` and `metric` are then
/// partial.
struct PathEval {
  bool valid = false;
  double metric = 0.0;
  std::vector<int> symbols;     ///< tree (permuted) order
  detect::DetectionStats stats;  ///< Table 2 counters of this walk
};

/// rx[i][x] = R(i,i) * point(x), the PED reference table of each level.
inline std::vector<CVec> level_points(const CMat& r,
                                      const modulation::Constellation& c) {
  const std::size_t q = static_cast<std::size_t>(c.order());
  std::vector<CVec> rx(r.cols(), CVec(q));
  for (std::size_t i = 0; i < r.cols(); ++i) {
    for (std::size_t x = 0; x < q; ++x) {
      rx[i][x] = r(i, i) * c.point(static_cast<int>(x));
    }
  }
  return rx;
}

/// FlexCore's walk over the channel installed in `det`.
class FlexCoreReference {
 public:
  explicit FlexCoreReference(const core::FlexCoreDetector& det)
      : FlexCoreReference(det.qr().R, det.constellation(), det.lut(),
                          det.preprocessing().paths, det.config()) {
    det_ = &det;
  }

  /// Test-only: the walk of an explicit path set over upper-triangular `r`
  /// (`cfg` supplies the ordering mode and invalid-entry policy).  detect()
  /// needs a detector's permutation and is unavailable here.
  FlexCoreReference(const CMat& r, const modulation::Constellation& c,
                    const core::OrderingLut& lut,
                    std::span<const core::RankedPath> paths,
                    const core::FlexCoreConfig& cfg)
      : r_(&r),
        c_(&c),
        lut_(&lut),
        paths_(paths),
        ordering_(cfg.ordering),
        policy_(cfg.invalid_policy),
        rx_(level_points(r, c)) {
    for (std::size_t i = 0; i < r_->cols(); ++i) {
      r_diag_inv_.push_back(cplx{1.0, 0.0} / (*r_)(i, i));
    }
  }

  /// The metric-only walk of path `p`: +infinity when deactivated.
  /// Requires Nt <= 32.
  double path_metric(std::span<const cplx> ybar, std::size_t p) const {
    const CMat& r = *r_;
    const std::size_t nt = r.cols();
    assert(nt <= 32);
    const core::PositionVector& pv = paths_[p].p;

    std::array<cplx, 32> s;
    double metric = 0.0;
    for (std::size_t ii = 0; ii < nt; ++ii) {
      const std::size_t i = nt - 1 - ii;
      cplx b = ybar[i];
      for (std::size_t j = i + 1; j < nt; ++j) b -= r(i, j) * s[j];
      const int x = kth_symbol(b * r_diag_inv_[i], pv[i]);
      if (x < 0) return std::numeric_limits<double>::infinity();
      s[i] = c_->point(x);
      metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
    }
    return metric;
  }

  /// The instrumented walk of path `p`.
  PathEval evaluate_path(std::span<const cplx> ybar, std::size_t p) const {
    const CMat& r = *r_;
    const std::size_t nt = r.cols();
    const core::PositionVector& pv = paths_[p].p;
    PathEval ev;
    ev.symbols.assign(nt, 0);
    CVec s(nt);
    for (std::size_t ii = 0; ii < nt; ++ii) {
      const std::size_t i = nt - 1 - ii;
      // Interference cancellation (Eq. 5 numerator).
      cplx b = ybar[i];
      for (std::size_t j = i + 1; j < nt; ++j) {
        b -= r(i, j) * s[j];
        ev.stats.real_mults += 4;
        ev.stats.flops += 8;
      }
      const int x = kth_symbol(b * r_diag_inv_[i], pv[i]);
      if (x < 0) return ev;  // deactivated processing element
      ev.symbols[i] = x;
      s[i] = c_->point(x);
      ev.metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
      // Table 2 accounting: 4 real mults per cancelled term + 4 per level
      // for the PED constant multiply (the FPGA design folds the divide
      // into a multiply by R(l,l), so no extra cost is counted for eff).
      ev.stats.real_mults += 4;
      ev.stats.flops += 11;
      ++ev.stats.nodes_visited;
    }
    ev.valid = true;
    return ev;
  }

  /// Plain SIC: the [1,...,1] path with exact (clamped) slicing, which is
  /// always valid — FlexCore's fallback when every PE is deactivated.
  PathEval sic(std::span<const cplx> ybar) const {
    const CMat& r = *r_;
    const std::size_t nt = r.cols();
    PathEval ev;
    ev.valid = true;
    ev.symbols.assign(nt, 0);
    CVec s(nt);
    for (std::size_t ii = 0; ii < nt; ++ii) {
      const std::size_t i = nt - 1 - ii;
      cplx b = ybar[i];
      for (std::size_t j = i + 1; j < nt; ++j) b -= r(i, j) * s[j];
      const int x = c_->slice(b * r_diag_inv_[i]);
      ev.symbols[i] = x;
      s[i] = c_->point(x);
      ev.metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
    }
    return ev;
  }

  /// Sequential detection: the minimum over every active path (strict <,
  /// first index wins), or SIC when every path is deactivated (*fell is
  /// then set).  Symbols in ORIGINAL antenna order; no stats.
  detect::DetectionResult detect(std::span<const cplx> ybar,
                                 bool* fell = nullptr) const {
    assert(det_ != nullptr);
    PathEval best;
    best.metric = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < det_->active_paths(); ++p) {
      PathEval ev = evaluate_path(ybar, p);
      if (ev.valid && ev.metric < best.metric) best = std::move(ev);
    }
    const bool fallback = !best.valid;
    if (fallback) best = sic(ybar);
    if (fell != nullptr) *fell = fallback;
    detect::DetectionResult res;
    res.metric = best.metric;
    res.symbols = linalg::unpermute(best.symbols, det_->qr().perm);
    return res;
  }

 private:
  int kth_symbol(cplx eff, int rank) const {
    if (ordering_ == core::OrderingMode::kLut) {
      return lut_->kth_symbol(eff, rank, policy_);
    }
    return rank >= 1 && rank <= c_->order() ? c_->kth_nearest_exact(eff, rank)
                                            : -1;
  }

  const core::FlexCoreDetector* det_ = nullptr;
  const CMat* r_;
  const modulation::Constellation* c_;
  const core::OrderingLut* lut_;
  std::span<const core::RankedPath> paths_;
  core::OrderingMode ordering_;
  core::InvalidEntryPolicy policy_;
  std::vector<CVec> rx_;
  CVec r_diag_inv_;
};

/// The FCSD walk over the channel installed in `det` (constellation `c`):
/// path p's base-|Q| digits select the fully-expanded top levels, the
/// remaining levels extend greedily by nearest-point slicing.
class FcsdReference {
 public:
  FcsdReference(const detect::FcsdDetector& det,
                const modulation::Constellation& c)
      : det_(&det),
        r_(&det.qr().R),
        c_(&c),
        rx_(level_points(det.qr().R, c)) {}

  /// The metric-only walk of path `p`.  Requires Nt <= 32.
  double path_metric(std::span<const cplx> ybar, std::size_t p) const {
    const CMat& r = *r_;
    const std::size_t nt = r.cols();
    assert(nt <= 32);
    const std::size_t q = static_cast<std::size_t>(c_->order());
    const std::size_t levels = det_->full_levels();

    std::array<int, 32> top;
    std::size_t v = p;
    for (std::size_t d = 0; d < levels; ++d) {
      top[d] = static_cast<int>(v % q);
      v /= q;
    }

    std::array<cplx, 32> s;
    double metric = 0.0;
    for (std::size_t ii = 0; ii < nt; ++ii) {
      const std::size_t i = nt - 1 - ii;
      cplx b = ybar[i];
      for (std::size_t j = i + 1; j < nt; ++j) b -= r(i, j) * s[j];
      const int x = (ii < levels) ? top[ii] : c_->slice(b / r(i, i));
      s[i] = c_->point(x);
      metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
    }
    return metric;
  }

  /// The instrumented walk of path `p` (every FCSD path is valid).
  PathEval evaluate_path(std::span<const cplx> ybar, std::size_t p) const {
    const CMat& r = *r_;
    const std::size_t nt = r.cols();
    const std::size_t q = static_cast<std::size_t>(c_->order());
    const std::size_t levels = det_->full_levels();
    PathEval ev;
    ev.valid = true;
    ev.symbols.assign(nt, 0);
    // Digit 0 drives the topmost level (detected first).
    std::size_t v = p;
    for (std::size_t d = 0; d < levels; ++d) {
      ev.symbols[nt - 1 - d] = static_cast<int>(v % q);
      v /= q;
    }
    CVec s(nt);
    for (std::size_t ii = 0; ii < nt; ++ii) {
      const std::size_t i = nt - 1 - ii;
      cplx b = ybar[i];
      for (std::size_t j = i + 1; j < nt; ++j) {
        b -= r(i, j) * s[j];
        ev.stats.real_mults += 4;
        ev.stats.flops += 8;
      }
      int x = ev.symbols[i];  // enumerated level
      if (ii >= levels) {
        // Greedy single-child extension: nearest constellation point.
        x = c_->slice(b / r(i, i));
        ev.stats.real_mults += 4;  // complex-by-real-reciprocal divide
        ev.stats.flops += 8;
      }
      ev.symbols[i] = x;
      s[i] = c_->point(x);
      ev.metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
      ev.stats.real_mults += 2;
      ev.stats.flops += 5;
      ++ev.stats.nodes_visited;
    }
    return ev;
  }

  /// Sequential detection: the minimum over every path (strict <, first
  /// index wins).  Symbols in ORIGINAL antenna order; no stats.
  detect::DetectionResult detect(std::span<const cplx> ybar) const {
    PathEval best;
    best.metric = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < det_->num_paths(); ++p) {
      PathEval ev = evaluate_path(ybar, p);
      if (ev.metric < best.metric) best = std::move(ev);
    }
    detect::DetectionResult res;
    res.metric = best.metric;
    res.symbols = linalg::unpermute(best.symbols, det_->qr().perm);
    return res;
  }

 private:
  const detect::FcsdDetector* det_;
  const CMat* r_;
  const modulation::Constellation* c_;
  std::vector<CVec> rx_;
};

}  // namespace flexcore::testref
