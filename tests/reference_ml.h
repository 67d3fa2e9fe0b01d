// Brute-force maximum-likelihood detection: the oracle that certifies the
// exact detectors.
//
// Enumerates every one of the |Q|^Nt hypotheses.  Only usable for tiny
// problems; the tests use it to certify that MlSphereDecoder, FCSD with
// L = Nt, and FlexCore with all paths selected are exactly ML.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "detect/detector.h"
#include "linalg/matrix.h"
#include "linalg/types.h"
#include "modulation/constellation.h"

namespace flexcore::testref {

/// Returns the exact ML solution argmin_s ||y - H s||^2 by exhaustive
/// search, with the winning metric.  Throws std::invalid_argument when the
/// search space exceeds `max_hypotheses` (guard against accidental blowup).
inline detect::DetectionResult exhaustive_ml(
    const modulation::Constellation& c, const linalg::CMat& h,
    const linalg::CVec& y, std::uint64_t max_hypotheses = 1u << 22) {
  const std::size_t nt = h.cols();
  const std::uint64_t q = static_cast<std::uint64_t>(c.order());
  const double total_d =
      static_cast<double>(nt) * std::log2(static_cast<double>(q));
  if (total_d > 63 ||
      std::pow(static_cast<double>(q), static_cast<double>(nt)) >
          static_cast<double>(max_hypotheses)) {
    throw std::invalid_argument("exhaustive_ml: search space too large");
  }
  const std::uint64_t total = static_cast<std::uint64_t>(std::llround(
      std::pow(static_cast<double>(q), static_cast<double>(nt))));

  detect::DetectionResult best;
  best.metric = std::numeric_limits<double>::infinity();
  std::vector<int> sym(nt);
  linalg::CVec s(nt);

  for (std::uint64_t code = 0; code < total; ++code) {
    std::uint64_t v = code;
    for (std::size_t i = 0; i < nt; ++i) {
      sym[i] = static_cast<int>(v % q);
      v /= q;
      s[i] = c.point(sym[i]);
    }
    const double m = linalg::norm2(linalg::sub(y, h * s));
    ++best.stats.nodes_visited;
    if (m < best.metric) {
      best.metric = m;
      best.symbols = sym;
    }
  }
  best.stats.paths_evaluated = total;
  return best;
}

}  // namespace flexcore::testref
