// The paper's derivation of the triangle LUT's canonical order (§3.2):
// "via computer simulations, compute the most frequent sorted order" of
// the lattice offsets over residuals sampled uniformly in the canonical
// triangle.
//
// The library stores the exact order at the triangle's centroid instead
// (core::OrderingLut::base_order()): deterministic, and the same as this
// sampled order on the head of the order, where detection quality is
// decided (tests/core_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "core/ordering_lut.h"
#include "modulation/constellation.h"

namespace flexcore::testref {

using LutOffset = core::OrderingLut::Offset;

/// The |Q| lattice offsets nearest the residual (u, v), in d_min steps,
/// ascending by distance (ties: real-axis step, then imaginary-axis step).
inline std::vector<LutOffset> lut_order_at(const modulation::Constellation& c,
                                           double u, double v) {
  // The window (2*side+1)^2 >= 4*|Q| surely holds the |Q| nearest.
  const int side = c.side();
  const double step = c.min_distance();
  struct Cand {
    double d2;
    LutOffset off;
  };
  std::vector<Cand> cands;
  for (int di = -side; di <= side; ++di) {
    for (int dq = -side; dq <= side; ++dq) {
      const double dx = di * step - u;
      const double dy = dq * step - v;
      cands.push_back(Cand{dx * dx + dy * dy,
                           LutOffset{static_cast<std::int8_t>(di),
                                     static_cast<std::int8_t>(dq)}});
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) {
                     if (a.d2 != b.d2) return a.d2 < b.d2;
                     if (a.off.di != b.off.di) return a.off.di < b.off.di;
                     return a.off.dq < b.off.dq;
                   });
  std::vector<LutOffset> order(static_cast<std::size_t>(c.order()));
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = cands[k].off;
  return order;
}

/// The most frequent order over `samples` residuals drawn uniformly in the
/// canonical triangle 0 <= v <= u <= h (h = the constellation scale) from
/// an mt19937_64 seeded with `seed`; ties go to the lowest packed key.
inline std::vector<LutOffset> monte_carlo_lut_order(
    const modulation::Constellation& c, int samples, std::uint64_t seed) {
  const double h = c.scale();
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  std::map<std::vector<std::int16_t>, int> histogram;
  for (int s = 0; s < samples; ++s) {
    // Uniform in the triangle: u in [0, h], v in [0, u] by a warp.
    const double u = h * std::sqrt(unif(gen));
    const double v = u * unif(gen);
    std::vector<std::int16_t> key;
    for (const LutOffset& o : lut_order_at(c, u, v)) {
      key.push_back(static_cast<std::int16_t>((o.di << 8) | (o.dq & 0xff)));
    }
    ++histogram[key];
  }
  const auto best = std::max_element(
      histogram.begin(), histogram.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<LutOffset> order;
  for (const std::int16_t k : best->first) {
    order.push_back(LutOffset{static_cast<std::int8_t>(k >> 8),
                              static_cast<std::int8_t>(k & 0xff)});
  }
  return order;
}

}  // namespace flexcore::testref
