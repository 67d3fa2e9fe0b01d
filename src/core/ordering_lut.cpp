#include "core/ordering_lut.h"

#include <algorithm>

namespace flexcore::core {

namespace {

/// The lattice offsets in ascending distance from the canonical triangle's
/// centroid (ties: real-axis step, then imaginary-axis step).
std::vector<OrderingLut::Offset> build_centroid_order(const Constellation& c) {
  // Canonical triangle t1: residuals (u, v) with 0 <= v <= u <= h, where
  // h = half the slicer square side = constellation scale.  Its centroid,
  // of the vertices (0,0), (h,0), (h,h):
  const double h = c.scale();
  const double u = 2.0 * h / 3.0;
  const double v = h / 3.0;
  // Candidate offsets within a window that is guaranteed to contain the |Q|
  // nearest lattice points (window (2*side+1)^2 >= 4*|Q| entries).
  const int side = c.side();
  const double step = c.min_distance();
  struct Cand {
    double d2;
    OrderingLut::Offset off;
  };
  std::vector<Cand> cands;
  cands.reserve(static_cast<std::size_t>((2 * side + 1) * (2 * side + 1)));
  for (int di = -side; di <= side; ++di) {
    for (int dq = -side; dq <= side; ++dq) {
      const double dx = di * step - u;
      const double dy = dq * step - v;
      cands.push_back(Cand{dx * dx + dy * dy,
                           OrderingLut::Offset{static_cast<std::int8_t>(di),
                                               static_cast<std::int8_t>(dq)}});
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) {
                     if (a.d2 != b.d2) return a.d2 < b.d2;
                     if (a.off.di != b.off.di) return a.off.di < b.off.di;
                     return a.off.dq < b.off.dq;
                   });
  std::vector<OrderingLut::Offset> order(static_cast<std::size_t>(c.order()));
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = cands[k].off;
  return order;
}

/// Order kOrder's centroid order, built on the first call from whichever
/// thread makes it (every constellation of one order is the same).  The
/// static's initialization is thread-safe; later calls read it lock-free.
template <int kOrder>
const std::vector<OrderingLut::Offset>& centroid_order(const Constellation& c) {
  static const std::vector<OrderingLut::Offset> order =
      build_centroid_order(c);
  return order;
}

const std::vector<OrderingLut::Offset>& shared_centroid_order(
    const Constellation& c) {
  switch (c.order()) {
    case 4:
      return centroid_order<4>(c);
    case 16:
      return centroid_order<16>(c);
    case 64:
      return centroid_order<64>(c);
    default:  // a Constellation is 4-, 16-, 64- or 256-QAM
      return centroid_order<256>(c);
  }
}

}  // namespace

OrderingLut::OrderingLut(const Constellation& c)
    : c_(&c), base_(&shared_centroid_order(c)) {}

int OrderingLut::kth_symbol(cplx z, int k, InvalidEntryPolicy policy) const {
  const int side = c_->side();
  const int ci = c_->unbounded_axis_index(z.real());
  const int cq = c_->unbounded_axis_index(z.imag());
  // Residual within the slicer square (pam_level's formula extends to
  // out-of-range axis indices).
  const double u = z.real() - (2.0 * ci - (side - 1)) * c_->scale();
  const double v = z.imag() - (2.0 * cq - (side - 1)) * c_->scale();

  // Identify the triangle: reflect (u, v) into t1 and remember the
  // transform; lattice symmetry lets us apply the same transform to the
  // stored offsets.
  const bool flip_u = u < 0.0;
  const bool flip_v = v < 0.0;
  const double au = flip_u ? -u : u;
  const double av = flip_v ? -v : v;
  const bool swap_axes = av > au;

  int found = 0;
  for (const Offset& base : *base_) {
    int di = base.di;
    int dq = base.dq;
    if (swap_axes) std::swap(di, dq);
    if (flip_u) di = -di;
    if (flip_v) dq = -dq;
    const int ai = ci + di;
    const int aq = cq + dq;
    const bool valid = c_->axes_in_range(ai, aq);
    if (policy == InvalidEntryPolicy::kDeactivate) {
      ++found;
      if (found == k) return valid ? c_->index_from_axes(ai, aq) : -1;
    } else {  // kSkipToValid
      if (!valid) continue;
      ++found;
      if (found == k) return c_->index_from_axes(ai, aq);
    }
  }
  return -1;
}

}  // namespace flexcore::core
