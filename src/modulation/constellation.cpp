#include "modulation/constellation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace flexcore::modulation {

namespace {
bool is_supported_order(int m) {
  return m == 4 || m == 16 || m == 64 || m == 256;
}
}  // namespace

Constellation::Constellation(int order) : order_(order) {
  if (!is_supported_order(order)) {
    throw std::invalid_argument("Constellation: order must be 4, 16, 64 or 256");
  }
  side_ = static_cast<int>(std::lround(std::sqrt(static_cast<double>(order))));
  bits_ = 0;
  for (int m = order; m > 1; m /= 2) ++bits_;

  // Unit average energy: E[|s|^2] = 2 * (M - 1) / 3 * step^2 with PAM levels
  // +-1, +-3, ... so the normalizing step is sqrt(3 / (2 (M - 1))).
  scale_ = std::sqrt(3.0 / (2.0 * (order_ - 1)));
  inv_scale_ = 1.0 / scale_;

  points_.resize(static_cast<std::size_t>(order_));
  for (int i = 0; i < side_; ++i) {
    for (int q = 0; q < side_; ++q) {
      points_[static_cast<std::size_t>(index_from_axes(i, q))] =
          cplx{pam_level(i), pam_level(q)};
    }
  }

  axis_to_gray_.resize(static_cast<std::size_t>(side_));
  gray_to_axis_.resize(static_cast<std::size_t>(side_));
  for (int i = 0; i < side_; ++i) {
    const int g = i ^ (i >> 1);  // binary-reflected Gray code
    axis_to_gray_[static_cast<std::size_t>(i)] = g;
    gray_to_axis_[static_cast<std::size_t>(g)] = i;
  }
}

int Constellation::slice(cplx z) const noexcept {
  auto clamp_axis = [this](double coord) {
    int i = static_cast<int>(
        std::lround((coord * inv_scale_ + (side_ - 1)) / 2.0));
    return std::clamp(i, 0, side_ - 1);
  };
  return index_from_axes(clamp_axis(z.real()), clamp_axis(z.imag()));
}

int Constellation::unbounded_axis_index(double coord) const noexcept {
  return static_cast<int>(std::lround((coord * inv_scale_ + (side_ - 1)) / 2.0));
}

int Constellation::kth_nearest_exact(cplx z, int k) const {
  std::vector<int> idx(points_.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return linalg::abs2(points_[static_cast<std::size_t>(a)] - z) <
           linalg::abs2(points_[static_cast<std::size_t>(b)] - z);
  });
  if (k < 1 || k > order_) throw std::out_of_range("kth_nearest_exact: bad k");
  return idx[static_cast<std::size_t>(k - 1)];
}

int Constellation::map_bits(const std::vector<std::uint8_t>& bits,
                            std::size_t offset) const {
  if (offset + static_cast<std::size_t>(bits_) > bits.size()) {
    throw std::out_of_range("map_bits: not enough bits");
  }
  const int half = bits_ / 2;
  int v_re = 0, v_im = 0;
  for (int b = 0; b < half; ++b) {
    v_re = (v_re << 1) | bits[offset + static_cast<std::size_t>(b)];
  }
  for (int b = 0; b < half; ++b) {
    v_im = (v_im << 1) | bits[offset + static_cast<std::size_t>(half + b)];
  }
  return index_from_axes(gray_to_axis_[static_cast<std::size_t>(v_re)],
                         gray_to_axis_[static_cast<std::size_t>(v_im)]);
}

void Constellation::unmap_bits(int index, std::vector<std::uint8_t>& out) const {
  const int half = bits_ / 2;
  const int g_re = axis_to_gray_[static_cast<std::size_t>(axis_re(index))];
  const int g_im = axis_to_gray_[static_cast<std::size_t>(axis_im(index))];
  for (int b = half - 1; b >= 0; --b) {
    out.push_back(static_cast<std::uint8_t>((g_re >> b) & 1));
  }
  for (int b = half - 1; b >= 0; --b) {
    out.push_back(static_cast<std::uint8_t>((g_im >> b) & 1));
  }
}

}  // namespace flexcore::modulation
