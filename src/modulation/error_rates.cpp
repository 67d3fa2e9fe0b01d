#include "modulation/error_rates.h"

#include <algorithm>
#include <cmath>

namespace flexcore::modulation {

namespace {
// Clamp bounds keeping the geometric model Pl(k) = (1-Pe) Pe^(k-1) a valid,
// strictly decreasing distribution.
constexpr double kPeMin = 1e-12;
constexpr double kPeMax = 1.0 - 1e-9;
}  // namespace

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double pam_symbol_error(int m, double dmin, double sigma_r) {
  if (sigma_r <= 0.0) return 0.0;
  const double arg = (dmin / 2.0) / sigma_r;
  return 2.0 * (1.0 - 1.0 / static_cast<double>(m)) * q_function(arg);
}

double qam_symbol_error(const Constellation& c, double gain, double noise_var) {
  if (noise_var <= 0.0) return 0.0;
  const double sigma_r = std::sqrt(noise_var / 2.0);
  const double dmin = gain * c.min_distance();
  const double p_axis = pam_symbol_error(c.side(), dmin, sigma_r);
  const double ser = 1.0 - (1.0 - p_axis) * (1.0 - p_axis);
  return std::clamp(ser, 0.0, 1.0);
}

double level_error_probability(PeModel model, const Constellation& c,
                               double r_ll, double noise_var) {
  double pe = 0.0;
  switch (model) {
    case PeModel::kPaperErfc: {
      // Eq. 4 as printed; Es = 1 with our unit-energy constellations.
      const double sigma = std::sqrt(noise_var);
      const double prefactor =
          2.0 + 2.0 / std::sqrt(static_cast<double>(c.order()));
      pe = prefactor * std::erfc(std::abs(r_ll) / sigma);
      break;
    }
    case PeModel::kExactSer: {
      // Appendix Eq. 10/11: the geometric model is anchored so that the k=1
      // probability equals the exact AWGN SER.
      pe = qam_symbol_error(c, std::abs(r_ll), noise_var);
      break;
    }
  }
  return std::clamp(pe, kPeMin, kPeMax);
}

}  // namespace flexcore::modulation
