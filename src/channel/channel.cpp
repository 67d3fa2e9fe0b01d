#include "channel/channel.h"

#include <cmath>
#include <stdexcept>

#include "linalg/solve.h"

namespace flexcore::channel {

CMat rayleigh_iid(std::size_t nr, std::size_t nt, Rng& rng) {
  CMat h(nr, nt);
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t c = 0; c < nt; ++c) h(r, c) = rng.cgaussian(1.0);
  return h;
}

CMat exp_correlation(std::size_t n, double rho) {
  if (rho < 0.0 || rho >= 1.0) {
    throw std::invalid_argument("exp_correlation: need 0 <= rho < 1");
  }
  CMat r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      r(i, j) = cplx{std::pow(rho, std::abs(static_cast<double>(i) -
                                            static_cast<double>(j))),
                     0.0};
    }
  }
  return r;
}

CMat kronecker_channel(std::size_t nr, std::size_t nt, double rx_rho,
                       const std::vector<double>& user_gains, Rng& rng) {
  if (user_gains.size() != nt) {
    throw std::invalid_argument("kronecker_channel: gains size != Nt");
  }
  CMat hw = rayleigh_iid(nr, nt, rng);
  CMat h = hw;
  if (rx_rho > 0.0) {
    // Rr^(1/2) via Cholesky: Rr = L L^H, so L * Hw has receive covariance Rr.
    const CMat l = linalg::cholesky(exp_correlation(nr, rx_rho));
    h = l * hw;
  }
  for (std::size_t c = 0; c < nt; ++c) {
    const double g = std::sqrt(user_gains[c]);
    for (std::size_t r = 0; r < nr; ++r) h(r, c) *= g;
  }
  return h;
}

std::vector<double> bounded_user_gains(std::size_t nt, double spread_db,
                                       Rng& rng) {
  std::vector<double> g(nt);
  double mean = 0.0;
  for (std::size_t i = 0; i < nt; ++i) {
    const double db = rng.uniform(-spread_db / 2.0, spread_db / 2.0);
    g[i] = std::pow(10.0, db / 10.0);
    mean += g[i];
  }
  mean /= static_cast<double>(nt);
  for (double& v : g) v /= mean;  // unit mean power so SNR calibration holds
  return g;
}

double noise_var_for_snr_db(double snr_db, double es) {
  const double snr = std::pow(10.0, snr_db / 10.0);
  return es / snr;
}

CVec transmit(const CMat& h, const CVec& s, double noise_var, Rng& rng) {
  CVec y = h * s;
  if (noise_var > 0.0) {
    for (auto& z : y) z += rng.cgaussian(noise_var);
  }
  return y;
}

}  // namespace flexcore::channel
