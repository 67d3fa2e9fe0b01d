#include "channel/trace.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "linalg/solve.h"

namespace flexcore::channel {

ChannelTrace evolve_trace(const ChannelTrace& trace, double rho, Rng& rng) {
  if (rho < 0.0 || rho > 1.0) {
    throw std::invalid_argument("evolve_trace: need 0 <= rho <= 1");
  }
  const double innov = std::sqrt(1.0 - rho * rho);
  ChannelTrace out;
  out.user_gains = trace.user_gains;
  out.per_subcarrier.reserve(trace.per_subcarrier.size());
  for (const CMat& h : trace.per_subcarrier) {
    CMat next(h.rows(), h.cols());
    for (std::size_t r = 0; r < h.rows(); ++r) {
      for (std::size_t c = 0; c < h.cols(); ++c) {
        // Innovation scaled by the user gain so per-entry power persists.
        const double g = std::sqrt(out.user_gains[c]);
        next(r, c) = rho * h(r, c) + innov * g * rng.cgaussian(1.0);
      }
    }
    out.per_subcarrier.push_back(std::move(next));
  }
  return out;
}

TraceGenerator::TraceGenerator(const TraceConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  // Exponential power-delay profile, normalized so each H entry has unit
  // average energy (keeps the SNR definition of channel.h valid).
  tap_powers_.resize(cfg_.num_taps);
  double total = 0.0;
  for (std::size_t k = 0; k < cfg_.num_taps; ++k) {
    tap_powers_[k] = std::exp(-static_cast<double>(k) / cfg_.delay_spread_taps);
    total += tap_powers_[k];
  }
  for (double& p : tap_powers_) p /= total;

  if (cfg_.rx_correlation > 0.0) {
    rx_chol_ = linalg::cholesky(exp_correlation(cfg_.nr, cfg_.rx_correlation));
  }
}

FLEXCORE_NO_FMA_VECTORIZE
ChannelTrace TraceGenerator::next() {
  const std::size_t nsc = cfg_.num_subcarriers;
  ChannelTrace trace;
  trace.user_gains =
      bounded_user_gains(cfg_.nt, cfg_.user_power_spread_db, rng_);

  // Draw correlated tap matrices G_k, then transform to the frequency
  // domain: H(f) = sum_k G_k * exp(-j 2 pi f k / Nsc).
  std::vector<CMat> taps(cfg_.num_taps);
  for (std::size_t k = 0; k < cfg_.num_taps; ++k) {
    CMat g = rayleigh_iid(cfg_.nr, cfg_.nt, rng_);
    const double amp = std::sqrt(tap_powers_[k]);
    for (std::size_t r = 0; r < cfg_.nr; ++r)
      for (std::size_t c = 0; c < cfg_.nt; ++c) g(r, c) *= amp;
    if (cfg_.rx_correlation > 0.0) g = rx_chol_ * g;
    taps[k] = std::move(g);
  }

  trace.per_subcarrier.reserve(nsc);
  for (std::size_t f = 0; f < nsc; ++f) {
    CMat h(cfg_.nr, cfg_.nt);
    for (std::size_t k = 0; k < cfg_.num_taps; ++k) {
      const double phase = -2.0 * std::numbers::pi *
                           static_cast<double>(f) * static_cast<double>(k) /
                           static_cast<double>(nsc);
      const cplx w{std::cos(phase), std::sin(phase)};
      for (std::size_t r = 0; r < cfg_.nr; ++r)
        for (std::size_t c = 0; c < cfg_.nt; ++c) h(r, c) += w * taps[k](r, c);
    }
    // Per-user power control gains.
    for (std::size_t c = 0; c < cfg_.nt; ++c) {
      const double g = std::sqrt(trace.user_gains[c]);
      for (std::size_t r = 0; r < cfg_.nr; ++r) h(r, c) *= g;
    }
    trace.per_subcarrier.push_back(std::move(h));
  }
  return trace;
}

}  // namespace flexcore::channel
