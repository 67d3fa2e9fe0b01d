// Synthetic channel trace generation (WARP testbed stand-in).
//
// The paper collects per-subcarrier MIMO channel matrices from a WARP v3
// indoor testbed (Fig. 8): 8x8 measured over the air and 12x12 assembled
// from measured 1x12 user traces.  We reproduce the *statistics* the
// evaluation depends on with a tapped-delay-line model:
//
//   * frequency selectivity: `num_taps` i.i.d. Rayleigh taps with an
//     exponential power-delay profile, transformed to the 64 OFDM
//     subcarriers by a DFT (indoor office delay spreads);
//   * receive-side antenna correlation: exponential model across the
//     co-located AP antennas (~6 cm spacing in the paper);
//   * per-user power control: gains with <= 3 dB spread, the paper's
//     scheduler rule.
//
// A ChannelTrace is one "channel realization" covering all subcarriers of
// one coherence interval; the simulation harness draws a fresh trace per
// packet (the paper's channels are "static over a packet transmission").
#pragma once

#include <cstdint>
#include <vector>

#include "channel/channel.h"

namespace flexcore::channel {

/// Per-subcarrier channel matrices for one coherence interval.
struct ChannelTrace {
  std::vector<CMat> per_subcarrier;  ///< size = num_subcarriers, each Nr x Nt
  std::vector<double> user_gains;    ///< linear per-user power gains
};

/// Configuration of the synthetic trace generator.
struct TraceConfig {
  std::size_t nr = 12;                 ///< AP antennas
  std::size_t nt = 12;                 ///< single-antenna users
  std::size_t num_subcarriers = 64;    ///< OFDM FFT size (48 carry data)
  std::size_t num_taps = 8;            ///< delay-line length
  double delay_spread_taps = 2.0;      ///< exponential PDP decay constant
  double rx_correlation = 0.4;         ///< AP antenna correlation coefficient
  double user_power_spread_db = 3.0;   ///< max scheduled-user SNR spread
};

/// Evolves a channel realization by one coherence step of a Gauss-Markov
/// (first-order autoregressive) process:  H' = rho * H + sqrt(1-rho^2) * W
/// with W fresh i.i.d. Rayleigh.  rho = 1 reproduces the static-channel
/// assumption; smaller rho models user mobility (§3.1's "dynamic channels"
/// discussion, where pre-processing must be re-run on fresh estimates).
/// Innovations are drawn independently per subcarrier — temporal
/// correlation is exact, innovation frequency-correlation is simplified.
ChannelTrace evolve_trace(const ChannelTrace& trace, double rho, Rng& rng);

/// Deterministic generator of ChannelTrace realizations.
class TraceGenerator {
 public:
  TraceGenerator(const TraceConfig& cfg, std::uint64_t seed);

  /// Draws the next channel realization.
  ChannelTrace next();

  const TraceConfig& config() const noexcept { return cfg_; }

 private:
  TraceConfig cfg_;
  Rng rng_;
  std::vector<double> tap_powers_;  // normalized exponential PDP
  CMat rx_chol_;                    // Cholesky factor of the rx correlation
};

}  // namespace flexcore::channel
