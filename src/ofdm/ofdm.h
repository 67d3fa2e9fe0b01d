// 802.11-style OFDM numerology and rate accounting.
//
// The paper's testbed: 20 MHz channels, 64 subcarriers of which 48 carry
// payload, 4 us OFDM symbols, rate-1/2 convolutional coding (§5.1).  These
// constants convert detector decisions into the network-throughput numbers
// plotted in Figs. 9 and 10.  They are the one numerology every link
// simulation and bench runs, so they are constants, not settings.
#pragma once

#include <cstddef>

namespace flexcore::ofdm {

/// Payload-bearing subcarriers of the 64-point FFT.
inline constexpr std::size_t kDataSubcarriers = 48;
/// OFDM symbol duration in us (guard interval included).
inline constexpr double kSymbolDurationUs = 4.0;
/// FEC rate.
inline constexpr double kCodeRate = 0.5;

/// Received MIMO vectors arriving per second at the AP (one per data
/// subcarrier per OFDM symbol) — the arrival rate a detector must sustain
/// (used by the Table 1 reproduction).
inline double vectors_per_second() {
  return static_cast<double>(kDataSubcarriers) / (kSymbolDurationUs * 1e-6);
}

/// PHY information rate of one user in Mbit/s (after FEC).
inline double per_user_rate_mbps(int bits_per_symbol) {
  return static_cast<double>(kDataSubcarriers) * bits_per_symbol * kCodeRate /
         kSymbolDurationUs;
}

/// Network (sum) throughput in Mbit/s given each user's packet success rate.
/// throughput = sum_u rate * (1 - PER_u).
double network_throughput_mbps(int bits_per_symbol, const double* per_user_per,
                               std::size_t nt);

/// Coded bits per user per OFDM symbol (the interleaver block size).
inline std::size_t coded_bits_per_ofdm_symbol(int bits_per_symbol) {
  return kDataSubcarriers * static_cast<std::size_t>(bits_per_symbol);
}

/// Rounds a requested per-user info-bit count up so that the rate-1/2 coded
/// stream (including the 6 tail bits) fills a whole number of OFDM symbols.
std::size_t padded_info_bits(std::size_t requested, int bits_per_symbol);

}  // namespace flexcore::ofdm
