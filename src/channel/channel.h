// MIMO channel models and noise generation.
//
// The paper's evaluation uses over-the-air WARP v3 measurements (8x8) and
// trace-driven simulation from measured 1x12 traces (12x12).  We do not have
// those traces; the stand-in is a Kronecker-correlated Rayleigh model with
// (a) exponential correlation across the co-located AP antennas and (b) a
// bounded per-user power spread, matching the paper's
// scheduling rule that "the individual SNRs of the scheduled users differ by
// no more than 3 dB".
#pragma once

#include <cstddef>
#include <vector>

#include "channel/rng.h"
#include "linalg/matrix.h"

namespace flexcore::channel {

using linalg::CMat;
using linalg::CVec;
using linalg::cplx;

/// Nr x Nt channel with i.i.d. CN(0,1) entries (classic Rayleigh fading).
CMat rayleigh_iid(std::size_t nr, std::size_t nt, Rng& rng);

/// Exponential correlation matrix R(i,j) = rho^|i-j|, 0 <= rho < 1.
CMat exp_correlation(std::size_t n, double rho);

/// Kronecker-model channel  H = Rr^(1/2) * Hw * diag(sqrt(gains)) with Hw
/// i.i.d. Rayleigh.  `rx_rho` sets receive-side (AP) antenna correlation;
/// `user_gains` are linear per-user power gains (transmit side is
/// uncorrelated because users are physically separate single-antenna nodes).
CMat kronecker_channel(std::size_t nr, std::size_t nt, double rx_rho,
                       const std::vector<double>& user_gains, Rng& rng);

/// Per-user linear power gains with a total spread of at most `spread_db`
/// (uniform in dB, then normalized to unit mean power).
std::vector<double> bounded_user_gains(std::size_t nt, double spread_db,
                                       Rng& rng);

/// Noise variance realizing a given *per-user* SNR (dB) — the paper's
/// convention ("the individual SNRs of the scheduled users differ by no
/// more than 3 dB").  With unit-energy symbols and unit-mean channel gains
/// each user contributes Es of power per receive antenna, so
///   SNR_user = Es / noise_var.
double noise_var_for_snr_db(double snr_db, double es = 1.0);

/// y = H s + n for one channel use.
CVec transmit(const CMat& h, const CVec& s, double noise_var, Rng& rng);

}  // namespace flexcore::channel
