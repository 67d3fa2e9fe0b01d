// Analytic symbol-error-rate expressions for AWGN QAM.
//
// These feed FlexCore's probabilistic path model (Eq. 4 / Appendix Eq. 11 of
// the paper).  Two variants of the per-level "first point wrong"
// probability Pe are provided; see docs on PeModel.
#pragma once

#include "modulation/constellation.h"

namespace flexcore::modulation {

/// Gaussian tail function Q(x) = P(N(0,1) > x).
double q_function(double x);

/// Exact symbol error probability of an m-ary PAM axis with minimum distance
/// `dmin` under real Gaussian noise of standard deviation `sigma_r`.
double pam_symbol_error(int m, double dmin, double sigma_r);

/// Exact square M-QAM symbol error probability under complex AWGN with
/// per-complex-sample variance `noise_var` (so each real axis has variance
/// noise_var / 2), for a constellation scaled by `gain` (i.e. the received
/// minimum distance is gain * c.min_distance()).
double qam_symbol_error(const Constellation& c, double gain, double noise_var);

/// Which analytic model supplies the per-level probability Pe(l) used by
/// FlexCore's pre-processing (README, "Path selection", says why the search
/// uses kExactSer and not Eq. 4 as printed).
enum class PeModel {
  /// Eq. 4 exactly as printed in the paper:
  ///   Pe = (2 + 2/sqrt(M)) * erfc(|R(l,l)| * sqrt(Es) / sigma),
  /// clamped into (0, 1).  An ablation (bench/ablation_pe_model).
  kPaperErfc,
  /// Exact AWGN square-QAM SER (qam_symbol_error) — the "true" probability
  /// that the nearest point is not the transmitted one, and the default of
  /// PreprocessingConfig and FlexCoreConfig.  It is also the Appendix Eq. 10
  /// calibration: Pe = exp(-c / sigma^2) with c chosen so that the k = 1
  /// probability matches the exact SER takes this value.
  kExactSer,
};

/// Per-level probability Pe(l) that the closest constellation point to the
/// effective received point is NOT the transmitted one, for channel gain
/// |R(l,l)| = `r_ll` and complex noise variance `noise_var`.
double level_error_probability(PeModel model, const Constellation& c,
                               double r_ll, double noise_var);

}  // namespace flexcore::modulation
