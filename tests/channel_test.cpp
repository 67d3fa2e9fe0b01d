// Tests for channel models, noise generation and the trace generator.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/channel.h"
#include "channel/estimation.h"
#include "channel/trace.h"
#include "reference_linalg.h"

namespace ch = flexcore::channel;
namespace ref = flexcore::testref;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::linalg::cplx;

TEST(Rng, Deterministic) {
  ch::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.gaussian(), b.gaussian());
  }
}

TEST(Rng, CgaussianVariance) {
  ch::Rng rng(7);
  double sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum2 += flexcore::linalg::abs2(rng.cgaussian(2.0));
  EXPECT_NEAR(sum2 / n, 2.0, 0.05);
}

TEST(Rng, UniformIntInRange) {
  ch::Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_int(10), 10u);
  }
}

TEST(Channel, RayleighUnitVariancePerEntry) {
  ch::Rng rng(1);
  double sum2 = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const CMat h = ch::rayleigh_iid(8, 8, rng);
    sum2 += ref::frobenius_norm(h) * ref::frobenius_norm(h);
  }
  EXPECT_NEAR(sum2 / (trials * 64.0), 1.0, 0.03);
}

TEST(Channel, ExpCorrelationStructure) {
  const CMat r = ch::exp_correlation(4, 0.5);
  EXPECT_NEAR(r(0, 0).real(), 1.0, 1e-12);
  EXPECT_NEAR(r(0, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(r(0, 3).real(), 0.125, 1e-12);
  EXPECT_NEAR(r(2, 1).real(), 0.5, 1e-12);
  EXPECT_THROW(ch::exp_correlation(4, 1.0), std::invalid_argument);
  EXPECT_THROW(ch::exp_correlation(4, -0.1), std::invalid_argument);
}

TEST(Channel, KroneckerInducesReceiveCorrelation) {
  ch::Rng rng(2);
  const double rho = 0.7;
  const std::size_t nr = 4, nt = 4;
  CMat acc(nr, nr);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const CMat h = ch::kronecker_channel(nr, nt, rho,
                                         std::vector<double>(nt, 1.0), rng);
    flexcore::linalg::accumulate_gram(h.hermitian(), &acc);  // += H H^H
  }
  // E[H H^H] = Nt * Rr.
  const double scale = 1.0 / (trials * static_cast<double>(nt));
  EXPECT_NEAR(acc(0, 1).real() * scale, rho, 0.05);
  EXPECT_NEAR(acc(0, 2).real() * scale, rho * rho, 0.05);
  EXPECT_NEAR(acc(0, 0).real() * scale, 1.0, 0.05);
}

TEST(Channel, UserGainsScaleColumns) {
  ch::Rng rng(3);
  std::vector<double> gains{4.0, 1.0, 0.25, 1.0};
  double e0 = 0.0, e2 = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const CMat h = ch::kronecker_channel(4, 4, 0.0, gains, rng);
    e0 += flexcore::linalg::norm2(h.col(0));
    e2 += flexcore::linalg::norm2(h.col(2));
  }
  EXPECT_NEAR(e0 / e2, 16.0, 1.2);  // 4.0 / 0.25
}

TEST(Channel, BoundedUserGainsRespectSpreadAndMean) {
  ch::Rng rng(4);
  for (int t = 0; t < 50; ++t) {
    const auto g = ch::bounded_user_gains(12, 3.0, rng);
    double mean = 0.0;
    for (double v : g) mean += v;
    mean /= 12.0;
    EXPECT_NEAR(mean, 1.0, 1e-9);
    const auto [mn, mx] = std::minmax_element(g.begin(), g.end());
    EXPECT_LE(10.0 * std::log10(*mx / *mn), 3.0 + 1e-9);
  }
}

TEST(Channel, SnrNoiseVarRoundTrip) {
  for (double snr : {0.0, 10.0, 21.6}) {
    const double nv = ch::noise_var_for_snr_db(snr);
    EXPECT_NEAR(10.0 * std::log10(1.0 / nv), snr, 1e-9);
  }
  // Per-user SNR convention: 20 dB per user = 0.01 noise variance at Es = 1.
  EXPECT_NEAR(ch::noise_var_for_snr_db(20.0), 0.01, 1e-12);
}

TEST(Channel, TransmitAddsCalibratedNoise) {
  ch::Rng rng(5);
  const CMat h = ch::rayleigh_iid(8, 8, rng);
  const CVec s(8, cplx{0.0, 0.0});  // zero signal isolates the noise
  double sum2 = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const CVec y = ch::transmit(h, s, 0.5, rng);
    sum2 += flexcore::linalg::norm2(y);
  }
  EXPECT_NEAR(sum2 / (trials * 8.0), 0.5, 0.02);
}

TEST(Trace, ShapeAndDeterminism) {
  ch::TraceConfig cfg;
  cfg.nr = 8;
  cfg.nt = 8;
  cfg.num_subcarriers = 64;
  ch::TraceGenerator g1(cfg, 99), g2(cfg, 99);
  const auto t1 = g1.next();
  const auto t2 = g2.next();
  ASSERT_EQ(t1.per_subcarrier.size(), 64u);
  EXPECT_EQ(t1.per_subcarrier[0].rows(), 8u);
  EXPECT_EQ(t1.per_subcarrier[0].cols(), 8u);
  for (std::size_t f = 0; f < 64; f += 13) {
    EXPECT_LT(ref::max_abs_diff(t1.per_subcarrier[f], t2.per_subcarrier[f]),
              1e-15);
  }
}

TEST(Trace, UnitAverageEntryEnergy) {
  ch::TraceConfig cfg;
  cfg.nr = 4;
  cfg.nt = 4;
  ch::TraceGenerator gen(cfg, 17);
  double sum2 = 0.0;
  std::size_t count = 0;
  for (int p = 0; p < 40; ++p) {
    const auto trace = gen.next();
    for (const CMat& h : trace.per_subcarrier) {
      sum2 += ref::frobenius_norm(h) * ref::frobenius_norm(h);
      count += h.rows() * h.cols();
    }
  }
  EXPECT_NEAR(sum2 / static_cast<double>(count), 1.0, 0.08);
}

TEST(Trace, FrequencySelectivityFollowsDelaySpread) {
  // With one tap the channel is flat across subcarriers; with many taps
  // adjacent subcarriers decorrelate.
  ch::TraceConfig flat;
  flat.nr = flat.nt = 2;
  flat.num_taps = 1;
  ch::TraceGenerator gf(flat, 5);
  const auto tf = gf.next();
  EXPECT_LT(ref::max_abs_diff(tf.per_subcarrier[0], tf.per_subcarrier[32]),
            1e-12);

  ch::TraceConfig sel;
  sel.nr = sel.nt = 2;
  sel.num_taps = 8;
  sel.delay_spread_taps = 4.0;
  ch::TraceGenerator gs(sel, 5);
  const auto ts = gs.next();
  EXPECT_GT(ref::max_abs_diff(ts.per_subcarrier[0], ts.per_subcarrier[32]),
            0.05);
}

TEST(Trace, ConditionNumberImprovesWithFewerUsers) {
  // The paper's Fig. 10 premise: fewer users than AP antennas -> better
  // conditioned channels (lower condition number).
  ch::TraceConfig full;
  full.nr = 8;
  full.nt = 8;
  ch::TraceConfig light = full;
  light.nt = 4;

  double cond_full = 0.0, cond_light = 0.0;
  ch::TraceGenerator gfull(full, 3), glight(light, 3);
  for (int p = 0; p < 10; ++p) {
    cond_full += ref::condition_number(gfull.next().per_subcarrier[0]);
    cond_light += ref::condition_number(glight.next().per_subcarrier[0]);
  }
  EXPECT_LT(cond_light, cond_full);
}

// ------------------------------------------------- SNR estimation accuracy
// The control plane steers path budgets from channel::estimated_snr_db, so
// its bias and variance are load-bearing: a biased estimate mis-sizes every
// cell's detector.

TEST(Estimation, SnrEstimateBiasBoundedAcrossSweep) {
  // Average estimated SNR must track the true SNR within 0.7 dB from 0 to
  // 20 dB (i.i.d. unit-variance Rayleigh entries, the estimator's nominal
  // channel).
  ch::Rng rng(901);
  const std::size_t nr = 8, nt = 4, repeats = 4, trials = 200;
  for (const double snr_db : {0.0, 5.0, 10.0, 15.0, 20.0}) {
    const double nv = ch::noise_var_for_snr_db(snr_db);
    double sum = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      const CMat h = ch::rayleigh_iid(nr, nt, rng);
      sum += ch::estimated_snr_db(ch::estimate_channel(h, nv, repeats, rng));
    }
    EXPECT_NEAR(sum / trials, snr_db, 0.7) << "snr " << snr_db;
  }
}

TEST(Estimation, SnrEstimateVarianceShrinksWithRepeats) {
  ch::Rng rng(902);
  const std::size_t nr = 8, nt = 4, trials = 300;
  const double snr_db = 10.0;
  const double nv = ch::noise_var_for_snr_db(snr_db);
  // One fixed channel: the spread measured is estimator noise, not channel
  // hardening across realizations.
  const CMat h = ch::rayleigh_iid(nr, nt, rng);
  auto variance_at = [&](std::size_t repeats) {
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      const double e =
          ch::estimated_snr_db(ch::estimate_channel(h, nv, repeats, rng));
      sum += e;
      sum2 += e * e;
    }
    const double mean = sum / trials;
    return sum2 / trials - mean * mean;
  };
  const double var1 = variance_at(1);
  const double var8 = variance_at(8);
  EXPECT_LT(var8, var1);
  // ~1/repeats scaling with slack for Monte-Carlo noise.
  EXPECT_LT(var8, var1 / 3.0);
  // And the single-shot estimator is already usable as a control input.
  EXPECT_LT(std::sqrt(var1), 2.0);
}

TEST(Estimation, SnrEstimateTracksPerUserDefinition) {
  // Doubling the user count at fixed noise must NOT move the per-user SNR
  // estimate (the policy models per-user symbol energy, not the sum over
  // users reaching the antenna).
  ch::Rng rng(903);
  const double nv = ch::noise_var_for_snr_db(12.0);
  const std::size_t trials = 150;
  auto mean_est = [&](std::size_t nt) {
    double sum = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      const CMat h = ch::rayleigh_iid(8, nt, rng);
      sum += ch::estimated_snr_db(ch::estimate_channel(h, nv, 4, rng));
    }
    return sum / trials;
  };
  EXPECT_NEAR(mean_est(2), mean_est(4), 0.5);
}

TEST(Estimation, SnrEstimateDegenerateInputsClamp) {
  ch::Rng rng(904);
  const CMat h = ch::rayleigh_iid(4, 2, rng);
  // Noiseless sounding: noise_var_hat ~ 0 -> the +60 dB ceiling, not inf.
  const auto perfect = ch::estimate_channel(h, 0.0, 2, rng);
  EXPECT_EQ(ch::estimated_snr_db(perfect), 60.0);
  // Hand-built degenerate estimates (a sounded zero channel only lands in
  // these regimes by noise-draw luck, so construct them directly):
  // measured power at/below the estimation-noise bias -> the -30 dB floor
  // instead of a negative-log blowup.
  ch::ChannelEstimate blind;
  blind.h_hat = CMat(4, 2);  // zero: all "signal" is bias
  blind.noise_var_hat = 5.0;
  blind.pilots_used = 2;  // repeats = 1
  EXPECT_EQ(ch::estimated_snr_db(blind), -30.0);
  // And a barely-positive signal far below the noise still clamps.
  blind.h_hat(0, 0) = ch::cplx{1e-14, 0.0};
  EXPECT_EQ(ch::estimated_snr_db(blind), -30.0);
}
