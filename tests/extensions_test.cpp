// Tests for the paper-suggested extensions and auxiliary substrates:
// adaptive K-best (§6), channel estimation (§3.1/§5.1), channel aging
// (§3.1), and the 16-bit fixed-point engine (§4 / Table 3 premise).
#include <gtest/gtest.h>

#include <cmath>

#include "api/detector_registry.h"
#include "channel/estimation.h"
#include "channel/trace.h"
#include "core/adaptive_kbest.h"
#include "core/flexcore_detector.h"
#include "detect/kbest.h"
#include "perfmodel/fixed_path.h"
#include "reference_linalg.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace pm = flexcore::perfmodel;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::modulation::Constellation;

// ------------------------------------------------------------ adaptive K

TEST(AdaptiveKBest, RecoversNoiseless) {
  Constellation c(16);
  ch::Rng rng(1);
  const auto det = fa::make_detector("akbest-16", {.constellation = &c});
  for (int t = 0; t < 10; ++t) {
    const CMat h = ch::rayleigh_iid(6, 6, rng);
    CVec s(6);
    std::vector<int> tx(6);
    for (int u = 0; u < 6; ++u) {
      tx[static_cast<std::size_t>(u)] = static_cast<int>(rng.uniform_int(16));
      s[static_cast<std::size_t>(u)] = c.point(tx[static_cast<std::size_t>(u)]);
    }
    const CVec y = ch::transmit(h, s, 0.0, rng);
    det->set_channel(h, 1e-6);
    EXPECT_EQ(det->detect(y).symbols, tx);
  }
}

TEST(AdaptiveKBest, WidthsAreMonotoneDownTheTree) {
  // Distinct-prefix counts can only grow as the walk descends (level Nt
  // down to 1, i.e. array index nt-1 down to 0).
  Constellation c(64);
  ch::Rng rng(2);
  const auto det = fa::make_detector_as<fc::AdaptiveKBestDetector>(
      "akbest-64", {.constellation = &c});
  const CMat h = ch::rayleigh_iid(8, 8, rng);
  det->set_channel(h, 0.02);
  const auto& k = det->level_widths();
  ASSERT_EQ(k.size(), 8u);
  for (std::size_t i = 0; i + 1 < k.size(); ++i) {
    EXPECT_GE(k[i], k[i + 1]) << "widths must not shrink downwards";
    EXPECT_GE(k[i], 1u);
    EXPECT_LE(k[i], 64u);
  }
}

TEST(AdaptiveKBest, WidthsBoundedByBudget) {
  Constellation c(16);
  ch::Rng rng(3);
  for (std::size_t budget : {4u, 16u, 64u}) {
    const auto det = fa::make_detector_as<fc::AdaptiveKBestDetector>(
        "akbest-" + std::to_string(budget), {.constellation = &c});
    const CMat h = ch::rayleigh_iid(6, 6, rng);
    det->set_channel(h, 0.1);
    for (std::size_t k : det->level_widths()) EXPECT_LE(k, budget);
    EXPECT_LE(det->parallel_tasks(), budget);
  }
}

TEST(AdaptiveKBest, MoreBudgetNeverWorse) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(8.0);
  auto run = [&](std::size_t budget) {
    ch::Rng rng(4);
    const auto det = fa::make_detector(
        "akbest-" + std::to_string(budget), {.constellation = &c});
    std::size_t err = 0;
    for (int t = 0; t < 150; ++t) {
      ch::Rng hrng(100 + static_cast<unsigned>(t));
      const CMat h = ch::rayleigh_iid(6, 6, hrng);
      det->set_channel(h, nv);
      CVec s(6);
      std::vector<int> tx(6);
      for (int u = 0; u < 6; ++u) {
        tx[static_cast<std::size_t>(u)] = static_cast<int>(rng.uniform_int(16));
        s[static_cast<std::size_t>(u)] = c.point(tx[static_cast<std::size_t>(u)]);
      }
      const CVec y = ch::transmit(h, s, nv, rng);
      const auto res = det->detect(y);
      for (int u = 0; u < 6; ++u) {
        err += res.symbols[static_cast<std::size_t>(u)] !=
               tx[static_cast<std::size_t>(u)];
      }
    }
    return err;
  };
  const auto e4 = run(4);
  const auto e64 = run(64);
  EXPECT_LE(e64, e4);
}

TEST(AdaptiveKBest, NameAndInterface) {
  Constellation c(16);
  const auto det = fa::make_detector("akbest-32", {.constellation = &c});
  EXPECT_EQ(det->name(), "akbest-32");
}

// ------------------------------------------------------- channel estimation

TEST(Estimation, MseScalesInverselyWithRepeats) {
  ch::Rng rng(5);
  const CMat h = ch::rayleigh_iid(8, 8, rng);
  const double nv = 0.05;
  double mse1 = 0.0, mse8 = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    mse1 += ch::estimation_mse(h, ch::estimate_channel(h, nv, 1, rng).h_hat);
    mse8 += ch::estimation_mse(h, ch::estimate_channel(h, nv, 8, rng).h_hat);
  }
  mse1 /= trials;
  mse8 /= trials;
  // LS: MSE = noise_var / repeats (each entry estimated from `repeats`
  // observations of a unit pilot).
  EXPECT_NEAR(mse1, nv, 0.3 * nv);
  EXPECT_NEAR(mse8, nv / 8.0, 0.3 * nv / 8.0);
}

TEST(Estimation, NoiseVarianceEstimateUnbiased) {
  ch::Rng rng(6);
  const CMat h = ch::rayleigh_iid(8, 8, rng);
  const double nv = 0.02;
  double acc = 0.0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    acc += ch::estimate_channel(h, nv, 4, rng).noise_var_hat;
  }
  EXPECT_NEAR(acc / trials, nv, 0.15 * nv);
}

TEST(Estimation, NoiselessPilotsGiveExactChannel) {
  ch::Rng rng(7);
  const CMat h = ch::rayleigh_iid(4, 4, rng);
  const auto est = ch::estimate_channel(h, 0.0, 1, rng);
  EXPECT_LT(ch::estimation_mse(h, est.h_hat), 1e-20);
  EXPECT_NEAR(est.noise_var_hat, 0.0, 1e-20);
}

TEST(Estimation, ZeroRepeatsThrows) {
  ch::Rng rng(8);
  const CMat h = ch::rayleigh_iid(2, 2, rng);
  EXPECT_THROW(ch::estimate_channel(h, 0.1, 0, rng), std::invalid_argument);
}

TEST(Estimation, PilotCountReported) {
  ch::Rng rng(9);
  const CMat h = ch::rayleigh_iid(4, 4, rng);
  EXPECT_EQ(ch::estimate_channel(h, 0.1, 3, rng).pilots_used, 12u);
}

// ------------------------------------------------------------ channel aging

TEST(Aging, RhoOneIsIdentity) {
  ch::TraceConfig cfg;
  cfg.nr = cfg.nt = 4;
  cfg.num_subcarriers = 8;
  ch::TraceGenerator gen(cfg, 10);
  ch::Rng rng(11);
  const auto trace = gen.next();
  const auto aged = ch::evolve_trace(trace, 1.0, rng);
  for (std::size_t f = 0; f < 8; ++f) {
    EXPECT_LT(flexcore::testref::max_abs_diff(trace.per_subcarrier[f],
                                              aged.per_subcarrier[f]),
              1e-15);
  }
}

TEST(Aging, PowerIsStationary) {
  ch::TraceConfig cfg;
  cfg.nr = cfg.nt = 4;
  cfg.num_subcarriers = 4;
  ch::TraceGenerator gen(cfg, 12);
  ch::Rng rng(13);
  auto trace = gen.next();
  double power = 0.0;
  std::size_t count = 0;
  for (int step = 0; step < 200; ++step) {
    trace = ch::evolve_trace(trace, 0.9, rng);
    for (const auto& h : trace.per_subcarrier) {
      const double norm = flexcore::testref::frobenius_norm(h);
      power += norm * norm;
      count += h.rows() * h.cols();
    }
  }
  EXPECT_NEAR(power / static_cast<double>(count), 1.0, 0.15);
}

TEST(Aging, CorrelationDecaysGeometrically) {
  ch::TraceConfig cfg;
  cfg.nr = cfg.nt = 2;
  cfg.num_subcarriers = 1;
  ch::TraceGenerator gen(cfg, 14);
  ch::Rng rng(15);
  const double rho = 0.8;
  double corr1 = 0.0, corr2 = 0.0, norm = 0.0;
  for (int t = 0; t < 500; ++t) {
    auto t0 = gen.next();
    const auto t1 = ch::evolve_trace(t0, rho, rng);
    const auto t2 = ch::evolve_trace(t1, rho, rng);
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        const auto h0 = t0.per_subcarrier[0](r, c);
        corr1 += (std::conj(h0) * t1.per_subcarrier[0](r, c)).real();
        corr2 += (std::conj(h0) * t2.per_subcarrier[0](r, c)).real();
        norm += flexcore::linalg::abs2(h0);
      }
    }
  }
  EXPECT_NEAR(corr1 / norm, rho, 0.06);
  EXPECT_NEAR(corr2 / norm, rho * rho, 0.06);
}

TEST(Aging, InvalidRhoThrows) {
  ch::TraceConfig cfg;
  cfg.nr = cfg.nt = 2;
  ch::TraceGenerator gen(cfg, 16);
  ch::Rng rng(17);
  const auto trace = gen.next();
  EXPECT_THROW(ch::evolve_trace(trace, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(ch::evolve_trace(trace, 1.1, rng), std::invalid_argument);
}

TEST(Aging, PreservesUserGains) {
  ch::TraceConfig cfg;
  cfg.nr = cfg.nt = 4;
  ch::TraceGenerator gen(cfg, 18);
  ch::Rng rng(19);
  const auto trace = gen.next();
  const auto aged = ch::evolve_trace(trace, 0.5, rng);
  EXPECT_EQ(aged.user_gains, trace.user_gains);
}

// ------------------------------------------------------------- fixed point

TEST(FixedPath, MetricTracksDoubleEngine) {
  Constellation c(16);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-16", {.constellation = &c});
  ch::Rng rng(20);
  const CMat h = ch::rayleigh_iid(6, 6, rng);
  const double nv = 0.05;
  det->set_channel(h, nv);
  CVec s(6);
  for (int u = 0; u < 6; ++u) s[static_cast<std::size_t>(u)] = c.point(5);
  const CVec y = ch::transmit(h, s, nv, rng);
  const CVec ybar = det->rotate(y);

  std::vector<int> symbols(6);
  for (std::size_t p = 0; p < det->active_paths(); ++p) {
    const double dbl = det->plan().walk_path(ybar, p, symbols);
    const auto fix = pm::fixed_path_walk(det->constellation(), det->lut(),
                                         det->qr().R,
                                         det->preprocessing().paths[p].p,
                                         det->config().invalid_policy, ybar);
    // Paths valid in double should be valid in fixed point and vice versa
    // except within quantization of the slicer boundary; metrics agree to
    // Q4.11 resolution accumulated over the walk.
    if (std::isfinite(dbl) && fix.valid) {
      EXPECT_NEAR(fix.metric, dbl, 0.05 + 0.05 * dbl) << "path " << p;
    }
  }
}

TEST(FixedPath, HighAgreementWithDoubleDecisions) {
  Constellation c(16);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &c});
  ch::Rng rng(21);
  const CMat h = ch::rayleigh_iid(6, 6, rng);
  const double nv = ch::noise_var_for_snr_db(14.0);
  det->set_channel(h, nv);

  std::vector<CVec> ys;
  CVec s(6);
  for (int v = 0; v < 60; ++v) {
    for (int u = 0; u < 6; ++u) {
      s[static_cast<std::size_t>(u)] = c.point(static_cast<int>(rng.uniform_int(16)));
    }
    ys.push_back(ch::transmit(h, s, nv, rng));
  }
  EXPECT_GE(pm::fixed_vs_double_agreement(*det, ys), 0.9);
}

TEST(FixedPath, EmptyBatchAgreementIsOne) {
  Constellation c(16);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-4", {.constellation = &c});
  EXPECT_EQ(pm::fixed_vs_double_agreement(*det, {}), 1.0);
}
