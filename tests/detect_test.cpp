// Tests for the baseline detectors: linear, SIC, ML sphere decoder, FCSD,
// K-best and the trellis detector of [50].  Detectors are constructed
// through api::make_detector — the library's public construction path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "api/detector_registry.h"
#include "channel/channel.h"
#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/ml_sphere.h"
#include "detect/sic.h"
#include "detect/trellis.h"
#include "reference_ml.h"
#include "reference_walk.h"

namespace fa = flexcore::api;
namespace fd = flexcore::detect;
namespace ch = flexcore::channel;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::linalg::cplx;
using flexcore::modulation::Constellation;

namespace {

struct Scenario {
  CMat h;
  CVec s;
  std::vector<int> tx;
  CVec y;
};

Scenario make_scenario(const Constellation& c, std::size_t nr, std::size_t nt,
                       double noise_var, ch::Rng& rng) {
  Scenario sc;
  sc.h = ch::rayleigh_iid(nr, nt, rng);
  sc.tx.resize(nt);
  sc.s.resize(nt);
  for (std::size_t u = 0; u < nt; ++u) {
    sc.tx[u] = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(c.order())));
    sc.s[u] = c.point(sc.tx[u]);
  }
  sc.y = ch::transmit(sc.h, sc.s, noise_var, rng);
  return sc;
}

/// Quick uncoded symbol-error count over `trials` independent channels.
template <typename MakeDetector>
std::size_t count_symbol_errors(const Constellation& c, std::size_t nr,
                                std::size_t nt, double noise_var,
                                int trials, std::uint64_t seed,
                                MakeDetector make) {
  ch::Rng rng(seed);
  auto det = make();
  std::size_t errors = 0;
  for (int t = 0; t < trials; ++t) {
    const Scenario sc = make_scenario(c, nr, nt, noise_var, rng);
    det->set_channel(sc.h, noise_var);
    const auto res = det->detect(sc.y);
    for (std::size_t u = 0; u < nt; ++u) errors += res.symbols[u] != sc.tx[u];
  }
  return errors;
}

}  // namespace

// ------------------------------------------------------------------ linear

TEST(Linear, ZfRecoversNoiseless) {
  Constellation c(16);
  ch::Rng rng(1);
  for (int t = 0; t < 20; ++t) {
    const Scenario sc = make_scenario(c, 6, 4, 0.0, rng);
    const auto det = fa::make_detector("zf", {.constellation = &c});
    det->set_channel(sc.h, 1e-3);
    EXPECT_EQ(det->detect(sc.y).symbols, sc.tx);
  }
}

TEST(Linear, MmseRecoversNoiseless) {
  Constellation c(64);
  ch::Rng rng(2);
  for (int t = 0; t < 20; ++t) {
    const Scenario sc = make_scenario(c, 8, 8, 0.0, rng);
    const auto det = fa::make_detector("mmse", {.constellation = &c});
    det->set_channel(sc.h, 1e-6);
    EXPECT_EQ(det->detect(sc.y).symbols, sc.tx);
  }
}

TEST(Linear, MmseBeatsZfInSquareSystems) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(5.0);
  const auto zf = count_symbol_errors(c, 8, 8, nv, 400, 77, [&] {
    return fa::make_detector("zf", {.constellation = &c});
  });
  const auto mmse = count_symbol_errors(c, 8, 8, nv, 400, 77, [&] {
    return fa::make_detector("mmse", {.constellation = &c});
  });
  EXPECT_LT(mmse, zf);
}

TEST(Linear, EqualizeAppliesFilter) {
  Constellation c(4);
  ch::Rng rng(3);
  const CMat h = ch::rayleigh_iid(4, 4, rng);
  const auto det =
      fa::make_detector_as<fd::LinearDetector>("zf", {.constellation = &c});
  det->set_channel(h, 0.01);
  CVec s(4, cplx{1.0, 0.0});
  const CVec x = det->equalize(h * s);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(std::abs(x[i] - s[i]), 1e-8);
}

TEST(Linear, MetricIsTrueResidual) {
  Constellation c(16);
  ch::Rng rng(4);
  const Scenario sc = make_scenario(c, 6, 6, 0.05, rng);
  const auto det = fa::make_detector("mmse", {.constellation = &c});
  det->set_channel(sc.h, 0.05);
  const auto res = det->detect(sc.y);
  CVec shat(6);
  for (std::size_t i = 0; i < 6; ++i) shat[i] = c.point(res.symbols[i]);
  const CVec r = flexcore::linalg::sub(sc.y, sc.h * shat);
  EXPECT_NEAR(res.metric, flexcore::linalg::norm2(r), 1e-9);
}

// --------------------------------------------------------------------- SIC

TEST(Sic, RecoversNoiseless) {
  Constellation c(64);
  ch::Rng rng(5);
  for (int t = 0; t < 20; ++t) {
    const Scenario sc = make_scenario(c, 8, 8, 0.0, rng);
    const auto det = fa::make_detector("zf-sic", {.constellation = &c});
    det->set_channel(sc.h, 1e-6);
    EXPECT_EQ(det->detect(sc.y).symbols, sc.tx);
  }
}

TEST(Sic, BeatsPlainZfAtModerateSnr) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(7.2);
  const auto zf = count_symbol_errors(c, 6, 6, nv, 500, 88, [&] {
    return fa::make_detector("zf", {.constellation = &c});
  });
  const auto sic = count_symbol_errors(c, 6, 6, nv, 500, 88, [&] {
    return fa::make_detector("zf-sic", {.constellation = &c});
  });
  EXPECT_LT(sic, zf);
}

// ------------------------------------------------------------- ML sphere

TEST(Exhaustive, ThrowsOnHugeSearchSpace) {
  Constellation c(64);
  CMat h(8, 8);
  EXPECT_THROW(flexcore::testref::exhaustive_ml(c, h, CVec(8)),
               std::invalid_argument);
}

class MlVsExhaustive
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(MlVsExhaustive, SphereDecoderIsExactlyML) {
  const auto [order, nt, snr_db] = GetParam();
  Constellation c(order);
  // Tuple SNRs were calibrated as receive-sum values; convert to per-user.
  const double nv = ch::noise_var_for_snr_db(
      snr_db - 10.0 * std::log10(static_cast<double>(nt)));
  ch::Rng rng(100 + static_cast<unsigned>(order + nt));
  const auto sd = fa::make_detector("ml-sd", {.constellation = &c});
  for (int t = 0; t < 25; ++t) {
    const Scenario sc = make_scenario(c, static_cast<std::size_t>(nt),
                                      static_cast<std::size_t>(nt), nv, rng);
    sd->set_channel(sc.h, nv);
    const auto got = sd->detect(sc.y);
    const auto want = flexcore::testref::exhaustive_ml(c, sc.h, sc.y);
    EXPECT_EQ(got.symbols, want.symbols) << "trial " << t;
    EXPECT_NEAR(got.metric, want.metric, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallSystems, MlVsExhaustive,
    ::testing::Values(std::tuple{4, 2, 8.0}, std::tuple{4, 3, 6.0},
                      std::tuple{4, 4, 10.0}, std::tuple{16, 2, 12.0},
                      std::tuple{16, 3, 14.0}, std::tuple{4, 5, 3.0}));

TEST(MlSphere, MatchesExhaustiveMlAtLowSnr) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(7.2);
  ch::Rng rng(6);
  const auto sd = fa::make_detector("ml-sd", {.constellation = &c});
  for (int t = 0; t < 20; ++t) {
    const Scenario sc = make_scenario(c, 3, 3, nv, rng);
    sd->set_channel(sc.h, nv);
    EXPECT_EQ(sd->detect(sc.y).symbols,
              flexcore::testref::exhaustive_ml(c, sc.h, sc.y).symbols);
  }
}

TEST(MlSphere, NodeCountDropsWithSnr) {
  Constellation c(16);
  ch::Rng rng(8);
  const auto sd = fa::make_detector("ml-sd", {.constellation = &c});
  std::uint64_t lo_snr_nodes = 0, hi_snr_nodes = 0;
  for (int t = 0; t < 20; ++t) {
    const double nv_lo = ch::noise_var_for_snr_db(-1.8);
    const double nv_hi = ch::noise_var_for_snr_db(16.2);
    Scenario sc = make_scenario(c, 6, 6, nv_lo, rng);
    sd->set_channel(sc.h, nv_lo);
    lo_snr_nodes += sd->detect(sc.y).stats.nodes_visited;
    sc = make_scenario(c, 6, 6, nv_hi, rng);
    sd->set_channel(sc.h, nv_hi);
    hi_snr_nodes += sd->detect(sc.y).stats.nodes_visited;
  }
  EXPECT_LT(hi_snr_nodes, lo_snr_nodes);
}

TEST(MlSphere, TruncationStillReturnsACandidate) {
  Constellation c(64);
  const double nv = ch::noise_var_for_snr_db(1.0);
  ch::Rng rng(9);
  fa::DetectorConfig trunc_cfg{.constellation = &c};
  trunc_cfg.ml_sphere = {.max_nodes = 50};
  const auto sd = fa::make_detector("ml-sd", trunc_cfg);
  const Scenario sc = make_scenario(c, 8, 8, nv, rng);
  sd->set_channel(sc.h, nv);
  const auto res = sd->detect(sc.y);
  EXPECT_EQ(res.symbols.size(), 8u);
  EXPECT_TRUE(std::isfinite(res.metric));
  EXPECT_LE(res.stats.nodes_visited, 50u + 8u);
}

TEST(MlSphere, FlopCountersPopulated) {
  Constellation c(16);
  ch::Rng rng(10);
  const double nv = ch::noise_var_for_snr_db(7.0);
  const auto sd = fa::make_detector("ml-sd", {.constellation = &c});
  const Scenario sc = make_scenario(c, 4, 4, nv, rng);
  sd->set_channel(sc.h, nv);
  const auto res = sd->detect(sc.y);
  EXPECT_GT(res.stats.nodes_visited, 0u);
  EXPECT_GT(res.stats.flops, res.stats.real_mults);
}

// -------------------------------------------------------------------- FCSD

TEST(Fcsd, NumPathsIsPowerOfConstellation) {
  Constellation c(16);
  const fa::DetectorConfig acfg{.constellation = &c};
  const auto fcsd = [&](const char* spec) {
    return fa::make_detector_as<fd::FcsdDetector>(spec, acfg);
  };
  EXPECT_EQ(fcsd("fcsd-L0")->num_paths(), 1u);
  EXPECT_EQ(fcsd("fcsd-L1")->num_paths(), 16u);
  EXPECT_EQ(fcsd("fcsd-L2")->num_paths(), 256u);
  EXPECT_EQ(fcsd("fcsd-L1")->parallel_tasks(), 16u);
}

TEST(Fcsd, FullExpansionEqualsExhaustiveML) {
  Constellation c(4);
  const double nv = ch::noise_var_for_snr_db(1.2);
  ch::Rng rng(11);
  // L = Nt: visits every leaf.
  const auto det = fa::make_detector("fcsd-L3", {.constellation = &c});
  for (int t = 0; t < 25; ++t) {
    const Scenario sc = make_scenario(c, 3, 3, nv, rng);
    det->set_channel(sc.h, nv);
    const auto got = det->detect(sc.y);
    const auto want = flexcore::testref::exhaustive_ml(c, sc.h, sc.y);
    EXPECT_EQ(got.symbols, want.symbols);
    EXPECT_NEAR(got.metric, want.metric, 1e-8);
  }
}

TEST(Fcsd, RecoversNoiseless) {
  Constellation c(64);
  ch::Rng rng(12);
  const auto det = fa::make_detector("fcsd-L1", {.constellation = &c});
  for (int t = 0; t < 10; ++t) {
    const Scenario sc = make_scenario(c, 8, 8, 0.0, rng);
    det->set_channel(sc.h, 1e-6);
    EXPECT_EQ(det->detect(sc.y).symbols, sc.tx);
  }
}

TEST(Fcsd, MoreLevelsNeverHurt) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(6.2);
  const auto e1 = count_symbol_errors(c, 6, 6, nv, 300, 99, [&] {
    return fa::make_detector("fcsd-L1", {.constellation = &c});
  });
  const auto e2 = count_symbol_errors(c, 6, 6, nv, 300, 99, [&] {
    return fa::make_detector("fcsd-L2", {.constellation = &c});
  });
  EXPECT_LE(e2, e1);
}

TEST(Fcsd, BeatsLinearDetection) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(5.0);
  const auto mmse = count_symbol_errors(c, 8, 8, nv, 300, 101, [&] {
    return fa::make_detector("mmse", {.constellation = &c});
  });
  const auto fcsd = count_symbol_errors(c, 8, 8, nv, 300, 101, [&] {
    return fa::make_detector("fcsd-L1", {.constellation = &c});
  });
  EXPECT_LT(fcsd, mmse);
}

TEST(Fcsd, DetectEqualsBestPathEvaluation) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(6.0);
  ch::Rng rng(13);
  for (const char* spec : {"fcsd-L1", "fcsd-L2"}) {
    const auto det =
        fa::make_detector_as<fd::FcsdDetector>(spec, {.constellation = &c});
    const Scenario sc = make_scenario(c, 4, 4, nv, rng);
    det->set_channel(sc.h, nv);
    const auto res = det->detect(sc.y);
    const flexcore::testref::FcsdReference ref(*det, c);
    const CVec ybar = det->rotate(sc.y);
    const auto want = ref.detect(ybar);
    EXPECT_EQ(res.symbols, want.symbols) << spec;
    EXPECT_EQ(res.metric, want.metric) << spec;
    // Closed form: every path is charged one full instrumented walk.
    const fd::DetectionStats one = ref.evaluate_path(ybar, 0).stats;
    EXPECT_EQ(res.stats.paths_evaluated, det->num_paths()) << spec;
    EXPECT_EQ(res.stats.real_mults, det->num_paths() * one.real_mults) << spec;
    EXPECT_EQ(res.stats.flops, det->num_paths() * one.flops) << spec;
    EXPECT_EQ(res.stats.nodes_visited, det->num_paths() * one.nodes_visited)
        << spec;
  }
}

TEST(Fcsd, TooManyLevelsThrows) {
  Constellation c(16);
  ch::Rng rng(15);
  const auto det = fa::make_detector("fcsd-L5", {.constellation = &c});
  const CMat h = ch::rayleigh_iid(4, 4, rng);
  EXPECT_THROW(det->set_channel(h, 0.1), std::invalid_argument);
}

TEST(Fcsd, PathCountOverflowIsRefused) {
  // 64^11 = 2^66 paths do not fit std::size_t.  Unchecked, fcsd-L11
  // wrapped to 0 paths and detected over none, and fcsd-L12 divided by a
  // wrapped digit weight of 0.  Both specs are refused at make_detector,
  // naming L and |Q|.
  Constellation c(64);
  const fa::DetectorConfig acfg{.constellation = &c};
  for (const std::string levels : {"11", "12"}) {
    const std::string spec = "fcsd-L" + levels;
    try {
      fa::make_detector(spec, acfg);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("L = " + levels), std::string::npos) << msg;
      EXPECT_NE(msg.find("|Q| = 64"), std::string::npos) << msg;
    }
  }

  // A path count that fits detects as before: the reference walk.
  const double nv = ch::noise_var_for_snr_db(20.0);
  ch::Rng rng(18);
  const auto det = fa::make_detector_as<fd::FcsdDetector>("fcsd-L2", acfg);
  const Scenario sc = make_scenario(c, 12, 12, nv, rng);
  det->set_channel(sc.h, nv);
  EXPECT_EQ(det->num_paths(), 4096u);
  const auto res = det->detect(sc.y);
  const auto want =
      flexcore::testref::FcsdReference(*det, c).detect(det->rotate(sc.y));
  EXPECT_EQ(res.symbols, want.symbols);
  EXPECT_EQ(res.metric, want.metric);

  // The plan refuses the same input before touching itself.
  fd::PathPlan plan;
  plan.compile_fcsd(det->qr().R, 2, c);
  EXPECT_THROW(plan.compile_fcsd(det->qr().R, 11, c), std::invalid_argument);
  EXPECT_EQ(plan.num_paths(), 4096u);
}

// ------------------------------------------------------------------ K-best

TEST(KBest, ExactForTwoLayersWithFullWidth) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(7.0);
  ch::Rng rng(16);
  // K = |Q| keeps every level-1 prefix.
  const auto det = fa::make_detector("kbest-16", {.constellation = &c});
  for (int t = 0; t < 20; ++t) {
    const Scenario sc = make_scenario(c, 2, 2, nv, rng);
    det->set_channel(sc.h, nv);
    const auto want = flexcore::testref::exhaustive_ml(c, sc.h, sc.y);
    EXPECT_EQ(det->detect(sc.y).symbols, want.symbols);
  }
}

TEST(KBest, WiderIsNeverWorse) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(6.2);
  const auto e4 = count_symbol_errors(c, 6, 6, nv, 250, 111, [&] {
    return fa::make_detector("kbest-4", {.constellation = &c});
  });
  const auto e32 = count_symbol_errors(c, 6, 6, nv, 250, 111, [&] {
    return fa::make_detector("kbest-32", {.constellation = &c});
  });
  EXPECT_LE(e32, e4);
}

TEST(KBest, RecoversNoiseless) {
  Constellation c(16);
  ch::Rng rng(17);
  const auto det = fa::make_detector("kbest-8", {.constellation = &c});
  for (int t = 0; t < 10; ++t) {
    const Scenario sc = make_scenario(c, 6, 6, 0.0, rng);
    det->set_channel(sc.h, 1e-6);
    EXPECT_EQ(det->detect(sc.y).symbols, sc.tx);
  }
}

// ----------------------------------------------------------------- trellis

TEST(Trellis, ExactForTwoAntennas) {
  // With Nt = 2 the per-state survivor structure enumerates all |Q|^2
  // hypotheses, so [50] is exact ML there.
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(7.0);
  ch::Rng rng(18);
  const auto det = fa::make_detector("trellis50", {.constellation = &c});
  for (int t = 0; t < 20; ++t) {
    const Scenario sc = make_scenario(c, 2, 2, nv, rng);
    det->set_channel(sc.h, nv);
    const auto want = flexcore::testref::exhaustive_ml(c, sc.h, sc.y);
    EXPECT_EQ(det->detect(sc.y).symbols, want.symbols);
  }
}

TEST(Trellis, BetweenMmseAndMlForLargerArrays) {
  // Fig. 9's qualitative ordering: MMSE < trellis [50] <= ML.
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(6.2);
  const auto mmse = count_symbol_errors(c, 6, 6, nv, 250, 121, [&] {
    return fa::make_detector("mmse", {.constellation = &c});
  });
  const auto trellis = count_symbol_errors(c, 6, 6, nv, 250, 121, [&] {
    return fa::make_detector("trellis50", {.constellation = &c});
  });
  const auto ml = count_symbol_errors(c, 6, 6, nv, 250, 121, [&] {
    return fa::make_detector("ml-sd", {.constellation = &c});
  });
  EXPECT_LT(trellis, mmse);
  EXPECT_LE(ml, trellis);
}

TEST(Trellis, FixedParallelTasks) {
  Constellation c(64);
  const auto det = fa::make_detector("trellis50", {.constellation = &c});
  EXPECT_EQ(det->parallel_tasks(), 64u);
}

TEST(Trellis, RecoversNoiseless) {
  Constellation c(16);
  ch::Rng rng(19);
  const auto det = fa::make_detector("trellis50", {.constellation = &c});
  for (int t = 0; t < 10; ++t) {
    const Scenario sc = make_scenario(c, 6, 6, 0.0, rng);
    det->set_channel(sc.h, 1e-6);
    EXPECT_EQ(det->detect(sc.y).symbols, sc.tx);
  }
}

TEST(Detect, LinearSetChannelKeepsStateOnSingularChannel) {
  // A channel whose filter is singular is refused with the previous channel
  // installed whole: detect() afterwards returns what it returned before,
  // symbols and metric bit for bit (the metric is measured against the
  // installed H, so a half-installed channel shows in it).
  Constellation c(16);
  ch::Rng rng(2301);
  const double nv = ch::noise_var_for_snr_db(12.0);
  const Scenario sc = make_scenario(c, 8, 4, nv, rng);
  CMat singular = ch::rayleigh_iid(8, 4, rng);
  for (std::size_t r = 0; r < singular.rows(); ++r) singular(r, 2) = cplx{};
  for (const char* spec : {"zf", "mmse"}) {
    const auto det = fa::make_detector(spec, {.constellation = &c});
    det->set_channel(sc.h, nv);
    const fd::DetectionResult before = det->detect(sc.y);
    EXPECT_ANY_THROW(det->set_channel(singular, 0.0)) << spec;
    const fd::DetectionResult after = det->detect(sc.y);
    EXPECT_EQ(after.symbols, before.symbols) << spec;
    EXPECT_EQ(after.metric, before.metric) << spec;
  }
}

// --------------------------------------------------------- cross-detector

TEST(AllDetectors, SetChannelRefusesDegenerateNoiseVar) {
  // Every detector refuses a NaN, negative or infinite noise variance
  // before touching its state: the throw names the value, and detect()
  // afterwards returns what it returned before, bit for bit.  Zero (a
  // noiseless estimate) stays accepted.
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double value;
    const char* text;
  } bad[] = {{std::numeric_limits<double>::quiet_NaN(), "nan"},
             {-1.0, "-1"},
             {inf, "inf"},
             {-inf, "-inf"}};
  Constellation c(16);
  for (const std::string& spec : fa::list_specs()) {
    ch::Rng rng(2302);
    const double nv = ch::noise_var_for_snr_db(10.0);
    const Scenario sc = make_scenario(c, 6, 4, nv, rng);
    const CMat other = ch::rayleigh_iid(6, 4, rng);
    const auto det = fa::make_detector(spec, {.constellation = &c});
    det->set_channel(sc.h, nv);
    const fd::DetectionResult before = det->detect(sc.y);
    for (const auto& b : bad) {
      try {
        det->set_channel(other, b.value);
        ADD_FAILURE() << spec << " accepted noise_var " << b.text;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("noise_var = ") +
                                              b.text),
                  std::string::npos)
            << spec << ": " << e.what();
      }
      const fd::DetectionResult after = det->detect(sc.y);
      EXPECT_EQ(after.symbols, before.symbols) << spec << " " << b.text;
      EXPECT_EQ(after.metric, before.metric) << spec << " " << b.text;
    }
    EXPECT_NO_THROW(det->set_channel(other, 0.0)) << spec;
  }
}

TEST(AllDetectors, AgreeOnCleanChannel) {
  Constellation c(16);
  ch::Rng rng(20);
  const Scenario sc = make_scenario(c, 6, 6, 0.0, rng);

  std::vector<std::unique_ptr<fd::Detector>> dets;
  for (const char* spec :
       {"zf", "mmse", "zf-sic", "ml-sd", "fcsd-L1", "kbest-8", "trellis50"}) {
    dets.push_back(fa::make_detector(spec, {.constellation = &c}));
  }

  for (auto& det : dets) {
    det->set_channel(sc.h, 1e-9);
    EXPECT_EQ(det->detect(sc.y).symbols, sc.tx) << det->name();
  }
}

TEST(AllDetectors, NamesAreUniqueAndNonEmpty) {
  // api::list_specs() enumerates every registered family, so detectors
  // added later are covered without touching this test.
  Constellation c(16);
  std::vector<std::unique_ptr<fd::Detector>> dets;
  for (const std::string& spec : fa::list_specs()) {
    dets.push_back(fa::make_detector(spec, {.constellation = &c}));
  }
  std::set<std::string> names;
  for (auto& det : dets) {
    EXPECT_FALSE(det->name().empty());
    EXPECT_TRUE(names.insert(det->name()).second) << det->name();
  }
}
