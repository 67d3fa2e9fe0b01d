// Cross-module integration tests: full coded links, engine consistency,
// paper-level claims at the system level.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "api/detector_registry.h"
#include "api/uplink_pipeline.h"
#include "channel/estimation.h"
#include "channel/trace.h"
#include "core/adaptive_kbest.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/ml_sphere.h"
#include "detect/sic.h"
#include "detect/trellis.h"
#include "sim/montecarlo.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fs = flexcore::sim;
using flexcore::modulation::Constellation;

namespace {

fs::LinkConfig tiny_link(int qam) {
  fs::LinkConfig cfg;
  cfg.qam_order = qam;
  cfg.info_bits_per_user = 200;
  return cfg;
}

ch::TraceConfig trace_cfg(std::size_t nr, std::size_t nt) {
  ch::TraceConfig cfg;
  cfg.nr = nr;
  cfg.nt = nt;
  return cfg;
}

}  // namespace

TEST(Integration, EveryDetectorDeliversCleanPacketsAtHighSnr) {
  Constellation qam(16);
  const fs::LinkConfig lcfg = tiny_link(16);
  const ch::TraceConfig tcfg = trace_cfg(6, 4);
  const double nv = ch::noise_var_for_snr_db(30.0);

  std::vector<std::unique_ptr<fd::Detector>> dets;
  for (const char* spec : {"zf", "mmse", "zf-sic", "ml-sd", "fcsd-L1",
                           "kbest-8", "trellis50", "akbest-16",
                           "flexcore-16"}) {
    dets.push_back(fa::make_detector(spec, {.constellation = &qam}));
  }

  for (auto& det : dets) {
    const auto r = fs::measure_throughput(*det, lcfg, tcfg, nv, 3, 42);
    EXPECT_EQ(r.avg_per, 0.0) << det->name();
  }
}

TEST(Integration, ThroughputMonotoneInSnr) {
  Constellation qam(16);
  const fs::LinkConfig lcfg = tiny_link(16);
  const ch::TraceConfig tcfg = trace_cfg(6, 6);
  const auto det = fa::make_detector("flexcore-32", {.constellation = &qam});

  double prev = -1.0;
  for (double snr : {4.0, 8.0, 12.0, 20.0}) {
    const double nv = ch::noise_var_for_snr_db(snr);
    const auto r = fs::measure_throughput(*det, lcfg, tcfg, nv, 8, 42);
    // Small Monte-Carlo slack.
    EXPECT_GE(r.throughput_mbps + 6.0, prev) << "snr=" << snr;
    prev = r.throughput_mbps;
  }
}

TEST(Integration, MeasurementsAreDeterministicForFixedSeed) {
  Constellation qam(16);
  const fs::LinkConfig lcfg = tiny_link(16);
  const ch::TraceConfig tcfg = trace_cfg(6, 6);
  const auto det = fa::make_detector("zf-sic", {.constellation = &qam});
  const double nv = ch::noise_var_for_snr_db(10.0);
  const auto a = fs::measure_throughput(*det, lcfg, tcfg, nv, 5, 99);
  const auto b = fs::measure_throughput(*det, lcfg, tcfg, nv, 5, 99);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.per_user_per, b.per_user_per);
}

TEST(Integration, FlexCoreBeatsFcsdOnCodedLinkAtOperatingPoint) {
  // The Fig. 9 claim at the coded-link level, in the 64-QAM operating
  // regime: FlexCore-128 achieves at least FCSD-64's throughput.
  Constellation qam(64);
  const fs::LinkConfig lcfg = tiny_link(64);
  const ch::TraceConfig tcfg = trace_cfg(8, 8);
  const double nv = ch::noise_var_for_snr_db(15.5);

  const auto flex = fa::make_detector("flexcore-128", {.constellation = &qam});
  const auto fcsd = fa::make_detector("fcsd-L1", {.constellation = &qam});

  const auto rf = fs::measure_throughput(*flex, lcfg, tcfg, nv, 10, 7);
  const auto rc = fs::measure_throughput(*fcsd, lcfg, tcfg, nv, 10, 7);
  EXPECT_GE(rf.throughput_mbps + 1e-9, rc.throughput_mbps)
      << "flex128=" << rf.throughput_mbps << " fcsd64=" << rc.throughput_mbps;
}

TEST(Integration, AdaptiveFlexCoreSavesWorkOnCleanChannels) {
  Constellation qam(16);
  const fs::LinkConfig lcfg = tiny_link(16);
  const ch::TraceConfig tcfg = trace_cfg(8, 4);  // under-loaded AP
  const auto det =
      fa::make_detector("a-flexcore-64", {.constellation = &qam});

  const double nv = ch::noise_var_for_snr_db(22.0);
  const auto r = fs::measure_throughput(*det, lcfg, tcfg, nv, 4, 3);
  EXPECT_EQ(r.avg_per, 0.0);
  EXPECT_LT(r.avg_active_pes, 4.0) << "expected near-SIC complexity";
}

TEST(Integration, SoftLinkNeverLosesPacketsVsHard) {
  Constellation qam(16);
  const fs::LinkConfig lcfg = tiny_link(16);
  const ch::TraceConfig tcfg = trace_cfg(6, 6);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &qam});

  // Near the PER cliff the soft extension should deliver at least as much.
  const double nv = ch::noise_var_for_snr_db(8.0);
  const auto hard = fs::measure_throughput(*det, lcfg, tcfg, nv, 10, 5);
  const auto soft = fs::measure_throughput_soft(*det, lcfg, tcfg, nv, 10, 5);
  EXPECT_GE(soft.throughput_mbps + 6.0, hard.throughput_mbps);
}

TEST(Integration, BatchDetectMatchesSequentialAcrossATrace) {
  // detect_batch (thread-pool task grid + built-in SIC fallback) must match
  // per-vector detect() symbol-for-symbol across a whole trace.
  Constellation qam(64);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &qam});

  ch::TraceConfig tcfg = trace_cfg(12, 12);
  tcfg.num_subcarriers = 8;
  ch::TraceGenerator gen(tcfg, 21);
  ch::Rng rng(22);
  const auto trace = gen.next();
  flexcore::parallel::ThreadPool pool(2);
  det->set_thread_pool(&pool);
  const double nv = ch::noise_var_for_snr_db(18.0);

  for (const auto& h : trace.per_subcarrier) {
    det->set_channel(h, nv);
    std::vector<flexcore::linalg::CVec> ys;
    flexcore::linalg::CVec s(12);
    for (int v = 0; v < 6; ++v) {
      for (int u = 0; u < 12; ++u) {
        s[static_cast<std::size_t>(u)] =
            qam.point(static_cast<int>(rng.uniform_int(64)));
      }
      ys.push_back(ch::transmit(h, s, nv, rng));
    }
    flexcore::detect::BatchResult batch;
    det->detect_batch(ys, &batch);
    ASSERT_EQ(batch.results.size(), ys.size());
    EXPECT_EQ(batch.tasks, ys.size() * det->active_paths());
    for (std::size_t v = 0; v < ys.size(); ++v) {
      const auto want = det->detect(ys[v]);
      EXPECT_EQ(batch.results[v].symbols, want.symbols) << "vector " << v;
      EXPECT_NEAR(batch.results[v].metric, want.metric, 1e-9);
    }
  }
}

TEST(Integration, PipelineFacadeMatchesDirectDetectorUse) {
  // The UplinkPipeline facade must be an exact stand-in for hand-rolled
  // set_channel + detect loops on the coded link.
  Constellation qam(16);
  const fs::LinkConfig lcfg = tiny_link(16);
  const ch::TraceConfig tcfg = trace_cfg(6, 6);
  const double nv = ch::noise_var_for_snr_db(12.0);

  const auto det = fa::make_detector("flexcore-16", {.constellation = &qam});
  const auto direct = fs::measure_throughput(*det, lcfg, tcfg, nv, 4, 31);

  fa::PipelineConfig pcfg;
  pcfg.detector = "flexcore-16";
  pcfg.qam_order = 16;
  pcfg.threads = 2;
  fa::UplinkPipeline pipe(pcfg);
  const auto faced = fs::measure_throughput(pipe, lcfg, tcfg, nv, 4, 31);

  EXPECT_EQ(faced.throughput_mbps, direct.throughput_mbps);
  EXPECT_EQ(faced.per_user_per, direct.per_user_per);
  EXPECT_GT(pipe.channel_installs(), 0u);
  EXPECT_GT(pipe.vectors_detected(), 0u);
}

TEST(Integration, EstimatedCsiLinkConvergesToGenie) {
  Constellation qam(16);
  const auto det = fa::make_detector("flexcore-32", {.constellation = &qam});
  ch::Rng rng(23);
  const auto h = ch::rayleigh_iid(6, 6, rng);
  const double nv = ch::noise_var_for_snr_db(12.0);

  auto count_errors = [&](bool genie, std::size_t repeats) {
    ch::Rng data_rng(24);
    if (genie) {
      det->set_channel(h, nv);
    } else {
      ch::Rng pilot_rng(25);
      const auto est = ch::estimate_channel(h, nv, repeats, pilot_rng);
      det->set_channel(est.h_hat, est.noise_var_hat);
    }
    std::size_t err = 0;
    for (int v = 0; v < 200; ++v) {
      flexcore::linalg::CVec s(6);
      std::vector<int> tx(6);
      for (int u = 0; u < 6; ++u) {
        const auto ui = static_cast<std::size_t>(u);
        tx[ui] = static_cast<int>(data_rng.uniform_int(16));
        s[ui] = qam.point(tx[ui]);
      }
      const auto y = ch::transmit(h, s, nv, data_rng);
      const auto res = det->detect(y);
      for (int u = 0; u < 6; ++u) {
        err += res.symbols[static_cast<std::size_t>(u)] !=
               tx[static_cast<std::size_t>(u)];
      }
    }
    return err;
  };

  const auto genie = count_errors(true, 0);
  const auto est64 = count_errors(false, 64);
  const auto est1 = count_errors(false, 1);
  EXPECT_LE(est64, est1);
  EXPECT_LE(genie, est1);
  // 64 pilot repeats should be within a small additive band of genie.
  EXPECT_LE(est64, genie + 40);
}
