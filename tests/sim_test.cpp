// Tests for the OFDM numerology, coded uplink simulation and the batched
// detection entry point (Detector::detect_batch).
#include <gtest/gtest.h>

#include <cmath>

#include "api/detector_registry.h"
#include "channel/trace.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "ofdm/ofdm.h"
#include "parallel/thread_pool.h"
#include "sim/link.h"
#include "sim/montecarlo.h"

namespace fa = flexcore::api;
namespace fs = flexcore::sim;
namespace fd = flexcore::detect;
namespace fc = flexcore::core;
namespace ch = flexcore::channel;
namespace fo = flexcore::ofdm;
using flexcore::modulation::Constellation;

// ------------------------------------------------------------------- OFDM

TEST(Ofdm, WifiRateConstants) {
  // The paper's 802.11 numerology: 48 data subcarriers / 4 us = 12M
  // vectors per second.
  EXPECT_NEAR(fo::vectors_per_second(), 12e6, 1.0);
  // 64-QAM rate 1/2: 48 * 6 * 0.5 / 4us = 36 Mbit/s per user.
  EXPECT_NEAR(fo::per_user_rate_mbps(6), 36.0, 1e-9);
  // 16-QAM rate 1/2: 24 Mbit/s per user.
  EXPECT_NEAR(fo::per_user_rate_mbps(4), 24.0, 1e-9);
}

TEST(Ofdm, NetworkThroughputSumsUsers) {
  const double per[4] = {0.0, 0.5, 1.0, 0.0};
  // 16-QAM: 24 * (1 + 0.5 + 0 + 1) = 60 Mbit/s.
  EXPECT_NEAR(fo::network_throughput_mbps(4, per, 4), 60.0, 1e-9);
}

TEST(Ofdm, PaddedInfoBitsFillsWholeSymbols) {
  for (int bps : {2, 4, 6}) {
    const std::size_t ncbps = fo::coded_bits_per_ofdm_symbol(bps);
    for (std::size_t req : {100u, 1000u, 4096u}) {
      const std::size_t info = fo::padded_info_bits(req, bps);
      EXPECT_GE(info, req);
      EXPECT_EQ((2 * (info + 6)) % ncbps, 0u)
          << "bps=" << bps << " req=" << req;
      // Padding never adds more than one block.
      EXPECT_LT(info, req + ncbps);
    }
  }
}

// ------------------------------------------------------------ coded link

namespace {

fs::LinkConfig small_link(int qam) {
  fs::LinkConfig cfg;
  cfg.qam_order = qam;
  cfg.info_bits_per_user = 300;  // keep unit tests fast
  return cfg;
}

ch::TraceConfig small_trace(std::size_t nr, std::size_t nt) {
  ch::TraceConfig cfg;
  cfg.nr = nr;
  cfg.nt = nt;
  return cfg;
}

}  // namespace

TEST(Link, PerfectChannelDeliversEveryPacket) {
  const fs::LinkConfig lcfg = small_link(16);
  fs::UplinkPacketLink link(lcfg);
  Constellation c(16);
  const auto det = fa::make_detector("zf-sic", {.constellation = &c});

  ch::TraceGenerator gen(small_trace(4, 4), 42);
  ch::Rng rng(43);
  const auto trace = gen.next();
  const auto out = link.run_packet(*det, trace, 1e-9, rng);
  for (bool ok : out.user_ok) EXPECT_TRUE(ok);
  EXPECT_EQ(out.symbol_errors, 0u);
  EXPECT_EQ(out.vectors_detected,
            link.ofdm_symbols_per_packet() * fo::kDataSubcarriers);
}

TEST(Link, InfoBitsArePaddedConsistently) {
  const fs::LinkConfig lcfg = small_link(64);
  fs::UplinkPacketLink link(lcfg);
  const std::size_t ncbps = fo::coded_bits_per_ofdm_symbol(6);
  EXPECT_EQ((2 * (link.info_bits() + 6)) % ncbps, 0u);
  EXPECT_EQ(link.ofdm_symbols_per_packet(),
            2 * (link.info_bits() + 6) / ncbps);
}

TEST(Link, HeavyNoiseKillsPackets) {
  const fs::LinkConfig lcfg = small_link(16);
  fs::UplinkPacketLink link(lcfg);
  Constellation c(16);
  const auto det = fa::make_detector("mmse", {.constellation = &c});

  ch::TraceGenerator gen(small_trace(4, 4), 44);
  ch::Rng rng(45);
  const auto out = link.run_packet(*det, gen.next(), 10.0, rng);
  std::size_t failed = 0;
  for (bool ok : out.user_ok) failed += !ok;
  EXPECT_GT(failed, 0u);
  EXPECT_GT(out.symbol_errors, out.symbols_sent / 4);
}

TEST(Link, CodingCorrectsSparseSymbolErrors) {
  // At moderate SNR the raw stream has symbol errors but Viterbi delivers
  // clean packets — the mechanism behind the paper's throughput metric.
  const fs::LinkConfig lcfg = small_link(4);
  fs::UplinkPacketLink link(lcfg);
  Constellation c(4);
  const auto det = fa::make_detector("zf-sic", {.constellation = &c});

  ch::TraceGenerator gen(small_trace(6, 4), 46);
  ch::Rng rng(47);
  std::size_t sym_errors = 0, packets_ok = 0, packets = 0;
  const double nv = ch::noise_var_for_snr_db(6.0);
  for (int p = 0; p < 10; ++p) {
    const auto out = link.run_packet(*det, gen.next(), nv, rng);
    sym_errors += out.symbol_errors;
    for (bool ok : out.user_ok) {
      ++packets;
      packets_ok += ok;
    }
  }
  EXPECT_GT(sym_errors, 0u) << "test wants a regime with raw errors";
  EXPECT_GT(packets_ok, packets * 6 / 10) << "coding failed to recover";
}

TEST(Link, SoftDecodingBeatsHardAtSameSnr) {
  // The paper's future-work extension: list-based soft output + soft
  // Viterbi should deliver at least as many packets as hard decisions.
  fs::LinkConfig lcfg = small_link(16);
  fs::UplinkPacketLink link(lcfg);
  Constellation c(16);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &c});

  const double nv = ch::noise_var_for_snr_db(10.0);
  std::size_t hard_ok = 0, soft_ok = 0;
  for (int p = 0; p < 8; ++p) {
    ch::TraceGenerator gen(small_trace(6, 6), 48 + static_cast<unsigned>(p));
    ch::Rng rng_h(100 + static_cast<unsigned>(p));
    ch::Rng rng_s(100 + static_cast<unsigned>(p));  // identical noise draws
    const auto trace = gen.next();
    const auto hard = link.run_packet(*det, trace, nv, rng_h);
    const auto soft = link.run_packet_soft(*det, trace, nv, rng_s);
    for (bool ok : hard.user_ok) hard_ok += ok;
    for (bool ok : soft.user_ok) soft_ok += ok;
  }
  EXPECT_GE(soft_ok, hard_ok);
}

// ----------------------------------------------------------- monte carlo

TEST(MonteCarlo, VerDecreasesWithSnr) {
  Constellation c(16);
  const auto det = fa::make_detector("zf-sic", {.constellation = &c});
  fs::VerScenario sc;
  sc.nr = 6;
  sc.nt = 6;
  sc.qam_order = 16;
  const auto lo = fs::measure_vector_error_rate(*det, sc, 8.0, 30, 20, 7);
  const auto hi = fs::measure_vector_error_rate(*det, sc, 20.0, 30, 20, 7);
  EXPECT_GT(lo.ver, hi.ver);
  EXPECT_GE(lo.ver, lo.ser);  // a vector error needs >= 1 symbol error
  EXPECT_EQ(lo.vectors, 600u);
}

TEST(MonteCarlo, ThroughputReflectsPer) {
  Constellation c(16);
  const auto det = fa::make_detector("mmse", {.constellation = &c});
  fs::LinkConfig lcfg = small_link(16);
  ch::TraceConfig tcfg = small_trace(6, 4);

  // Clean: every packet lands, throughput = Nt * per-user rate.
  const auto clean = fs::measure_throughput(*det, lcfg, tcfg, 1e-9, 4, 11);
  EXPECT_NEAR(clean.avg_per, 0.0, 1e-12);
  EXPECT_NEAR(clean.throughput_mbps, 4 * fo::per_user_rate_mbps(4), 1e-9);

  // Noisy: PER > 0 and throughput drops accordingly.
  const auto noisy = fs::measure_throughput(*det, lcfg, tcfg, 0.5, 4, 11);
  EXPECT_GT(noisy.avg_per, 0.0);
  EXPECT_LT(noisy.throughput_mbps, clean.throughput_mbps);
}

TEST(MonteCarlo, FindSnrForPerBrackets) {
  Constellation c(4);
  const auto det = fa::make_detector("zf-sic", {.constellation = &c});
  fs::LinkConfig lcfg = small_link(4);
  ch::TraceConfig tcfg = small_trace(6, 4);
  const double snr =
      fs::find_snr_for_per(*det, lcfg, tcfg, 0.5, 0.0, 30.0, 5, 4, 13);
  EXPECT_GT(snr, 0.0);
  EXPECT_LT(snr, 30.0);
  // PER at the found SNR should be in a sane band around the target.
  const double nv = ch::noise_var_for_snr_db(snr);
  const auto r = fs::measure_throughput(*det, lcfg, tcfg, nv, 16, 13);
  EXPECT_GT(r.avg_per, 0.05);
  EXPECT_LT(r.avg_per, 0.95);
}

// ---------------------------------------------------------- detect_batch

TEST(Batch, FcsdBatchMatchesSequentialDetection) {
  Constellation c(16);
  const auto det =
      fa::make_detector_as<fd::FcsdDetector>("fcsd-L1", {.constellation = &c});
  ch::Rng rng(55);
  const auto h = ch::rayleigh_iid(6, 6, rng);
  const double nv = 0.02;
  det->set_channel(h, nv);

  std::vector<flexcore::linalg::CVec> ys;
  std::vector<flexcore::detect::DetectionResult> want;
  for (int v = 0; v < 40; ++v) {
    flexcore::linalg::CVec s(6);
    for (int u = 0; u < 6; ++u) {
      s[static_cast<std::size_t>(u)] =
          c.point(static_cast<int>(rng.uniform_int(16)));
    }
    ys.push_back(ch::transmit(h, s, nv, rng));
    want.push_back(det->detect(ys.back()));
  }

  flexcore::parallel::ThreadPool pool(2);
  det->set_thread_pool(&pool);
  flexcore::detect::BatchResult out;
  det->detect_batch(ys, &out);
  ASSERT_EQ(out.results.size(), ys.size());
  EXPECT_EQ(out.tasks, ys.size() * det->num_paths());
  for (std::size_t v = 0; v < ys.size(); ++v) {
    EXPECT_EQ(out.results[v].symbols, want[v].symbols) << "vector " << v;
    EXPECT_NEAR(out.results[v].metric, want[v].metric, 1e-9) << "vector " << v;
  }
}

TEST(Batch, FlexCoreBatchMatchesSequential) {
  Constellation c(16);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-24", {.constellation = &c});
  ch::Rng rng(56);
  const auto h = ch::rayleigh_iid(6, 6, rng);
  const double nv = 0.05;
  det->set_channel(h, nv);

  std::vector<flexcore::linalg::CVec> ys;
  for (int v = 0; v < 30; ++v) {
    flexcore::linalg::CVec s(6);
    for (int u = 0; u < 6; ++u) {
      s[static_cast<std::size_t>(u)] =
          c.point(static_cast<int>(rng.uniform_int(16)));
    }
    ys.push_back(ch::transmit(h, s, nv, rng));
  }

  flexcore::parallel::ThreadPool pool(2);
  det->set_thread_pool(&pool);
  flexcore::detect::BatchResult out;
  det->detect_batch(ys, &out);
  EXPECT_EQ(out.tasks, ys.size() * det->active_paths());
  for (std::size_t v = 0; v < ys.size(); ++v) {
    const auto want = det->detect(ys[v]);
    EXPECT_EQ(out.results[v].symbols, want.symbols) << "vector " << v;
    EXPECT_NEAR(out.results[v].metric, want.metric, 1e-9);
  }
}

TEST(Batch, EmptyBatchIsSafe) {
  Constellation c(16);
  const auto det = fa::make_detector("fcsd-L1", {.constellation = &c});
  flexcore::parallel::ThreadPool pool(2);
  det->set_thread_pool(&pool);
  flexcore::detect::BatchResult out;
  det->detect_batch({}, &out);
  EXPECT_EQ(out.tasks, 0u);
  EXPECT_TRUE(out.results.empty());
}
