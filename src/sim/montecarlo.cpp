#include "sim/montecarlo.h"

#include <cmath>
#include <stdexcept>

#include "api/uplink_pipeline.h"

namespace flexcore::sim {

VerResult measure_vector_error_rate(detect::Detector& det,
                                    const VerScenario& sc, double snr_db,
                                    std::size_t num_channels,
                                    std::size_t vectors_per_channel,
                                    std::uint64_t seed) {
  modulation::Constellation c(sc.qam_order);
  channel::Rng rng(seed);
  const double noise_var = channel::noise_var_for_snr_db(snr_db);

  VerResult out;
  std::size_t vec_errors = 0, sym_errors = 0, sym_total = 0;

  for (std::size_t ch = 0; ch < num_channels; ++ch) {
    const auto gains =
        channel::bounded_user_gains(sc.nt, sc.user_power_spread_db, rng);
    const linalg::CMat h = channel::kronecker_channel(
        sc.nr, sc.nt, sc.rx_correlation, gains, rng);
    det.set_channel(h, noise_var);

    linalg::CVec s(sc.nt);
    std::vector<int> tx(sc.nt);
    for (std::size_t v = 0; v < vectors_per_channel; ++v) {
      for (std::size_t u = 0; u < sc.nt; ++u) {
        tx[u] = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(sc.qam_order)));
        s[u] = c.point(tx[u]);
      }
      const linalg::CVec y = channel::transmit(h, s, noise_var, rng);
      const detect::DetectionResult res = det.detect(y);
      out.stats += res.stats;
      ++out.vectors;
      bool any = false;
      for (std::size_t u = 0; u < sc.nt; ++u) {
        ++sym_total;
        if (res.symbols[u] != tx[u]) {
          ++sym_errors;
          any = true;
        }
      }
      if (any) ++vec_errors;
    }
  }
  out.ver = static_cast<double>(vec_errors) / static_cast<double>(out.vectors);
  out.ser = static_cast<double>(sym_errors) / static_cast<double>(sym_total);
  return out;
}

namespace {

template <typename RunPacket>
ThroughputResult measure_impl(const LinkConfig& lcfg,
                              const channel::TraceConfig& tcfg,
                              std::size_t packets, std::uint64_t seed,
                              RunPacket run_packet) {
  UplinkPacketLink link(lcfg);
  channel::TraceGenerator gen(tcfg, seed);
  channel::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);

  ThroughputResult out;
  out.packets = packets;
  out.per_user_per.assign(tcfg.nt, 0.0);
  double sum_active = 0.0;
  std::size_t installs = 0;

  for (std::size_t p = 0; p < packets; ++p) {
    const channel::ChannelTrace trace = gen.next();
    const PacketOutcome pkt = run_packet(link, trace, rng);
    for (std::size_t u = 0; u < tcfg.nt; ++u) {
      if (!pkt.user_ok[u]) out.per_user_per[u] += 1.0;
    }
    out.stats += pkt.stats;
    sum_active += pkt.sum_active_pes;
    installs += pkt.channel_installs;
  }

  for (double& per : out.per_user_per) per /= static_cast<double>(packets);
  double acc = 0.0;
  for (double per : out.per_user_per) acc += per;
  out.avg_per = acc / static_cast<double>(tcfg.nt);
  out.avg_active_pes =
      installs ? sum_active / static_cast<double>(installs) : 0.0;

  modulation::Constellation c(lcfg.qam_order);
  out.throughput_mbps = ofdm::network_throughput_mbps(
      c.bits_per_symbol(), out.per_user_per.data(), tcfg.nt);
  return out;
}

}  // namespace

ThroughputResult measure_throughput(detect::Detector& det,
                                    const LinkConfig& lcfg,
                                    const channel::TraceConfig& tcfg,
                                    double noise_var, std::size_t packets,
                                    std::uint64_t seed) {
  return measure_impl(lcfg, tcfg, packets, seed,
                      [&](UplinkPacketLink& link,
                          const channel::ChannelTrace& trace,
                          channel::Rng& rng) {
                        return link.run_packet(det, trace, noise_var, rng);
                      });
}

ThroughputResult measure_throughput(api::UplinkPipeline& pipe,
                                    const LinkConfig& lcfg,
                                    const channel::TraceConfig& tcfg,
                                    double noise_var, std::size_t packets,
                                    std::uint64_t seed) {
  if (pipe.constellation().order() != lcfg.qam_order) {
    throw std::invalid_argument(
        "measure_throughput: pipeline constellation does not match "
        "LinkConfig.qam_order");
  }
  return measure_impl(lcfg, tcfg, packets, seed,
                      [&](UplinkPacketLink& link,
                          const channel::ChannelTrace& trace,
                          channel::Rng& rng) {
                        return link.run_packet(pipe, trace, noise_var, rng);
                      });
}

ThroughputResult measure_throughput_soft(core::FlexCoreDetector& det,
                                         const LinkConfig& lcfg,
                                         const channel::TraceConfig& tcfg,
                                         double noise_var, std::size_t packets,
                                         std::uint64_t seed) {
  return measure_impl(lcfg, tcfg, packets, seed,
                      [&](UplinkPacketLink& link,
                          const channel::ChannelTrace& trace,
                          channel::Rng& rng) {
                        return link.run_packet_soft(det, trace, noise_var, rng);
                      });
}

double find_snr_for_per(detect::Detector& det, const LinkConfig& lcfg,
                        const channel::TraceConfig& tcfg, double target_per,
                        double lo_db, double hi_db, int iterations,
                        std::size_t packets, std::uint64_t seed) {
  double lo = lo_db, hi = hi_db;
  for (int it = 0; it < iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double noise_var = channel::noise_var_for_snr_db(mid);
    const ThroughputResult r =
        measure_throughput(det, lcfg, tcfg, noise_var, packets, seed);
    if (r.avg_per > target_per) {
      lo = mid;  // need more SNR
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace flexcore::sim
