// Table 1 reproduction: computational rate a single core must sustain to run
// the depth-first ML sphere decoder at the Wi-Fi arrival rate, vs achieved
// throughput, for 2x2 .. 8x8 MIMO with 16-QAM at 13 dB SNR over Rayleigh
// channels (the paper's Table 1 parameters).
//
// Absolute GFLOP/s differ from [32]'s counts (different per-node accounting,
// different hardware) — the reproduced *shape* is the exponential growth of
// required compute with linearly-growing antenna count, against the linear
// growth of achieved throughput.
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "modulation/constellation.h"
#include "ofdm/ofdm.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fb = flexcore::bench;

int main() {
  const std::size_t trials = fb::env_size("FLEXCORE_TRIALS", 400);
  const double snr_db = 13.0;  // per-user, as in Table 1's footnote
  const double nv = ch::noise_var_for_snr_db(snr_db);
  flexcore::modulation::Constellation qam(16);

  fb::banner("Table 1: depth-first ML sphere decoder, 16-QAM, 13 dB, Rayleigh");
  std::printf("%-10s %-22s %-18s %-18s %-12s\n", "Antennas",
              "Throughput (Mbit/s)", "GFLOP/s required", "flops/vector",
              "nodes/vector");
  fb::rule();

  for (std::size_t nt : {2u, 4u, 6u, 8u}) {
    const auto sd = fa::make_detector("ml-sd", {.constellation = &qam});
    ch::Rng rng(1000 + nt);
    std::uint64_t flops = 0, nodes = 0;
    std::size_t vec_errors = 0;

    for (std::size_t t = 0; t < trials; ++t) {
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      sd->set_channel(h, nv);
      flexcore::linalg::CVec s(nt);
      std::vector<int> tx(nt);
      for (std::size_t u = 0; u < nt; ++u) {
        tx[u] = static_cast<int>(rng.uniform_int(16));
        s[u] = qam.point(tx[u]);
      }
      const auto y = ch::transmit(h, s, nv, rng);
      const auto res = sd->detect(y);
      flops += res.stats.flops;
      nodes += res.stats.nodes_visited;
      for (std::size_t u = 0; u < nt; ++u) {
        if (res.symbols[u] != tx[u]) {
          ++vec_errors;
          break;
        }
      }
    }

    const double flops_per_vector =
        static_cast<double>(flops) / static_cast<double>(trials);
    const double gflops =
        flops_per_vector * flexcore::ofdm::vectors_per_second() / 1e9;
    const double ver =
        static_cast<double>(vec_errors) / static_cast<double>(trials);
    // Achieved sum throughput ~ Nt streams of 16-QAM rate-1/2 scaled by the
    // vector success rate (uncoded proxy for the paper's measured column).
    const double tput = static_cast<double>(nt) *
                        flexcore::ofdm::per_user_rate_mbps(4) * (1.0 - ver);

    std::printf("%zux%zu        %-22.1f %-18.2f %-18.0f %-12.1f\n", nt, nt,
                tput, gflops, flops_per_vector,
                static_cast<double>(nodes) / static_cast<double>(trials));
  }

  std::printf("\nPaper's Table 1 (for shape comparison):\n");
  std::printf("  2x2:  45 Mbit/s,   1.2 GFLOPS\n");
  std::printf("  4x4: 100 Mbit/s,    13 GFLOPS\n");
  std::printf("  6x6: 162 Mbit/s,   105 GFLOPS\n");
  std::printf("  8x8: 223 Mbit/s,   837 GFLOPS\n");
  return 0;
}
