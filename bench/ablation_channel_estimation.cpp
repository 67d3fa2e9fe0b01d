// Substrate evaluation: FlexCore under estimated (rather than genie) CSI.
//
// The paper's testbed performs real channel estimation (§5.1), and §3.1
// stresses that FlexCore's pre-processing consumes channel *estimates*.
// This bench quantifies the end-to-end cost of LS pilot estimation: the
// detector sees H-hat and sigma-hat^2 from channel::estimate_channel while
// the data still propagates through the true channel.
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_util.h"
#include "channel/estimation.h"
#include "core/flexcore_detector.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fb = flexcore::bench;
using flexcore::modulation::Constellation;

int main() {
  const std::size_t trials = fb::env_size("FLEXCORE_TRIALS", 300);
  Constellation qam(64);
  const std::size_t nt = 8;
  const double snr = 17.0;
  const double nv = ch::noise_var_for_snr_db(snr);

  fb::banner("FlexCore with estimated CSI (8x8 64-QAM, 64 PEs, 17 dB)");
  std::printf("%-18s %-12s %-16s %-18s\n", "CSI", "SER",
              "est. MSE/entry", "noise-var bias");
  fb::rule();

  // repeats = 0 encodes the genie (perfect CSI) row.
  for (std::size_t repeats : {0u, 1u, 4u, 16u, 64u, 256u}) {
    const auto det = fa::make_detector("flexcore-64", {.constellation = &qam});

    ch::Rng rng(25);
    std::size_t errors = 0, symbols = 0;
    double mse = 0.0, nv_bias = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      ch::Rng hrng(5000 + t);
      const auto gains = ch::bounded_user_gains(nt, 3.0, hrng);
      const auto h = ch::kronecker_channel(nt, nt, 0.4, gains, hrng);

      if (repeats == 0) {
        det->set_channel(h, nv);
      } else {
        // Dedicated pilot RNG keeps the payload noise realizations
        // identical across rows, so SER differences are purely CSI quality.
        ch::Rng pilot_rng(9000 + t);
        const auto est = ch::estimate_channel(h, nv, repeats, pilot_rng);
        det->set_channel(est.h_hat, est.noise_var_hat);
        mse += ch::estimation_mse(h, est.h_hat);
        nv_bias += est.noise_var_hat / nv - 1.0;
      }

      flexcore::linalg::CVec s(nt);
      std::vector<int> tx(nt);
      for (std::size_t u = 0; u < nt; ++u) {
        tx[u] = static_cast<int>(rng.uniform_int(64));
        s[u] = qam.point(tx[u]);
      }
      const auto y = ch::transmit(h, s, nv, rng);
      const auto res = det->detect(y);
      for (std::size_t u = 0; u < nt; ++u) {
        ++symbols;
        errors += res.symbols[u] != tx[u];
      }
    }

    if (repeats == 0) {
      std::printf("%-18s %-12.4f %-16s %-18s\n", "perfect (genie)",
                  static_cast<double>(errors) / static_cast<double>(symbols),
                  "-", "-");
    } else {
      std::printf("LS, %zu repeat(s)%-2s %-12.4f %-16.5f %-+18.3f\n", repeats,
                  "",
                  static_cast<double>(errors) / static_cast<double>(symbols),
                  mse / static_cast<double>(trials),
                  nv_bias / static_cast<double>(trials));
    }
  }

  std::printf(
      "\nReading: LS MSE ~ sigma^2/repeats, but detection sees the error "
      "summed over all Nt\nusers' columns, so near-genie 64-QAM detection "
      "needs per-entry MSE << sigma^2/Nt —\ni.e. pilot repetitions well "
      "beyond Nt.  This quantifies §3.1's dependence on\n\"reliable channel "
      "estimates ... to preserve the gains of spatial multiplexing\" [17].\n");
  return 0;
}
