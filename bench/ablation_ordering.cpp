// Ablation: the triangle ordering LUT (§3.2) vs exhaustive per-level
// sorting, and the two out-of-constellation policies.
//
// Quantifies two design choices:
//  * LUT (no sort, the paper's contribution) vs exact sort (upper bound);
//  * deactivate-on-invalid (the paper's FPGA behaviour) vs skip-to-valid.
// Reported: uncoded symbol error rate and per-vector detection time.
#include <chrono>
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fb = flexcore::bench;
using flexcore::modulation::Constellation;

namespace {

struct Variant {
  const char* label;
  fc::OrderingMode ordering;
  fc::InvalidEntryPolicy policy;
};

}  // namespace

int main() {
  const std::size_t trials = fb::env_size("FLEXCORE_TRIALS", 400);
  Constellation qam(64);
  const std::size_t nt = 8;
  const double nv = ch::noise_var_for_snr_db(17.0);

  const std::vector<Variant> variants{
      {"LUT + deactivate (paper)", fc::OrderingMode::kLut,
       fc::InvalidEntryPolicy::kDeactivate},
      {"LUT + skip-to-valid", fc::OrderingMode::kLut,
       fc::InvalidEntryPolicy::kSkipToValid},
      {"exact sort + deactivate", fc::OrderingMode::kExactSort,
       fc::InvalidEntryPolicy::kDeactivate},
      {"exact sort + skip", fc::OrderingMode::kExactSort,
       fc::InvalidEntryPolicy::kSkipToValid},
  };

  fb::banner("Ablation: k-th closest symbol ordering (8x8 64-QAM, 64 PEs)");
  std::printf("%-28s %-12s %-14s %-16s\n", "variant", "SER", "us/vector",
              "relative SER");
  fb::rule();

  double baseline_ser = 0.0;
  for (const auto& v : variants) {
    fa::DetectorConfig acfg{.constellation = &qam};
    acfg.flexcore.ordering = v.ordering;
    acfg.flexcore.invalid_policy = v.policy;
    const auto det = fa::make_detector("flexcore-64", acfg);

    ch::Rng rng(25);
    std::size_t errors = 0, symbols = 0;
    double seconds = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      ch::Rng hrng(5000 + t);
      const auto gains = ch::bounded_user_gains(nt, 3.0, hrng);
      const auto h = ch::kronecker_channel(nt, nt, 0.4, gains, hrng);
      flexcore::linalg::CVec s(nt);
      std::vector<int> tx(nt);
      for (std::size_t u = 0; u < nt; ++u) {
        tx[u] = static_cast<int>(rng.uniform_int(64));
        s[u] = qam.point(tx[u]);
      }
      const auto y = ch::transmit(h, s, nv, rng);
      det->set_channel(h, nv);
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = det->detect(y);
      seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      for (std::size_t u = 0; u < nt; ++u) {
        ++symbols;
        errors += res.symbols[u] != tx[u];
      }
    }
    const double ser =
        static_cast<double>(errors) / static_cast<double>(symbols);
    if (baseline_ser == 0.0) baseline_ser = ser > 0 ? ser : 1e-12;
    std::printf("%-28s %-12.4f %-14.2f %-16.2f\n", v.label, ser,
                seconds / static_cast<double>(trials) * 1e6,
                ser / baseline_ser);
  }

  std::printf("\nReading: the LUT trades a small SER increase for removing "
              "the per-level sort;\nskip-to-valid recovers part of the "
              "deactivation loss at no hardware cost in software.\n");
  return 0;
}
