// Ablation: the triangle ordering LUT (§3.2) vs exhaustive per-level
// sorting, and the two out-of-constellation policies.
//
// Quantifies two design choices:
//  * LUT (no sort, the paper's contribution) vs exact sort (upper bound);
//  * deactivate-on-invalid (the paper's FPGA behaviour) vs skip-to-valid.
// The path kernels compile only the paper's row (LUT + deactivate), so one
// flexcore-64 detector installs each channel (sorted QR and path selection)
// and every variant walks that detector's QR and path set on the scalar
// reference walk (tests/reference_walk.h, which the kernels match bit for
// bit in the paper's row), with the SIC fallback of detect().
// Reported: uncoded symbol error rate and per-vector detection time.  The
// us/vector column times the scalar reference walk (rotation included) for
// every row, the paper's too: it compares the orderings' cost on one
// engine, not the kernel engine, which fig17 times.
#include <chrono>
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "reference_walk.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fb = flexcore::bench;
namespace fr = flexcore::testref;
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

  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-64", {.constellation = &qam});
  std::vector<std::size_t> errors(variants.size(), 0);
  std::vector<double> seconds(variants.size(), 0.0);
  ch::Rng rng(25);
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
    for (std::size_t k = 0; k < variants.size(); ++k) {
      const fr::FlexCoreReference ref(*det, variants[k].ordering,
                                      variants[k].policy);
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = ref.detect(det->rotate(y));
      seconds[k] += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      for (std::size_t u = 0; u < nt; ++u) errors[k] += res.symbols[u] != tx[u];
    }
  }

  const double symbols = static_cast<double>(trials * nt);
  double baseline_ser = 0.0;
  for (std::size_t k = 0; k < variants.size(); ++k) {
    const double ser = static_cast<double>(errors[k]) / symbols;
    if (baseline_ser == 0.0) baseline_ser = ser > 0 ? ser : 1e-12;
    std::printf("%-28s %-12.4f %-14.2f %-16.2f\n", variants[k].label, ser,
                seconds[k] / static_cast<double>(trials) * 1e6,
                ser / baseline_ser);
  }

  std::printf("\nReading: the LUT trades a small SER increase for removing "
              "the per-level sort;\nskip-to-valid recovers part of the "
              "deactivation loss at no hardware cost in software.\n");
  return 0;
}
