// Ablation: the per-level error-probability model feeding pre-processing.
//
// README's "Path selection" section gives why the printed Eq. 4
// ("PaperErfc": no minimum-distance factor, prefactor > 2) cannot be the
// model the paper actually validated in Fig. 14.  This bench quantifies the
// impact: at dense constellations the literal formula collapses the Pe
// profile and the path allocation degenerates to a single level, costing
// real SER.
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fm = flexcore::modulation;
namespace fb = flexcore::bench;
using fm::Constellation;

int main() {
  const std::size_t trials = fb::env_size("FLEXCORE_TRIALS", 400);

  fb::banner("Ablation: Pe model for pre-processing (64 PEs)");
  std::printf("%-12s %-8s %-22s %-12s %-14s\n", "system", "SNR dB",
              "model", "SER", "max-rank profile");
  fb::rule();

  struct Case {
    std::size_t nt;
    int qam;
    double snr;
  };
  for (const Case& cs : {Case{8, 16, 11.0}, Case{8, 64, 17.0}}) {
    Constellation qam(cs.qam);
    const double nv = ch::noise_var_for_snr_db(cs.snr);
    for (auto model : {fm::PeModel::kExactSer, fm::PeModel::kPaperErfc}) {
      fa::DetectorConfig acfg{.constellation = &qam};
      acfg.flexcore.pe_model = model;
      const auto det =
          fa::make_detector_as<fc::FlexCoreDetector>("flexcore-64", acfg);

      ch::Rng rng(25);
      std::size_t errors = 0, symbols = 0;
      std::vector<int> max_rank(cs.nt, 0);
      for (std::size_t t = 0; t < trials; ++t) {
        ch::Rng hrng(5000 + t);
        const auto gains = ch::bounded_user_gains(cs.nt, 3.0, hrng);
        const auto h = ch::kronecker_channel(cs.nt, cs.nt, 0.4, gains, hrng);
        det->set_channel(h, nv);
        if (t == 0) {
          for (const auto& rp : det->preprocessing().paths) {
            for (std::size_t l = 0; l < cs.nt; ++l) {
              max_rank[l] = std::max(max_rank[l], rp.p[l]);
            }
          }
        }
        flexcore::linalg::CVec s(cs.nt);
        std::vector<int> tx(cs.nt);
        for (std::size_t u = 0; u < cs.nt; ++u) {
          tx[u] = static_cast<int>(rng.uniform_int(
              static_cast<std::uint64_t>(cs.qam)));
          s[u] = qam.point(tx[u]);
        }
        const auto y = ch::transmit(h, s, nv, rng);
        const auto res = det->detect(y);
        for (std::size_t u = 0; u < cs.nt; ++u) {
          ++symbols;
          errors += res.symbols[u] != tx[u];
        }
      }

      const char* name = model == fm::PeModel::kExactSer
                             ? "ExactSer (default)"
                             : "PaperErfc (literal)";
      std::printf("%zux%zu %d-QAM %-6.1f %-22s %-12.4f [", cs.nt, cs.nt,
                  cs.qam, cs.snr, name,
                  static_cast<double>(errors) / static_cast<double>(symbols));
      for (std::size_t l = 0; l < cs.nt; ++l) {
        std::printf("%d%s", max_rank[l], l + 1 < cs.nt ? "," : "");
      }
      std::printf("]\n");
    }
  }

  std::printf("\nReading: the literal Eq. 4 concentrates all alternate ranks "
              "on one level for dense\nconstellations (see the max-rank "
              "profile) and costs SER; the SER-calibrated model\nspreads "
              "them according to true per-level reliability.\n");
  return 0;
}
