// Validation of the 16-bit premise, model and shipped kernel together:
//
//  * Panel 1 — the FPGA cost model's Q(16,11) reference walk
//    (perfmodel/fixed_path.h): how often does a FlexCore engine whose
//    datapath is quantized to the shared Q-format make the same decision
//    as the double-precision engine?  Table 3 / Fig. 13 adopt the paper's
//    16-bit synthesis numbers on this premise.
//  * Panel 2 — the shipped ":i16" kernel tier (detect/PathPlanI16), which
//    derives per-channel scale factors but caps fractional resolution at
//    the SAME perfmodel::I16Format::kFracBits, so the model and the kernel
//    can never quietly use different number formats.  Its end-to-end SER
//    may exceed fp64's by at most detect::kI16SerTolerance — the bench
//    exits non-zero if it does.
//
// Results land in BENCH_fixed_point.json for cross-PR tracking.
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_json.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/path_kernels.h"
#include "parallel/thread_pool.h"
#include "perfmodel/fixed_path.h"
#include "perfmodel/fixed_point.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace pm = flexcore::perfmodel;
namespace fb = flexcore::bench;
using flexcore::modulation::Constellation;

namespace {

struct Case {
  int qam;
  double snr;
};
constexpr Case kCases[] = {{16, 11.0}, {16, 15.0}, {64, 15.0},
                           {64, 18.0}, {64, 22.0}};

}  // namespace

int main() {
  const std::size_t channels = fb::env_size("FLEXCORE_TRIALS", 40);
  const std::size_t vectors_per_channel = 10;
  const std::size_t nt = 8;
  fb::BenchJson json("fixed_point");

  fb::banner("16-bit fixed point: Q-format model walk + shipped :i16 tier");
  std::printf("shared Q-format: Q(%d,%d) (perfmodel::I16Format)\n\n",
              pm::I16Format::kTotalBits - pm::I16Format::kFracBits,
              pm::I16Format::kFracBits);
  std::printf("%-10s %-8s %-20s %-12s %-12s %-10s\n", "QAM", "SNR dB",
              "model agreement", "SER fp64", "SER i16", "gap");
  fb::rule();

  flexcore::parallel::ThreadPool pool(2);
  double worst_gap = 0.0;
  for (const Case& cs : kCases) {
    Constellation qam(cs.qam);
    const fa::DetectorConfig dcfg{.constellation = &qam};
    const auto det64 =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-64", dcfg);
    const auto det16 =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-64:i16", dcfg);
    det64->set_thread_pool(&pool);
    det16->set_thread_pool(&pool);
    const double nv = ch::noise_var_for_snr_db(cs.snr);

    double agreement = 0.0;
    std::size_t symbols = 0, err64 = 0, err16 = 0;
    ch::Rng rng(7);
    std::vector<std::vector<int>> tx(vectors_per_channel,
                                     std::vector<int>(nt));
    std::vector<flexcore::linalg::CVec> ys(vectors_per_channel);
    flexcore::linalg::CVec s(nt);
    fd::BatchResult out64, out16;
    for (std::size_t c = 0; c < channels; ++c) {
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      det64->set_channel(h, nv);
      det16->set_channel(h, nv);
      for (std::size_t v = 0; v < vectors_per_channel; ++v) {
        for (std::size_t u = 0; u < nt; ++u) {
          tx[v][u] = static_cast<int>(
              rng.uniform_int(static_cast<std::uint64_t>(cs.qam)));
          s[u] = qam.point(tx[v][u]);
        }
        ys[v] = ch::transmit(h, s, nv, rng);
      }
      agreement += pm::fixed_vs_double_agreement(*det64, ys);
      det64->detect_batch(ys, &out64);
      det16->detect_batch(ys, &out16);
      for (std::size_t v = 0; v < vectors_per_channel; ++v) {
        for (std::size_t u = 0; u < nt; ++u) {
          ++symbols;
          err64 += out64.results[v].symbols[u] != tx[v][u];
          err16 += out16.results[v].symbols[u] != tx[v][u];
        }
      }
    }
    agreement /= static_cast<double>(channels);
    const double ser64 =
        static_cast<double>(err64) / static_cast<double>(symbols);
    const double ser16 =
        static_cast<double>(err16) / static_cast<double>(symbols);
    const double gap = ser16 - ser64;
    worst_gap = std::max(worst_gap, gap);
    std::printf("%-10d %-8.1f %-20.4f %-12.5f %-12.5f %+-10.5f\n", cs.qam,
                cs.snr, agreement, ser64, ser16, gap);
    json.row()
        .field("qam", cs.qam)
        .field("snr_db", cs.snr)
        .field("mimo", nt)
        .field("frac_bits", pm::I16Format::kFracBits)
        .field("model_agreement", agreement)
        .field("ser_fp64", ser64)
        .field("ser_i16", ser16)
        .field("ser_gap", gap)
        .field("kernel_frac_bits", det16->plan_i16().frac_bits())
        .field("kernel_point_bits", det16->plan_i16().point_bits());
  }

  std::printf("\nReading: the Q4.11 model walk tracks double-precision "
              "decisions closely AND the\nshipped :i16 kernel tier (same "
              "fractional cap) holds its end-to-end SER within\n%.3f of "
              "fp64 — the premise behind Table 3 / Fig. 13 and the "
              "quantized tier's\naccuracy contract, verified together.\n",
              fd::kI16SerTolerance);
  if (worst_gap > fd::kI16SerTolerance) {
    std::printf("\nFAIL: worst i16 SER gap %+.5f above tolerance %.3f\n",
                worst_gap, fd::kI16SerTolerance);
    return 1;
  }
  return 0;
}
