// Fig. 12 reproduction: SNR loss relative to ML across the LTE bandwidth
// modes for FlexCore, the FCSD and SIC at 64-QAM, 8x8 and 12x12.
//
// Two-step methodology, exactly as in §5.2 of the paper:
//  (a) measure this platform's sustained path-evaluation rate, convert the
//      500 us LTE slot budget into a per-vector path budget for each mode
//      (perfmodel/lte_model);
//  (b) measure the algorithmic SNR loss of each detector *at that path
//      budget*: the extra SNR needed to match the ML detector's uncoded
//      vector error rate at the reference operating point.
//
// Absolute path budgets depend on our CPU's speed (the paper's on a GTX
// 970); the reproduced shape is the widening loss toward wide modes, SIC as
// the single-path worst case, and FCSD's infeasibility ("x") in every mode
// whose budget is below |Q|^L.
#include <cstdio>
#include <map>
#include <vector>

#include "api/detector_registry.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "parallel/thread_pool.h"
#include "perfmodel/lte_model.h"
#include "sim/montecarlo.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fs = flexcore::sim;
namespace pm = flexcore::perfmodel;
namespace fb = flexcore::bench;
using flexcore::modulation::Constellation;

namespace {

/// Measured sustained path-evaluation rate (paths/second) of the engine.
double measure_path_rate(std::size_t nt, const Constellation& qam) {
  ch::Rng rng(99);
  const auto h = ch::rayleigh_iid(nt, nt, rng);
  const double nv = ch::noise_var_for_snr_db(17.0);
  const auto flex = fa::make_detector("flexcore-128", {.constellation = &qam});
  flex->set_channel(h, nv);

  std::vector<flexcore::linalg::CVec> ys;
  flexcore::linalg::CVec s(nt);
  for (int v = 0; v < 2048; ++v) {
    for (std::size_t u = 0; u < nt; ++u) {
      s[u] = qam.point(static_cast<int>(rng.uniform_int(64)));
    }
    ys.push_back(ch::transmit(h, s, nv, rng));
  }
  flexcore::parallel::ThreadPool pool(
      flexcore::parallel::default_thread_count());
  flex->set_thread_pool(&pool);
  flexcore::detect::BatchResult out;
  flex->detect_batch(ys, &out);
  return static_cast<double>(out.tasks) / out.elapsed_seconds;
}

/// SNR (dB) at which `det` reaches the target uncoded VER (bisection).
double find_snr_for_ver(fd::Detector& det, const fs::VerScenario& sc,
                        double target_ver, double lo, double hi, int iters,
                        std::size_t channels, std::size_t vectors,
                        std::uint64_t seed) {
  for (int i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    const auto r =
        fs::measure_vector_error_rate(det, sc, mid, channels, vectors, seed);
    if (r.ver > target_ver) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

int main() {
  Constellation qam(64);
  const std::size_t channels = fb::env_size("FLEXCORE_TRIALS", 40);
  const std::size_t vectors = 20;
  const bool full = fb::env_flag("FLEXCORE_FULL");

  fb::banner("Fig. 12: SNR loss vs ML across LTE modes (64-QAM)");

  const std::vector<std::size_t> nts = full ? std::vector<std::size_t>{8, 12}
                                            : std::vector<std::size_t>{12};
  for (std::size_t nt : nts) {
    const double path_rate = measure_path_rate(nt, qam);
    std::printf("\n--- %zu users x %zu-antenna AP; measured path rate %.2f "
                "Mpaths/s ---\n", nt, nt, path_rate / 1e6);

    // Reference: ML VER at the operating SNR (PER_ML ~ 0.01 regime).
    const double ref_snr = 17.0;
    fs::VerScenario sc;
    sc.nr = nt;
    sc.nt = nt;
    sc.qam_order = 64;
    fa::DetectorConfig ml_cfg{.constellation = &qam};
    ml_cfg.ml_sphere.max_nodes = 50000;
    const auto ml = fa::make_detector("ml-sd", ml_cfg);
    const auto ml_ref =
        fs::measure_vector_error_rate(*ml, sc, ref_snr, channels, vectors, 5);
    const double target_ver = std::max(ml_ref.ver, 0.02);
    std::printf("reference: ML VER %.3f at %.1f dB; target VER %.3f\n",
                ml_ref.ver, ref_snr, target_ver);
    const double ml_snr = find_snr_for_ver(*ml, sc, target_ver, 8.0, 26.0, 6,
                                           channels, vectors, 5);

    // SNR-loss cache per path budget (modes share budgets after capping).
    std::map<std::size_t, double> flex_loss;
    auto loss_for_paths = [&](std::size_t paths) {
      paths = std::min<std::size_t>(std::max<std::size_t>(paths, 1), 1024);
      auto it = flex_loss.find(paths);
      if (it != flex_loss.end()) return it->second;
      const auto flex = fa::make_detector(
          "flexcore-" + std::to_string(paths), {.constellation = &qam});
      const double snr = find_snr_for_ver(*flex, sc, target_ver, 8.0, 34.0, 6,
                                          channels, vectors, 5);
      const double loss = snr - ml_snr;
      flex_loss[paths] = loss;
      return loss;
    };

    // SIC = single-path reference.
    const auto sic = fa::make_detector("zf-sic", {.constellation = &qam});
    const double sic_snr = find_snr_for_ver(*sic, sc, target_ver, 8.0, 40.0, 6,
                                            channels, vectors, 5);
    const double sic_loss = sic_snr - ml_snr;

    // FCSD losses at its realizable levels.
    std::map<int, double> fcsd_loss;
    for (int level = 1; level <= 2; ++level) {
      if (level == 2 && nt == 12 && !full) break;  // keep default runtime low
      const auto fcsd = fa::make_detector("fcsd-L" + std::to_string(level),
                                          {.constellation = &qam});
      const double snr = find_snr_for_ver(*fcsd, sc, target_ver, 8.0, 34.0, 6,
                                          channels, vectors, 5);
      fcsd_loss[level] = snr - ml_snr;
    }

    // The paper's platform is a GTX 970; this machine's CPU path rate is
    // orders of magnitude lower, which would collapse every mode to the
    // single-path (SIC) budget.  Print the honest CPU table and a table at
    // a GPU-class rate (default 100x, override with FLEXCORE_PATH_RATE in
    // paths/second) whose budgets land in the paper's regime.
    const double gpu_rate = static_cast<double>(fb::env_size(
        "FLEXCORE_PATH_RATE", static_cast<std::size_t>(path_rate * 100.0)));
    for (const double rate : {path_rate, gpu_rate}) {
      std::printf("\n[engine rate %.2f Mpaths/s%s]\n", rate / 1e6,
                  rate == path_rate ? " — measured on this CPU"
                                    : " — GPU-class (scaled; see DESIGN.md)");
      std::printf("%-10s %-14s %-18s %-22s %-14s\n", "LTE mode", "budget/vec",
                  "FlexCore loss(dB)", "FCSD loss(dB)", "SIC loss(dB)");
      fb::rule();
      for (const auto& mode : pm::kLteModes) {
        const std::size_t budget = pm::supported_paths(rate, mode);
        const int fcsd_level = pm::fcsd_supported_level(rate, mode, 64);
        char fcsd_cell[64];
        if (fcsd_level >= 1 && fcsd_loss.count(fcsd_level)) {
          std::snprintf(fcsd_cell, sizeof(fcsd_cell), "%.2f (L=%d)",
                        fcsd_loss[fcsd_level], fcsd_level);
        } else {
          std::snprintf(fcsd_cell, sizeof(fcsd_cell), "x (not supported)");
        }
        std::printf("%-10s %-14zu %-18.2f %-22s %-14.2f\n", mode.name, budget,
                    budget >= 1 ? loss_for_paths(budget) : sic_loss, fcsd_cell,
                    sic_loss);
      }
    }
  }

  std::printf("\nShape checks vs the paper:\n");
  std::printf("  * Loss grows toward wide LTE modes as the per-vector path "
              "budget shrinks.\n");
  std::printf("  * SIC (single path) is the worst case; FlexCore always "
              "meets the deadline.\n");
  std::printf("  * FCSD is marked 'x' in modes whose budget is below "
              "|Q|^L.\n");
  return 0;
}
