// Table 2 reproduction: real-multiplication complexity and parallelizability
// of FlexCore's pre-processing vs the QR decomposition / channel inversion,
// and of FlexCore detection, for 8x8 and 12x12 MIMO with N_PE in {32, 128}.
//
// Pre-processing counts are *measured* (instrumented) on random channels;
// QR/ZF uses the paper's 4*Nt^3 real-multiplication model; detection uses
// the paper's per-path accounting of 2*Nt*(Nt+1) multiplications.
//
// A second table times the §3.1.1 path search itself: one thread, a warm
// workspace and result, each channel's best of several passes, at the
// Table 2 shapes and at the two served shapes (servebench's
// massive-64x8-sharded and coherent-12x12).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "channel/channel.h"
#include "core/preprocessing.h"
#include "linalg/qr.h"
#include "modulation/constellation.h"
#include "shard/partial_qr.h"

namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fb = flexcore::bench;
namespace fl = flexcore::linalg;

namespace {

/// massive-64x8-sharded's detection-side R: a 64x8 channel's two
/// 32-antenna partial QRs stacked (16x8), then sorted-QR'd.
fl::CMat merged_r(ch::Rng& rng) {
  const fl::CMat h = ch::rayleigh_iid(64, 8, rng);
  std::vector<flexcore::shard::PartialQr> partials;
  for (const auto& range : flexcore::shard::plan_shards(64, 2)) {
    partials.push_back(flexcore::shard::compute_partial(
        fl::CMatView(h.data() + range.begin * 8, range.count, 8)));
  }
  return fl::sorted_qr_wubben(flexcore::shard::stack_partials(partials)).R;
}

struct SearchTiming {
  double us_per_call = 0.0;
  double mults = 0.0;
};

/// Mean over the channels of each one's fastest warm call in `passes`
/// passes over all of them (a pass never repeats a channel back to back).
SearchTiming time_search(const std::vector<fl::CMat>& rs, double nv,
                         const flexcore::modulation::Constellation& qam,
                         std::size_t paths, std::size_t passes) {
  using Clock = std::chrono::steady_clock;
  fc::PreprocessingConfig cfg;
  cfg.num_paths = paths;
  fc::PathSearchWorkspace ws;
  fc::PreprocessingResult out;
  SearchTiming t;
  for (const fl::CMat& r : rs) {
    fc::find_most_promising_paths_into(r, nv, qam, cfg, ws, &out);
    t.mults += static_cast<double>(out.real_mults);
  }
  std::vector<double> best(rs.size(), 1e300);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const auto t0 = Clock::now();
      fc::find_most_promising_paths_into(rs[i], nv, qam, cfg, ws, &out);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      best[i] = std::min(best[i], us);
    }
  }
  for (double us : best) t.us_per_call += us;
  t.us_per_call /= static_cast<double>(rs.size());
  t.mults /= static_cast<double>(rs.size());
  return t;
}

}  // namespace

int main() {
  const std::size_t trials = fb::env_size("FLEXCORE_TRIALS", 200);
  flexcore::modulation::Constellation qam(64);
  const double nv = ch::noise_var_for_snr_db(18.0);

  fb::banner("Table 2: pre-processing & detection complexity (real mults)");
  std::printf("%-8s %-8s %-24s %-24s %-20s\n", "System", "QR/ZF",
              "Pre-proc N_PE=32", "Pre-proc N_PE=128", "Detection 32/128");
  std::printf("%-8s %-8s %-24s %-24s\n", "", "", "repo (paper)",
              "repo (paper)");
  fb::rule();

  const double paper32[] = {102.0, 136.0};
  const double paper128[] = {301.0, 391.0};
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t nt = s == 0 ? 8 : 12;
    double pre32 = 0.0, pre128 = 0.0;
    ch::Rng rng(77 + nt);
    for (std::size_t t = 0; t < trials; ++t) {
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const auto qr = flexcore::linalg::sorted_qr_wubben(h);
      fc::PreprocessingConfig cfg;
      cfg.num_paths = 32;
      pre32 += static_cast<double>(
          fc::find_most_promising_paths(qr.R, nv, qam, cfg).real_mults);
      cfg.num_paths = 128;
      pre128 += static_cast<double>(
          fc::find_most_promising_paths(qr.R, nv, qam, cfg).real_mults);
    }
    pre32 /= static_cast<double>(trials);
    pre128 /= static_cast<double>(trials);

    const double dnt = static_cast<double>(nt);
    const double qr_mults = 4.0 * dnt * dnt * dnt;  // paper's approximation
    const double det32 = 2.0 * dnt * (dnt + 1) * 32;
    const double det128 = 2.0 * dnt * (dnt + 1) * 128;

    char system[16], col32[32], col128[32];
    std::snprintf(system, sizeof system, "%zux%zu", nt, nt);
    std::snprintf(col32, sizeof col32, "%.1f (%.0f)", pre32, paper32[s]);
    std::snprintf(col128, sizeof col128, "%.1f (%.0f)", pre128, paper128[s]);
    std::printf("%-8s ~%-7.0f %-24s %-24s %.0f / %.0f\n", system, qr_mults,
                col32, col128, det32, det128);
  }
  std::printf(
      "  repo: Nt-1 for the root, then one per child probability formed\n"
      "  (children created, plus the failed check that ends each node)\n");

  std::printf("\nParallelizability (tasks executable concurrently):\n");
  std::printf("  Pre-processing: N_PE/10 nodes per round with negligible loss "
              "(paper's ratio-10 rule)\n");
  std::printf("    N_PE=32 -> ~3 parallel expansions, N_PE=128 -> ~12\n");
  std::printf("  Detection: one PE per path -> 32 / 128\n");

  std::printf("\nPaper's Table 2 (for comparison):\n");
  std::printf("  8x8:   QR ~2048,  preproc 102/301,  detection 4608/18432\n");
  std::printf("  12x12: QR ~6912,  preproc 136/391,  detection 9984/39936\n");
  std::printf("  Parallelizability: - / 3 / 12 / 32 / 128\n");

  // Path search time per call.
  const std::size_t channels = std::min<std::size_t>(trials, 48);
  const std::size_t passes = 20;
  std::printf("\nPath search (Sec. 3.1.1), one thread, warm workspace: mean "
              "over %zu channels of each one's best of %zu passes\n",
              channels, passes);
  std::printf("%-44s %-6s %-10s %s\n", "shape", "paths", "us/call",
              "mults/call");
  fb::rule();
  const auto row = [&](const char* shape, const std::vector<fl::CMat>& rs,
                       double noise_var,
                       const flexcore::modulation::Constellation& c,
                       std::size_t paths) {
    const SearchTiming t = time_search(rs, noise_var, c, paths, passes);
    std::printf("%-44s %-6zu %-10.2f %.1f\n", shape, paths, t.us_per_call,
                t.mults);
  };
  for (std::size_t nt : {8u, 12u}) {
    ch::Rng rng(77 + nt);
    std::vector<fl::CMat> rs;
    for (std::size_t t = 0; t < channels; ++t) {
      rs.push_back(
          flexcore::linalg::sorted_qr_wubben(ch::rayleigh_iid(nt, nt, rng)).R);
    }
    const char* shape = nt == 8 ? "8x8, 64-QAM, 18 dB" : "12x12, 64-QAM, 18 dB";
    row(shape, rs, nv, qam, 32);
    row(shape, rs, nv, qam, 128);
  }
  {
    flexcore::modulation::Constellation qam16(16);
    ch::Rng rng(2601);
    std::vector<fl::CMat> rs;
    for (std::size_t t = 0; t < channels; ++t) rs.push_back(merged_r(rng));
    row("massive: merged 16x8 R, 16-QAM, -2 dB", rs,
        ch::noise_var_for_snr_db(-2.0), qam16, 32);
  }
  {
    ch::Rng rng(2602);
    std::vector<fl::CMat> rs;
    for (std::size_t t = 0; t < channels; ++t) {
      rs.push_back(
          flexcore::linalg::sorted_qr_wubben(ch::rayleigh_iid(12, 12, rng)).R);
    }
    row("coherent: 12x12, 64-QAM, 18 dB", rs, nv, qam, 64);
  }
  return 0;
}
