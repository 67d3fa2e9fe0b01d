// Fig. 11 reproduction: FlexCore's detection speedup over the FCSD when both
// run on the same parallel engine, for 12x12 64-QAM, L in {1,2}, as a
// function of the number of Sphere-decoder paths |E| FlexCore considers and
// of the subcarrier batch size Nsc.
//
// Platform substitution (DESIGN.md): the paper times CUDA kernels on a GTX
// 970; we time the identical flat (vector x path) task grid on a CPU thread
// pool — both detectors on the same infrastructure, which is the paper's
// stated methodology for a fair algorithmic comparison.  The "OpenMP-N"
// rows reproduce the CPU-thread scaling curves (bounded by this machine's
// core count).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "detect/detector.h"
#include "parallel/thread_pool.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fb = flexcore::bench;
using flexcore::modulation::Constellation;

namespace {

std::vector<flexcore::linalg::CVec> make_batch(const flexcore::linalg::CMat& h,
                                               const Constellation& c,
                                               std::size_t nsc, double nv,
                                               ch::Rng& rng) {
  std::vector<flexcore::linalg::CVec> ys;
  ys.reserve(nsc);
  const std::size_t nt = h.cols();
  flexcore::linalg::CVec s(nt);
  for (std::size_t v = 0; v < nsc; ++v) {
    for (std::size_t u = 0; u < nt; ++u) {
      s[u] = c.point(static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(c.order()))));
    }
    ys.push_back(ch::transmit(h, s, nv, rng));
  }
  return ys;
}

/// Best-of-`reps` per-vector wall-clock of detect_batch's task grid on
/// `pool` (elapsed_seconds covers rotation + path grid + min-reduction,
/// exactly what the old free-function engine timed).
double time_per_vector(flexcore::detect::Detector& det,
                       const std::vector<flexcore::linalg::CVec>& ys,
                       flexcore::parallel::ThreadPool& pool, int reps) {
  det.set_thread_pool(&pool);
  flexcore::detect::BatchResult out;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    det.detect_batch(ys, &out);
    best = std::min(best, out.elapsed_seconds / static_cast<double>(ys.size()));
  }
  det.set_thread_pool(nullptr);  // pools may be loop-local; don't dangle
  return best;
}

}  // namespace

int main() {
  const std::size_t nt = 12;
  Constellation qam(64);
  const double nv = ch::noise_var_for_snr_db(17.0);
  ch::Rng rng(4242);
  const auto h = ch::rayleigh_iid(nt, nt, rng);
  const int reps = static_cast<int>(fb::env_size("FLEXCORE_TRIALS", 3));

  const std::size_t hw = flexcore::parallel::default_thread_count();
  flexcore::parallel::ThreadPool pool(hw);

  fb::banner("Fig. 11: FlexCore speedup vs FCSD on the same parallel engine");
  std::printf("(12x12, 64-QAM; pool = %zu hardware threads)\n\n", hw);

  // --- Baselines: FCSD L = 1 (64 paths) and L = 2 (4096 paths).
  const fa::DetectorConfig acfg{.constellation = &qam};
  const auto fcsd1 = fa::make_detector("fcsd-L1", acfg);
  const auto fcsd2 = fa::make_detector("fcsd-L2", acfg);
  fcsd1->set_channel(h, nv);
  fcsd2->set_channel(h, nv);
  const std::size_t base_nsc = 1024;
  const auto ys_base = make_batch(h, qam, base_nsc, nv, rng);
  const double t_fcsd1 = time_per_vector(*fcsd1, ys_base, pool, reps);
  const double t_fcsd2 = time_per_vector(*fcsd2, ys_base, pool, reps);
  std::printf(
      "baseline FCSD (full pool, Nsc=%zu): L=1 %.3f us/vec, L=2 %.3f us/vec\n",
      base_nsc, t_fcsd1 * 1e6, t_fcsd2 * 1e6);

  // --- CPU thread-scaling rows (OpenMP-N analogue).
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > 2 * hw) break;
    flexcore::parallel::ThreadPool p(threads);
    const double t = time_per_vector(*fcsd1, ys_base, p, reps);
    std::printf("  FCSD L=1 on %zu thread(s): %.3f us/vec (%.2fx vs 1 thread "
                "pool)\n",
                threads, t * 1e6, t_fcsd1 > 0 ? t / t_fcsd1 : 0.0);
  }

  // --- FlexCore speedup sweep.
  std::printf("\n%-8s %-10s %-16s %-16s %-16s\n", "|E|", "Nsc",
              "us/vector", "speedup vs L=1", "speedup vs L=2");
  fb::rule();
  double t_flex128_1024 = 0.0;
  for (std::size_t nsc : {64u, 1024u, 16384u}) {
    const auto ys = make_batch(h, qam, nsc, nv, rng);
    for (std::size_t e : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      const auto flex =
          fa::make_detector("flexcore-" + std::to_string(e), acfg);
      flex->set_channel(h, nv);
      const double t = time_per_vector(*flex, ys, pool, reps);
      if (e == 128 && nsc == 1024) t_flex128_1024 = t;
      std::printf("%-8zu %-10zu %-16.3f %-16.2f %-16.2f\n", e, nsc, t * 1e6,
                  t_fcsd1 / t, t_fcsd2 / t);
    }
  }

  // Equal-power energy estimate (energy ratio == time ratio on identical
  // hardware): the paper reports FlexCore's 128 paths reaching the FCSD
  // L=2 (4096 path) throughput, with a ~97.5% energy advantage.
  if (t_flex128_1024 > 0.0) {
    std::printf("\nEqual-power energy estimate at |E|=128, Nsc=1024:\n"
                "  FlexCore uses %.1f%% less energy per vector than FCSD L=2 "
                "(paper: ~97.5%%)\n",
                100.0 * (1.0 - t_flex128_1024 / t_fcsd2));
  }
  return 0;
}
