// Sub-subcarrier parallel scaling demo: FlexCore's path-level task grid on
// a thread pool.
//
// BigStation-style systems parallelize at whole-subcarrier granularity; the
// paper's point is that near-ML detection needs parallelism *below* the
// subcarrier.  This example detects the same OFDM-symbol batch three ways —
// sequential, one-task-per-subcarrier, and FlexCore's full vector x path
// grid via detect_batch — and prints wall-clock for each, plus the
// per-vector soft output of the list extension.
#include <chrono>
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "parallel/thread_pool.h"

using namespace flexcore;
using Clock = std::chrono::steady_clock;

int main() {
  const std::size_t nt = 12;
  const std::size_t nsc = 2048;  // subcarrier-vectors in flight
  modulation::Constellation qam(64);
  const double nv = channel::noise_var_for_snr_db(18.0);

  channel::Rng rng(99);
  const auto h = channel::rayleigh_iid(nt, nt, rng);

  const auto det = api::make_detector_as<core::FlexCoreDetector>(
      "flexcore-128", {.constellation = &qam});
  det->set_channel(h, nv);

  std::vector<linalg::CVec> ys;
  linalg::CVec s(nt);
  for (std::size_t v = 0; v < nsc; ++v) {
    for (std::size_t u = 0; u < nt; ++u) {
      s[u] = qam.point(static_cast<int>(rng.uniform_int(64)));
    }
    ys.push_back(channel::transmit(h, s, nv, rng));
  }

  std::printf("Batch: %zu vectors, %zu paths each (%zu tasks total), "
              "%zu hardware threads\n\n",
              nsc, det->active_paths(), nsc * det->active_paths(),
              parallel::default_thread_count());

  // 1. Fully sequential.
  auto t0 = Clock::now();
  double checksum = 0.0;
  for (const auto& y : ys) checksum += det->detect(y).metric;
  const double t_seq = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("sequential:              %8.1f ms  (checksum %.3f)\n",
              t_seq * 1e3, checksum);

  // 2. Subcarrier-level parallelism (BigStation granularity).
  parallel::ThreadPool pool(parallel::default_thread_count());
  std::vector<double> metrics(nsc);
  t0 = Clock::now();
  pool.parallel_for(nsc, [&](std::size_t v) {
    metrics[v] = det->detect(ys[v]).metric;
  });
  const double t_sc = std::chrono::duration<double>(Clock::now() - t0).count();
  double checksum2 = 0.0;
  for (double m : metrics) checksum2 += m;
  std::printf("per-subcarrier tasks:    %8.1f ms  (checksum %.3f)\n",
              t_sc * 1e3, checksum2);

  // 3. FlexCore's native granularity: the flat vector x path grid, now the
  // detector's own batched entry point.
  det->set_thread_pool(&pool);
  detect::BatchResult batch;
  t0 = Clock::now();
  det->detect_batch(ys, &batch);
  const double t_grid =
      std::chrono::duration<double>(Clock::now() - t0).count();
  double checksum3 = 0.0;
  for (const auto& r : batch.results) checksum3 += r.metric;
  std::printf("vector x path grid:      %8.1f ms  (checksum %.3f, "
              "grid kernel %.1f ms)\n\n",
              t_grid * 1e3, checksum3, batch.elapsed_seconds * 1e3);

  std::printf("speedup vs sequential: subcarrier %.2fx, path grid %.2fx\n",
              t_seq / t_sc, t_seq / t_grid);
  std::printf("\nWith only %zu cores both parallel variants converge; on a "
              "many-core device the path\ngrid exposes %zux more tasks than "
              "subcarrier-level parallelism — that headroom is\nexactly "
              "FlexCore's contribution.\n",
              parallel::default_thread_count(), det->active_paths());

  // Bonus: the soft-output extension on one vector.
  const auto soft = det->detect_soft(ys.front());
  std::printf("\nSoft output (user 0, 6 bits): ");
  for (double llr : soft.llrs[0]) std::printf("%+.1f ", llr);
  std::printf("\n");
  return 0;
}
