// Fig. 17 (extension): the lane-parallel kernel engine vs the scalar
// per-path loop, across precision tiers and MIMO sizes.
//
// The paper's substrate evaluates thousands of identical per-path programs
// in lockstep (§4); detect/path_kernels.h maps that SIMT grid onto CPU
// SIMD lanes.  This harness times exactly the kernel — rotated vectors in,
// per-vector minimum metric out, single thread, no pool — so the numbers
// isolate the engine from scheduling:
//
//   * scalar  — the scalar reference walk per path (tests/reference_walk.h,
//     the pre-engine hot loop: interleaved std::complex<double>, one
//     libcall-heavy walk per path);
//   * block   — path_metric_block over the compiled PathPlan (split-SoA,
//     lane-parallel), in the fp64 tier (bit-identical), the fp32 tier
//     (reduced precision) and the int16 quantized tier (":i16", 16 lanes
//     per block, LUT-compiled slicing — the paper's Table 3 fixed-point
//     datapath).
//
// Emits BENCH_kernels.json and EXITS NON-ZERO when any gate fails:
//   * fp64 block >= 1.5x over the scalar loop at 12x12 / 64-QAM;
//   * i16 block faster than fp32 block at 12x12 and 16x16;
//   * i16 block >= 1.4x over the fp64 scalar loop at 16x16;
//   * end-to-end 64-QAM SER of the i16 tier within
//     detect::kI16SerTolerance of the fp64 tier.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "api/detector_registry.h"
#include "bench_json.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "detect/path_grid.h"
#include "detect/path_kernels.h"
#include "parallel/thread_pool.h"
#include "reference_walk.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fb = flexcore::bench;
namespace fl = flexcore::linalg;
namespace fr = flexcore::testref;
using flexcore::modulation::Constellation;

namespace {

struct Timing {
  double ns_per_path = 0.0;
  double checksum = 0.0;  ///< sum of per-vector minima (anti-DCE + sanity)
};

/// Best-of-`reps` wall clock of `eval` (which scans every path of every
/// vector and returns the checksum), normalized per path walk.
template <typename Eval>
Timing time_kernel(std::size_t total_walks, int reps, Eval&& eval) {
  Timing t;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    t.checksum = eval();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, secs);
  }
  t.ns_per_path = best * 1e9 / static_cast<double>(total_walks);
  return t;
}

/// Sum over vectors of the minimum path metric, via the scalar reference
/// walk.
template <typename Ref>
double scan_scalar(const Ref& ref, const std::vector<fl::CVec>& ybars,
                   std::size_t paths) {
  double sum = 0.0;
  for (const fl::CVec& ybar : ybars) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < paths; ++p) {
      best = std::min(best, ref.path_metric(ybar, p));
    }
    sum += best;
  }
  return sum;
}

/// Same reduction through the block kernel — via detect::scan_paths, the
/// exact loop the production grids run, so the gate times the real path.
template <typename D>
double scan_block(const D& det, const std::vector<fl::CVec>& ybars,
                  std::size_t paths) {
  double sum = 0.0;
  for (const fl::CVec& ybar : ybars) {
    std::size_t best_p = 0;
    double best = 0.0;
    fd::scan_paths(det, ybar, paths, &best_p, &best);
    sum += best;
  }
  return sum;
}

/// One scalar + three block rows for a (detector, MIMO size) sweep point —
/// the single place that defines the BENCH_kernels.json timing-row schema.
/// `flops_per_path` is the plan's Table 2 count of one walk
/// (PathPlan::walk_stats), the same work in every tier, so `gflops` is
/// the work rate each kernel achieves on it; `isa` is the dispatched
/// kernel copy (detect::kernel_isa) the block rows ran.
void emit_rows(fb::BenchJson& json, const char* detector, std::size_t mimo,
               std::size_t paths, double flops_per_path, const Timing& scalar,
               const Timing& blk64, const Timing& blk32, const Timing& blk16) {
  const struct {
    const char* kernel;
    const char* precision;
    double ns;
  } rows[] = {{"scalar", "fp64", scalar.ns_per_path},
              {"block", "fp64", blk64.ns_per_path},
              {"block", "fp32", blk32.ns_per_path},
              {"block", "i16", blk16.ns_per_path}};
  for (const auto& r : rows) {
    json.row()
        .field("detector", detector)
        .field("mimo", mimo)
        .field("qam", 64)
        .field("paths", paths)
        .field("kernel", r.kernel)
        .field("precision", r.precision)
        .field("isa", fd::kernel_isa())
        .field("ns_per_path", r.ns)
        .field("speedup_vs_scalar", scalar.ns_per_path / r.ns)
        .field("flops_per_path", flops_per_path)
        .field("gflops", flops_per_path / r.ns);
  }
}

std::vector<fl::CVec> rotated_batch(const fc::FlexCoreDetector& det,
                                    const fl::CMat& h,
                                    const Constellation& c, double nv,
                                    std::size_t count, ch::Rng& rng) {
  std::vector<fl::CVec> ybars;
  ybars.reserve(count);
  fl::CVec s(h.cols());
  for (std::size_t v = 0; v < count; ++v) {
    for (auto& z : s) {
      z = c.point(static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(c.order()))));
    }
    ybars.push_back(det.rotate(ch::transmit(h, s, nv, rng)));
  }
  return ybars;
}

}  // namespace

int main() {
  const int reps = static_cast<int>(fb::env_size("FLEXCORE_TRIALS", 3));
  const std::size_t nvec = fb::env_size("FLEXCORE_VECTORS", 192);
  constexpr double kSpeedupGate = 1.5;  // fp64 block vs scalar, 12x12/64-QAM
  constexpr double kI16Gate = 1.4;      // i16 block vs fp64 scalar, 16x16

  Constellation qam(64);
  fb::BenchJson json("kernels");
  fb::banner("Fig. 17: lane-parallel kernel engine vs scalar path loop");
  std::printf("(64-QAM, flexcore-128, %zu vectors, best of %d, single "
              "thread, kernel copy %s)\n\n",
              nvec, reps, fd::kernel_isa());
  std::printf("%-6s %-8s %-15s %-12s %-12s %-12s %-12s %-11s %-10s\n", "MIMO",
              "paths", "scalar ns/path", "block fp64", "block fp32",
              "block i16", "speedup", "flops/path", "fp64 GFLOP/s");
  fb::rule();

  bool gate_seen = false;
  bool gate_ok = false;
  bool i16_gates_ok = true;
  for (std::size_t nt : {4u, 8u, 12u, 16u}) {
    ch::Rng rng(900 + nt);
    const auto h = ch::rayleigh_iid(nt, nt, rng);
    const double noise = ch::noise_var_for_snr_db(18.0);

    const fa::DetectorConfig dcfg{.constellation = &qam};
    const auto det64 =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-128", dcfg);
    det64->set_channel(h, noise);
    const auto det32 =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-128:fp32", dcfg);
    det32->set_channel(h, noise);
    const auto det16 =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-128:i16", dcfg);
    det16->set_channel(h, noise);
    const std::size_t paths = det64->active_paths();
    const auto ybars = rotated_batch(*det64, h, qam, noise, nvec, rng);
    const std::size_t walks = nvec * paths;

    const fr::FlexCoreReference ref64(*det64);
    const Timing scalar = time_kernel(
        walks, reps, [&] { return scan_scalar(ref64, ybars, paths); });
    const Timing blk64 = time_kernel(
        walks, reps, [&] { return scan_block(*det64, ybars, paths); });
    const Timing blk32 = time_kernel(
        walks, reps, [&] { return scan_block(*det32, ybars, paths); });
    const Timing blk16 = time_kernel(
        walks, reps, [&] { return scan_block(*det16, ybars, paths); });
    // A sanity check of the timed scans only: tests/kernel_test.cpp proves
    // the plan bitwise equal to the reference walk in every ISA copy.
    const double drift = std::fabs(blk64.checksum - scalar.checksum);
    if (drift > 1e-9 * std::fabs(scalar.checksum)) {
      std::fprintf(stderr,
                   "FAIL: fp64 block checksum %.17g vs scalar %.17g at "
                   "%zux%zu\n",
                   blk64.checksum, scalar.checksum, nt, nt);
      return 1;
    }
    // The quantized checksum only sanity-checks magnitude (its metrics are
    // rounded): it must be finite and in the ballpark of the exact sum.
    if (!std::isfinite(blk16.checksum) ||
        std::fabs(blk16.checksum - scalar.checksum) >
            0.25 * std::fabs(scalar.checksum) + 1.0) {
      std::fprintf(stderr,
                   "FAIL: i16 block checksum %.17g vs scalar %.17g at "
                   "%zux%zu\n",
                   blk16.checksum, scalar.checksum, nt, nt);
      return 1;
    }

    const double speedup64 = scalar.ns_per_path / blk64.ns_per_path;
    const double speedup16 = scalar.ns_per_path / blk16.ns_per_path;
    const double flops =
        static_cast<double>(det64->plan().walk_stats(1).flops);
    char speedups[32];
    std::snprintf(speedups, sizeof speedups, "%.2fx/%.2fx", speedup64,
                  speedup16);
    std::printf("%zux%-4zu %-8zu %-15.2f %-12.2f %-12.2f %-12.2f %-12s "
                "%-11.0f %.2f\n",
                nt, nt, paths, scalar.ns_per_path, blk64.ns_per_path,
                blk32.ns_per_path, blk16.ns_per_path, speedups, flops,
                flops / blk64.ns_per_path);
    emit_rows(json, "flexcore-128", nt, paths, flops, scalar, blk64, blk32,
              blk16);

    if (nt == 12) {
      gate_seen = true;
      gate_ok = speedup64 >= kSpeedupGate;
    }
    // i16 gates: faster than fp32 at the large sizes, and >= kI16Gate over
    // the fp64 scalar loop at 16x16.
    if (nt == 12 || nt == 16) {
      if (blk16.ns_per_path >= blk32.ns_per_path) {
        std::fprintf(stderr,
                     "FAIL: i16 block (%.2f ns) not faster than fp32 "
                     "(%.2f ns) at %zux%zu\n",
                     blk16.ns_per_path, blk32.ns_per_path, nt, nt);
        i16_gates_ok = false;
      }
    }
    if (nt == 16 && speedup16 < kI16Gate) {
      std::fprintf(stderr,
                   "FAIL: i16 block %.2fx below the %.1fx gate over the "
                   "fp64 scalar loop at 16x16\n",
                   speedup16, kI16Gate);
      i16_gates_ok = false;
    }
  }

  // FCSD context rows: the same engine accelerates the competitor too
  // (both graphs run the identical grid infrastructure, the paper's
  // fairness methodology).
  {
    const std::size_t nt = 12;
    ch::Rng rng(77);
    const auto h = ch::rayleigh_iid(nt, nt, rng);
    const double noise = ch::noise_var_for_snr_db(18.0);
    fd::FcsdDetector fcsd64(qam, 1);
    fcsd64.set_channel(h, noise);
    fd::FcsdDetector fcsd32(qam, 1, fd::Precision::kFloat32);
    fcsd32.set_channel(h, noise);
    fd::FcsdDetector fcsd16(qam, 1, fd::Precision::kInt16);
    fcsd16.set_channel(h, noise);
    const std::size_t paths = fcsd64.num_paths();

    const auto flex =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-128",
                                                   {.constellation = &qam});
    flex->set_channel(h, noise);  // only for identical rotation geometry
    std::vector<fl::CVec> ybars;
    {
      fl::CVec s(nt);
      ybars.reserve(nvec);
      for (std::size_t v = 0; v < nvec; ++v) {
        for (auto& z : s) {
          z = qam.point(static_cast<int>(
              rng.uniform_int(static_cast<std::uint64_t>(qam.order()))));
        }
        ybars.push_back(fcsd64.rotate(ch::transmit(h, s, noise, rng)));
      }
    }
    const std::size_t walks = nvec * paths;
    const fr::FcsdReference ref64(fcsd64, qam);
    const Timing scalar = time_kernel(
        walks, reps, [&] { return scan_scalar(ref64, ybars, paths); });
    const Timing blk64 = time_kernel(
        walks, reps, [&] { return scan_block(fcsd64, ybars, paths); });
    const Timing blk32 = time_kernel(
        walks, reps, [&] { return scan_block(fcsd32, ybars, paths); });
    const Timing blk16 = time_kernel(
        walks, reps, [&] { return scan_block(fcsd16, ybars, paths); });
    const double flops =
        static_cast<double>(fcsd64.plan().walk_stats(1).flops);
    std::printf("\nfcsd-L1 12x12: scalar %.2f ns/path, block fp64 %.2f "
                "(%.2fx, %.0f flops/path, %.2f GFLOP/s), block fp32 %.2f, "
                "block i16 %.2f\n",
                scalar.ns_per_path, blk64.ns_per_path,
                scalar.ns_per_path / blk64.ns_per_path, flops,
                flops / blk64.ns_per_path, blk32.ns_per_path,
                blk16.ns_per_path);
    emit_rows(json, "fcsd-L1", nt, paths, flops, scalar, blk64, blk32,
              blk16);
  }

  // --- end-to-end SER gate of the quantized tier ---------------------------
  // Full detect_batch runs (grid + winner reconstruction + SIC fallback)
  // at fp64 vs :i16 over the same transmissions: the quantized kernel may
  // only move the 64-QAM symbol-error rate within kI16SerTolerance of the
  // exact tier (the documented accuracy contract of detect::PathPlanI16).
  double ser_gap = 0.0;
  {
    const std::size_t nt = 12;
    const std::size_t channels = fb::env_size("FLEXCORE_SER_CHANNELS", 6);
    const double noise = ch::noise_var_for_snr_db(22.0);
    flexcore::parallel::ThreadPool pool(2);

    const fa::DetectorConfig dcfg{.constellation = &qam};
    const auto det64 =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-128", dcfg);
    const auto det16 =
        fa::make_detector_as<fc::FlexCoreDetector>("flexcore-128:i16", dcfg);
    det64->set_thread_pool(&pool);
    det16->set_thread_pool(&pool);

    std::size_t symbols = 0, err64 = 0, err16 = 0;
    ch::Rng rng(4242);
    std::vector<std::vector<int>> tx(nvec, std::vector<int>(nt));
    std::vector<fl::CVec> ys(nvec, fl::CVec(nt));
    fl::CVec s(nt);
    fd::BatchResult out64, out16;
    for (std::size_t cidx = 0; cidx < channels; ++cidx) {
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      det64->set_channel(h, noise);
      det16->set_channel(h, noise);
      for (std::size_t v = 0; v < nvec; ++v) {
        for (std::size_t u = 0; u < nt; ++u) {
          tx[v][u] = static_cast<int>(
              rng.uniform_int(static_cast<std::uint64_t>(qam.order())));
          s[u] = qam.point(tx[v][u]);
        }
        ys[v] = ch::transmit(h, s, noise, rng);
      }
      det64->detect_batch(ys, &out64);
      det16->detect_batch(ys, &out16);
      for (std::size_t v = 0; v < nvec; ++v) {
        for (std::size_t u = 0; u < nt; ++u) {
          ++symbols;
          if (out64.results[v].symbols[u] != tx[v][u]) ++err64;
          if (out16.results[v].symbols[u] != tx[v][u]) ++err16;
        }
      }
    }
    const double ser64 = static_cast<double>(err64) / static_cast<double>(symbols);
    const double ser16 = static_cast<double>(err16) / static_cast<double>(symbols);
    ser_gap = ser16 - ser64;
    std::printf("\nSER (12x12, 64-QAM, 22 dB, %zu symbols): fp64 %.5f, "
                "i16 %.5f, gap %+.5f (tolerance %.3f)\n",
                symbols, ser64, ser16, ser_gap, fd::kI16SerTolerance);
    json.row()
        .field("detector", "flexcore-128")
        .field("mimo", nt)
        .field("qam", 64)
        .field("kernel", "ser")
        .field("precision", "fp64")
        .field("snr_db", 22.0)
        .field("ser", ser64);
    json.row()
        .field("detector", "flexcore-128")
        .field("mimo", nt)
        .field("qam", 64)
        .field("kernel", "ser")
        .field("precision", "i16")
        .field("snr_db", 22.0)
        .field("ser", ser16)
        .field("ser_gap_vs_fp64", ser_gap);
  }

  json.write();
  bool fail = false;
  if (!gate_seen || !gate_ok) {
    std::fprintf(stderr,
                 "\nFAIL: fp64 block kernel below the %.1fx speedup gate at "
                 "12x12/64-QAM\n",
                 kSpeedupGate);
    fail = true;
  }
  if (!i16_gates_ok) fail = true;
  if (ser_gap > fd::kI16SerTolerance) {
    std::fprintf(stderr,
                 "\nFAIL: i16 SER gap %+.5f above tolerance %.3f\n", ser_gap,
                 fd::kI16SerTolerance);
    fail = true;
  }
  if (fail) return 1;
  std::printf("\nPASS: fp64 block >= %.1fx at 12x12; i16 block < fp32 at "
              "12x12/16x16, >= %.1fx at 16x16; i16 SER gap within %.3f\n",
              kSpeedupGate, kI16Gate, fd::kI16SerTolerance);
  return 0;
}
