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
//     lane-parallel), in the fp64 tier (bit-identical) and the int16
//     quantized tier (":i16", 16 lanes per block, LUT-compiled slicing —
//     the paper's Table 3 fixed-point datapath).
//
// Report-only rows (no gate) time the serving benchmark's two shapes:
// coherent-12x12's flexcore-64 at 12x12 / 64-QAM / 18 dB, and
// massive-64x8-sharded's flexcore-32 on a 64x8 channel at 16-QAM / -2 dB
// (8 levels).
//
// Report-only "mgs" rows time the MGS lane kernel (linalg/qr_kernel.inc)
// at the factorizations a fresh channel costs — the tolerant QR of a
// 32x8 shard cluster, and the sorted QR FlexCore's set_channel runs on
// massive-64x8-sharded's 16x8 merged stack and on coherent-12x12's 12x12
// channels — against the column-at-a-time MGS of tests/reference_qr.h.
//
// Report-only "trie" rows time one subcarrier's group of 7 vectors under
// the block scan and the trie walk at massive-64x8-sharded's merged 16x8
// (flexcore-32 and a-flexcore-32) and at coherent-12x12's 12x12: ns per
// (vector, path), the node's cost in block-levels (the source of
// PathPlan::kTrieNodeCost), the estimate's verdict and the faster kernel.
// A trie verdict that differs from the block scan's fails the run.
//
// Emits BENCH_kernels.json and EXITS NON-ZERO when any gate fails:
//   * fp64 block >= 1.5x over the scalar loop at 12x12 / 64-QAM;
//   * i16 block faster than the fp64 block at 12x12 and 16x16;
//   * i16 block >= 1.4x over the fp64 scalar loop at 16x16;
//   * end-to-end 64-QAM SER of the i16 tier within
//     detect::kI16SerTolerance of the fp64 tier.
// The exit status is a bit set, so a caller can tell the gates apart:
// bit 1 (kFailI16VsFp64) for the i16-vs-fp64 block gate alone, bit 0
// (kFailGates) for any other gate or a diverged checksum (the run stops
// there).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "api/detector_registry.h"
#include "bench_json.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "detect/path_grid.h"
#include "detect/path_kernels.h"
#include "linalg/kernel_isa.h"
#include "linalg/qr.h"
#include "parallel/thread_pool.h"
#include "reference_qr.h"
#include "reference_walk.h"
#include "shard/partial_qr.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fb = flexcore::bench;
namespace fl = flexcore::linalg;
namespace fr = flexcore::testref;
namespace fsh = flexcore::shard;
using flexcore::modulation::Constellation;

namespace {

constexpr int kFailGates = 1;
constexpr int kFailI16VsFp64 = 2;

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

/// One scalar + one block row per tier for a (detector, MIMO size) sweep
/// point — the single place that defines the BENCH_kernels.json
/// timing-row schema.  A null `blk16` leaves out the i16 row (the FCSD
/// has no i16 tier).  `flops_per_path` is the plan's Table 2 count of one
/// walk (PathPlan::walk_stats), the same work in every tier, so `gflops`
/// is the work rate each kernel achieves on it; `isa` is the dispatched
/// kernel copy (detect::kernel_isa) the block rows ran.
void emit_rows(fb::BenchJson& json, const char* detector, std::size_t mimo,
               int qam, std::size_t paths, double flops_per_path,
               const Timing& scalar, const Timing& blk64, const Timing* blk16) {
  const struct {
    const char* kernel;
    const char* precision;
    double ns;
  } rows[] = {{"scalar", "fp64", scalar.ns_per_path},
              {"block", "fp64", blk64.ns_per_path},
              {"block", "i16", blk16 ? blk16->ns_per_path : 0.0}};
  for (const auto& r : std::span(rows, blk16 ? 3 : 2)) {
    json.row()
        .field("detector", detector)
        .field("mimo", mimo)
        .field("qam", qam)
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

/// One FlexCore sweep point: the scalar reference walk and the fp64 and
/// i16 block scans of `spec` on one channel, with the checksum sanity
/// checks.  Returns false (after printing why) when a checksum diverges.
struct SweepPoint {
  std::size_t paths = 0;
  double flops = 0.0;  ///< Table 2 flops of one walk
  Timing scalar, blk64, blk16;
};

bool sweep_point(const char* spec, const Constellation& qam, std::size_t nr,
                 std::size_t nt, double snr_db, std::uint64_t seed,
                 std::size_t nvec, int reps, SweepPoint* pt) {
  ch::Rng rng(seed);
  const auto h = ch::rayleigh_iid(nr, nt, rng);
  const double noise = ch::noise_var_for_snr_db(snr_db);

  const fa::DetectorConfig dcfg{.constellation = &qam};
  const std::string base = spec;
  const auto det64 = fa::make_detector_as<fc::FlexCoreDetector>(base, dcfg);
  det64->set_channel(h, noise);
  const auto det16 =
      fa::make_detector_as<fc::FlexCoreDetector>(base + ":i16", dcfg);
  det16->set_channel(h, noise);
  const std::size_t paths = det64->active_paths();
  const auto ybars = rotated_batch(*det64, h, qam, noise, nvec, rng);
  const std::size_t walks = nvec * paths;

  const fr::FlexCoreReference ref64(*det64);
  pt->paths = paths;
  pt->flops = static_cast<double>(det64->plan().walk_stats(1).flops);
  pt->scalar = time_kernel(walks, reps,
                           [&] { return scan_scalar(ref64, ybars, paths); });
  pt->blk64 = time_kernel(walks, reps,
                          [&] { return scan_block(*det64, ybars, paths); });
  pt->blk16 = time_kernel(walks, reps,
                          [&] { return scan_block(*det16, ybars, paths); });
  // A sanity check of the timed scans only: tests/kernel_test.cpp proves
  // the plan bitwise equal to the reference walk in every ISA copy.
  const double want = pt->scalar.checksum;
  if (std::fabs(pt->blk64.checksum - want) > 1e-9 * std::fabs(want)) {
    std::fprintf(stderr,
                 "FAIL: fp64 block checksum %.17g vs scalar %.17g, %s at "
                 "%zux%zu\n",
                 pt->blk64.checksum, want, spec, nr, nt);
    return false;
  }
  // The quantized checksum only sanity-checks magnitude (its metrics are
  // rounded): it must be finite and in the ballpark of the exact sum.
  if (!std::isfinite(pt->blk16.checksum) ||
      std::fabs(pt->blk16.checksum - want) > 0.25 * std::fabs(want) + 1.0) {
    std::fprintf(stderr,
                 "FAIL: i16 block checksum %.17g vs scalar %.17g, %s at "
                 "%zux%zu\n",
                 pt->blk16.checksum, want, spec, nr, nt);
    return false;
  }
  return true;
}

/// Best-of-`rounds` wall clock of `factor` over every matrix of `mats`,
/// per factorization.
template <typename Factor>
double ns_per_factorization(const std::vector<fl::CMat>& mats, int rounds,
                            Factor&& factor) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const fl::CMat& h : mats) factor(h);
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best * 1e9 / static_cast<double>(mats.size());
}

/// The "mgs" rows: the dispatched MGS kernel copy against the column
/// reference at the fresh-channel shapes.
void mgs_rows(fb::BenchJson& json, int reps) {
  struct Shape {
    const char* form;
    std::size_t nr, nt;
  };
  const Shape shapes[] = {{"tolerant", 32, 8}, {"sorted", 16, 8},
                          {"sorted", 12, 12}};
  const int rounds = 40 * std::max(reps, 1);
  std::printf("\nMGS core, ns per factorization (kernel copy %s): lanes vs "
              "column reference\n",
              fl::kernel_isa());
  for (const Shape& sh : shapes) {
    ch::Rng rng(1700 + sh.nr * 100 + sh.nt);
    std::vector<fl::CMat> mats;
    for (int m = 0; m < 64; ++m) {
      mats.push_back(ch::rayleigh_iid(sh.nr, sh.nt, rng));
    }
    const bool tolerant = std::string(sh.form) == "tolerant";
    fl::QrResult out;
    fl::CMat q, r;
    const double lanes =
        ns_per_factorization(mats, rounds, [&](const fl::CMat& h) {
          if (tolerant) {
            fl::qr_mgs_tolerant_into(h, &q, &r);
          } else {
            fl::sorted_qr_wubben_into(h, &out);
          }
        });
    const double reference =
        ns_per_factorization(mats, rounds, [&](const fl::CMat& h) {
          out = tolerant ? fr::qr_mgs_by_columns(h, /*tolerant=*/true)
                         : fr::sorted_qr_wubben_by_columns(h);
        });
    std::printf("%-8s %2zux%-2zu  %8.1f vs %8.1f  (%.2fx)\n", sh.form, sh.nr,
                sh.nt, lanes, reference, reference / lanes);
    json.row()
        .field("kernel", "mgs")
        .field("form", sh.form)
        .field("rows", sh.nr)
        .field("cols", sh.nt)
        .field("isa", fl::kernel_isa())
        .field("ns_per_factorization", lanes)
        .field("reference_ns_per_factorization", reference)
        .field("speedup_vs_reference", reference / lanes);
  }
}

/// The merged 16x8 channel massive-64x8-sharded's detectors see: a 64x8
/// channel behind two antenna clusters' partial QRs.
fl::CMat merged_massive_channel(ch::Rng& rng) {
  const auto h = ch::rayleigh_iid(64, 8, rng);
  std::vector<fsh::PartialQr> partials;
  for (const fsh::RowRange range : fsh::plan_shards(64, 2)) {
    partials.push_back(
        fsh::compute_partial(h.row_range(range.begin, range.count)));
  }
  return fsh::stack_partials(partials);
}

/// The "trie" rows: one subcarrier's group of 7 rotated vectors (the
/// serving benchmark's symbols per subcarrier) scanned by the block scan
/// (detect::scan_paths per vector) and by the trie walk
/// (PathPlan::scan_trie), over
/// 16 channels of each serving shape.  ns per (vector, path) for both,
/// the node's measured cost in block-levels (the source of
/// PathPlan::kTrieNodeCost), the estimate's verdict (its trie share over
/// the channels) and the faster measured kernel.  Returns false when the
/// two kernels' verdicts differ (printing why).
bool trie_rows(fb::BenchJson& json, int reps) {
  struct Shape {
    const char* name;
    const char* spec;
    int qam;
    double snr_db;
    bool merged;  ///< massive's merged 16x8, else a 12x12 channel
  };
  const Shape shapes[] = {{"massive", "flexcore-32", 16, -2.0, true},
                          {"coherent", "flexcore-64", 64, 18.0, false},
                          {"massive", "a-flexcore-32", 16, -2.0, true}};
  constexpr std::size_t kGroup = 7;
  constexpr int kChannels = 16;
  const int rounds = 20 * std::max(reps, 1);
  std::printf("\ntrie walk vs block scan, %zu vectors per subcarrier, %d "
              "channels (kernel copy %s): ns per (vector, path), node cost "
              "in block-levels, estimate vs faster\n",
              kGroup, kChannels, fd::kernel_isa());
  for (const Shape& sh : shapes) {
    const Constellation c(sh.qam);
    ch::Rng rng(1717);
    const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        sh.spec, {.constellation = &c});
    const double nv = ch::noise_var_for_snr_db(sh.snr_db);
    double block_ns = 0.0, trie_ns = 0.0, walks = 0.0, nodes = 0.0;
    double block_levels = 0.0;
    int trie_verdicts = 0;
    for (int k = 0; k < kChannels; ++k) {
      const fl::CMat h = sh.merged ? merged_massive_channel(rng)
                                   : ch::rayleigh_iid(12, 12, rng);
      det->set_channel(h, nv);
      const std::size_t nt = h.cols();
      const std::size_t paths = det->active_paths();
      const std::vector<fl::CVec> group =
          rotated_batch(*det, h, c, nv, kGroup, rng);
      fl::CVec ybars;
      for (const fl::CVec& y : group) {
        ybars.insert(ybars.end(), y.begin(), y.end());
      }
      std::size_t bp[kGroup], tp[kGroup];
      double bm[kGroup], tm[kGroup];
      const auto time = [&](auto&& scan) {
        double best = 1e300;
        for (int r = 0; r < rounds; ++r) {
          const auto t0 = std::chrono::steady_clock::now();
          scan();
          best = std::min(best, std::chrono::duration<double, std::nano>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
        }
        return best;
      };
      block_ns += time([&] {
        for (std::size_t v = 0; v < kGroup; ++v) {
          const std::span<const fl::cplx> ybar(ybars.data() + v * nt, nt);
          fd::scan_paths(*det, ybar, paths, &bp[v], &bm[v]);
        }
      });
      trie_ns += time([&] { det->plan().scan_trie(ybars, tp, tm); });
      for (std::size_t v = 0; v < kGroup; ++v) {
        if (bp[v] != tp[v] ||
            std::memcmp(&bm[v], &tm[v], sizeof(double)) != 0) {
          std::fprintf(stderr,
                       "FAIL: trie verdict (%zu, %.17g) != block scan (%zu, "
                       "%.17g), %s %s channel %d vector %zu\n",
                       tp[v], tm[v], bp[v], bm[v], sh.name, sh.spec, k, v);
          return false;
        }
      }
      walks += static_cast<double>(kGroup * paths);
      nodes += static_cast<double>(det->plan().trie_nodes());
      block_levels += static_cast<double>(kGroup * ((paths + 7) / 8) * nt);
      trie_verdicts += det->plan().trie_wins(kGroup);
    }
    const double node_cost = (trie_ns / nodes) / (block_ns / block_levels);
    const double share = static_cast<double>(trie_verdicts) / kChannels;
    const char* estimate = 2 * trie_verdicts > kChannels ? "trie" : "block";
    const char* faster = trie_ns < block_ns ? "trie" : "block";
    std::printf("%-8s %-13s block %6.2f, trie %6.2f ns/path (%.2fx), %5.1f "
                "nodes, node = %.2f block-levels; estimate %s (share %.2f), "
                "faster %s\n",
                sh.name, sh.spec, block_ns / walks, trie_ns / walks,
                block_ns / trie_ns, nodes / kChannels, node_cost, estimate,
                share, faster);
    json.row()
        .field("kernel", "trie")
        .field("shape", sh.name)
        .field("detector", sh.spec)
        .field("qam", sh.qam)
        .field("vectors", kGroup)
        .field("isa", fd::kernel_isa())
        .field("block_ns_per_path", block_ns / walks)
        .field("trie_ns_per_path", trie_ns / walks)
        .field("speedup_vs_block", block_ns / trie_ns)
        .field("trie_nodes", nodes / kChannels)
        .field("node_cost_block_levels", node_cost)
        .field("node_cost_weight", fd::PathPlan::kTrieNodeCost)
        .field("estimate", estimate)
        .field("estimate_trie_share", share)
        .field("faster", faster);
  }
  return true;
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
  std::printf("%-6s %-8s %-15s %-12s %-12s %-12s %-11s %-10s\n", "MIMO",
              "paths", "scalar ns/path", "block fp64", "block i16", "speedup",
              "flops/path", "fp64 GFLOP/s");
  fb::rule();

  bool gate_seen = false;
  bool gate_ok = false;
  bool i16_scalar_ok = true;
  bool i16_vs_fp64_ok = true;
  for (std::size_t nt : {4u, 8u, 12u, 16u}) {
    SweepPoint pt;
    if (!sweep_point("flexcore-128", qam, nt, nt, 18.0, 900 + nt, nvec, reps,
                     &pt)) {
      return kFailGates;
    }
    const double speedup64 = pt.scalar.ns_per_path / pt.blk64.ns_per_path;
    const double speedup16 = pt.scalar.ns_per_path / pt.blk16.ns_per_path;
    char speedups[32];
    std::snprintf(speedups, sizeof speedups, "%.2fx/%.2fx", speedup64,
                  speedup16);
    std::printf("%zux%-4zu %-8zu %-15.2f %-12.2f %-12.2f %-12s %-11.0f "
                "%.2f\n",
                nt, nt, pt.paths, pt.scalar.ns_per_path, pt.blk64.ns_per_path,
                pt.blk16.ns_per_path, speedups, pt.flops,
                pt.flops / pt.blk64.ns_per_path);
    emit_rows(json, "flexcore-128", nt, 64, pt.paths, pt.flops, pt.scalar,
              pt.blk64, &pt.blk16);

    if (nt == 12) {
      gate_seen = true;
      gate_ok = speedup64 >= kSpeedupGate;
    }
    // i16 gates: faster than the fp64 block at the large sizes, and
    // >= kI16Gate over the fp64 scalar loop at 16x16.
    if (nt == 12 || nt == 16) {
      if (pt.blk16.ns_per_path >= pt.blk64.ns_per_path) {
        std::fprintf(stderr,
                     "FAIL: i16 block (%.2f ns) not faster than the fp64 "
                     "block (%.2f ns) at %zux%zu\n",
                     pt.blk16.ns_per_path, pt.blk64.ns_per_path, nt, nt);
        i16_vs_fp64_ok = false;
      }
    }
    if (nt == 16 && speedup16 < kI16Gate) {
      std::fprintf(stderr,
                   "FAIL: i16 block %.2fx below the %.1fx gate over the "
                   "fp64 scalar loop at 16x16\n",
                   speedup16, kI16Gate);
      i16_scalar_ok = false;
    }
  }

  // Serving-shape rows, report only: the path sets the serving
  // benchmark's coherent and massive workloads run.
  {
    struct Serving {
      const char* spec;
      int qam;
      std::size_t nr, nt;
      double snr_db;
      std::uint64_t seed;
    };
    const Serving shapes[] = {{"flexcore-64", 64, 12, 12, 18.0, 1812},
                              {"flexcore-32", 16, 64, 8, -2.0, 6408}};
    std::printf("\nserving shapes (report only): ns/path scalar, block "
                "fp64 / i16\n");
    for (const Serving& sv : shapes) {
      const Constellation c(sv.qam);
      SweepPoint pt;
      if (!sweep_point(sv.spec, c, sv.nr, sv.nt, sv.snr_db, sv.seed, nvec,
                       reps, &pt)) {
        return kFailGates;
      }
      std::printf("%-12s %zux%zu %3d-QAM %+5.1f dB, %3zu paths: %.2f, "
                  "%.2f / %.2f\n",
                  sv.spec, sv.nr, sv.nt, sv.qam, sv.snr_db, pt.paths,
                  pt.scalar.ns_per_path, pt.blk64.ns_per_path,
                  pt.blk16.ns_per_path);
      emit_rows(json, sv.spec, sv.nt, sv.qam, pt.paths, pt.flops, pt.scalar,
                pt.blk64, &pt.blk16);
    }
  }

  // FCSD context rows: the same engine accelerates the competitor too
  // (both graphs run the identical grid infrastructure, the paper's
  // fairness methodology), in fp64, its only tier.
  {
    const std::size_t nt = 12;
    ch::Rng rng(77);
    const auto h = ch::rayleigh_iid(nt, nt, rng);
    const double noise = ch::noise_var_for_snr_db(18.0);
    fd::FcsdDetector fcsd64(qam, 1);
    fcsd64.set_channel(h, noise);
    const std::size_t paths = fcsd64.num_paths();

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
    const double flops =
        static_cast<double>(fcsd64.plan().walk_stats(1).flops);
    std::printf("\nfcsd-L1 12x12: scalar %.2f ns/path, block fp64 %.2f "
                "(%.2fx, %.0f flops/path, %.2f GFLOP/s)\n",
                scalar.ns_per_path, blk64.ns_per_path,
                scalar.ns_per_path / blk64.ns_per_path, flops,
                flops / blk64.ns_per_path);
    emit_rows(json, "fcsd-L1", nt, 64, paths, flops, scalar, blk64,
              nullptr);
  }

  mgs_rows(json, reps);
  if (!trie_rows(json, reps)) return kFailGates;

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
    const double ser64 =
        static_cast<double>(err64) / static_cast<double>(symbols);
    const double ser16 =
        static_cast<double>(err16) / static_cast<double>(symbols);
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
  int status = 0;
  if (!gate_seen || !gate_ok) {
    std::fprintf(stderr,
                 "\nFAIL: fp64 block kernel below the %.1fx speedup gate at "
                 "12x12/64-QAM\n",
                 kSpeedupGate);
    status |= kFailGates;
  }
  if (!i16_scalar_ok) status |= kFailGates;
  if (ser_gap > fd::kI16SerTolerance) {
    std::fprintf(stderr,
                 "\nFAIL: i16 SER gap %+.5f above tolerance %.3f\n", ser_gap,
                 fd::kI16SerTolerance);
    status |= kFailGates;
  }
  if (!i16_vs_fp64_ok) status |= kFailI16VsFp64;
  if (status != 0) return status;
  std::printf("\nPASS: fp64 block >= %.1fx at 12x12; i16 block < fp64 block "
              "at 12x12/16x16, >= %.1fx at 16x16; i16 SER gap within %.3f\n",
              kSpeedupGate, kI16Gate, fd::kI16SerTolerance);
  return 0;
}
