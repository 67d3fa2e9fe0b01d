// Tests for the lane-parallel path-kernel engine (detect/path_kernels.h):
// the exact fp64 plan (block walk, single-path walk, SIC walk) bit-identical
// to the scalar reference walks of tests/reference_walk.h across detector
// families x ordering modes x constellations x MIMO sizes, the reduced
// tiers within their documented SER tolerances, the i16 tier's exact
// rescue, and the precision spec grammar round-tripping through the
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/detector_registry.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "detect/path_kernels.h"
#include "parallel/thread_pool.h"
#include "obs/obs.h"
#include "perfmodel/fixed_point.h"
#include "reference_walk.h"
#include "sim/frame_synth.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fs = flexcore::sim;
namespace fl = flexcore::linalg;
namespace fr = flexcore::testref;
using flexcore::modulation::Constellation;

namespace {

/// Documented fp32 tolerance: the single-precision tier may move the
/// measured SER by at most this much (absolute) relative to fp64 on a
/// Rayleigh sweep at operating SNRs.  In practice the gap is orders of
/// magnitude smaller — fp32 keeps ~7 significant digits and the metric
/// margins between winning and runner-up paths are far coarser.
constexpr double kFp32SerTolerance = 5e-3;

fl::CVec random_y(const fl::CMat& h, const Constellation& c, double nv,
                  ch::Rng& rng) {
  fl::CVec s(h.cols());
  for (auto& z : s) {
    z = c.point(static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(c.order()))));
  }
  return ch::transmit(h, s, nv, rng);
}

/// Asserts the exact plan reproduces the scalar reference walk bit for bit
/// over every path of one rotated vector: the block metrics, and the
/// single-path walk's metric and symbols.  Also pins the closed-form
/// walk_stats to the reference's instrumented count of a full walk.
/// Returns the number of deactivated paths.
template <typename Ref>
std::size_t expect_plan_matches_reference(const fd::PathPlan& plan,
                                          const Ref& ref, std::size_t paths,
                                          const fl::CVec& ybar,
                                          const std::string& what) {
  std::vector<double> blk(paths);
  plan.path_metric_block(ybar, 0, paths, blk.data());
  std::vector<int> symbols(ybar.size());
  const fd::DetectionStats full = plan.walk_stats(1);
  std::size_t dead = 0;
  for (std::size_t p = 0; p < paths; ++p) {
    const fr::PathEval ev = ref.evaluate_path(ybar, p);
    const double want =
        ev.valid ? ev.metric : std::numeric_limits<double>::infinity();
    EXPECT_EQ(ref.path_metric(ybar, p), want) << what << " path " << p;
    EXPECT_EQ(blk[p], want) << what << " path " << p;
    EXPECT_EQ(plan.walk_path(ybar, p, symbols), want) << what << " path " << p;
    if (ev.valid) {
      EXPECT_EQ(symbols, ev.symbols) << what << " path " << p;
      EXPECT_EQ(ev.stats.real_mults, full.real_mults) << what;
      EXPECT_EQ(ev.stats.flops, full.flops) << what;
      EXPECT_EQ(ev.stats.nodes_visited, full.nodes_visited) << what;
    }
    dead += !ev.valid;
  }
  return dead;
}

// ----------------------------------------------------- fp64 bit-identity

TEST(KernelEquivalence, FlexCorePlanMatchesReference) {
  // Every FlexCore walk mode: the triangle LUT with deactivation (the
  // block fast path), the LUT with skip-to-valid and the exhaustive sort
  // (the per-lane ablation modes), for plain and adaptive FlexCore.
  struct Mode {
    const char* name;
    fc::OrderingMode ordering;
    fc::InvalidEntryPolicy policy;
  };
  const Mode modes[] = {
      {"lut", fc::OrderingMode::kLut, fc::InvalidEntryPolicy::kDeactivate},
      {"skip", fc::OrderingMode::kLut, fc::InvalidEntryPolicy::kSkipToValid},
      {"exact", fc::OrderingMode::kExactSort,
       fc::InvalidEntryPolicy::kDeactivate},
  };
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    for (std::size_t nt : {2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
      ch::Rng rng(100 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const double nv = ch::noise_var_for_snr_db(15.0);
      for (const Mode& mode : modes) {
        fa::DetectorConfig cfg{.constellation = &c};
        cfg.flexcore.ordering = mode.ordering;
        cfg.flexcore.invalid_policy = mode.policy;
        for (const char* family : {"flexcore-24", "a-flexcore-24"}) {
          const auto det =
              fa::make_detector_as<fc::FlexCoreDetector>(family, cfg);
          ASSERT_EQ(det->config().invalid_policy, mode.policy);
          det->set_channel(h, nv);
          const fr::FlexCoreReference ref(*det);
          const std::string what = std::string(family) + "/" + mode.name +
                                   " qam=" + std::to_string(qam) +
                                   " nt=" + std::to_string(nt);
          for (int rep = 0; rep < 3; ++rep) {
            const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
            expect_plan_matches_reference(det->plan(), ref,
                                          det->active_paths(), ybar, what);
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, FcsdPlanMatchesReference) {
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    for (std::size_t nt : {2u, 4u, 8u, 12u, 16u}) {
      ch::Rng rng(999 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const double nv = ch::noise_var_for_snr_db(15.0);
      for (std::size_t levels : {1u, 2u}) {
        fd::FcsdDetector det(c, levels);
        det.set_channel(h, nv);
        const fr::FcsdReference ref(det, c);
        const std::string what = "fcsd-L" + std::to_string(levels) +
                                 " qam=" + std::to_string(qam) +
                                 " nt=" + std::to_string(nt);
        for (int rep = 0; rep < 2; ++rep) {
          const fl::CVec ybar = det.rotate(random_y(h, c, nv, rng));
          expect_plan_matches_reference(det.plan(), ref, det.num_paths(),
                                        ybar, what);
        }
      }
    }
  }
}

TEST(KernelEquivalence, SicWalkMatchesReference) {
  // The clamped rank-1 walk is plain SIC, at operating noise and at noise
  // brutal enough that nearly every slice lands outside the grid.
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    for (std::size_t nt : {2u, 4u, 8u, 12u, 16u}) {
      ch::Rng rng(31 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
          "flexcore-4", {.constellation = &c});
      for (double nv : {ch::noise_var_for_snr_db(15.0), 4.0}) {
        det->set_channel(h, nv);
        const fr::FlexCoreReference ref(*det);
        std::vector<int> symbols(nt);
        for (int rep = 0; rep < 4; ++rep) {
          const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
          const fr::PathEval want = ref.sic(ybar);
          EXPECT_EQ(det->plan().walk_sic(ybar, symbols), want.metric)
              << "qam=" << qam << " nt=" << nt << " nv=" << nv;
          EXPECT_EQ(symbols, want.symbols)
              << "qam=" << qam << " nt=" << nt << " nv=" << nv;
        }
      }
    }
  }
}

TEST(KernelEquivalence, DeactivatedPathsMatchReference) {
  // Brutal noise pushes effective points far outside the constellation, so
  // LUT entries deactivate; the plan must report exactly the reference's
  // +infinity verdicts.
  Constellation c(64);
  ch::Rng rng(7);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const double nv = 4.0;
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &c});
  det->set_channel(h, nv);
  const fr::FlexCoreReference ref(*det);

  std::size_t saw_inf = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
    saw_inf += expect_plan_matches_reference(
        det->plan(), ref, det->active_paths(), ybar, "flexcore-32");
  }
  EXPECT_GT(saw_inf, 0u)
      << "scenario no longer deactivates any PE; raise the noise";
}

TEST(KernelEquivalence, MisalignedBlockRangesMatch) {
  // path_metric_block accepts any (first, n) range, not just whole blocks.
  Constellation c(16);
  ch::Rng rng(13);
  const auto h = ch::rayleigh_iid(6, 6, rng);
  const double nv = ch::noise_var_for_snr_db(14.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-29", {.constellation = &c});
  det->set_channel(h, nv);
  const std::size_t paths = det->active_paths();
  ASSERT_GT(paths, 11u);
  const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));

  std::vector<double> all(paths);
  det->path_metric_block(ybar, 0, paths, all.data());
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {3, 5}, {7, 9}, {paths - 3, 3}, {1, paths - 1}};
  for (const auto& [first, n] : ranges) {
    std::vector<double> part(n);
    det->path_metric_block(ybar, first, n, part.data());
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(part[k], all[first + k]) << "first=" << first << " k=" << k;
    }
  }
}

// ----------------------------------------------------- fp32 compute tier

TEST(KernelPrecision, Fp32SerWithinToleranceOnSweep) {
  // fig12-style sweep: Rayleigh channels, 8 users, 64-QAM, across the
  // operating SNR range; the fp32 tier's SER may not exceed fp64's by more
  // than the documented tolerance.
  Constellation c(64);
  const std::size_t nt = 8, nsc = 24, nv = 8;

  for (double snr_db : {16.0, 20.0, 24.0}) {
    const double noise = ch::noise_var_for_snr_db(snr_db);
    const fs::SynthFrame fr = fs::synth_frame(
        c, nsc, nv, nt, nt, noise, 5000 + static_cast<std::uint64_t>(snr_db));

    fa::PipelineConfig c64;
    c64.detector = "flexcore-64";
    c64.qam_order = 64;
    c64.threads = 2;
    fa::UplinkPipeline p64(c64);

    fa::PipelineConfig c32 = c64;
    c32.precision = fd::Precision::kFloat32;
    fa::UplinkPipeline p32(c32);

    const auto r64 = p64.detect_frame(fs::frame_job_of(fr, noise));
    const auto r32 = p32.detect_frame(fs::frame_job_of(fr, noise));
    const double symbols = static_cast<double>(nsc * nv * nt);
    const double ser64 =
        static_cast<double>(fs::count_symbol_errors(fr, r64.results)) / symbols;
    const double ser32 =
        static_cast<double>(fs::count_symbol_errors(fr, r32.results)) / symbols;
    EXPECT_LE(ser32, ser64 + kFp32SerTolerance)
        << "snr=" << snr_db << " ser64=" << ser64 << " ser32=" << ser32;
  }
}

// ------------------------------------------------------- spec grammar

TEST(KernelSpecs, PrecisionSuffixRoundTripsThroughRegistry) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  for (const char* spec :
       {"flexcore-16:fp32", "a-flexcore-8:fp32", "fcsd-L1:fp32"}) {
    const auto det = fa::make_detector(spec, cfg);
    EXPECT_EQ(det->name(), spec);
    // name() round-trips: constructing from the reported name reproduces
    // the same detector spelling.
    EXPECT_EQ(fa::make_detector(det->name(), cfg)->name(), det->name());
  }
  // ":fp64" is accepted and normalizes to the suffix-free spelling.
  EXPECT_EQ(fa::make_detector("flexcore-16:fp64", cfg)->name(),
            "flexcore-16");
  // The config knob selects the tier without a suffix...
  fa::DetectorConfig fp32 = cfg;
  fp32.precision = fd::Precision::kFloat32;
  EXPECT_EQ(fa::make_detector("flexcore-16", fp32)->name(),
            "flexcore-16:fp32");
  // ...and an explicit suffix overrides the knob.
  EXPECT_EQ(fa::make_detector("flexcore-16:fp64", fp32)->name(),
            "flexcore-16");
  // Families without a reduced-precision tier reject the suffix.
  EXPECT_THROW(fa::make_detector("zf:fp32", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("kbest-8:fp32", cfg), std::invalid_argument);
}

// ----------------------------------------------------- int16 quantized tier

TEST(KernelI16, SlicerLutGoldenPattern) {
  // With R = I the effective point equals the incoming coordinate, so the
  // compiled per-level slicer LUT must reproduce the textbook rounded
  // slice a = round((eff/scale + side - 1) / 2) over the whole covered
  // grid: exact at cell centers, stable at +-0.7 half-cells (well over a
  // bucket away from every decision boundary), pad indices outside the
  // constellation, and the deactivating sentinel beyond the coverage.
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    const int side = c.side();
    fd::PathPlanI16 plan;
    plan.compile_fcsd(fl::CMat::identity(4), 1, c);
    for (std::size_t level = 0; level < 4; ++level) {
      // Value coverage is +-(side + kPamPad) * scale; the centers (and
      // their +-0.7 half-cell offsets) of a in [-2, side+1] all fall
      // strictly inside it for every square constellation.
      for (int a = -2; a <= side + 1; ++a) {
        const double center = (2.0 * a - (side - 1)) * c.scale();
        EXPECT_EQ(plan.slicer_center(level, center), a)
            << "qam=" << qam << " level=" << level << " a=" << a;
        for (double off : {-0.7, 0.7}) {
          EXPECT_EQ(plan.slicer_center(level, center + off * c.scale()), a)
              << "qam=" << qam << " level=" << level << " a=" << a
              << " off=" << off;
        }
      }
      EXPECT_EQ(plan.slicer_center(level, (side + 14) * c.scale()),
                fd::PathPlanI16::kSlicerInvalid);
      EXPECT_EQ(plan.slicer_center(level, -(side + 14) * c.scale()),
                fd::PathPlanI16::kSlicerInvalid);
    }
  }
}

TEST(KernelI16, QuantizationScalesRespectSharedFormat) {
  // The per-plan scales are channel-derived but the fractional resolution
  // is capped at the shared Q-format (perfmodel::I16Format) — the contract
  // that keeps the FPGA cost model and the shipped kernel in one format.
  Constellation c(64);
  ch::Rng rng(21);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32:i16", {.constellation = &c});
  det->set_channel(ch::rayleigh_iid(12, 12, rng),
                   ch::noise_var_for_snr_db(20.0));
  const fd::PathPlanI16& plan = det->plan_i16();
  EXPECT_LE(plan.frac_bits(), flexcore::perfmodel::I16Format::kFracBits);
  EXPECT_GE(plan.point_bits(), 1);
  EXPECT_GT(plan.frac_bits(), 0) << "well-conditioned Rayleigh channel";
}

TEST(KernelI16, MisalignedBlockRangesSelfConsistent) {
  // Any (first, n) range must reproduce the full scan's values exactly:
  // the kernel evaluates whole 16-lane blocks (fused pairs on aligned
  // 32-path ranges) and copies out the requested lanes, so solo blocks,
  // pair blocks and tails must agree bit-for-bit.
  Constellation c(64);
  ch::Rng rng(17);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const double nv = ch::noise_var_for_snr_db(16.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-77:i16", {.constellation = &c});
  det->set_channel(h, nv);
  const std::size_t paths = det->active_paths();
  ASSERT_GT(paths, 40u);
  const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));

  std::vector<double> all(paths);
  det->path_metric_block(ybar, 0, paths, all.data());
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 32},      {0, paths},    {5, 11},       {16, 16},
      {31, 2},      {32, 32},      {paths - 7, 7}, {1, paths - 1}};
  for (const auto& [first, n] : ranges) {
    std::vector<double> part(n);
    det->path_metric_block(ybar, first, n, part.data());
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(part[k], all[first + k]) << "first=" << first << " k=" << k;
    }
  }
}

TEST(KernelI16, SerWithinToleranceAcrossFamiliesAndQam) {
  // The documented accuracy contract of the quantized tier, swept across
  // detector families x constellations x MIMO sizes: end-to-end SER may
  // exceed the exact tier's by at most kI16SerTolerance per configuration
  // aggregate.  detect_batch over a pool routes detection through the
  // compiled plans (the sequential fallback walks paths in fp64).
  flexcore::parallel::ThreadPool pool(2);
  struct Sweep {
    const char* base;
    const char* i16;
    std::vector<std::size_t> nts;
  };
  const Sweep sweeps[] = {
      {"flexcore-32", "flexcore-32:i16", {2, 4, 8, 12, 16}},
      {"a-flexcore-32", "a-flexcore-32:i16", {2, 4, 8, 12}},
      {"fcsd-L1", "fcsd-L1:i16", {2, 4, 8}},
  };
  const std::pair<int, double> operating[] = {{4, 8.0}, {16, 14.0},
                                              {64, 20.0}};
  for (const Sweep& sw : sweeps) {
    for (const auto& [qam_order, snr_db] : operating) {
      Constellation c(qam_order);
      const fa::DetectorConfig cfg{.constellation = &c};
      const auto d64 = fa::make_detector(sw.base, cfg);
      const auto d16 = fa::make_detector(sw.i16, cfg);
      d64->set_thread_pool(&pool);
      d16->set_thread_pool(&pool);
      const double nv = ch::noise_var_for_snr_db(snr_db);

      std::size_t symbols = 0, err64 = 0, err16 = 0;
      ch::Rng rng(1000 + static_cast<std::uint64_t>(qam_order));
      fd::BatchResult out64, out16;
      for (const std::size_t nt : sw.nts) {
        const auto h = ch::rayleigh_iid(nt, nt, rng);
        d64->set_channel(h, nv);
        d16->set_channel(h, nv);
        std::vector<std::vector<int>> tx(8, std::vector<int>(nt));
        std::vector<fl::CVec> ys(8, fl::CVec(nt));
        fl::CVec s(nt);
        for (std::size_t v = 0; v < 8; ++v) {
          for (std::size_t u = 0; u < nt; ++u) {
            tx[v][u] = static_cast<int>(rng.uniform_int(
                static_cast<std::uint64_t>(qam_order)));
            s[u] = c.point(tx[v][u]);
          }
          ys[v] = ch::transmit(h, s, nv, rng);
        }
        d64->detect_batch(ys, &out64);
        d16->detect_batch(ys, &out16);
        for (std::size_t v = 0; v < 8; ++v) {
          for (std::size_t u = 0; u < nt; ++u) {
            ++symbols;
            err64 += out64.results[v].symbols[u] != tx[v][u];
            err16 += out16.results[v].symbols[u] != tx[v][u];
          }
        }
      }
      const double ser64 = static_cast<double>(err64) / static_cast<double>(symbols);
      const double ser16 = static_cast<double>(err16) / static_cast<double>(symbols);
      EXPECT_LE(ser16, ser64 + fd::kI16SerTolerance)
          << sw.i16 << " qam=" << qam_order << " ser64=" << ser64
          << " ser16=" << ser16;
    }
  }
}

TEST(KernelI16, MetricsBitIdenticalAcrossRepeatsAndGolden) {
  // The tier is pure-integer end-to-end, so its metrics are bit-identical
  // across runs, builds and ISAs.  The FNV hash below pins the exact bit
  // patterns of one fixed scenario: CI runs this suite both with the
  // native dispatch and with FLEXCORE_I16_ISA=base, so a divergence
  // between any per-ISA kernel copy and the portable fallback — or any
  // unintended change to the quantized datapath — fails here.
  Constellation c(64);
  ch::Rng rng(90);
  const auto h = ch::rayleigh_iid(12, 12, rng);
  const double nv = ch::noise_var_for_snr_db(18.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-64:i16", {.constellation = &c});
  det->set_channel(h, nv);
  const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));

  auto hash_metrics = [&]() {
    std::vector<double> m(det->active_paths());
    det->path_metric_block(ybar, 0, m.size(), m.data());
    std::uint64_t fnv = 1469598103934665603ull;
    for (const double v : m) {
      // +inf (deactivated) hashes via its bit pattern like any value.
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof v);
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 64; b += 8) {
        fnv = (fnv ^ ((bits >> b) & 0xFF)) * 1099511628211ull;
      }
    }
    return fnv;
  };
  const std::uint64_t h1 = hash_metrics();
  EXPECT_EQ(h1, hash_metrics());
  EXPECT_EQ(h1, 0xe45c3940471ad014ull)
      << "i16 metric bit patterns changed: if intentional, re-pin the "
         "golden hash (std::printf(\"%llx\", h1))";
}

// Outside the KernelI16 suite on purpose: it compares against the scalar
// reference bit for bit, a guarantee stated at the portable default flags
// (the native-arch CI job runs KernelI16.* only).
TEST(KernelRescue, I16RescueIsReachedCountedAndExact) {
  // Near a cell boundary the quantized grid can crown a path the exact walk
  // deactivates, or deactivate every path the exact walk keeps.
  // reconstruct_winner rescues those vectors with an exact block scan,
  // counted by obs::Counter::kI16BoundaryRescans.  The rescue must be
  // reached, counted once per rescued vector, and decide exactly like the
  // reference: the exact argmin over all paths, or SIC when every path is
  // dead.
  Constellation c(64);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-64:i16", {.constellation = &c});
  const double nv = ch::noise_var_for_snr_db(18.0);
  const auto rescans = [] {
    return flexcore::obs::metrics_snapshot().counters[static_cast<std::size_t>(
        flexcore::obs::Counter::kI16BoundaryRescans)];
  };
  const std::uint64_t rescans0 = rescans();

  ch::Rng rng(12);
  std::size_t rescued = 0;
  fd::Workspace ws;
  std::vector<int> symbols(12);
  for (int channel = 0; channel < 8; ++channel) {
    const auto h = ch::rayleigh_iid(12, 12, rng);
    det->set_channel(h, nv);
    const fr::FlexCoreReference ref(*det);
    for (int v = 0; v < 256; ++v) {
      const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
      std::size_t best_path = 0;
      double best_metric = 0.0;
      fd::scan_paths(*det, ybar, det->active_paths(), &best_path,
                     &best_metric);  // the i16 grid's verdict
      fd::DetectionResult got;
      det->reconstruct_winner(ybar, best_path, best_metric, ws, &got);
      if (!std::isinf(best_metric) &&
          !std::isinf(det->plan().walk_path(ybar, best_path, symbols))) {
        continue;  // the exact walk confirms the grid's winner
      }
      ++rescued;
      SCOPED_TRACE("channel " + std::to_string(channel) + " vector " +
                   std::to_string(v));
      const fd::DetectionResult want = ref.detect(ybar);
      EXPECT_EQ(got.symbols, want.symbols);
      EXPECT_EQ(got.metric, want.metric);
    }
  }
  EXPECT_GT(rescued, 0u) << "scenario no longer reaches the i16 rescue";
  if (flexcore::obs::kLevel >= 1) {
    EXPECT_EQ(rescans() - rescans0, rescued);
  }
}

TEST(KernelI16, FootprintOrderingAcrossTiers) {
  // The storage story of the tier ladder: int16 SoA plans are smaller than
  // fp32 plans, which are smaller than fp64 plans, for the same channel.
  Constellation c(64);
  ch::Rng rng(33);
  const auto h = ch::rayleigh_iid(12, 12, rng);
  const double nv = ch::noise_var_for_snr_db(18.0);
  std::size_t bytes[3] = {0, 0, 0};
  const char* specs[3] = {"flexcore-128:i16", "flexcore-128:fp32",
                          "flexcore-128"};
  for (int t = 0; t < 3; ++t) {
    const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        specs[t], {.constellation = &c});
    det->set_channel(h, nv);
    bytes[t] = det->plan_footprint_bytes();
  }
  EXPECT_LT(bytes[0], bytes[1]) << "i16 plan must undercut fp32";
  EXPECT_LT(bytes[1], bytes[2]) << "fp32 plan must undercut fp64";
}

TEST(KernelI16, SpecGrammarRoundTripsAndRejects) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  for (const char* spec :
       {"flexcore-16:i16", "a-flexcore-8:i16", "fcsd-L1:i16"}) {
    const auto det = fa::make_detector(spec, cfg);
    EXPECT_EQ(det->name(), spec);
    EXPECT_EQ(fa::make_detector(det->name(), cfg)->name(), det->name());
  }
  // The config knob selects the tier without a suffix, and a suffix
  // overrides the knob.
  fa::DetectorConfig i16 = cfg;
  i16.precision = fd::Precision::kInt16;
  EXPECT_EQ(fa::make_detector("flexcore-16", i16)->name(),
            "flexcore-16:i16");
  EXPECT_EQ(fa::make_detector("flexcore-16:fp64", i16)->name(),
            "flexcore-16");
  // Detectors without block kernels reject the tier like any unknown spec.
  EXPECT_THROW(fa::make_detector("zf:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("kbest-8:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("ml-sd:i16", cfg), std::invalid_argument);
  // The tier is discoverable: list_specs() surfaces an :i16 spelling.
  const auto specs = fa::list_specs();
  EXPECT_NE(std::find(specs.begin(), specs.end(), "flexcore-64:i16"),
            specs.end());
}

}  // namespace
