// Tests for the lane-parallel path-kernel engine (detect/path_kernels.h):
// the exact fp64 plan (block walk, single-path walk, SIC walk) bit-identical
// to the scalar reference walks of tests/reference_walk.h across detector
// families x ordering modes x constellations x MIMO sizes — in whichever
// per-ISA copy FLEXCORE_I16_ISA pins — the reduced tiers within their
// documented SER tolerances, the i16 tier's exact rescue, and the
// precision spec grammar round-tripping through the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
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
  const auto check = [&](const Constellation& c, const fl::CMat& h,
                         double nv, std::initializer_list<const char*> families,
                         ch::Rng& rng, const std::string& shape) {
    for (const Mode& mode : modes) {
      fa::DetectorConfig cfg{.constellation = &c};
      cfg.flexcore.ordering = mode.ordering;
      cfg.flexcore.invalid_policy = mode.policy;
      for (const char* family : families) {
        const auto det =
            fa::make_detector_as<fc::FlexCoreDetector>(family, cfg);
        ASSERT_EQ(det->config().invalid_policy, mode.policy);
        det->set_channel(h, nv);
        const fr::FlexCoreReference ref(*det);
        const std::string what =
            std::string(family) + "/" + mode.name + " " + shape;
        for (int rep = 0; rep < 3; ++rep) {
          const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
          expect_plan_matches_reference(det->plan(), ref, det->active_paths(),
                                        ybar, what);
        }
      }
    }
  };
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    for (std::size_t nt : {2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
      ch::Rng rng(100 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      check(c, h, ch::noise_var_for_snr_db(15.0),
            {"flexcore-24", "a-flexcore-24"}, rng,
            "qam=" + std::to_string(qam) + " nt=" + std::to_string(nt));
    }
  }

  // The serving benchmark's shape: 12x12, 64-QAM, 18 dB, 64 paths.  Its
  // path sets hold both kinds of (block, level) the walk's fix mask
  // separates — every lane rank 1 (the gather-free lanes alone) and rank-1
  // lanes beside rank > 1 lanes (patched through the LUT) — and the test
  // asserts that they do.
  Constellation c(64);
  ch::Rng rng(1812);
  const auto h = ch::rayleigh_iid(12, 12, rng);
  const double nv = ch::noise_var_for_snr_db(18.0);
  check(c, h, nv, {"flexcore-64", "a-flexcore-64"}, rng, "qam=64 nt=12 18dB");
  std::size_t uniform = 0, mixed = 0;
  for (const char* family : {"flexcore-64", "a-flexcore-64"}) {
    const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        family, {.constellation = &c});
    det->set_channel(h, nv);
    const auto& paths = det->preprocessing().paths;
    constexpr std::size_t kL = fd::PathPlan::kLanes;
    for (std::size_t b = 0; b < paths.size(); b += kL) {
      const std::size_t end = std::min(paths.size(), b + kL);
      for (std::size_t i = 0; i < 12; ++i) {
        std::size_t above = 0;
        for (std::size_t p = b; p < end; ++p) above += paths[p].p[i] != 1;
        uniform += above == 0;
        mixed += above != 0 && above < end - b;
      }
    }
  }
  EXPECT_GT(uniform, 0u);
  EXPECT_GT(mixed, 0u);
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
  // Heavy noise pushes effective points far outside the constellation, so
  // LUT entries deactivate; the plan must report exactly the reference's
  // +infinity verdicts.  At nv = 4 every path dies; at nv = 0.3 lanes die
  // beside live neighbours of their block, the walk's per-lane liveness.
  Constellation c(64);
  ch::Rng rng(7);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &c});

  std::size_t saw_inf = 0, split_blocks = 0;
  for (const double nv : {4.0, 0.3}) {
    det->set_channel(h, nv);
    const fr::FlexCoreReference ref(*det);
    const std::size_t paths = det->active_paths();
    std::vector<double> m(paths);
    for (int rep = 0; rep < 20; ++rep) {
      const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
      saw_inf += expect_plan_matches_reference(det->plan(), ref, paths, ybar,
                                               "flexcore-32");
      det->plan().path_metric_block(ybar, 0, paths, m.data());
      for (std::size_t b = 0; b < paths; b += fd::PathPlan::kLanes) {
        const std::size_t end = std::min(paths, b + fd::PathPlan::kLanes);
        const auto dead = static_cast<std::size_t>(
            std::count_if(m.begin() + static_cast<std::ptrdiff_t>(b),
                          m.begin() + static_cast<std::ptrdiff_t>(end),
                          [](double v) { return std::isinf(v); }));
        split_blocks += dead > 0 && dead < end - b;
      }
    }
  }
  EXPECT_GT(saw_inf, 0u)
      << "scenario no longer deactivates any PE; raise the noise";
  EXPECT_GT(split_blocks, 0u) << "no block mixes dead and live lanes";
}

/// Whether this build and CPU can run the kernel copy named `isa`, by the
/// dispatcher's rule (detect/path_kernels.cpp): every copy the CPU
/// supports on non-sanitized x86-64 GNU/Clang builds, only "base"
/// elsewhere.
bool isa_runnable(const std::string& isa) {
  if (isa == "base") return true;
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return false;
#endif
#endif
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  __builtin_cpu_init();
  if (isa == "sse41") return __builtin_cpu_supports("sse4.1");
  if (isa == "avx2") return __builtin_cpu_supports("avx2");
  if (isa == "avx512") return __builtin_cpu_supports("avx512f");
#endif
  return false;
}

TEST(KernelEquivalence, DispatchHonoursIsaPin) {
  // The bit-identity suites run once per FLEXCORE_I16_ISA pin; a pin the
  // dispatcher ignored would test one copy twice and pass.  Prints the
  // dispatched copy so every run's log names it.
  const std::string isa = fd::kernel_isa();
  std::printf("[ dispatch ] kernel_isa() = %s\n", isa.c_str());
  EXPECT_TRUE(isa == "base" || isa == "sse41" || isa == "avx2" ||
              isa == "avx512")
      << isa;
  EXPECT_TRUE(isa_runnable(isa)) << isa;
  const char* pin = std::getenv("FLEXCORE_I16_ISA");
  if (pin != nullptr && isa_runnable(pin)) {
    EXPECT_EQ(isa, pin);
  }
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
    c32.detector = "flexcore-64:fp32";
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
  // The suffix alone picks the tier: a bare spec is fp64 (whatever
  // cfg.flexcore.precision says), and there is no ":fp64" spelling.
  fa::DetectorConfig fp32_base = cfg;
  fp32_base.flexcore.precision = fd::Precision::kFloat32;
  EXPECT_EQ(fa::make_detector("flexcore-16", fp32_base)->name(),
            "flexcore-16");
  EXPECT_THROW(fa::make_detector("flexcore-16:fp64", cfg),
               std::invalid_argument);
  EXPECT_THROW(fa::make_detector("fcsd-L1:fp64", cfg), std::invalid_argument);
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
  // patterns of one fixed scenario: CI runs this suite under the native
  // dispatch and once per FLEXCORE_I16_ISA pin, so a divergence between
  // any per-ISA kernel copy and the portable fallback — or any unintended
  // change to the quantized datapath — fails here.
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

// Outside the KernelI16 suite on purpose: it compares the exact walk
// against the scalar reference bit for bit, which CI checks once per ISA
// copy and under the native-arch build alongside KernelEquivalence.
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
  // The storage story of the tier ladder: on one channel the int16 SoA
  // plan is smaller than the fp32 plan, which is smaller than the fp64
  // plan.  A reduced-tier detector also holds the exact plan (every exact
  // walk runs on it), so its footprint is exact + reduced.
  Constellation c(64);
  ch::Rng rng(33);
  const auto h = ch::rayleigh_iid(12, 12, rng);
  const double nv = ch::noise_var_for_snr_db(18.0);
  const auto make = [&](const char* spec) {
    auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        spec, {.constellation = &c});
    det->set_channel(h, nv);
    return det;
  };
  const auto fp64 = make("flexcore-128");
  const auto fp32 = make("flexcore-128:fp32");
  const auto i16 = make("flexcore-128:i16");

  // The three plans of this channel, compiled from the fp64 detector's
  // preprocessing exactly as the detectors compile theirs.
  const auto bytes_of = [&](auto&& plan) {
    plan.compile_flexcore(
        fp64->qr().R, fp64->preprocessing().paths, c, fp64->lut(),
        fp64->config().ordering == fc::OrderingMode::kExactSort,
        fp64->config().invalid_policy);
    return plan.footprint_bytes();
  };
  const std::size_t b16 = bytes_of(fd::PathPlanI16{});
  const std::size_t b32 = bytes_of(fd::PathPlanF{});
  const std::size_t b64 = bytes_of(fd::PathPlan{});
  EXPECT_LT(b16, b32) << "i16 plan must undercut fp32";
  EXPECT_LT(b32, b64) << "fp32 plan must undercut fp64";

  EXPECT_EQ(fp64->plan_footprint_bytes(), b64);
  EXPECT_EQ(fp32->plan_footprint_bytes(), b64 + b32);
  EXPECT_EQ(i16->plan_footprint_bytes(), b64 + b16);
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
  // No ":fp64" spelling: a bare spec is the fp64 tier.
  EXPECT_THROW(fa::make_detector("a-flexcore-8:fp64", cfg),
               std::invalid_argument);
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
