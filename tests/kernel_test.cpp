// Tests for the lane-parallel path-kernel engine (detect/path_kernels.h):
// the exact fp64 plan (block walk, single-path walk, SIC walk) bit-identical
// to the scalar reference walks of tests/reference_walk.h across detector
// families x constellations x MIMO sizes — in whichever
// per-ISA copy FLEXCORE_I16_ISA pins — the reduced tiers within their
// documented SER tolerances, the i16 tier's exact rescue, and the
// precision spec grammar round-tripping through the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
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
#include "reference_qr.h"
#include "reference_walk.h"
#include "shard/partial_qr.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fl = flexcore::linalg;
namespace fr = flexcore::testref;
namespace sh = flexcore::shard;
using flexcore::modulation::Constellation;

namespace {

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
  // The triangle LUT with deactivation, for plain and adaptive FlexCore.
  const auto check = [&](const Constellation& c, const fl::CMat& h,
                         double nv, std::initializer_list<const char*> families,
                         ch::Rng& rng, const std::string& shape) {
    for (const char* family : families) {
      const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
          family, {.constellation = &c});
      det->set_channel(h, nv);
      const fr::FlexCoreReference ref(*det);
      const std::string what = std::string(family) + " " + shape;
      for (int rep = 0; rep < 3; ++rep) {
        const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
        expect_plan_matches_reference(det->plan(), ref, det->active_paths(),
                                      ybar, what);
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
  // path sets hold both kinds of (block, level) the walk treats apart —
  // every lane rank 1 (the transform is skipped) and rank-1 lanes beside
  // rank > 1 lanes (the LUT offset decided in the lanes) — and the test
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
  // Every constellation's digit split into axis indices (256-QAM at L = 1
  // only: L = 2 would walk 65,536 reference paths per vector).
  for (int qam : {4, 16, 64, 256}) {
    Constellation c(qam);
    for (std::size_t nt : {2u, 4u, 8u, 12u, 16u}) {
      ch::Rng rng(999 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const double nv = ch::noise_var_for_snr_db(15.0);
      for (std::size_t levels : {1u, 2u}) {
        if (qam == 256 && levels == 2) continue;
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

  // The inputs of KernelI16.FcsdGreedySliceGolden: vectors scaled up to 4x,
  // so that greedy slices fall off the grid and clamp to its edge.
  for (int qam : {16, 64}) {
    Constellation c(qam);
    ch::Rng rng(770 + static_cast<std::uint64_t>(qam));
    const auto h = ch::rayleigh_iid(8, 8, rng);
    const double nv = ch::noise_var_for_snr_db(14.0);
    fd::FcsdDetector det(c, 1);
    det.set_channel(h, nv);
    const fr::FcsdReference ref(det, c);
    for (int v = 0; v < 12; ++v) {
      fl::CVec ybar = det.rotate(random_y(h, c, nv, rng));
      for (fl::cplx& z : ybar) z *= static_cast<double>(1 << (v % 3));
      expect_plan_matches_reference(det.plan(), ref, det.num_paths(), ybar,
                                    "fcsd-L1 scaled qam=" +
                                        std::to_string(qam) + " v=" +
                                        std::to_string(v));
    }
  }

  // A top-level b whose quotient b / R(i,i) slices to another point than
  // the reciprocal product b * (1 / R(i,i)): found by stepping b one ulp at
  // a time across the slicer's decision boundaries, so the greedy levels
  // must divide as the reference does.
  Constellation c(64);
  const double nv = ch::noise_var_for_snr_db(15.0);
  const double up = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::uint64_t seed = 0; seed < 8 && !found; ++seed) {
    ch::Rng rng(4200 + seed);
    const auto h = ch::rayleigh_iid(4, 4, rng);
    fd::FcsdDetector det(c, 0);
    det.set_channel(h, nv);
    const double rt = det.qr().R(3, 3).real();
    for (int m = 1 - c.side() / 2; m < c.side() / 2 && !found; ++m) {
      double b = 2.0 * m * c.scale() * rt;
      for (int k = 0; k < 32; ++k) b = std::nextafter(b, -up);
      for (int k = 0; k < 64 && !found; ++k) {
        b = std::nextafter(b, up);
        found = c.slice({b / rt, 0.0}) != c.slice({b * (1.0 / rt), 0.0});
      }
      if (!found) continue;
      const fr::FcsdReference ref(det, c);
      fl::CVec ybar = det.rotate(random_y(h, c, nv, rng));
      ybar[3] = {b, 0.0};
      expect_plan_matches_reference(det.plan(), ref, 1, ybar, "fcsd-L0 tie");
    }
  }
  EXPECT_TRUE(found) << "no b slices apart under division and reciprocal";
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
  // The walk evaluates four native-width chains per call (up to 32 paths
  // on AVX-512) from block-aligned starts and single blocks elsewhere, so
  // the ranges below start on and off block and chunk boundaries and span
  // several chunks plus a tail; each must equal the reference walk.  The
  // FCSD-L2 plan's top digit runs over 16 consecutive paths, so most
  // ranges start inside a run.
  Constellation c(16);
  ch::Rng rng(13);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const double nv = ch::noise_var_for_snr_db(14.0);
  const auto check = [&](const fd::PathParallelDetector& det, const auto& ref,
                         const std::string& what) {
    const std::size_t paths = det.parallel_tasks();
    ASSERT_GT(paths, 64u) << what;
    const std::pair<std::size_t, std::size_t> ranges[] = {
        {3, 5},
        {7, 9},
        {paths - 3, 3},
        {1, paths - 1},
        {8, 8},
        {8, 40},
        {24, 50},
        {40, paths - 40},
        {0, paths},
        {32, paths - 32},
        {0, 70},
        {8, 67},
        {16, 48},
        {56, 33},
    };
    for (int rep = 0; rep < 3; ++rep) {
      const fl::CVec ybar = det.rotate(random_y(h, c, nv, rng));
      for (const auto& [first, n] : ranges) {
        ASSERT_LE(first + n, paths) << what;
        std::vector<double> part(n);
        det.path_metric_block(ybar, first, n, part.data());
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(part[k], ref.path_metric(ybar, first + k))
              << what << " first=" << first << " n=" << n << " k=" << k;
        }
      }
    }
  };
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-100", {.constellation = &c});
  det->set_channel(h, nv);
  check(*det, fr::FlexCoreReference(*det), "flexcore-100");
  fd::FcsdDetector fcsd(c, 2);
  fcsd.set_channel(h, nv);
  check(fcsd, fr::FcsdReference(fcsd, c), "fcsd-L2");
}

/// A hand-built path set over `nt` levels: rank 1 everywhere except the
/// top level (ranks 1..4, so rank > 1 lanes see every residual triangle
/// there) and two middle levels that cycle through 1, 2, 3, |Q|, |Q| + 1
/// (invalid: past the LUT) and 0 (invalid), so blocks hold all-rank-1
/// levels beside mixed ones.
std::vector<fc::RankedPath> hand_paths(std::size_t nt, int q,
                                       std::size_t count) {
  const int top[] = {1, 2, 3, 4};
  const int mid[] = {1, 2, q, 1, q + 1, 1, 0, 2, 1, 3, 1, 1};
  std::vector<fc::RankedPath> paths(count);
  for (std::size_t p = 0; p < count; ++p) {
    paths[p].p.assign(nt, 1);
    paths[p].p[nt - 1] = top[p % 4];
    if (p % 3 != 0) paths[p].p[nt / 2] = mid[(p / 3) % 12];
    if (p % 5 == 1) paths[p].p[nt / 2 - 1] = mid[(p * 7 + 5) % 12];
  }
  return paths;
}

/// The hand-built scenario: 8x8, 64-QAM, 20 dB, 40 hand paths over the
/// channel and LUT of a flexcore-8 detector, 64 rotated vectors.
struct HandScenario {
  Constellation c{64};
  std::unique_ptr<fc::FlexCoreDetector> det;
  std::vector<fc::RankedPath> paths;
  std::vector<fl::CVec> ybars;

  HandScenario() {
    ch::Rng rng(4711);
    const auto h = ch::rayleigh_iid(8, 8, rng);
    const double nv = ch::noise_var_for_snr_db(20.0);
    det = fa::make_detector_as<fc::FlexCoreDetector>("flexcore-8",
                                                     {.constellation = &c});
    det->set_channel(h, nv);
    paths = hand_paths(8, c.order(), 40);
    for (int v = 0; v < 64; ++v) {
      ybars.push_back(det->rotate(random_y(h, c, nv, rng)));
    }
  }

  template <typename Plan>
  void compile(Plan& plan) const {
    plan.compile_flexcore(det->qr().R, paths, c, det->lut(), false,
                          fc::InvalidEntryPolicy::kDeactivate);
  }
};

/// Asserts every path holding a rank outside 1..|Q| is deactivated on
/// `plan`, whatever the vector.
template <typename Plan>
void expect_invalid_ranks_deactivate(const Plan& plan, const HandScenario& sc,
                                     const std::string& what) {
  std::vector<double> m(sc.paths.size());
  plan.path_metric_block(sc.ybars[0], 0, m.size(), m.data());
  for (std::size_t p = 0; p < sc.paths.size(); ++p) {
    const auto& pv = sc.paths[p].p;
    if (std::any_of(pv.begin(), pv.end(),
                    [&](int k) { return k < 1 || k > sc.c.order(); })) {
      EXPECT_TRUE(std::isinf(m[p])) << what << " path " << p;
    }
  }
}

TEST(KernelEquivalence, HandBuiltRanksMatchReference) {
  // Every decision kind of the LUT walk on one plan: rank 1, ranks 2..|Q|
  // under all eight dihedral transforms, and both invalid ranks (0 and
  // |Q| + 1), beside all-rank-1 sub-vectors.
  const HandScenario sc;
  fd::PathPlan plan;
  sc.compile(plan);
  const fr::FlexCoreReference ref(sc.det->qr().R, sc.c, sc.det->lut(),
                                  sc.paths);
  const fl::CMat& r = sc.det->qr().R;
  const std::size_t top = r.cols() - 1;
  const double h = sc.c.scale();
  unsigned triangles = 0;
  std::size_t dead = 0;
  for (const fl::CVec& ybar : sc.ybars) {
    dead += expect_plan_matches_reference(plan, ref, sc.paths.size(), ybar,
                                          "hand-built");
    // The top level's effective point needs no cancellation, so its
    // residual triangle is known here: the transform every rank > 1 lane
    // of that level applies.
    const fl::cplx eff = ybar[top] * (fl::cplx{1.0, 0.0} / r(top, top));
    const int ci = sc.c.unbounded_axis_index(eff.real());
    const int cq = sc.c.unbounded_axis_index(eff.imag());
    const double u = eff.real() - (2.0 * ci - (sc.c.side() - 1)) * h;
    const double v = eff.imag() - (2.0 * cq - (sc.c.side() - 1)) * h;
    const unsigned swap = std::fabs(v) > std::fabs(u) ? 4 : 0;
    triangles |= 1u << (swap | (u < 0.0 ? 2 : 0) | (v < 0.0 ? 1 : 0));
  }
  EXPECT_EQ(triangles, 0xFFu) << "not every dihedral transform occurred";
  EXPECT_GT(dead, 0u);
  EXPECT_LT(dead, sc.paths.size() * sc.ybars.size());
  expect_invalid_ranks_deactivate(plan, sc, "lut");
}

// ------------------------------------------------- lane-batched walks

/// Rotated vectors for lane-batched walks: more than one call's lanes, so
/// every lane of a group walks a vector of its own.
std::vector<fl::CVec> lane_ybars(const fl::CMat& h, const Constellation& c,
                                 double nv, const fl::CMat& q,
                                 ch::Rng& rng) {
  std::vector<fl::CVec> ybars;
  for (std::size_t v = 0; v < fd::PathPlan::walk_lanes() + 8; ++v) {
    fl::CVec ybar(q.cols());
    fl::hermitian_mul_into(q, random_y(h, c, nv, rng), ybar);
    ybars.push_back(std::move(ybar));
  }
  return ybars;
}

/// Lane k's symbols of a lane-batched walk over `nt` levels.
std::vector<int> lane_symbols(const std::vector<int>& symbols, std::size_t k,
                              std::size_t nt) {
  const auto first = symbols.begin() + static_cast<std::ptrdiff_t>(k * nt);
  return {first, first + static_cast<std::ptrdiff_t>(nt)};
}

/// Lane-batched walks against the reference, one group of every size from
/// 1 to walk_lanes() + 1: lane k walks a path of its own over a rotated
/// vector of its own.  Adds the groups that mix dead and live lanes to
/// `mixed`.
template <typename Ref>
void expect_lanes_match_reference(const fd::PathPlan& plan, const Ref& ref,
                                  std::size_t num_paths,
                                  const std::vector<fl::CVec>& ybars,
                                  const std::string& what,
                                  std::size_t* mixed = nullptr) {
  const std::size_t nt = plan.levels();
  for (std::size_t n = 1; n <= fd::PathPlan::walk_lanes() + 1; ++n) {
    fl::CVec flat;
    std::vector<std::size_t> paths(n);
    for (std::size_t k = 0; k < n; ++k) {
      const fl::CVec& y = ybars[(k + n) % ybars.size()];
      flat.insert(flat.end(), y.begin(), y.end());
      paths[k] = (k * 7 + n * 3) % num_paths;
    }
    std::vector<double> metrics(n);
    std::vector<int> symbols(n * nt);
    plan.walk_paths(flat, paths, metrics, symbols);
    std::size_t dead = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::span<const fl::cplx> ybar(flat.data() + k * nt, nt);
      const fr::PathEval ev = ref.evaluate_path(ybar, paths[k]);
      const std::string lane = what + " group " + std::to_string(n) +
                               " lane " + std::to_string(k);
      if (!ev.valid) {
        EXPECT_TRUE(std::isinf(metrics[k])) << lane;
        ++dead;
        continue;
      }
      EXPECT_EQ(metrics[k], ev.metric) << lane;
      EXPECT_EQ(lane_symbols(symbols, k, nt), ev.symbols) << lane;
    }
    if (mixed != nullptr && dead > 0 && dead < n) ++*mixed;
  }
}

TEST(KernelWalkLanes, FlexCoreLanesMatchReference) {
  // Plain and adaptive FlexCore on registry detectors, and the hand-built
  // paths whose invalid ranks kill lanes beside live ones in the same
  // group.
  for (int qam : {16, 64}) {
    Constellation c(qam);
    ch::Rng rng(600 + static_cast<std::uint64_t>(qam));
    const auto h = ch::rayleigh_iid(12, 12, rng);
    const double nv = ch::noise_var_for_snr_db(qam == 64 ? 14.0 : 8.0);
    for (const char* family : {"flexcore-48", "a-flexcore-48"}) {
      const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
          family, {.constellation = &c});
      det->set_channel(h, nv);
      const fr::FlexCoreReference ref(*det);
      expect_lanes_match_reference(
          det->plan(), ref, det->active_paths(),
          lane_ybars(h, c, nv, det->qr().Q, rng),
          std::string(family) + " qam=" + std::to_string(qam));
    }
  }

  const HandScenario sc;
  fd::PathPlan plan;
  sc.compile(plan);
  const fr::FlexCoreReference ref(sc.det->qr().R, sc.c, sc.det->lut(),
                                  sc.paths);
  std::size_t mixed = 0;
  expect_lanes_match_reference(plan, ref, sc.paths.size(), sc.ybars,
                               "hand-built", &mixed);
  EXPECT_GT(mixed, 0u) << "no group mixes dead and live lanes";
}

TEST(KernelWalkLanes, FcsdLanesMatchReference) {
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    ch::Rng rng(700 + static_cast<std::uint64_t>(qam));
    const auto h = ch::rayleigh_iid(8, 8, rng);
    const double nv = ch::noise_var_for_snr_db(12.0);
    for (std::size_t levels : {1u, 2u}) {
      fd::FcsdDetector det(c, levels);
      det.set_channel(h, nv);
      const fr::FcsdReference ref(det, c);
      expect_lanes_match_reference(
          det.plan(), ref, det.num_paths(),
          lane_ybars(h, c, nv, det.qr().Q, rng),
          "fcsd-L" + std::to_string(levels) + " qam=" + std::to_string(qam));
    }
  }
}

TEST(KernelWalkLanes, SicLanesMatchReference) {
  // The batched clamped rank-1 walk at operating noise and at noise that
  // throws nearly every slice outside the grid.
  Constellation c(64);
  ch::Rng rng(801);
  const auto h = ch::rayleigh_iid(12, 12, rng);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-4", {.constellation = &c});
  for (double nv : {ch::noise_var_for_snr_db(15.0), 4.0}) {
    det->set_channel(h, nv);
    const fr::FlexCoreReference ref(*det);
    const std::vector<fl::CVec> ybars = lane_ybars(h, c, nv, det->qr().Q, rng);
    const std::size_t nt = 12;
    for (std::size_t n = 1; n <= fd::PathPlan::walk_lanes() + 1; ++n) {
      fl::CVec flat;
      for (std::size_t k = 0; k < n; ++k) {
        flat.insert(flat.end(), ybars[(k + n) % ybars.size()].begin(),
                    ybars[(k + n) % ybars.size()].end());
      }
      std::vector<double> metrics(n);
      std::vector<int> symbols(n * nt);
      det->plan().walk_sic(flat, metrics, symbols);
      for (std::size_t k = 0; k < n; ++k) {
        const fr::PathEval want =
            ref.sic(std::span<const fl::cplx>(flat.data() + k * nt, nt));
        EXPECT_EQ(metrics[k], want.metric) << "nv=" << nv << " n=" << n;
        EXPECT_EQ(lane_symbols(symbols, k, nt), want.symbols)
            << "nv=" << nv << " n=" << n;
      }
    }
  }
}

TEST(KernelWalkLanes, GroupReconstructionMatchesPerVector) {
  // reconstruct_winners over a group equals reconstruct_winner per vector,
  // fallbacks and i16 rescues included, at group sizes 1 .. walk_lanes()
  // + 1; FCSD's group reconstruction likewise.
  Constellation c(64);
  ch::Rng rng(902);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  for (const char* spec : {"flexcore-2", "flexcore-32:i16", "fcsd-L1"}) {
    const auto det = fa::make_detector(spec, {.constellation = &c});
    const double nv = std::string(spec) == "flexcore-2"
                          ? 4.0
                          : ch::noise_var_for_snr_db(18.0);
    det->set_channel(h, nv);
    const std::size_t nt = 8;
    const auto check = [&](const auto& d) {
      std::size_t fell = 0;
      for (std::size_t n = 1; n <= fd::PathPlan::walk_lanes() + 1; ++n) {
        fl::CVec ybars(n * nt);
        std::vector<std::size_t> best(n);
        std::vector<double> metric(n);
        for (std::size_t k = 0; k < n; ++k) {
          const std::span<fl::cplx> ybar(ybars.data() + k * nt, nt);
          d.rotate_into(random_y(h, c, nv, rng), ybar);
          fd::scan_paths(d, std::span<const fl::cplx>(ybar),
                         d.parallel_tasks(), &best[k], &metric[k]);
        }
        fd::Workspace ws;
        std::vector<fd::DetectionResult> got(n);
        const std::size_t group_fell =
            d.reconstruct_winners(ybars, best, metric, ws, got);
        std::size_t one_fell = 0;
        for (std::size_t k = 0; k < n; ++k) {
          fd::DetectionResult want;
          one_fell += d.reconstruct_winner(
              std::span<const fl::cplx>(ybars.data() + k * nt, nt), best[k],
              metric[k], ws, &want);
          EXPECT_EQ(got[k].symbols, want.symbols) << spec << " n=" << n;
          EXPECT_EQ(got[k].metric, want.metric) << spec << " n=" << n;
        }
        EXPECT_EQ(group_fell, one_fell) << spec << " n=" << n;
        fell += group_fell;
      }
      if (std::string(spec) == "flexcore-2") {
        EXPECT_GT(fell, 0u) << "scenario no longer reaches the SIC fallback";
      }
    };
    if (const auto* f = dynamic_cast<const fc::FlexCoreDetector*>(det.get())) {
      check(*f);
    } else {
      check(dynamic_cast<const fd::FcsdDetector&>(*det));
    }
  }
}

// ------------------------------------------------------------ trie walk

/// Asserts PathPlan::scan_trie's verdicts equal the block scan's
/// (scan_paths over path_metric_block) bit for bit, best path and metric,
/// on groups of every size 1 .. 2 kTrieLanes + 1 drawn from `ybars` in
/// turn.  Returns the number of vectors whose every path was deactivated.
std::size_t expect_trie_matches_block_scan(const fd::PathPlan& plan,
                                           const std::vector<fl::CVec>& ybars,
                                           const std::string& what) {
  const std::size_t nt = plan.levels();
  std::size_t all_dead = 0;
  std::size_t next = 0;
  for (std::size_t n = 1; n <= 2 * fd::PathPlan::kTrieLanes + 1; ++n) {
    fl::CVec flat;
    for (std::size_t k = 0; k < n; ++k) {
      const fl::CVec& y = ybars[next++ % ybars.size()];
      flat.insert(flat.end(), y.begin(), y.end());
    }
    std::vector<std::size_t> got_path(n, 999);
    std::vector<double> got_metric(n, -1.0);
    plan.scan_trie(flat, got_path, got_metric);
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t want_path = 0;
      double want_metric = 0.0;
      fd::scan_paths(plan, std::span<const fl::cplx>(flat.data() + k * nt, nt),
                     plan.num_paths(), &want_path, &want_metric);
      const std::string at = what + " group " + std::to_string(n) +
                             " vector " + std::to_string(k);
      EXPECT_EQ(got_path[k], want_path) << at;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got_metric[k]),
                std::bit_cast<std::uint64_t>(want_metric))
          << at << ": " << got_metric[k] << " vs " << want_metric;
      all_dead += std::isinf(want_metric);
    }
  }
  return all_dead;
}

/// The nodes a minimal trie of `paths` holds: the distinct prefixes (root
/// level first) of the paths whose every rank lies in 1..q.
std::size_t distinct_prefixes(const std::vector<fc::RankedPath>& paths,
                              int q) {
  std::set<std::vector<int>> prefixes;
  for (const fc::RankedPath& path : paths) {
    if (!std::ranges::all_of(path.p, [&](int r) { return r >= 1 && r <= q; })) {
      continue;
    }
    std::vector<int> prefix;
    for (auto r = path.p.rbegin(); r != path.p.rend(); ++r) {
      prefix.push_back(*r);
      prefixes.insert(prefix);
    }
  }
  return prefixes.size();
}

TEST(KernelTrie, WalkMatchesBlockScan) {
  // Plain and adaptive FlexCore over QPSK, 16- and 64-QAM at Nt = 2..16
  // and 32: shallow and deep tries, keys that pack into one word and keys
  // that compare rank by rank, full and early-stopped path sets.
  std::size_t shared = 0;
  for (const int qam : {4, 16, 64}) {
    const Constellation c(qam);
    const double snr = qam == 4 ? 6.0 : qam == 16 ? 12.0 : 18.0;
    std::vector<std::size_t> sizes;
    for (std::size_t nt = 2; nt <= 16; ++nt) sizes.push_back(nt);
    sizes.push_back(32);
    for (const std::size_t nt : sizes) {
      ch::Rng rng(2300 + 100 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const double nv = ch::noise_var_for_snr_db(snr);
      for (const char* family : {"flexcore-24", "a-flexcore-24"}) {
        const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
            family, {.constellation = &c});
        det->set_channel(h, nv);
        const fd::PathPlan& plan = det->plan();
        ASSERT_GT(plan.trie_nodes(), 0u) << family;
        EXPECT_EQ(plan.trie_nodes(),
                  distinct_prefixes(det->preprocessing().paths, qam))
            << family << " nt=" << nt;
        shared += plan.trie_nodes() < plan.num_paths() * nt;
        std::vector<fl::CVec> ybars;
        for (int v = 0; v < 9; ++v) {
          ybars.push_back(det->rotate(random_y(h, c, nv, rng)));
        }
        expect_trie_matches_block_scan(
            plan, ybars,
            std::string(family) + " qam=" + std::to_string(qam) +
                " nt=" + std::to_string(nt));
      }
    }
  }
  EXPECT_GT(shared, 40u) << "too few tries share a prefix";

  // More live paths than the lane rank sort takes (128), keys still packed
  // (8 levels of 4-bit fields plus the index): the std::sort branch.  A
  // trie from unsorted keys still walks correctly, only with prefixes
  // repeated, so the node count is what shows the sort.
  const Constellation c(16);
  ch::Rng rng(2399);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const double nv = ch::noise_var_for_snr_db(12.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-256", {.constellation = &c});
  det->set_channel(h, nv);
  std::size_t live = 0;
  for (const fc::RankedPath& path : det->preprocessing().paths) {
    live += std::ranges::all_of(path.p, [&](int r) {
      return r >= 1 && r <= c.order();
    });
  }
  ASSERT_GT(live, 128u);
  EXPECT_EQ(det->plan().trie_nodes(),
            distinct_prefixes(det->preprocessing().paths, c.order()));
  std::vector<fl::CVec> ybars;
  for (int v = 0; v < 9; ++v) {
    ybars.push_back(det->rotate(random_y(h, c, nv, rng)));
  }
  expect_trie_matches_block_scan(det->plan(), ybars, "flexcore-256 nt=8");
}

TEST(KernelTrie, HandBuiltPathSetsMatchBlockScan) {
  // Invalid ranks (0 and |Q| + 1) beside valid ones, prefixes shared at
  // every depth and duplicated paths (equal codes on every level); then a
  // set whose every path holds an invalid rank (an empty trie), and a tiny
  // budget at brutal noise, where some vectors lose every path.
  const HandScenario sc;
  fd::PathPlan plan;
  sc.compile(plan);
  std::size_t duplicates = 0;
  for (std::size_t p = 0; p < sc.paths.size(); ++p) {
    for (std::size_t o = 0; o < p; ++o) {
      duplicates += sc.paths[p].p == sc.paths[o].p;
    }
  }
  ASSERT_GT(duplicates, 0u) << "the hand-built set lost its duplicates";
  EXPECT_GT(plan.trie_nodes(), 0u);
  EXPECT_LT(plan.trie_nodes(), sc.paths.size() * plan.levels());
  EXPECT_EQ(plan.trie_nodes(), distinct_prefixes(sc.paths, sc.c.order()));
  expect_trie_matches_block_scan(plan, sc.ybars, "hand-built");

  std::vector<fc::RankedPath> invalid = sc.paths;
  for (std::size_t p = 0; p < invalid.size(); ++p) {
    invalid[p].p[p % plan.levels()] = p % 2 == 0 ? 0 : sc.c.order() + 1;
  }
  fd::PathPlan empty;
  empty.compile_flexcore(sc.det->qr().R, invalid, sc.c, sc.det->lut(), false,
                         fc::InvalidEntryPolicy::kDeactivate);
  EXPECT_EQ(empty.trie_nodes(), 0u);
  EXPECT_EQ(expect_trie_matches_block_scan(empty, sc.ybars, "all invalid"),
            std::size_t{(2 * fd::PathPlan::kTrieLanes + 1) *
                        (fd::PathPlan::kTrieLanes + 1)});

  const Constellation c(64);
  ch::Rng rng(2401);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-2", {.constellation = &c});
  det->set_channel(h, 4.0);
  std::vector<fl::CVec> ybars;
  for (int v = 0; v < 24; ++v) {
    ybars.push_back(det->rotate(random_y(h, c, 4.0, rng)));
  }
  const std::size_t all_dead =
      expect_trie_matches_block_scan(det->plan(), ybars, "flexcore-2 at nv=4");
  EXPECT_GT(all_dead, 0u) << "no vector lost every path";
}

/// The merged 16x8 channel of a 64x8 channel behind two antenna clusters:
/// the channel massive-64x8-sharded's detectors see.
fl::CMat merged_massive_channel(ch::Rng& rng) {
  const auto h = ch::rayleigh_iid(64, 8, rng);
  std::vector<sh::PartialQr> partials;
  for (const sh::RowRange range : sh::plan_shards(64, 2)) {
    partials.push_back(
        sh::compute_partial(h.row_range(range.begin, range.count)));
  }
  return sh::stack_partials(partials);
}

TEST(KernelTrie, SelectionFollowsTheEstimate) {
  // The serving shapes pick their kernels over a 48-subcarrier frame each:
  // massive's merged 16x8 / 16-QAM / -2 dB channels with 7 vectors per
  // subcarrier take the trie, coherent's 12x12 / 64-QAM / 18 dB ones the
  // block scan, and each verdict is the documented estimate.  One vector
  // never takes the trie there; the ":i16" tier and FCSD never do.
  const std::size_t lanes = fd::PathPlan::kTrieLanes;
  const auto estimate = [&](const fc::FlexCoreDetector& det, std::size_t n) {
    const fd::PathPlan& plan = det.plan();
    return fd::PathPlan::kTrieNodeCost *
               static_cast<double>((n + lanes - 1) / lanes *
                                   plan.trie_nodes()) <
           static_cast<double>(n * ((plan.num_paths() + 7) / 8) *
                               plan.levels());
  };
  const Constellation qam16(16);
  const Constellation qam64(64);
  ch::Rng rng(2501);
  const auto massive = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &qam16});
  const auto coherent = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-64", {.constellation = &qam64});
  std::size_t coherent_tries = 0;
  for (int f = 0; f < 48; ++f) {
    massive->set_channel(merged_massive_channel(rng),
                         ch::noise_var_for_snr_db(-2.0));
    EXPECT_TRUE(massive->plan().trie_wins(7)) << "massive subcarrier " << f;
    EXPECT_FALSE(massive->plan().trie_wins(1)) << "massive subcarrier " << f;
    coherent->set_channel(ch::rayleigh_iid(12, 12, rng),
                          ch::noise_var_for_snr_db(18.0));
    coherent_tries += coherent->plan().trie_wins(7);
    for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 40u}) {
      EXPECT_EQ(massive->plan().trie_wins(n), estimate(*massive, n)) << n;
      EXPECT_EQ(coherent->plan().trie_wins(n), estimate(*coherent, n)) << n;
    }
  }
  // A coherent channel whose paths share unusually much can take the trie
  // (it wins there too); the shape as a whole stays on the block scan.
  EXPECT_LE(coherent_tries, 4u);

  const fl::CMat h = merged_massive_channel(rng);
  const double nv = ch::noise_var_for_snr_db(-2.0);
  const auto i16 = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32:i16", {.constellation = &qam16});
  i16->set_channel(h, nv);
  EXPECT_FALSE(i16->plan().trie_wins(7));
  fd::FcsdDetector fcsd(qam16, 1);
  fcsd.set_channel(h, nv);
  EXPECT_EQ(fcsd.plan().trie_nodes(), 0u);
  EXPECT_FALSE(fcsd.plan().trie_wins(64));
}

// ------------------------------------------------------ Q^H y rotation

/// A random double across the kernel's input range: signed zeros,
/// subnormals and normal values from 1e-150 to 1e150.
double rotation_value(ch::Rng& rng) {
  const double sign = rng.uniform_int(2) == 0 ? 1.0 : -1.0;
  switch (rng.uniform_int(4)) {
    case 0:
      return sign * 0.0;
    case 1:  // subnormal
      return sign * std::ldexp(rng.uniform(), -1022 - static_cast<int>(
                                                      rng.uniform_int(52)));
    default:
      return sign * (0.5 + rng.uniform()) *
             std::pow(10.0, static_cast<double>(rng.uniform_int(301)) - 150.0);
  }
}

/// Bitwise equality of two complex sequences (signed zeros apart).
void expect_bitwise(std::span<const fl::cplx> got,
                    std::span<const fl::cplx> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(fl::cplx)),
            0)
      << what;
}

TEST(KernelRotation, LaneKernelIsBitIdenticalToScalarLoop) {
  // hermitian_mul_into against the scalar std::complex loop, bit for bit,
  // on rows 1..40 and 64 x cols 1..32 (the serving shapes 12x12, 16x8,
  // 32x8 and 64x8 among them), in whichever copy FLEXCORE_I16_ISA pins.
  ch::Rng rng(4242);
  std::vector<std::size_t> rows_set;
  for (std::size_t r = 1; r <= 40; ++r) rows_set.push_back(r);
  rows_set.push_back(64);
  for (const std::size_t rows : rows_set) {
    for (std::size_t cols = 1; cols <= 32; ++cols) {
      for (int rep = 0; rep < 2; ++rep) {
        fl::CMat m(rows, cols);
        fl::CVec v(rows), got(cols), want(cols);
        for (std::size_t e = 0; e < rows * cols; ++e) {
          m.data()[e] = {rotation_value(rng), rotation_value(rng)};
        }
        for (fl::cplx& z : v) z = {rotation_value(rng), rotation_value(rng)};
        fl::hermitian_mul_into(m, v, got);
        fr::hermitian_mul_scalar(m, v, want);
        expect_bitwise(got, want,
                       std::to_string(rows) + "x" + std::to_string(cols));
      }
    }
  }
}

TEST(KernelRotation, PartialRotationMatchesScalarLoopAndPassesThinClusters) {
  // shard::rotate_partial: a cluster with rows >= Nt rotates by its Q like
  // the scalar loop; a thin cluster passes its rows through verbatim.
  ch::Rng rng(4343);
  const fl::CMat h = ch::rayleigh_iid(32, 8, rng);
  fl::CVec y(32);
  for (fl::cplx& z : y) z = {rotation_value(rng), rotation_value(rng)};
  const sh::PartialQr full = sh::compute_partial(h.row_range(0, 32));
  fl::CVec got(8), want(8);
  sh::rotate_partial(full, y, got);
  fr::hermitian_mul_scalar(full.q, y, want);
  expect_bitwise(got, want, "32x8 cluster");

  const sh::PartialQr thin = sh::compute_partial(h.row_range(0, 5));
  ASSERT_TRUE(thin.q.empty());
  const std::span<const fl::cplx> y5(y.data(), 5);
  fl::CVec pass(5);
  sh::rotate_partial(thin, y5, pass);
  expect_bitwise(pass, y5, "thin cluster");
}

TEST(KernelPlans, CompileRejectsMisshapenPathsBeforeTouchingThePlan) {
  // A path must hold one rank per level, checked in every build, Release
  // included; a refused path set leaves the previously compiled plan as it
  // was.  slicer_center checks its level the same way.
  Constellation c(16);
  ch::Rng rng(5);
  const auto h = ch::rayleigh_iid(4, 4, rng);
  const double nv = ch::noise_var_for_snr_db(12.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-12", {.constellation = &c});
  det->set_channel(h, nv);
  const std::vector<fc::RankedPath> good = det->preprocessing().paths;
  ASSERT_GT(good.size(), 6u);
  const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));

  auto bad_short = good;
  bad_short[5].p.pop_back();
  auto bad_long = good;
  bad_long[2].p.push_back(1);
  const auto check = [&](auto& plan, const char* tier) {
    plan.compile_flexcore(det->qr().R, good, c, det->lut(), false,
                          fc::InvalidEntryPolicy::kDeactivate);
    std::vector<double> before(good.size()), after(good.size());
    plan.path_metric_block(ybar, 0, good.size(), before.data());
    for (const auto* bad : {&bad_short, &bad_long}) {
      try {
        plan.compile_flexcore(det->qr().R, *bad, c, det->lut(), false,
                              fc::InvalidEntryPolicy::kDeactivate);
        ADD_FAILURE() << tier << ": misshapen path set accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        const char* want =
            bad == &bad_short ? "path 5 holds 3" : "path 2 holds 5";
        EXPECT_NE(what.find(want), std::string::npos) << tier << ": " << what;
      }
    }
    EXPECT_EQ(plan.num_paths(), good.size()) << tier;
    EXPECT_EQ(plan.levels(), 4u) << tier;
    plan.path_metric_block(ybar, 0, good.size(), after.data());
    EXPECT_EQ(before, after) << tier;
  };
  fd::PathPlan fp64;
  check(fp64, "fp64");
  fd::PathPlanI16 i16;
  check(i16, "i16");
  EXPECT_THROW((void)i16.slicer_center(4, 0.0), std::invalid_argument);
  EXPECT_NO_THROW((void)i16.slicer_center(3, 0.0));
  EXPECT_THROW((void)fd::PathPlanI16{}.slicer_center(0, 0.0),
               std::invalid_argument);
}

TEST(KernelPlans, FcsdCompileRejectsComplexDiagonalBeforeTouchingThePlan) {
  // The greedy levels divide by Re R(i,i) on each axis, std::complex's
  // division only for a real R(i,i): the plan refuses any other, and the
  // previously compiled plan stays as it was.
  Constellation c(16);
  ch::Rng rng(6);
  const auto h = ch::rayleigh_iid(4, 4, rng);
  const double nv = ch::noise_var_for_snr_db(12.0);
  fd::FcsdDetector det(c, 1);
  det.set_channel(h, nv);
  const fl::CVec ybar = det.rotate(random_y(h, c, nv, rng));
  fl::CMat complex_diag = det.qr().R;
  complex_diag(2, 2) += fl::cplx{0.0, 1e-3};
  fd::PathPlan plan;
  plan.compile_fcsd(det.qr().R, 1, c);
  std::vector<double> before(det.num_paths()), after(det.num_paths());
  plan.path_metric_block(ybar, 0, before.size(), before.data());
  try {
    plan.compile_fcsd(complex_diag, 2, c);
    ADD_FAILURE() << "complex R(i,i) accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("R(2,2) is not real"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(plan.num_paths(), det.num_paths());
  EXPECT_EQ(plan.levels(), 4u);
  plan.path_metric_block(ybar, 0, after.size(), after.data());
  EXPECT_EQ(before, after);
}

TEST(KernelPlans, OrderingAblationsAreRefusedBeforeTouchingThePlan) {
  // The plans compile only the triangle LUT with deactivation; the exact
  // sort and skip-to-valid run on the scalar reference walk.  A FlexCore
  // detector refuses either ablation at construction in both tiers, and
  // both tiers' compile_flexcore refuse it, leaving the previously compiled
  // plan as it was.
  Constellation c(16);
  fa::DetectorConfig skip{.constellation = &c};
  skip.flexcore.invalid_policy = fc::InvalidEntryPolicy::kSkipToValid;
  fa::DetectorConfig exact{.constellation = &c};
  exact.flexcore.ordering = fc::OrderingMode::kExactSort;
  for (const char* spec : {"flexcore-32", "flexcore-32:i16"}) {
    for (const fa::DetectorConfig& ablation : {skip, exact}) {
      EXPECT_THROW(fa::make_detector(spec, ablation), std::invalid_argument)
          << spec;
    }
  }

  const HandScenario sc;
  const auto check = [&](auto& plan, const char* tier) {
    sc.compile(plan);
    std::vector<double> before(sc.paths.size()), after(sc.paths.size());
    plan.path_metric_block(sc.ybars[0], 0, before.size(), before.data());
    for (const auto& [exact_ordering, policy] :
         {std::pair{true, fc::InvalidEntryPolicy::kDeactivate},
          std::pair{false, fc::InvalidEntryPolicy::kSkipToValid}}) {
      EXPECT_THROW(plan.compile_flexcore(sc.det->qr().R, sc.paths, sc.c,
                                         sc.det->lut(), exact_ordering, policy),
                   std::invalid_argument)
          << tier << " exact_ordering=" << exact_ordering;
    }
    EXPECT_EQ(plan.num_paths(), sc.paths.size()) << tier;
    EXPECT_EQ(plan.levels(), 8u) << tier;
    plan.path_metric_block(sc.ybars[0], 0, after.size(), after.data());
    EXPECT_EQ(before, after) << tier;
  };
  fd::PathPlan fp64;
  check(fp64, "fp64");
  fd::PathPlanI16 i16;
  check(i16, "i16");
}

// ------------------------------------------------------- spec grammar

TEST(KernelSpecs, PrecisionSuffixRoundTripsThroughRegistry) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  // ":i16" is the only tier suffix (KernelI16.SpecGrammarRoundTripsAndRejects
  // round-trips it): no float tier has a spelling, on the path-parallel
  // families or elsewhere.
  for (const char* stem :
       {"flexcore-16", "a-flexcore-8", "fcsd-L1", "zf", "kbest-8"}) {
    for (const char* tier : {"fp64", "fp32"}) {
      const std::string spec = std::string(stem) + ":" + tier;
      EXPECT_THROW(fa::make_detector(spec, cfg), std::invalid_argument)
          << spec;
    }
  }
  for (const std::string& spec : fa::list_specs()) {
    EXPECT_EQ(spec.find("fp32"), std::string::npos) << spec;
  }
  try {
    fa::make_detector("no-such-detector", cfg);
    ADD_FAILURE() << "unknown spec accepted";
  } catch (const std::invalid_argument& e) {
    // The message lists every spec pattern.
    EXPECT_EQ(std::string(e.what()).find("fp32"), std::string::npos)
        << e.what();
  }
  // The suffix alone picks the tier: a bare spec is fp64, whatever
  // cfg.flexcore.precision says.
  fa::DetectorConfig i16_base = cfg;
  i16_base.flexcore.precision = fd::Precision::kInt16;
  const auto bare =
      fa::make_detector_as<fc::FlexCoreDetector>("flexcore-16", i16_base);
  EXPECT_EQ(bare->name(), "flexcore-16");
  EXPECT_EQ(bare->config().precision, fd::Precision::kFloat64);
}

// ----------------------------------------------------- int16 quantized tier

TEST(KernelI16, SlicerLutGoldenPattern) {
  // With R = I the effective point equals the incoming coordinate, so the
  // compiled per-level slicer LUT — the affine form every rank > 1 lane
  // reads — must reproduce the textbook rounded slice a = round((eff/scale
  // + side - 1) / 2) over the whole covered grid: exact at cell centers,
  // stable at +-0.7 half-cells (well over a bucket away from every
  // decision boundary), pad indices outside the constellation, and the
  // deactivating sentinel beyond the coverage.
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    const int side = c.side();
    // The slicers are compiled per channel, whatever the path set: one
    // rank-1 path.
    const fc::OrderingLut lut(c);
    std::vector<fc::RankedPath> paths(1);
    paths[0].p.assign(4, 1);
    fd::PathPlanI16 plan;
    plan.compile_flexcore(fl::CMat::identity(4), paths, c, lut, false,
                          fc::InvalidEntryPolicy::kDeactivate);
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
      const double ser64 =
          static_cast<double>(err64) / static_cast<double>(symbols);
      const double ser16 =
          static_cast<double>(err16) / static_cast<double>(symbols);
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

/// FNV-1a over the bit patterns of a metric vector (+inf hashes like any
/// value).
std::uint64_t fnv_metrics(std::uint64_t fnv, const std::vector<double>& m) {
  for (const double v : m) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 64; b += 8) {
      fnv = (fnv ^ ((bits >> b) & 0xFF)) * 1099511628211ull;
    }
  }
  return fnv;
}

TEST(KernelI16, HandBuiltRanksGolden) {
  // The hand-built path set of KernelEquivalence.HandBuiltRanksMatchReference
  // in the quantized tier: every rank > 1 decision and both invalid ranks
  // beside all-rank-1 sub-vectors, pinned bit for bit.
  const HandScenario sc;
  fd::PathPlanI16 plan;
  sc.compile(plan);
  std::uint64_t fnv = 1469598103934665603ull;
  std::vector<double> m(sc.paths.size());
  for (const fl::CVec& ybar : sc.ybars) {
    plan.path_metric_block(ybar, 0, m.size(), m.data());
    fnv = fnv_metrics(fnv, m);
  }
  EXPECT_EQ(fnv, 0x280a8f1cdb3aec22ull)
      << "i16 metric bit patterns changed (std::printf(\"%llx\", fnv))";
}

TEST(KernelI16, TallChannelWideResidualGolden) {
  // 64 receive antennas, 8 streams: R(i,i) is large, so 1/R(i,i) gets many
  // fraction bits and the effective point's scale 2^(F+G_i) is so fine
  // that the PAM reference of a slicer center one or two steps outside the
  // grid passes 2^30, where the kernel saturates it — the levels whose
  // residuals it forms in 64-bit lanes.  Such a center is reachable: the
  // top level's eff is ybar[top] / R(top,top) up to the int16 clamp of b.
  // Pinned bit for bit at QPSK and 16-QAM, on random vectors and on a
  // sweep of the top level's eff across the grid's edges, where rank > 1
  // lanes classify their residual against a saturated reference and the
  // LUT offset brings some of them back inside.
  struct Golden {
    int qam;
    std::uint64_t random, edge;
  };
  const Golden goldens[] = {
      {4, 0x593a733ab8178a7cull, 0x0d42e3d483c262e3ull},
      {16, 0xcd521bbf1b0a56d7ull, 0x19a78538bfa4edcbull}};
  for (const Golden& g : goldens) {
    Constellation c(g.qam);
    ch::Rng rng(6400 + static_cast<std::uint64_t>(g.qam));
    const auto h = ch::rayleigh_iid(64, 8, rng);
    const double nv = ch::noise_var_for_snr_db(g.qam == 4 ? 0.0 : 6.0);
    const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        "flexcore-64:i16", {.constellation = &c});
    det->set_channel(h, nv);
    std::uint64_t fnv = 1469598103934665603ull;
    std::vector<double> m(det->active_paths());
    for (int v = 0; v < 16; ++v) {
      const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
      det->path_metric_block(ybar, 0, m.size(), m.data());
      fnv = fnv_metrics(fnv, m);
    }
    EXPECT_EQ(fnv, g.random) << "qam=" << g.qam << " random vectors";

    // Every rank at the top level, rank 1 below it.
    const fl::CMat& r = det->qr().R;
    const std::size_t top = r.cols() - 1;
    std::vector<fc::RankedPath> paths(32);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      paths[p].p.assign(r.cols(), 1);
      paths[p].p[top] = 1 + static_cast<int>(p) % c.order();
    }
    fd::PathPlanI16 plan;
    plan.compile_flexcore(r, paths, c, det->lut(), false,
                          fc::InvalidEntryPolicy::kDeactivate);
    const int side = c.side();
    // The PAM half-step at eff's scale, and the farthest eff the kernel
    // slices: b is clamped to int16 at 2^F before the slice.
    const double x =
        c.scale() * std::ldexp(1.0, plan.frac_bits() + plan.rdi_bits(top));
    const double eff_max =
        flexcore::perfmodel::I16Format::kMax /
        (std::ldexp(1.0, plan.frac_bits()) * std::abs(r(top, top)));
    fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
    std::vector<double> e(paths.size());
    fnv = 1469598103934665603ull;
    int saturated = 0;
    // eff's real part from the outermost grid point to 4 PAM steps past it,
    // on either side; its imaginary part across the grid.
    for (int k = 0; k <= 200; ++k) {
      for (const double sign : {-1.0, 1.0}) {
        const double re = sign * (side - 1 + 0.04 * k) * c.scale();
        const int a =
            plan.slicer_center(top, std::clamp(re, -eff_max, eff_max));
        saturated += a != fd::PathPlanI16::kSlicerInvalid &&
                     std::fabs(2.0 * a - (side - 1)) * x > 1073741824.0;
        for (int j = -4 * side; j <= 4 * side; ++j) {
          ybar[top] = r(top, top) * fl::cplx{re, 0.25 * j * c.scale()};
          plan.path_metric_block(ybar, 0, e.size(), e.data());
          fnv = fnv_metrics(fnv, e);
        }
      }
    }
    EXPECT_GT(saturated, 0) << "qam=" << g.qam
                            << ": no swept center has a saturated reference";
    EXPECT_EQ(fnv, g.edge) << "qam=" << g.qam << " edge sweep"
                           << " (std::printf(\"%llx\", fnv))";
  }
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
  constexpr std::size_t kChannels = 8, kVectors = 256;
  std::vector<fl::CMat> channels;
  std::vector<fl::CVec> ys;
  std::vector<fd::DetectionResult> per_vector;
  for (std::size_t channel = 0; channel < kChannels; ++channel) {
    const auto h = ch::rayleigh_iid(12, 12, rng);
    channels.push_back(h);
    det->set_channel(h, nv);
    const fr::FlexCoreReference ref(*det);
    for (std::size_t v = 0; v < kVectors; ++v) {
      ys.push_back(random_y(h, c, nv, rng));
      const fl::CVec ybar = det->rotate(ys.back());
      std::size_t best_path = 0;
      double best_metric = 0.0;
      fd::scan_paths(*det, ybar, det->active_paths(), &best_path,
                     &best_metric);  // the i16 grid's verdict
      fd::DetectionResult got;
      det->reconstruct_winner(ybar, best_path, best_metric, ws, &got);
      per_vector.push_back(got);
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
  if (flexcore::obs::kEnabled) {
    EXPECT_EQ(rescans() - rescans0, rescued);
  }

  // The same vectors as one frame through detect_frame, whose grouped
  // reconstruction rescues the same vectors, counted once each, and
  // decides every vector like the per-vector path above.
  fa::PipelineConfig pcfg;
  pcfg.detector = "flexcore-64:i16";
  pcfg.qam_order = 64;
  pcfg.threads = 2;
  fa::UplinkPipeline pipe(pcfg);
  fa::FrameJob job;
  job.channels = channels;
  job.ys = ys;
  job.vectors_per_channel = kVectors;
  job.noise_var = nv;
  const std::uint64_t rescans1 = rescans();
  const fa::FrameResult frame = pipe.detect_frame(job);
  if (flexcore::obs::kEnabled) {
    EXPECT_EQ(rescans() - rescans1, rescued);
  }
  ASSERT_EQ(frame.results.size(), per_vector.size());
  for (std::size_t u = 0; u < per_vector.size(); ++u) {
    EXPECT_EQ(frame.results[u].symbols, per_vector[u].symbols) << u;
    EXPECT_EQ(frame.results[u].metric, per_vector[u].metric) << u;
  }
}

TEST(KernelI16, FootprintOrderingAcrossTiers) {
  // The storage story of the tiers: on one channel the int16 SoA plan is
  // smaller than the fp64 plan.  An i16 detector also holds the exact plan
  // (every exact walk runs on it), so its footprint is exact + i16; its
  // exact plan leaves out the path trie, which only the fp64 grid walks.
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
  const auto i16 = make("flexcore-128:i16");

  // The two plans of this channel, compiled from the fp64 detector's
  // preprocessing exactly as the detectors compile theirs.
  const auto bytes_of = [&](auto&& plan) {
    plan.compile_flexcore(
        fp64->qr().R, fp64->preprocessing().paths, c, fp64->lut(),
        fp64->config().ordering == fc::OrderingMode::kExactSort,
        fp64->config().invalid_policy);
    return plan.footprint_bytes();
  };
  const std::size_t b16 = bytes_of(fd::PathPlanI16{});
  const std::size_t b64 = bytes_of(fd::PathPlan{});
  EXPECT_LT(b16, b64) << "i16 plan must undercut fp64";

  EXPECT_EQ(fp64->plan_footprint_bytes(), b64);
  EXPECT_EQ(i16->plan_footprint_bytes(), bytes_of(fd::PathPlan{false}) + b16);
}

TEST(KernelI16, SpecGrammarRoundTripsAndRejects) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  for (const char* spec : {"flexcore-16:i16", "a-flexcore-8:i16"}) {
    const auto det = fa::make_detector(spec, cfg);
    EXPECT_EQ(det->name(), spec);
    EXPECT_EQ(fa::make_detector(det->name(), cfg)->name(), det->name());
  }
  // No ":fp64" spelling: a bare spec is the fp64 tier.
  EXPECT_THROW(fa::make_detector("a-flexcore-8:fp64", cfg),
               std::invalid_argument);
  // The tier is FlexCore's: the FCSD and the detectors without block
  // kernels reject it like any unknown spec.
  EXPECT_THROW(fa::make_detector("fcsd-L1:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("fcsd:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("zf:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("kbest-8:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("ml-sd:i16", cfg), std::invalid_argument);
  // The tier is discoverable: list_specs() surfaces an :i16 spelling.
  const auto specs = fa::list_specs();
  EXPECT_NE(std::find(specs.begin(), specs.end(), "flexcore-64:i16"),
            specs.end());
}

}  // namespace
