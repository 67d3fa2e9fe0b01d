// Tests for the frame-level detection engine: api::FrameJob /
// UplinkPipeline::detect_frame, the multi-channel grid
// (detect::run_frame_grid) and its zero-allocation steady state.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "detect/path_grid.h"
#include "frame_fixtures.h"
#include "obs/obs.h"
#include "parallel/hot_path_guard.h"
#include "parallel/thread_pool.h"

namespace fa = flexcore::api;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace ch = flexcore::channel;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::modulation::Constellation;

// ------------------------------------------------------- allocation probe
//
// Allocation counting comes from the library's own hot-path guard
// (parallel/hot_path_guard.h): libflexcore interposes operator new/delete
// process-wide, and a HotPathScope armed with Scope::kProcess counts every
// thread's allocations while it is live.

namespace {

using flexcore::testing::expect_bit_identical;
using flexcore::testing::Frame;
using flexcore::testing::job_of;
using flexcore::testing::make_frame;

/// Vectors per subcarrier a frame test runs: its own count, one, and one
/// past the lanes of a lane-batched reconstruction walk (a second group).
std::vector<std::size_t> vector_counts(std::size_t own) {
  return {own, 1, fd::PathPlan::walk_lanes() + 1};
}

/// Reference: the sequential per-subcarrier set_channel + detect lifecycle
/// on a fresh registry-constructed detector.
std::vector<fd::DetectionResult> sequential_reference(
    const std::string& spec, const Constellation& c, const Frame& fr,
    double noise_var) {
  const auto det = fa::make_detector(spec, {.constellation = &c});
  std::vector<fd::DetectionResult> out;
  out.reserve(fr.ys.size());
  for (std::size_t f = 0; f < fr.channels.size(); ++f) {
    det->set_channel(fr.channels[f], noise_var);
    for (std::size_t t = 0; t < fr.nv; ++t) {
      out.push_back(det->detect(fr.ys[f * fr.nv + t]));
    }
  }
  return out;
}

// ------------------------------------------------------------ detect_frame

TEST(Frame, EmptyFrameIsNoOp) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-8";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);

  const fa::FrameResult fr = pipe.detect_frame(fa::FrameJob{});
  EXPECT_TRUE(fr.results.empty());
  EXPECT_EQ(fr.tasks, 0u);
  EXPECT_EQ(fr.channels_installed, 0u);
  EXPECT_EQ(pipe.vectors_detected(), 0u);
  EXPECT_EQ(pipe.channel_installs(), 0u);
}

TEST(Frame, ZeroVectorsStillInstallsChannels) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-8";
  cfg.qam_order = 16;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  const Frame fr = make_frame(pipe.constellation(), 3, 0, 4, 4, 0.05, 21);

  const fa::FrameResult out = pipe.detect_frame(job_of(fr, 0.05));
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.channels_installed, 3u);
  EXPECT_GT(out.sum_active_paths, 0.0);
  EXPECT_EQ(pipe.channel_installs(), 3u);
}

TEST(Frame, SingleSubcarrierMatchesDetectBitForBit) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-16";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(12.0);
  for (const std::size_t vpc : vector_counts(20)) {
    const Frame fr = make_frame(pipe.constellation(), 1, vpc, 6, 6, nv, 22);

    const fa::FrameResult out = pipe.detect_frame(job_of(fr, nv));
    expect_bit_identical(out.results,
                         sequential_reference("flexcore-16",
                                              pipe.constellation(), fr, nv));
  }
}

TEST(Frame, SixtyFourSubcarrierFrameMatchesSequentialLifecycle) {
  // The acceptance-criteria scenario: a 64-subcarrier frame must be
  // bit-identical to 64 sequential set_channel + detect calls.
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-8";
  cfg.qam_order = 16;
  cfg.threads = 3;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(14.0);
  std::size_t vectors = 0;
  for (const std::size_t vpc : vector_counts(2)) {
    const Frame fr = make_frame(pipe.constellation(), 64, vpc, 4, 4, nv, 23);

    const fa::FrameResult out = pipe.detect_frame(job_of(fr, nv));
    expect_bit_identical(out.results,
                         sequential_reference("flexcore-8",
                                              pipe.constellation(), fr, nv));
    EXPECT_EQ(out.channels_installed, 64u);
    vectors += fr.ys.size();
    EXPECT_EQ(pipe.vectors_detected(), vectors);
    EXPECT_GT(out.tasks, 0u);
  }
}

TEST(Frame, AdaptiveFlexcoreFrameMatchesSequentialLifecycle) {
  // a-FlexCore activates a different path count per subcarrier, exercising
  // the ragged paths-per-channel dimension of the grid.
  fa::PipelineConfig cfg;
  cfg.detector = "a-flexcore-24";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(13.0);
  for (const std::size_t vpc : vector_counts(4)) {
    const Frame fr = make_frame(pipe.constellation(), 12, vpc, 6, 6, nv, 24);

    const fa::FrameResult out = pipe.detect_frame(job_of(fr, nv));
    expect_bit_identical(out.results,
                         sequential_reference("a-flexcore-24",
                                              pipe.constellation(), fr, nv));
  }
}

TEST(Frame, TrieFrameMatchesSequentialLifecycle) {
  // massive-64x8-sharded's shape: merged 16x8 channels of a 64-antenna
  // array behind two clusters, 16-QAM at -2 dB, flexcore-32, 7 vectors per
  // subcarrier.  Every subcarrier's group takes the trie walk (checked on
  // detectors holding the same channels), and the frame still equals the
  // sequential lifecycle bit for bit; the other vector counts split into
  // groups of one (block scan) and several trie walks.
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-32";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(-2.0);
  for (const std::size_t vpc : vector_counts(7)) {
    const Frame fr = flexcore::testing::merged_frame(
        make_frame(pipe.constellation(), 12, vpc, 64, 8, nv, 29), 2);
    if (vpc == 7) {
      fc::FlexCoreDetector probe(pipe.constellation(),
                                 fc::FlexCoreConfig{.num_pes = 32});
      for (std::size_t f = 0; f < fr.channels.size(); ++f) {
        probe.set_channel(fr.channels[f], nv);
        EXPECT_TRUE(probe.plan().trie_wins(vpc)) << "subcarrier " << f;
      }
    }
    const fa::FrameResult out = pipe.detect_frame(job_of(fr, nv));
    expect_bit_identical(out.results,
                         sequential_reference("flexcore-32",
                                              pipe.constellation(), fr, nv));
  }
}

TEST(Frame, SicFallbackAppliedInsideFrame) {
  // A tiny path budget at brutal noise deactivates every PE for some
  // vectors; the frame engine must apply the same SIC fallback detect()
  // does, report the count and add it to obs::Counter::kSicFallbacks.
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-2";
  cfg.qam_order = 64;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double nv = 4.0;
  const Frame fr = make_frame(pipe.constellation(), 8, 25, 8, 8, nv, 25);
  const auto fallbacks = [] {
    return flexcore::obs::metrics_snapshot().counters[static_cast<std::size_t>(
        flexcore::obs::Counter::kSicFallbacks)];
  };

  const std::uint64_t fallbacks0 = fallbacks();
  const fa::FrameResult out = pipe.detect_frame(job_of(fr, nv));
  if (flexcore::obs::kEnabled) {
    EXPECT_EQ(fallbacks() - fallbacks0, out.sic_fallbacks);
  }
  expect_bit_identical(out.results,
                       sequential_reference("flexcore-2", pipe.constellation(),
                                            fr, nv));
  EXPECT_GT(out.sic_fallbacks, 0u)
      << "scenario no longer exercises the fallback; lower the budget";
}

TEST(Frame, FcsdFrameMatchesSequentialLifecycle) {
  fa::PipelineConfig cfg;
  cfg.detector = "fcsd-L1";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double nv = 0.05;
  for (const std::size_t vpc : vector_counts(6)) {
    const Frame fr = make_frame(pipe.constellation(), 10, vpc, 6, 6, nv, 26);

    const fa::FrameResult out = pipe.detect_frame(job_of(fr, nv));
    expect_bit_identical(out.results,
                         sequential_reference("fcsd-L1", pipe.constellation(),
                                              fr, nv));
    EXPECT_EQ(out.sic_fallbacks, 0u);
  }
}

TEST(Frame, GenericDetectorsRouteThroughBatchFallback) {
  // Detectors without span kernels (zf-sic, kbest) still honour the frame
  // contract via per-subcarrier detect_batch.
  for (const char* spec : {"zf-sic", "kbest-4"}) {
    fa::PipelineConfig cfg;
    cfg.detector = spec;
    cfg.qam_order = 16;
    cfg.threads = 2;
    fa::UplinkPipeline pipe(cfg);
    const double nv = 0.05;
    const Frame fr = make_frame(pipe.constellation(), 6, 5, 5, 5, nv, 27);

    const fa::FrameResult out = pipe.detect_frame(job_of(fr, nv));
    expect_bit_identical(out.results,
                         sequential_reference(spec, pipe.constellation(), fr,
                                              nv));
  }
}

TEST(Frame, ThreadCountDoesNotChangeResults) {
  const double nv = ch::noise_var_for_snr_db(10.0);
  Constellation c(16);
  const Frame fr = make_frame(c, 16, 6, 6, 6, nv, 28);

  std::vector<fd::DetectionResult> one, many;
  for (std::size_t threads : {1u, 4u}) {
    fa::PipelineConfig cfg;
    cfg.detector = "flexcore-12";
    cfg.qam_order = 16;
    cfg.threads = threads;
    fa::UplinkPipeline pipe(cfg);
    auto& dst = threads == 1 ? one : many;
    dst = pipe.detect_frame(job_of(fr, nv)).results;
  }
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t v = 0; v < one.size(); ++v) {
    EXPECT_EQ(one[v].symbols, many[v].symbols) << "vector " << v;
    EXPECT_EQ(one[v].metric, many[v].metric) << "vector " << v;
  }
}

TEST(Frame, MalformedJobsThrow) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-8";
  cfg.qam_order = 16;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  const Frame fr = make_frame(pipe.constellation(), 2, 3, 4, 4, 0.05, 29);

  fa::FrameJob bad_count = job_of(fr, 0.05);
  bad_count.vectors_per_channel = 2;  // ys.size() == 6 != 2 * 2
  EXPECT_THROW(pipe.detect_frame(bad_count), std::invalid_argument);

  Frame ragged = fr;
  ragged.channels[1] = CMat(5, 4);  // shape mismatch
  EXPECT_THROW(pipe.detect_frame(job_of(ragged, 0.05)), std::invalid_argument);

  // Degenerate (zero-dimension) channel matrices.
  Frame empty_h = fr;
  empty_h.channels.assign(2, CMat(0, 0));
  EXPECT_THROW(pipe.detect_frame(job_of(empty_h, 0.05)),
               std::invalid_argument);

  // A received vector whose length disagrees with the channel row count
  // (mismatched per-subcarrier batch contents).
  Frame bad_y = fr;
  bad_y.ys[3] = CVec(7);
  EXPECT_THROW(pipe.detect_frame(job_of(bad_y, 0.05)), std::invalid_argument);

  // Empty ys with a nonzero vector count promises 6 vectors but carries 0.
  fa::FrameJob empty_ys = job_of(fr, 0.05);
  empty_ys.ys = {};
  EXPECT_THROW(pipe.detect_frame(empty_ys), std::invalid_argument);

  // api::validate_frame_job is the same guard, callable without running
  // (the runtime validates at submit time through it).
  EXPECT_THROW(fa::validate_frame_job(bad_count), std::invalid_argument);
  EXPECT_NO_THROW(fa::validate_frame_job(job_of(fr, 0.05)));
  EXPECT_NO_THROW(fa::validate_frame_job(fa::FrameJob{}));

  // Nothing above reached the grid or the counters.
  EXPECT_EQ(pipe.vectors_detected(), 0u);
  EXPECT_EQ(pipe.channel_installs(), 0u);
}

TEST(Frame, SharedPoolPipelinesMatchOwnedPoolPipelines) {
  // Two pipelines multiplexing ONE shared pool (the runtime's layout)
  // produce the same frames as pipelines owning their pools.
  flexcore::parallel::ThreadPool shared(3);
  const double nv = ch::noise_var_for_snr_db(12.0);
  Constellation c(16);
  const Frame fr_a = make_frame(c, 6, 3, 4, 4, nv, 35);
  const Frame fr_b = make_frame(c, 4, 2, 4, 4, nv, 36);

  fa::PipelineConfig shared_cfg;
  shared_cfg.detector = "flexcore-8";
  shared_cfg.qam_order = 16;
  shared_cfg.shared_pool = &shared;
  fa::UplinkPipeline pa(shared_cfg), pb(shared_cfg);
  EXPECT_TRUE(pa.uses_shared_pool());
  EXPECT_EQ(&pa.pool(), &shared);
  EXPECT_EQ(&pb.pool(), &shared);

  fa::PipelineConfig owned_cfg = shared_cfg;
  owned_cfg.shared_pool = nullptr;
  owned_cfg.threads = 3;
  fa::UplinkPipeline ref(owned_cfg);
  EXPECT_FALSE(ref.uses_shared_pool());

  const fa::FrameResult ra = pa.detect_frame(job_of(fr_a, nv));
  const fa::FrameResult rb = pb.detect_frame(job_of(fr_b, nv));
  expect_bit_identical(ra.results,
                       ref.detect_frame(job_of(fr_a, nv)).results);
  expect_bit_identical(rb.results,
                       ref.detect_frame(job_of(fr_b, nv)).results);
}

TEST(Frame, CountersAggregateAcrossFrames) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-8";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double nv = 0.05;
  const Frame fr = make_frame(pipe.constellation(), 4, 3, 4, 4, nv, 30);

  const fa::FrameResult a = pipe.detect_frame(job_of(fr, nv));
  const fa::FrameResult b = pipe.detect_frame(job_of(fr, nv));
  EXPECT_EQ(pipe.channel_installs(), 8u);
  EXPECT_EQ(pipe.vectors_detected(), 2 * fr.ys.size());
  EXPECT_GT(pipe.total_stats().paths_evaluated, 0u);
  // Same job twice: identical verdicts and counters.
  expect_bit_identical(b.results, a.results);
  EXPECT_EQ(a.tasks, b.tasks);
}

TEST(Frame, ReusePreprocessingSkipsInstallsAndMatches) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-12";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(pipe.constellation(), 10, 4, 6, 6, nv, 33);

  const fa::FrameResult cold = pipe.detect_frame(job_of(fr, nv));
  EXPECT_EQ(pipe.channel_installs(), 10u);

  fa::FrameJob warm = job_of(fr, nv);
  warm.reuse_preprocessing = true;
  const fa::FrameResult reused = pipe.detect_frame(warm);
  EXPECT_EQ(pipe.channel_installs(), 10u) << "reuse must not re-install";
  EXPECT_EQ(reused.channels_installed, 0u);
  expect_bit_identical(reused.results, cold.results);

  // Reuse holds at any vector count over the installed channels: one
  // vector per subcarrier, and one past a reconstruction group.
  ch::Rng rng(330);
  for (const std::size_t vpc : vector_counts(4)) {
    const Frame more = flexcore::sim::synth_frame_over(
        pipe.constellation(), fr.channels, vpc, nv, rng);
    fa::FrameJob again = job_of(more, nv);
    again.reuse_preprocessing = true;
    const fa::FrameResult hit = pipe.detect_frame(again);
    EXPECT_EQ(hit.channels_installed, 0u);
    expect_bit_identical(hit.results,
                         sequential_reference("flexcore-12",
                                              pipe.constellation(), more, nv));
  }
  EXPECT_EQ(pipe.channel_installs(), 10u);

  // A different subcarrier count invalidates the cache: preprocessing runs
  // despite the flag.
  const Frame other = make_frame(pipe.constellation(), 4, 4, 6, 6, nv, 34);
  fa::FrameJob fresh = job_of(other, nv);
  fresh.reuse_preprocessing = true;
  const fa::FrameResult out = pipe.detect_frame(fresh);
  EXPECT_EQ(out.channels_installed, 4u);
  expect_bit_identical(out.results,
                       sequential_reference("flexcore-12", pipe.constellation(),
                                            other, nv));

  // So does a different antenna geometry at the SAME count: reusing 6x6 QR
  // state for a 4x4 frame would walk garbage.
  const Frame geom = make_frame(pipe.constellation(), 4, 4, 4, 4, nv, 37);
  fa::FrameJob regeom = job_of(geom, nv);
  regeom.reuse_preprocessing = true;
  const fa::FrameResult gout = pipe.detect_frame(regeom);
  EXPECT_EQ(gout.channels_installed, 4u) << "geometry change must reinstall";
  expect_bit_identical(gout.results,
                       sequential_reference("flexcore-12", pipe.constellation(),
                                            geom, nv));
}

TEST(Frame, ReuseRequiresSameNoiseVar) {
  // Path selection depends on the noise variance: a reuse request after a
  // noise change re-preprocesses and matches a fresh pipeline bit for bit,
  // and at an unchanged noise variance the request still hits.
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-32";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const double quiet = ch::noise_var_for_snr_db(25.0);
  const double loud = ch::noise_var_for_snr_db(0.0);
  const Frame fr = make_frame(pipe.constellation(), 4, 3, 8, 8, quiet, 38);
  pipe.detect_frame(job_of(fr, quiet));

  fa::FrameJob changed = job_of(fr, loud);
  changed.reuse_preprocessing = true;
  const fa::FrameResult got = pipe.detect_frame(changed);
  EXPECT_EQ(got.channels_installed, 4u) << "a noise change must reinstall";

  fa::UplinkPipeline fresh(cfg);
  const fa::FrameResult want = fresh.detect_frame(job_of(fr, loud));
  EXPECT_EQ(got.sum_active_paths, want.sum_active_paths);
  expect_bit_identical(got.results, want.results);

  const fa::FrameResult hit = pipe.detect_frame(changed);
  EXPECT_EQ(hit.channels_installed, 0u) << "same noise variance must reuse";
  expect_bit_identical(hit.results, want.results);
}

// --------------------------------------------------------- zero-allocation

TEST(FrameGrid, SteadyStateGridDoesNotAllocate) {
  // The acceptance criterion for the workspace refactor: once buffers are
  // warm, a full multi-channel grid run performs ZERO heap allocations —
  // at any thread count.
  Constellation c(16);
  ch::Rng rng(31);
  const std::size_t nsc = 4, nv = 6, n = 6;
  const double noise = ch::noise_var_for_snr_db(12.0);

  std::vector<std::unique_ptr<fc::FlexCoreDetector>> dets;
  std::vector<const fc::FlexCoreDetector*> ptrs;
  std::vector<std::size_t> paths;
  Frame fr = make_frame(c, nsc, nv, n, n, noise, 32);
  for (std::size_t f = 0; f < nsc; ++f) {
    dets.push_back(
        std::make_unique<fc::FlexCoreDetector>(c, fc::FlexCoreConfig{.num_pes = 8}));
    dets.back()->set_channel(fr.channels[f], noise);
    ptrs.push_back(dets.back().get());
    paths.push_back(dets.back()->active_paths());
  }

  for (std::size_t threads : {1u, 3u}) {
    flexcore::parallel::ThreadPool pool(threads);
    fd::FrameGridOutput grid;
    // Warm runs: grow every buffer to its high-water mark.
    fd::run_frame_grid<fc::FlexCoreDetector>(ptrs, paths, fr.ys, nv, n, pool,
                                             &grid);
    fd::run_frame_grid<fc::FlexCoreDetector>(ptrs, paths, fr.ys, nv, n, pool,
                                             &grid);

    flexcore::parallel::HotPathScope guard(
        "frame grid steady state",
        flexcore::parallel::HotPathScope::Scope::kProcess);
    fd::run_frame_grid<fc::FlexCoreDetector>(ptrs, paths, fr.ys, nv, n, pool,
                                             &grid);
    EXPECT_EQ(guard.delta().allocations, 0u) << "threads=" << threads;

    // The grid still produced verdicts.
    ASSERT_EQ(grid.best_path.size(), nsc * nv);
    for (double m : grid.best_metric) EXPECT_TRUE(std::isfinite(m));
  }
}

TEST(PathGrid, SteadyStateGridDoesNotAllocate) {
  // The single-channel grid behind detect_batch (the frame grid over one
  // channel) honours the same contract as a multi-channel frame: with a
  // warm FrameGridOutput, a full vector x path run performs ZERO heap
  // allocations — at any thread count, for both the FlexCore and FCSD
  // block kernels.
  Constellation c(16);
  const double noise = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(c, 1, 24, 6, 6, noise, 41);

  fc::FlexCoreDetector flex(c, fc::FlexCoreConfig{.num_pes = 16});
  flex.set_channel(fr.channels[0], noise);
  fd::FcsdDetector fcsd(c, 1);
  fcsd.set_channel(fr.channels[0], noise);
  const fc::FlexCoreDetector* const flex_dets[] = {&flex};
  const fd::FcsdDetector* const fcsd_dets[] = {&fcsd};
  const std::size_t flex_paths[] = {flex.active_paths()};
  const std::size_t fcsd_paths[] = {fcsd.num_paths()};

  for (std::size_t threads : {1u, 3u}) {
    flexcore::parallel::ThreadPool pool(threads);
    fd::FrameGridOutput grid;
    const auto run_both = [&] {
      fd::run_frame_grid<fc::FlexCoreDetector>(flex_dets, flex_paths, fr.ys,
                                               fr.ys.size(), 6, pool, &grid);
      fd::run_frame_grid<fd::FcsdDetector>(fcsd_dets, fcsd_paths, fr.ys,
                                           fr.ys.size(), 6, pool, &grid);
    };
    run_both();  // warm: grow every buffer to its high-water mark
    run_both();

    flexcore::parallel::HotPathScope guard(
        "path grid steady state",
        flexcore::parallel::HotPathScope::Scope::kProcess);
    run_both();
    EXPECT_EQ(guard.delta().allocations, 0u) << "threads=" << threads;

    ASSERT_EQ(grid.best_path.size(), fr.ys.size());
    for (double m : grid.best_metric) EXPECT_TRUE(std::isfinite(m));
  }
}

TEST(Frame, I16TierRunsAndStaysClose) {
  // The ":i16" compute tier flows end-to-end through the pipeline: the
  // frame grid runs the quantized int16 block kernels, winner
  // reconstruction stays double, and at a comfortable SNR the symbol
  // decisions match the fp64 tier on the overwhelming majority of
  // vectors (tests/kernel_test.cpp quantifies the SER gap properly).
  const double nv = ch::noise_var_for_snr_db(18.0);
  Constellation c(16);
  const Frame fr = make_frame(c, 8, 6, 6, 6, nv, 43);

  fa::PipelineConfig c64;
  c64.detector = "flexcore-16";
  c64.qam_order = 16;
  c64.threads = 2;
  fa::UplinkPipeline p64(c64);

  fa::PipelineConfig c16 = c64;
  c16.detector = "flexcore-16:i16";
  fa::UplinkPipeline p16(c16);
  EXPECT_EQ(p16.detector().name(), "flexcore-16:i16");

  const fa::FrameResult r64 = p64.detect_frame(job_of(fr, nv));
  const fa::FrameResult r16 = p16.detect_frame(job_of(fr, nv));
  ASSERT_EQ(r16.results.size(), r64.results.size());
  std::size_t disagreements = 0;
  for (std::size_t v = 0; v < r64.results.size(); ++v) {
    disagreements += r16.results[v].symbols != r64.results[v].symbols;
  }
  EXPECT_LE(disagreements, r64.results.size() / 10)
      << "i16 tier diverged from fp64 on too many vectors";
}

}  // namespace
