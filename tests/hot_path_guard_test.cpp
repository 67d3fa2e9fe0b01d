// Tests for the runtime hot-path guard (parallel/hot_path_guard.h) and the
// invariants it pins on the detection runtimes:
//
//  * the guard itself: allocation/lock counting, thread vs process scope;
//  * path_metric_block is allocation- and lock-free in both precision
//    tiers (fp64 / i16);
//  * a single-threaded ThreadPool runs jobs with ZERO lock traffic (the
//    inline short-circuit);
//  * UplinkPipeline::detect_frame steady state (reuse overload +
//    reuse_preprocessing, threads=1) performs ZERO heap allocations and
//    ZERO lock acquisitions, and so do fresh-channel frames (QR, path
//    search and plan compile per subcarrier) once the scratch is warm;
//  * Runtime run_one and sharded (shards = 2) submit→complete cycles have
//    an O(1)-per-frame control-plane envelope: allocation and lock counts
//    do not grow with the grid's path count.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "api/runtime.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/path_kernels.h"
#include "frame_fixtures.h"
#include "linalg/qr.h"
#include "obs/obs.h"
#include "parallel/hot_path_guard.h"
#include "parallel/thread_pool.h"

namespace fa = flexcore::api;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fp = flexcore::parallel;
namespace ch = flexcore::channel;
namespace fl = flexcore::linalg;

using flexcore::testing::Frame;
using flexcore::testing::job_of;
using flexcore::testing::make_frame;
using Scope = fp::HotPathScope::Scope;

namespace {

/// An allocation the optimizer cannot elide: new-EXPRESSIONS paired with an
/// immediate delete may legally be folded away (GCC does at -O2), but a
/// direct call of the replaceable operator function may not.
void heap_roundtrip(std::size_t bytes) {
  void* p = ::operator new(bytes);
  ::operator delete(p);
}

// ------------------------------------------------------------ guard basics

TEST(Guard, CountsThisThreadsAllocations) {
  fp::HotPathScope guard("alloc counting");
  EXPECT_TRUE(fp::HotPathScope::armed_on_this_thread());
  void* p = ::operator new(sizeof(int));
  const auto mid = guard.delta();
  EXPECT_GE(mid.allocations, 1u);
  EXPECT_GE(mid.alloc_bytes, sizeof(int));
  ::operator delete(p);
  EXPECT_GE(guard.delta().deallocations, 1u);
}

TEST(Guard, ScopesNestIndependently) {
  fp::HotPathScope outer("outer");
  heap_roundtrip(1);
  {
    fp::HotPathScope inner("inner");
    heap_roundtrip(32);
    EXPECT_GE(inner.delta().allocations, 1u);
    // The inner scope must not see the allocation made before it started.
    EXPECT_LT(inner.delta().allocations, outer.delta().allocations + 1u);
  }
  EXPECT_GE(outer.delta().allocations, 2u);
}

TEST(Guard, CountsPoolLockAcquisitions) {
  // A real lock site: a threads = 2 pool's run_job takes the pool mutex on
  // the submitting thread to post the job and again to wait for it, so a
  // kThread scope around the submits counts at least one acquisition per
  // job.
  fp::ThreadPool pool(2);
  std::vector<int> sink(64, 0);
  constexpr std::uint64_t kJobs = 4;
  fp::HotPathScope guard("pool lock counting");
  for (std::uint64_t j = 0; j < kJobs; ++j) {
    pool.parallel_for(sink.size(), [&](std::size_t i) { sink[i] += 1; });
  }
  EXPECT_GE(guard.delta().lock_acquisitions, kJobs);
  for (int v : sink) EXPECT_EQ(v, static_cast<int>(kJobs));
}

TEST(Guard, AlignedNewRefusesUnroundableSize) {
  // Within alignment - 1 of SIZE_MAX a size has no multiple of the
  // alignment: the throwing form must throw and the nothrow form return
  // null, never hand out a small block.  The volatile keeps the compiler
  // from seeing (and warning about) the constant size.
  volatile std::size_t huge = SIZE_MAX - 8;
  constexpr std::align_val_t kAlign{64};
  EXPECT_THROW(::operator delete(::operator new(huge, kAlign), kAlign),
               std::bad_alloc);
  EXPECT_THROW(::operator delete[](::operator new[](huge, kAlign), kAlign),
               std::bad_alloc);
  EXPECT_EQ(::operator new(huge, kAlign, std::nothrow), nullptr);
  EXPECT_EQ(::operator new[](huge, kAlign, std::nothrow), nullptr);
}

TEST(Guard, ThreadScopeIgnoresOtherThreads) {
  // A worker allocating on another thread must be invisible to a kThread
  // scope and visible to a kProcess scope.  The std::thread constructor
  // itself allocates its shared state on THIS thread, so the thread-scope
  // bound is "a few", not zero.
  constexpr std::uint64_t kWorkerAllocs = 512;
  fp::HotPathScope thread_scope("this thread", Scope::kThread);
  fp::HotPathScope process_scope("all threads", Scope::kProcess);
  std::thread worker([] {
    for (std::uint64_t i = 0; i < kWorkerAllocs; ++i) heap_roundtrip(8);
  });
  worker.join();
  EXPECT_LE(thread_scope.delta().allocations, 8u);
  EXPECT_GE(process_scope.delta().allocations, kWorkerAllocs);
}

// ------------------------------------------------- kernel tiers alloc-free

TEST(KernelTiers, PathMetricBlockAllocAndLockFreeAllTiers) {
  // Compile the FCSD's fp64 plan and an ":i16" FlexCore detector's int16
  // plan on the same channel, then assert a full sweep of
  // path_metric_block touches neither the heap nor any instrumented lock
  // — the per-path contract of the kernel engine.
  flexcore::modulation::Constellation c(16);
  ch::Rng rng(29);
  const fl::CMat h = ch::rayleigh_iid(6, 6, rng);
  const fl::QrResult qr = fl::fcsd_sorted_qr(h, 1);

  fd::PathPlan plan64;
  plan64.compile_fcsd(qr.R, 1, c);
  const std::size_t paths = plan64.num_paths();
  ASSERT_EQ(paths, 16u);
  const auto flex = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-16:i16", {.constellation = &c});
  flex->set_channel(h, ch::noise_var_for_snr_db(14.0));
  const fd::PathPlanI16& plan16 = flex->plan_i16();
  ASSERT_EQ(plan16.num_paths(), paths);

  std::vector<fl::cplx> ybar(qr.R.cols(), fl::cplx{0.3, -0.2});
  std::vector<double> metrics(paths);

  fp::HotPathScope guard("path_metric_block all tiers");
  plan64.path_metric_block(ybar, 0, paths, metrics.data());
  plan16.path_metric_block(ybar, 0, paths, metrics.data());
  const auto d = guard.delta();
  EXPECT_EQ(d.allocations, 0u);
  EXPECT_EQ(d.lock_acquisitions, 0u);
}

// --------------------------------------------- single-threaded pool locks

TEST(PoolLocks, SingleThreadedPoolRunsJobsLockFree) {
  // num_threads == 1 short-circuits run_job onto the calling thread; the
  // guard pins that this path takes ZERO locks and (after the state vector
  // warmed in the constructor) performs zero allocations.
  fp::ThreadPool pool(1);
  std::vector<double> sink(64, 0.0);
  pool.parallel_for(sink.size(), [&](std::size_t i) { sink[i] = 1.0; });

  fp::HotPathScope guard("threads=1 run_job");
  for (int rep = 0; rep < 8; ++rep) {
    pool.parallel_for(sink.size(), [&](std::size_t i) { sink[i] += 1.0; });
  }
  const auto d = guard.delta();
  EXPECT_EQ(d.lock_acquisitions, 0u);
  EXPECT_EQ(d.allocations, 0u);
}

// ------------------------------------------- detect_frame steady state

TEST(FrameSteadyState, ZeroAllocZeroLockSingleThread) {
  // The full frame path — rotate, grid, winner reconstruction, unpermute —
  // on a threads=1 pipeline with warm buffers: no heap, no locks.
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-16";
  cfg.qam_order = 16;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(14.0);
  const Frame fr = make_frame(pipe.constellation(), 6, 3, 4, 4, nv, 31);

  fa::FrameJob job = job_of(fr, nv);
  fa::FrameResult out;
  pipe.detect_frame(job, &out);  // cold: preprocess + buffer growth
  job.reuse_preprocessing = true;
  pipe.detect_frame(job, &out);  // warm-up reuse pass

  fp::HotPathScope guard("detect_frame steady state", Scope::kThread);
  pipe.detect_frame(job, &out);
  const auto d = guard.delta();
  EXPECT_EQ(d.allocations, 0u) << "steady-state frame touched the heap";
  EXPECT_EQ(d.lock_acquisitions, 0u)
      << "steady-state frame took a lock on a threads=1 pool";
  EXPECT_EQ(out.results.size(), fr.ys.size());
}

TEST(FrameSteadyState, FreshChannelZeroAllocSingleThread) {
  // Fresh-channel frames: every frame installs new channels, so the sorted
  // QR, the path search and the plan compile (path trie included) run per
  // subcarrier.  Once two frames' worth of channels have warmed the
  // detectors' scratch, that path too touches no heap and no lock —
  // alternating channels, so each install replaces a different one.  At
  // 4 dB the adaptive detector's path counts differ between the two
  // frames, so its results shrink and grow back.  The last case is
  // massive-64x8-sharded's shape, whose subcarriers scan by trie walk.
  const struct {
    const char* spec;
    std::size_t nr, vectors;
    double snr_db;
    std::size_t shards;
  } cases[] = {{"flexcore-32", 16, 3, 4.0, 1},
               {"a-flexcore-32", 16, 3, 4.0, 1},
               {"flexcore-16:i16", 16, 3, 4.0, 1},
               {"flexcore-32", 64, 7, -2.0, 2}};
  for (const auto& c : cases) {
    const char* spec = c.spec;
    fa::PipelineConfig cfg;
    cfg.detector = spec;
    cfg.qam_order = 16;
    cfg.threads = 1;
    fa::UplinkPipeline pipe(cfg);
    const double nv = ch::noise_var_for_snr_db(c.snr_db);
    const auto frame = [&](std::uint64_t seed) {
      const Frame fr = make_frame(pipe.constellation(), 6, c.vectors, c.nr,
                                  8, nv, seed);
      return c.shards > 1 ? flexcore::testing::merged_frame(fr, c.shards) : fr;
    };
    const Frame frame_a = frame(47);
    const Frame frame_b = frame(53);
    if (c.shards > 1) {
      fc::FlexCoreDetector probe(pipe.constellation(),
                                 fc::FlexCoreConfig{.num_pes = 32});
      for (const Frame* fr : {&frame_a, &frame_b}) {
        for (const fl::CMat& h : fr->channels) {
          probe.set_channel(h, nv);
          EXPECT_TRUE(probe.plan().trie_wins(c.vectors)) << spec;
        }
      }
    }
    const fa::FrameJob job_a = job_of(frame_a, nv);
    const fa::FrameJob job_b = job_of(frame_b, nv);
    ASSERT_FALSE(job_a.reuse_preprocessing);
    fa::FrameResult out;
    for (int warm = 0; warm < 2; ++warm) {
      pipe.detect_frame(job_a, &out);
      pipe.detect_frame(job_b, &out);
    }

    fp::HotPathScope guard("fresh-channel detect_frame", Scope::kThread);
    pipe.detect_frame(job_a, &out);
    pipe.detect_frame(job_b, &out);
    const auto d = guard.delta();
    EXPECT_EQ(d.allocations, 0u)
        << spec << ": fresh-channel frame touched the heap";
    EXPECT_EQ(d.lock_acquisitions, 0u) << spec;
    EXPECT_EQ(out.channels_installed, 6u) << spec;
    EXPECT_EQ(out.results.size(), frame_b.ys.size()) << spec;
  }
}

// ------------------------------------- runtime O(1)-per-frame envelope

/// Steady-state per-cycle guard counts of `cycles` submit → run_one → wait
/// rounds against an open cell (dispatchers == 0: everything runs on this
/// thread, so a kThread scope sees the whole frame).
fp::HotPathStats run_one_cycles(fa::Runtime& rt, fa::Cell& cell,
                                const fa::FrameJob& job, int cycles) {
  fp::HotPathScope guard("run_one cycles", Scope::kThread);
  for (int i = 0; i < cycles; ++i) {
    fa::FrameTicket t = rt.submit(cell, job);
    EXPECT_TRUE(rt.run_one()) << "nothing queued";
    EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);
  }
  return guard.delta();
}

TEST(RuntimeEnvelope, RunOneCostIndependentOfPathCount) {
  // Same frame geometry through a 16-path and a 128-path cell: the
  // control-plane cost per frame (allocations and lock acquisitions) must
  // not grow with the grid's path count — per-path work never touches the
  // heap or a mutex.
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;
  fa::Runtime rt(rcfg);
  fa::CellConfig small_cfg{.detector = "flexcore-8", .qam_order = 16};
  small_cfg.reuse_preprocessing = true;
  fa::CellConfig big_cfg{.detector = "flexcore-128", .qam_order = 16};
  big_cfg.reuse_preprocessing = true;
  fa::Cell& small = rt.open_cell(small_cfg);
  fa::Cell& big = rt.open_cell(big_cfg);

  flexcore::modulation::Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(14.0);
  const Frame fr = make_frame(c, 4, 2, 4, 4, nv, 37);
  const fa::FrameJob job = job_of(fr, nv);

  // Warm both cells (preprocessing caches + warm buffers), then measure.
  (void)run_one_cycles(rt, small, job, 3);
  (void)run_one_cycles(rt, big, job, 3);
  constexpr int kCycles = 8;
  const fp::HotPathStats ds = run_one_cycles(rt, small, job, kCycles);
  const fp::HotPathStats db = run_one_cycles(rt, big, job, kCycles);

  // 16x the paths, identical control plane: dispatchers == 0 and
  // threads == 1 make the counts deterministic, so exact equality holds.
  EXPECT_EQ(db.lock_acquisitions, ds.lock_acquisitions);
  EXPECT_EQ(db.allocations, ds.allocations);
  // And the envelope itself is small: a handful of control-plane locks per
  // frame (queue, ticket, completion), nothing per task or per path.
  EXPECT_LE(ds.lock_acquisitions, 32u * kCycles);
}

TEST(ShardedEnvelope, SubmitCompleteCostIndependentOfPathCount) {
  // The shard stage adds mailbox handoffs and claims per frame —
  // still O(1): counts for a 128-path cell stay within a constant of the
  // 8-path cell's, nowhere near the 16x task-count ratio.  Process scope:
  // shard drivers and dispatchers do the work on their own threads.
  fa::RuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.threads_per_shard = 1;
  rcfg.threads = 1;
  rcfg.dispatchers = 1;
  fa::Runtime rt(rcfg);
  fa::CellConfig small_cfg{.detector = "flexcore-8", .qam_order = 16};
  small_cfg.reuse_preprocessing = true;
  fa::CellConfig big_cfg{.detector = "flexcore-128", .qam_order = 16};
  big_cfg.reuse_preprocessing = true;
  fa::Cell& small = rt.open_cell(small_cfg);
  fa::Cell& big = rt.open_cell(big_cfg);

  flexcore::modulation::Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(14.0);
  const Frame fr = make_frame(c, 4, 2, 4, 4, nv, 41);
  const fa::FrameJob job = job_of(fr, nv);

  auto cycles = [&](fa::Cell& cell, int n) {
    fp::HotPathScope guard("sharded cycles", Scope::kProcess);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(rt.submit(cell, job).wait(), fa::TicketStatus::kDone);
    }
    return guard.delta();
  };
  (void)cycles(small, 3);
  (void)cycles(big, 3);
  constexpr int kCycles = 8;
  const fp::HotPathStats ds = cycles(small, kCycles);
  const fp::HotPathStats db = cycles(big, kCycles);

  // Background threads make exact counts nondeterministic (cv wakeups), so
  // the envelope is a slack bound: a 16x path-count ratio with ANY
  // per-path lock or allocation would blow hundreds past this.
  const auto slack_locks = ds.lock_acquisitions + 8u * kCycles;
  EXPECT_LE(db.lock_acquisitions, slack_locks);
  EXPECT_LE(db.allocations, ds.allocations + 8u * kCycles);
}

// --------------------------------------- tracing-enabled steady state

TEST(ObsSteadyState, TracingEnabledKeepsDetectFrameZeroAllocZeroLock) {
  // The observability contract: with spans compiled in (FLEXCORE_OBS != 0)
  // and every frame sampled, the steady-state frame path STILL performs
  // zero heap allocations and zero lock acquisitions — span recording is a
  // wait-free seqlock write into this thread's pre-registered ring.  The
  // one cold-path allocation (ring registration at the thread's first
  // record) happens in the warm-up passes below, outside the guard.
  namespace obs = flexcore::obs;
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "spans compiled out at FLEXCORE_OBS=0";
  }
  obs::ObsConfig ocfg;
  ocfg.sample_every = 1;  // sample EVERY frame: the worst case
  obs::reset_for_test(ocfg);

  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-16";
  cfg.qam_order = 16;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(14.0);
  const Frame fr = make_frame(pipe.constellation(), 6, 3, 4, 4, nv, 43);

  fa::FrameJob job = job_of(fr, nv);
  job.trace = obs::begin_frame(0);
  ASSERT_TRUE(obs::want_span(job.trace));
  fa::FrameResult out;
  pipe.detect_frame(job, &out);  // cold: preprocess, buffers, ring reg
  job.reuse_preprocessing = true;
  pipe.detect_frame(job, &out);  // warm reuse pass

  fp::HotPathScope guard("traced detect_frame steady state", Scope::kThread);
  pipe.detect_frame(job, &out);
  const auto d = guard.delta();
  EXPECT_EQ(d.allocations, 0u)
      << "traced steady-state frame touched the heap";
  EXPECT_EQ(d.lock_acquisitions, 0u)
      << "traced steady-state frame took a lock";
  EXPECT_EQ(out.results.size(), fr.ys.size());

  // The spans really were recorded — this was not a vacuous pass.
  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  EXPECT_GT(ms.spans_recorded, 0u);

  obs::reset_for_test();  // back to defaults for any later test
}

}  // namespace
