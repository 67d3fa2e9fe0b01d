// Tests for the asynchronous multi-cell runtime: api::Runtime / api::Cell /
// api::FrameTicket — submit/poll semantics, per-cell FIFO ordering,
// bit-identity with the synchronous path, the three backpressure policies,
// deadline expiry and the RuntimeStats counters.  The FIFO/bit-identity
// stress test and the backpressure tests run with shards in {1, 2, 4}: with
// C > 1 the reference is detect_frame on the merged (S, z) the public
// shard:: calls build.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/cell.h"
#include "api/runtime.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "channel/rng.h"
#include "frame_fixtures.h"

namespace fa = flexcore::api;
namespace fd = flexcore::detect;
namespace ch = flexcore::channel;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::modulation::Constellation;
using flexcore::testing::expect_bit_identical;
using flexcore::testing::Frame;
using flexcore::testing::job_of;
using flexcore::testing::make_frame;
using flexcore::testing::merged_frame;

namespace {

/// The shard counts the cross-check corpus runs with (1 = monolithic).
constexpr std::size_t kShardCounts[] = {1, 2, 4};

/// Synchronous reference: detect_frame on a standalone single-threaded
/// pipeline with the same spec.
std::vector<fd::DetectionResult> sync_reference(const std::string& spec,
                                                int qam, const Frame& fr,
                                                double noise_var) {
  fa::PipelineConfig cfg;
  cfg.detector = spec;
  cfg.qam_order = qam;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  return pipe.detect_frame(job_of(fr, noise_var)).results;
}

/// Reference for a frame admitted by a runtime with `shards` clusters.
std::vector<fd::DetectionResult> reference(const std::string& spec, int qam,
                                           const Frame& fr, double noise_var,
                                           std::size_t shards) {
  return sync_reference(spec, qam, shards > 1 ? merged_frame(fr, shards) : fr,
                        noise_var);
}

/// A runtime config with `shards` clusters of one thread each.
fa::RuntimeConfig sharded(fa::RuntimeConfig rcfg, std::size_t shards) {
  rcfg.shards = shards;
  rcfg.threads_per_shard = 1;
  return rcfg;
}

/// frames_in must account for every frame: completed, shed, queued or in
/// flight — the bookkeeping invariant of the admission queue.
void expect_consistent(const fa::RuntimeStats& rs) {
  std::uint64_t in = 0, accounted = 0;
  for (const fa::CellStats& cs : rs.cells) {
    EXPECT_EQ(cs.frames_in,
              cs.frames_out + cs.frames_dropped + cs.frames_expired +
                  cs.frames_failed + cs.frames_quarantined + cs.queue_depth +
                  cs.in_flight)
        << "cell " << cs.cell_id;
    in += cs.frames_in;
    accounted += cs.frames_out + cs.frames_dropped + cs.frames_expired +
                 cs.frames_failed + cs.frames_quarantined;
  }
  EXPECT_EQ(rs.frames_in, in);
  EXPECT_EQ(rs.frames_in,
            accounted + rs.queue_depth + rs.in_flight);
  EXPECT_EQ(rs.latency_count, rs.frames_out);
}

}  // namespace

// ------------------------------------------------------------ ticket basics

TEST(Runtime, SubmitWaitTryGetRoundTrip) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 1;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});

  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(cell.constellation(), 4, 3, 4, 4, nv, 40);

  fa::FrameTicket t = rt.submit(cell, job_of(fr, nv));
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.cell_id(), cell.id());
  EXPECT_EQ(t.sequence(), 0u);
  EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);
  const fa::FrameResult* r = t.try_get();
  ASSERT_NE(r, nullptr);
  expect_bit_identical(r->results,
                       sync_reference("flexcore-8", 16, fr, nv), "single");

  // take() moves the result out: afterwards the ticket exposes NO result
  // (not an empty shell) and a second take throws.
  fa::FrameResult moved = t.take();
  EXPECT_EQ(moved.results.size(), fr.ys.size());
  EXPECT_EQ(t.status(), fa::TicketStatus::kDone);
  EXPECT_EQ(t.try_get(), nullptr);
  EXPECT_THROW(t.take(), std::logic_error);
  int late_status_only = 0;
  t.on_complete([&](fa::TicketStatus st, const fa::FrameResult* res) {
    late_status_only += (st == fa::TicketStatus::kDone && res == nullptr);
  });
  EXPECT_EQ(late_status_only, 1) << "late callback after take: null result";
}

TEST(Runtime, OnCompleteFiresOnceWithResult) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 1;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const double nv = 0.05;
  const Frame fr = make_frame(cell.constellation(), 2, 2, 4, 4, nv, 41);

  std::atomic<int> fired{0};
  std::atomic<bool> had_result{false};
  fa::FrameTicket t = rt.submit(cell, job_of(fr, nv));
  t.on_complete([&](fa::TicketStatus st, const fa::FrameResult* r) {
    fired.fetch_add(1);
    had_result.store(st == fa::TicketStatus::kDone && r != nullptr &&
                     r->results.size() == 4);
  });
  t.wait();
  rt.drain();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(had_result.load());

  // Registering on an already-terminal ticket fires immediately.
  int late = 0;
  t.on_complete([&](fa::TicketStatus, const fa::FrameResult*) { ++late; });
  EXPECT_EQ(late, 1);
}

TEST(Runtime, MalformedJobsThrowSynchronouslyAtSubmit) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;  // nothing must reach a dispatcher
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const Frame fr = make_frame(cell.constellation(), 2, 3, 4, 4, 0.05, 42);

  fa::FrameJob bad = job_of(fr, 0.05);
  bad.vectors_per_channel = 2;  // 6 vectors != 2 * 2
  EXPECT_THROW(rt.submit(cell, bad), std::invalid_argument);

  Frame ragged = fr;
  ragged.channels[1] = CMat(5, 4);
  EXPECT_THROW(rt.submit(cell, job_of(ragged, 0.05)), std::invalid_argument);

  EXPECT_EQ(rt.stats().frames_in, 0u);
  EXPECT_FALSE(rt.run_one());
}

TEST(Runtime, SubmitRejectsDegenerateNoiseVar) {
  // The noise-variance check is part of the shape checks, so it holds with
  // the admission scan off and in front of the shard stage: nothing is
  // admitted, nothing reaches a dispatcher.
  for (const bool scan : {true, false}) {
    for (const std::size_t shards : kShardCounts) {
      fa::RuntimeConfig rcfg;
      rcfg.threads = 1;
      rcfg.dispatchers = 0;
      rcfg.admission_scan = scan;
      fa::Runtime rt(sharded(rcfg, shards));
      fa::Cell& cell =
          rt.open_cell({.detector = "flexcore-32", .qam_order = 16});
      const double nv = ch::noise_var_for_snr_db(10.0);
      const Frame fr = make_frame(cell.constellation(), 4, 3, 16, 8, nv, 78);
      for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                               std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(rt.submit(cell, job_of(fr, bad)), std::invalid_argument)
            << "noise_var " << bad << ", shards " << shards;
      }
      EXPECT_EQ(rt.stats().frames_in, 0u);
      for (const auto& shard : rt.stats().shards) EXPECT_EQ(shard.frames, 0u);
      EXPECT_FALSE(rt.run_one());

      // Zero is a legitimate estimate and is admitted.
      fa::FrameTicket t = rt.submit(cell, job_of(fr, 0.0));
      EXPECT_EQ(rt.stats().frames_in, 1u);
      while (rt.run_one()) {
      }
      EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);
    }
  }
}

// ------------------------------------------- bit-identity and FIFO ordering

TEST(Runtime, FourCellStressFifoAndBitIdentical) {
  // The acceptance scenario: interleaved frames from 4 cells with distinct
  // detector specs on a small shared pool, tall 16x4 frames so every shard
  // count compresses.  Per cell: completion callbacks fire in submission
  // order and every result is bit-identical to the synchronous single-cell
  // path (on the merged frame when sharded).
  constexpr std::size_t kCells = 4;
  constexpr std::size_t kFramesPerCell = 6;
  const char* specs[kCells] = {"flexcore-8", "flexcore-16", "a-flexcore-12",
                               "fcsd-L1"};
  const double nv = ch::noise_var_for_snr_db(12.0);

  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    fa::RuntimeConfig rcfg;
    rcfg.threads = 3;  // small pool, many concurrent grids
    rcfg.dispatchers = 3;
    rcfg.queue_capacity = 8;
    fa::Runtime rt(sharded(rcfg, shards));

    std::vector<fa::Cell*> cells;
    std::vector<std::vector<Frame>> frames(kCells);
    for (std::size_t cidx = 0; cidx < kCells; ++cidx) {
      cells.push_back(
          &rt.open_cell({.detector = specs[cidx], .qam_order = 16}));
      for (std::size_t i = 0; i < kFramesPerCell; ++i) {
        frames[cidx].push_back(make_frame(cells[cidx]->constellation(), 6, 3,
                                          16, 4, nv, 100 + 17 * cidx + i));
      }
    }

    std::mutex order_mu;
    std::vector<std::vector<std::uint64_t>> completion_order(kCells);
    std::vector<std::vector<fa::FrameTicket>> tickets(kCells);

    // Interleave submissions across cells (round-robin), as concurrent
    // uplinks would arrive.
    for (std::size_t i = 0; i < kFramesPerCell; ++i) {
      for (std::size_t cidx = 0; cidx < kCells; ++cidx) {
        fa::FrameTicket t =
            rt.submit(*cells[cidx], job_of(frames[cidx][i], nv));
        t.on_complete(
            [&, cidx, i](fa::TicketStatus st, const fa::FrameResult*) {
              EXPECT_EQ(st, fa::TicketStatus::kDone);
              std::lock_guard lock(order_mu);
              completion_order[cidx].push_back(i);
            });
        tickets[cidx].push_back(std::move(t));
      }
    }
    rt.drain();

    for (std::size_t cidx = 0; cidx < kCells; ++cidx) {
      // (a) FIFO completion per cell.
      ASSERT_EQ(completion_order[cidx].size(), kFramesPerCell) << specs[cidx];
      for (std::size_t i = 0; i < kFramesPerCell; ++i) {
        EXPECT_EQ(completion_order[cidx][i], i)
            << specs[cidx] << ": completions out of submission order";
        EXPECT_EQ(tickets[cidx][i].sequence(), i);
      }
      // (b) bit-identity with the synchronous path, every frame.
      for (std::size_t i = 0; i < kFramesPerCell; ++i) {
        const fa::FrameResult* r = tickets[cidx][i].try_get();
        ASSERT_NE(r, nullptr);
        expect_bit_identical(
            r->results,
            reference(specs[cidx], 16, frames[cidx][i], nv, shards),
            specs[cidx]);
      }
    }

    // (c) stats consistent with the completed tickets.
    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    constexpr std::size_t kFrames = kCells * kFramesPerCell;
    EXPECT_EQ(rs.frames_in, kFrames);
    EXPECT_EQ(rs.frames_out, kFrames);
    EXPECT_EQ(rs.frames_dropped + rs.frames_expired + rs.frames_failed, 0u);
    EXPECT_EQ(rs.queue_depth, 0u);
    EXPECT_EQ(rs.in_flight, 0u);
    EXPECT_EQ(rs.latency_count, kFrames);
    EXPECT_GT(rs.latency_p50_us, 0.0);
    EXPECT_GE(rs.latency_p99_us, rs.latency_p50_us);
    // (d) the shard stage ran once per frame, on every cluster.
    EXPECT_EQ(rs.stage(flexcore::obs::Stage::kShardPartialQr).count(),
              shards > 1 ? kFrames : 0u);
    EXPECT_EQ(rs.shards.size(), shards > 1 ? shards : 0u);
    for (const fa::ShardStats& ss : rs.shards) EXPECT_EQ(ss.frames, kFrames);
    EXPECT_EQ(rs.shard_retries + rs.shard_bypasses, 0u);
  }
}

TEST(Runtime, CellCoherencePolicyReusesPreprocessingAndMatches) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 1;
  fa::Runtime rt(rcfg);
  fa::CellConfig ccfg;
  ccfg.detector = "flexcore-12";
  ccfg.qam_order = 16;
  ccfg.reuse_preprocessing = true;  // static channel across the burst
  fa::Cell& cell = rt.open_cell(ccfg);

  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(cell.constellation(), 8, 4, 6, 6, nv, 50);

  fa::FrameTicket a = rt.submit(cell, job_of(fr, nv));
  fa::FrameTicket b = rt.submit(cell, job_of(fr, nv));
  fa::FrameTicket c = rt.submit(cell, job_of(fr, nv));
  rt.drain();

  ASSERT_EQ(a.wait(), fa::TicketStatus::kDone);
  ASSERT_EQ(b.wait(), fa::TicketStatus::kDone);
  ASSERT_EQ(c.wait(), fa::TicketStatus::kDone);
  // First frame pays the preprocessing, the rest ride the coherence
  // interval...
  EXPECT_EQ(a.try_get()->channels_installed, 8u);
  EXPECT_EQ(b.try_get()->channels_installed, 0u);
  EXPECT_EQ(c.try_get()->channels_installed, 0u);
  // ...and results stay bit-identical to the cold synchronous path.
  const auto want = sync_reference("flexcore-12", 16, fr, nv);
  expect_bit_identical(a.try_get()->results, want, "cold");
  expect_bit_identical(b.try_get()->results, want, "warm b");
  expect_bit_identical(c.try_get()->results, want, "warm c");
}

// ------------------------------------------------------ backpressure: Block

TEST(Runtime, BlockPolicyBlocksSubmitterUntilSlotFrees) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    fa::RuntimeConfig rcfg;
    rcfg.threads = 1;
    rcfg.dispatchers = 0;  // deterministic: we pump with run_one()
    rcfg.queue_capacity = 1;
    rcfg.policy = fa::QueuePolicy::kBlock;
    fa::Runtime rt(sharded(rcfg, shards));
    fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
    const double nv = 0.05;
    const Frame fr = make_frame(cell.constellation(), 2, 2, 16, 4, nv, 60);

    fa::FrameTicket first = rt.submit(cell, job_of(fr, nv));  // fills queue
    std::atomic<bool> second_submitted{false};
    fa::FrameTicket second;
    std::thread submitter([&] {
      second = rt.submit(cell, job_of(fr, nv));  // must block: queue full
      second_submitted.store(true);
    });

    // Give the submitter ample time to reach the blocking wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(second_submitted.load())
        << "submit returned while the bounded queue was full";

    ASSERT_TRUE(rt.run_one());  // frees the slot -> submitter unblocks
    submitter.join();
    EXPECT_TRUE(second_submitted.load());
    ASSERT_TRUE(rt.run_one());
    EXPECT_FALSE(rt.run_one());

    EXPECT_EQ(first.wait(), fa::TicketStatus::kDone);
    EXPECT_EQ(second.wait(), fa::TicketStatus::kDone);
    const auto want = reference("flexcore-8", 16, fr, nv, shards);
    expect_bit_identical(first.try_get()->results, want, "first");
    expect_bit_identical(second.try_get()->results, want, "second");
    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    EXPECT_EQ(rs.frames_out, 2u);
    EXPECT_EQ(rs.frames_dropped, 0u);
  }
}

// ------------------------------------------------- backpressure: DropNewest

TEST(Runtime, DropNewestRejectsWhenSaturatedAndKeepsFifo) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    fa::RuntimeConfig rcfg;
    rcfg.threads = 1;
    rcfg.dispatchers = 0;
    rcfg.queue_capacity = 2;
    rcfg.policy = fa::QueuePolicy::kDropNewest;
    fa::Runtime rt(sharded(rcfg, shards));
    fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
    const double nv = 0.05;
    const Frame fr = make_frame(cell.constellation(), 2, 2, 16, 4, nv, 61);

    fa::FrameTicket a = rt.submit(cell, job_of(fr, nv));
    fa::FrameTicket b = rt.submit(cell, job_of(fr, nv));
    fa::FrameTicket c = rt.submit(cell, job_of(fr, nv));  // full -> shed

    EXPECT_EQ(c.status(), fa::TicketStatus::kDropped);
    EXPECT_EQ(c.wait(), fa::TicketStatus::kDropped);
    EXPECT_EQ(c.try_get(), nullptr) << "dropped frames expose no result";
    EXPECT_THROW(c.take(), std::logic_error);

    // The queued frames are untouched by the shed and complete FIFO.
    while (rt.run_one()) {
    }
    EXPECT_EQ(a.wait(), fa::TicketStatus::kDone);
    EXPECT_EQ(b.wait(), fa::TicketStatus::kDone);
    const auto want = reference("flexcore-8", 16, fr, nv, shards);
    expect_bit_identical(a.try_get()->results, want, "kept a");
    expect_bit_identical(b.try_get()->results, want, "kept b");

    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    EXPECT_EQ(rs.frames_in, 3u);
    EXPECT_EQ(rs.frames_out, 2u);
    EXPECT_EQ(rs.frames_dropped, 1u);
    // Dropped frames still consume a sequence number (admission order).
    EXPECT_EQ(c.sequence(), 2u);
    // The fronthaul runs before admission: the shed frame was preprocessed.
    EXPECT_EQ(rs.stage(flexcore::obs::Stage::kShardPartialQr).count(),
              shards > 1 ? 3u : 0u);
  }
}

// -------------------------------------------- backpressure: DeadlineExpire

TEST(Runtime, DeadlineExpireAtDispatchNeverWritesResult) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    fa::RuntimeConfig rcfg;
    rcfg.threads = 1;
    rcfg.dispatchers = 0;
    rcfg.queue_capacity = 4;
    rcfg.policy = fa::QueuePolicy::kDeadlineExpire;
    fa::Runtime rt(sharded(rcfg, shards));
    fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
    const double nv = 0.05;
    const Frame fr = make_frame(cell.constellation(), 2, 2, 16, 4, nv, 62);

    fa::FrameTicket stale =
        rt.submit(cell, job_of(fr, nv), /*deadline_us=*/1);
    fa::FrameTicket fresh = rt.submit(cell, job_of(fr, nv));  // no deadline
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    ASSERT_TRUE(rt.run_one());  // dispatches `stale` -> expired, not detected
    ASSERT_TRUE(rt.run_one());
    EXPECT_FALSE(rt.run_one());

    EXPECT_EQ(stale.wait(), fa::TicketStatus::kExpired);
    EXPECT_EQ(stale.try_get(), nullptr)
        << "expired frames must never expose a partially-written result";
    EXPECT_THROW(stale.take(), std::logic_error);
    EXPECT_EQ(fresh.wait(), fa::TicketStatus::kDone);
    expect_bit_identical(fresh.try_get()->results,
                         reference("flexcore-8", 16, fr, nv, shards), "fresh");

    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    EXPECT_EQ(rs.frames_expired, 1u);
    EXPECT_EQ(rs.frames_out, 1u);
    EXPECT_EQ(rs.latency_count, 1u) << "expired frames record no latency";
  }
}

TEST(Runtime, DeadlineExpireFreesQueueSpaceAtAdmission) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    fa::RuntimeConfig rcfg;
    rcfg.threads = 1;
    rcfg.dispatchers = 0;
    rcfg.queue_capacity = 2;
    rcfg.policy = fa::QueuePolicy::kDeadlineExpire;
    fa::Runtime rt(sharded(rcfg, shards));
    fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
    const double nv = 0.05;
    const Frame fr = make_frame(cell.constellation(), 2, 2, 16, 4, nv, 63);

    // Fill the queue with short-deadline frames, let them go stale, then
    // submit again: admission expires the stale pair instead of blocking.
    fa::FrameTicket s1 = rt.submit(cell, job_of(fr, nv), 1);
    fa::FrameTicket s2 = rt.submit(cell, job_of(fr, nv), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fa::FrameTicket live = rt.submit(cell, job_of(fr, nv));

    EXPECT_EQ(s1.status(), fa::TicketStatus::kExpired);
    EXPECT_EQ(s2.status(), fa::TicketStatus::kExpired);
    ASSERT_TRUE(rt.run_one());
    EXPECT_EQ(live.wait(), fa::TicketStatus::kDone);
    expect_bit_identical(live.try_get()->results,
                         reference("flexcore-8", 16, fr, nv, shards), "live");

    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    EXPECT_EQ(rs.frames_in, 3u);
    EXPECT_EQ(rs.frames_expired, 2u);
    EXPECT_EQ(rs.frames_out, 1u);
  }
}

TEST(Runtime, DeadlineExpireFullQueueWaitsForStalenessNotForever) {
  // Regression: with a full queue whose frames are not YET stale, submit
  // must sleep until the earliest queued deadline and then expire it —
  // not block forever (in poll mode nobody else would ever wake it).
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    fa::RuntimeConfig rcfg;
    rcfg.threads = 1;
    rcfg.dispatchers = 0;  // poll mode: the submitting thread is alone
    rcfg.queue_capacity = 1;
    rcfg.policy = fa::QueuePolicy::kDeadlineExpire;
    fa::Runtime rt(sharded(rcfg, shards));
    fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
    const double nv = 0.05;
    const Frame fr = make_frame(cell.constellation(), 2, 2, 16, 4, nv, 64);

    fa::FrameTicket stale =
        rt.submit(cell, job_of(fr, nv), /*deadline_us=*/20000);
    // Queue is full and `stale` is 20ms from its deadline: this call must
    // wait ~20ms, expire it, and admit the new frame on the same thread.
    fa::FrameTicket live = rt.submit(cell, job_of(fr, nv));

    EXPECT_EQ(stale.status(), fa::TicketStatus::kExpired);
    ASSERT_TRUE(rt.run_one());
    EXPECT_EQ(live.wait(), fa::TicketStatus::kDone);
    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    EXPECT_EQ(rs.frames_expired, 1u);
    EXPECT_EQ(rs.frames_out, 1u);
  }
}

// -------------------------------------------------------- drain + lifecycle

TEST(Runtime, DrainCompletesEverythingWithDispatchers) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 2;
  rcfg.queue_capacity = 16;
  fa::Runtime rt(rcfg);
  fa::Cell& a = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  fa::Cell& b = rt.open_cell({.detector = "zf-sic", .qam_order = 16});
  const double nv = 0.05;
  const Frame fra = make_frame(a.constellation(), 4, 2, 4, 4, nv, 70);
  const Frame frb = make_frame(b.constellation(), 4, 2, 4, 4, nv, 71);

  std::vector<fa::FrameTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(rt.submit(a, job_of(fra, nv)));
    tickets.push_back(rt.submit(b, job_of(frb, nv)));
  }
  rt.drain();
  for (auto& t : tickets) {
    EXPECT_EQ(t.status(), fa::TicketStatus::kDone);
  }
  const fa::RuntimeStats rs = rt.stats();
  expect_consistent(rs);
  EXPECT_EQ(rs.frames_out, 10u);
  EXPECT_EQ(rs.queue_depth + rs.in_flight, 0u);
  // Generic (non-grid) detectors ride the same runtime path.
  expect_bit_identical(tickets[1].try_get()->results,
                       sync_reference("zf-sic", 16, frb, nv), "zf-sic");
}

TEST(Runtime, DestructorDrainsPendingFramesInPollMode) {
  const double nv = 0.05;
  Constellation qam(16);
  const Frame fr = make_frame(qam, 2, 2, 4, 4, nv, 72);
  fa::FrameTicket pending;
  {
    fa::RuntimeConfig rcfg;
    rcfg.threads = 1;
    rcfg.dispatchers = 0;
    fa::Runtime rt(rcfg);
    fa::Cell& cell =
        rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
    pending = rt.submit(cell, job_of(fr, nv));
  }  // destructor pumps the queue
  EXPECT_EQ(pending.status(), fa::TicketStatus::kDone);
}

TEST(Runtime, SubmitAfterShutdownThrows) {
  // Destruction is the only shutdown path; emulate late submit by checking
  // the queue_capacity guard instead of racing the destructor.
  EXPECT_THROW(fa::Runtime rt(fa::RuntimeConfig{.queue_capacity = 0}),
               std::invalid_argument);
}

// -------------------------------------------- quarantine + health watchdog

TEST(Runtime, WaitForTimesOutPendingAndSeesTerminalStates) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;  // poll mode: nothing completes until run_one()
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const double nv = 0.05;
  const Frame fr = make_frame(cell.constellation(), 2, 2, 4, 4, nv, 80);

  fa::FrameTicket t = rt.submit(cell, job_of(fr, nv));
  EXPECT_EQ(t.wait_for(std::chrono::milliseconds(5)),
            fa::TicketStatus::kPending)
      << "wait_for must time out on an unpumped frame, not hang";

  ASSERT_TRUE(rt.run_one());
  EXPECT_EQ(t.wait_for(std::chrono::seconds(5)), fa::TicketStatus::kDone);
  // Terminal tickets answer immediately, timeout notwithstanding.
  EXPECT_EQ(t.wait_for(std::chrono::nanoseconds(0)),
            fa::TicketStatus::kDone);
}

TEST(Runtime, NonFiniteFrameIsQuarantinedAndNeverPoisonsTheNext) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;
  rcfg.admission_scan = false;  // let corruption reach the dispatch path
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const double nv = 0.05;
  const Frame clean = make_frame(cell.constellation(), 3, 2, 4, 4, nv, 81);

  Frame bad = clean;
  bad.ys[1][0] = flexcore::linalg::cplx(
      std::numeric_limits<double>::quiet_NaN(), 0.0);

  fa::FrameTicket q = rt.submit(cell, job_of(bad, nv));  // scan off: admitted
  fa::FrameTicket ok = rt.submit(cell, job_of(clean, nv));
  ASSERT_TRUE(rt.run_one());
  ASSERT_TRUE(rt.run_one());
  EXPECT_FALSE(rt.run_one());

  EXPECT_EQ(q.wait(), fa::TicketStatus::kQuarantined);
  EXPECT_EQ(q.try_get(), nullptr)
      << "quarantined frames must never expose a partial result";
  EXPECT_THROW(q.take(), std::logic_error);
  EXPECT_NE(q.error().find("non-finite"), std::string::npos) << q.error();

  // Containment: the very next clean frame detects bit-identically to a
  // fresh synchronous pipeline — nothing leaked from the corrupt frame.
  EXPECT_EQ(ok.wait(), fa::TicketStatus::kDone);
  expect_bit_identical(ok.try_get()->results,
                       sync_reference("flexcore-8", 16, clean, nv),
                       "frame after quarantine");

  const fa::RuntimeStats rs = rt.stats();
  expect_consistent(rs);
  EXPECT_EQ(rs.frames_quarantined, 1u);
  EXPECT_EQ(rs.frames_failed, 0u)
      << "corrupt input is kQuarantined, not kFailed";
  EXPECT_EQ(rs.frames_out, 1u);
  EXPECT_EQ(rs.latency_count, 1u)
      << "quarantined frames record no latency sample";
}

TEST(Runtime, OversizedFrameFailsWithoutQuarantineAndTheCellRecovers) {
  // A full-rank 33x33 frame exceeds the path kernels' 32-stream limit: the
  // detector refuses it before touching its state, and the pipeline must
  // report that refusal as a failed frame — not as a numeric fault.
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-16", .qam_order = 16});
  const double nv = 0.05;
  const Frame wide = make_frame(cell.constellation(), 1, 1, 33, 33, nv, 84);
  const Frame clean = make_frame(cell.constellation(), 2, 2, 8, 8, nv, 85);

  fa::FrameTicket refused = rt.submit(cell, job_of(wide, nv));
  fa::FrameTicket ok = rt.submit(cell, job_of(clean, nv));
  ASSERT_TRUE(rt.run_one());
  ASSERT_TRUE(rt.run_one());

  EXPECT_EQ(refused.wait(), fa::TicketStatus::kFailed);
  EXPECT_NE(refused.error().find("32-stream limit"), std::string::npos)
      << refused.error();
  EXPECT_EQ(ok.wait(), fa::TicketStatus::kDone);
  expect_bit_identical(ok.try_get()->results,
                       sync_reference("flexcore-16", 16, clean, nv),
                       "frame after the refused one");

  const fa::RuntimeStats rs = rt.stats();
  expect_consistent(rs);
  EXPECT_EQ(rs.frames_quarantined, 0u);
  EXPECT_EQ(rs.frames_failed, 1u);
  EXPECT_EQ(rs.frames_out, 1u);
}

TEST(Runtime, AdmissionScanRejectsNonFiniteFramesAtSubmit) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;
  ASSERT_TRUE(rcfg.admission_scan) << "the full scan is the default";
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  Frame bad = make_frame(cell.constellation(), 2, 2, 4, 4, 0.05, 82);
  bad.channels[0](1, 2) = flexcore::linalg::cplx(
      0.0, std::numeric_limits<double>::infinity());

  EXPECT_THROW(rt.submit(cell, job_of(bad, 0.05)), fa::NonFiniteError);
  EXPECT_EQ(rt.stats().frames_in, 0u)
      << "rejected frames never enter the accounting";
  EXPECT_FALSE(rt.run_one());
}

TEST(Runtime, WatchdogDegradesOnBadBurstsAndRecovers) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;
  rcfg.admission_scan = false;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const double nv = 0.05;
  const Frame clean = make_frame(cell.constellation(), 2, 2, 4, 4, nv, 83);
  Frame bad = clean;
  bad.ys[0][0] = flexcore::linalg::cplx(
      std::numeric_limits<double>::quiet_NaN(), 0.0);

  EXPECT_EQ(rt.stats().cells[0].health,
            static_cast<int>(fa::CellHealth::kHealthy));

  // A burst of corrupt frames: the verdict must escalate to quarantining.
  for (int i = 0; i < 4; ++i) {
    fa::FrameTicket t = rt.submit(cell, job_of(bad, nv));
    ASSERT_TRUE(rt.run_one());
    EXPECT_EQ(t.wait(), fa::TicketStatus::kQuarantined);
  }
  {
    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    EXPECT_EQ(rs.cells[0].health,
              static_cast<int>(fa::CellHealth::kQuarantining));
    EXPECT_GE(rs.cells[0].health_transitions, 1u);
  }

  // A clean window (the full health ring) heals the verdict back.
  for (int i = 0; i < 16; ++i) {
    fa::FrameTicket t = rt.submit(cell, job_of(clean, nv));
    ASSERT_TRUE(rt.run_one());
    EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);
  }
  {
    const fa::RuntimeStats rs = rt.stats();
    expect_consistent(rs);
    EXPECT_EQ(rs.cells[0].health,
              static_cast<int>(fa::CellHealth::kHealthy));
    EXPECT_GE(rs.cells[0].health_transitions, 2u)
        << "the recovery is a transition too";
  }
}

// ------------------------------------------------------- latency histogram

TEST(LatencyHistogram, BucketsAndQuantiles) {
  fa::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_interp_us(0.5), 0.0);

  // 0.5us -> bucket 0; 1.5 -> [1,2); 3 -> [2,4); 1000 -> [512,1024).
  h.record(0.5);
  h.record(1.5);
  h.record(3.0);
  h.record(1000.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(fa::LatencyHistogram::bucket_of(0.5), 0u);
  EXPECT_EQ(fa::LatencyHistogram::bucket_of(1.5), 1u);
  EXPECT_EQ(fa::LatencyHistogram::bucket_of(3.0), 2u);
  EXPECT_EQ(fa::LatencyHistogram::bucket_of(1000.0), 10u);

  // One sample per bucket: each rank lands on its bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(0.0), 1.0);  // first sample's bucket
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(0.75), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(1.0), 1024.0);
  EXPECT_DOUBLE_EQ(h.mean_us(), (0.5 + 1.5 + 3.0 + 1000.0) / 4.0);

  // Two samples in [512, 1024): the lower rank interpolates halfway.
  fa::LatencyHistogram pair;
  pair.record(600.0);
  pair.record(700.0);
  EXPECT_DOUBLE_EQ(pair.quantile_interp_us(0.5), 768.0);
  EXPECT_DOUBLE_EQ(pair.quantile_interp_us(1.0), 1024.0);

  // Monstrous samples land in the open-ended last bucket, whose upper edge
  // is taken as twice its lower one.
  fa::LatencyHistogram big;
  big.record(1e30);
  EXPECT_EQ(fa::LatencyHistogram::bucket_of(1e30),
            fa::LatencyHistogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(big.quantile_interp_us(0.5),
                   2.0 * fa::LatencyHistogram::upper_edge_us(
                             fa::LatencyHistogram::kBuckets - 2));
}
