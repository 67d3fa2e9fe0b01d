// Tests for the flight-recorder observability subsystem (src/obs/): span
// ring wraparound and ordering, frame sampling, counter snapshots, the
// Chrome trace export, the per-stage latency histograms of api::Runtime /
// shard fabric (and their consistency with latency_count), the
// control-plane decision events and the LatencyHistogram extensions.
//
// The obs state is process-global; every test starts from reset_for_test.
// These tests require FLEXCORE_OBS=2 (the default) — at lower levels the
// span assertions would vacuously fail, so the whole file gates on kLevel.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "control/feedback.h"
#include "frame_fixtures.h"
#include "obs/obs.h"
#include "obs/trace_export.h"

namespace fa = flexcore::api;
namespace fc = flexcore::control;
namespace obs = flexcore::obs;
using flexcore::modulation::Constellation;
using flexcore::testing::Frame;
using flexcore::testing::job_of;
using flexcore::testing::make_frame;

namespace {

#if FLEXCORE_OBS >= 2

obs::ObsConfig traced(std::uint32_t sample_every = 1,
                      std::size_t ring_capacity = 1024) {
  obs::ObsConfig cfg;
  cfg.sample_every = sample_every;
  cfg.ring_capacity = ring_capacity;
  return cfg;
}

std::vector<obs::SpanRecord> spans_of(const obs::TraceSnapshot& snap,
                                      obs::Stage stage) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : snap.spans) {
    if (s.stage == stage) out.push_back(s);
  }
  return out;
}

TEST(ObsRing, RetainsMostRecentAcrossWraparoundSorted) {
  obs::reset_for_test(traced(1, 8));  // tiny ring: 8 slots
  obs::set_thread_track("writer");
  const obs::TraceCtx ctx = obs::begin_frame(0);
  ASSERT_TRUE(ctx.sampled);
  // 20 spans through an 8-slot ring: only the last 8 survive, in time
  // order after the drain's sort.
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::record_span(obs::Stage::kPathGrid, 1000 * i, 1000 * i + 500, ctx,
                     static_cast<std::uint32_t>(i));
  }
  const obs::TraceSnapshot snap = obs::drain_spans();
  ASSERT_EQ(snap.spans.size(), 8u);
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    EXPECT_EQ(snap.spans[i].aux, 12 + i) << "span " << i;
    EXPECT_EQ(snap.spans[i].t0_ns, 1000 * (12 + i));
    if (i > 0) {
      EXPECT_GE(snap.spans[i].t0_ns, snap.spans[i - 1].t0_ns);
    }
  }
  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  EXPECT_EQ(ms.spans_recorded, 20u);
  EXPECT_EQ(ms.spans_retained, 8u);
}

TEST(ObsRing, SamplingSelectsEveryNthFrame) {
  obs::reset_for_test(traced(3));
  std::size_t sampled = 0;
  std::uint64_t last_id = 0;
  for (int i = 0; i < 9; ++i) {
    const obs::TraceCtx ctx = obs::begin_frame(7);
    EXPECT_TRUE(ctx.decided);
    EXPECT_EQ(ctx.cell, 7u);
    EXPECT_GT(ctx.id, last_id);  // ids keep counting, sampled or not
    last_id = ctx.id;
    if (ctx.sampled) ++sampled;
  }
  EXPECT_EQ(sampled, 3u);
  // sample_every == 0 turns span recording off entirely.
  obs::reset_for_test(traced(0));
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_FALSE(obs::begin_frame(0).sampled);
}

TEST(ObsRing, CrossThreadDrainCollectsEveryTrack) {
  obs::reset_for_test(traced(1, 64));
  obs::set_thread_track("main");
  const obs::TraceCtx ctx = obs::begin_frame(0);
  obs::record_span(obs::Stage::kSubmit, 10, 20, ctx);
  std::thread a([&] {
    obs::set_thread_track("aux0");
    obs::record_span(obs::Stage::kPreprocess, 30, 40, ctx);
  });
  std::thread b([&] {
    obs::set_thread_track("aux1");
    obs::record_span(obs::Stage::kPathGrid, 50, 60, ctx);
  });
  a.join();
  b.join();
  const obs::TraceSnapshot snap = obs::drain_spans();
  ASSERT_EQ(snap.spans.size(), 3u);
  std::set<std::string> seen;
  for (const obs::SpanRecord& s : snap.spans) {
    ASSERT_LT(s.track, snap.tracks.size());
    seen.insert(snap.tracks[s.track]);
  }
  EXPECT_EQ(seen, (std::set<std::string>{"main", "aux0", "aux1"}));
}

TEST(ObsMetrics, CountersAndTextJsonRendering) {
  obs::reset_for_test(traced(0));
  obs::counter_add(obs::Counter::kFramesSubmitted, 5);
  obs::counter_add(obs::Counter::kSicFallbacks, 2);
  obs::shed_ladder_rung(0);
  obs::shed_ladder_rung(1);
  obs::shed_ladder_rung(obs::kMaxLadderRungs + 100);  // folds to last rung
  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  EXPECT_EQ(
      ms.counters[static_cast<std::size_t>(obs::Counter::kFramesSubmitted)],
      5u);
  EXPECT_EQ(ms.counters[static_cast<std::size_t>(obs::Counter::kSicFallbacks)],
            2u);
  EXPECT_EQ(ms.shed_per_rung[0], 1u);
  EXPECT_EQ(ms.shed_per_rung[1], 1u);
  EXPECT_EQ(ms.shed_per_rung[obs::kMaxLadderRungs - 1], 1u);
  const std::string text = obs::metrics_to_text(ms);
  EXPECT_NE(text.find("obs_frames_submitted 5"), std::string::npos) << text;
  EXPECT_NE(text.find("obs_sic_fallbacks 2"), std::string::npos) << text;
  EXPECT_NE(text.find("rung=\"0\""), std::string::npos) << text;
  const std::string json = obs::metrics_to_json(ms);
  EXPECT_NE(json.find("\"frames_submitted\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_per_rung\""), std::string::npos) << json;
}

TEST(ObsMetrics, FaultAndDegradationCountersRender) {
  // The robustness counters (quarantine, shard degradation ladder,
  // watchdog, injector) flow through the same snapshot/JSON path as the
  // steady-state ones — scrapers see fault events without new plumbing.
  obs::reset_for_test(traced(0));
  obs::counter_add(obs::Counter::kFramesQuarantined, 3);
  obs::counter_add(obs::Counter::kShardRetries, 2);
  obs::counter_add(obs::Counter::kShardBypasses);
  obs::counter_add(obs::Counter::kWatchdogTransitions, 4);
  obs::counter_add(obs::Counter::kFaultsInjected, 7);

  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  EXPECT_EQ(
      ms.counters[static_cast<std::size_t>(obs::Counter::kFramesQuarantined)],
      3u);
  EXPECT_EQ(
      ms.counters[static_cast<std::size_t>(obs::Counter::kFaultsInjected)],
      7u);
  const std::string json = obs::metrics_to_json(ms);
  EXPECT_NE(json.find("\"frames_quarantined\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_retries\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_bypasses\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"watchdog_transitions\": 4"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"faults_injected\": 7"), std::string::npos) << json;
  const std::string text = obs::metrics_to_text(ms);
  EXPECT_NE(text.find("obs_frames_quarantined 3"), std::string::npos) << text;
  EXPECT_NE(text.find("obs_faults_injected 7"), std::string::npos) << text;
}

TEST(ObsExport, ChromeTraceIsWellFormed) {
  obs::reset_for_test(traced(1, 64));
  obs::set_thread_track("driver");
  const obs::TraceCtx ctx = obs::begin_frame(3);
  const std::uint64_t t0 = obs::now_ns();
  obs::record_span(obs::Stage::kPathGrid, t0, t0 + 1000, ctx, 9);
  obs::record_instant(obs::Stage::kControl, t0 + 100, ctx,
                      static_cast<std::uint32_t>(obs::ControlReason::kSnr));
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"path-grid\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"snr\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity; the deep
  // validation lives in trace_dump --self-test and the CI smoke job.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ObsRuntime, StageHistogramsMatchLatencyCountPollMode) {
  obs::reset_for_test(traced(1, 4096));
  Constellation qam(4);
  const Frame fr = make_frame(qam, 4, 2, 4, 4, 0.05, 77);

  fa::RuntimeConfig rcfg;
  rcfg.dispatchers = 0;  // poll mode: deterministic single-thread drain
  fa::Runtime rt(rcfg);
  fa::CellConfig ccfg;
  ccfg.detector = "flexcore-4";
  ccfg.qam_order = 4;
  fa::Cell& cell = rt.open_cell(ccfg);

  constexpr std::size_t kFrames = 6;
  std::vector<fa::FrameTicket> tickets;
  for (std::size_t i = 0; i < kFrames; ++i) {
    tickets.push_back(rt.submit(cell, job_of(fr, 0.05)));
    while (rt.run_one()) {
    }
  }
  rt.drain();
  for (auto& t : tickets) EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);

  const fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.latency_count, kFrames);
  // Every dispatch-side stage records exactly one sample per kDone frame.
  for (const obs::Stage stage :
       {obs::Stage::kQueueWait, obs::Stage::kPreprocess,
        obs::Stage::kPathGrid, obs::Stage::kReconstruct,
        obs::Stage::kComplete}) {
    EXPECT_EQ(rs.stage(stage).count(), rs.latency_count)
        << obs::to_string(stage);
  }
  // kComplete is the whole frame: its mean cannot undercut any sub-stage.
  EXPECT_GE(rs.stage(obs::Stage::kComplete).mean_us(),
            rs.stage(obs::Stage::kPathGrid).mean_us());

  // Counters: every frame submitted and completed, none shed.
  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  EXPECT_EQ(
      ms.counters[static_cast<std::size_t>(obs::Counter::kFramesSubmitted)],
      kFrames);
  EXPECT_EQ(
      ms.counters[static_cast<std::size_t>(obs::Counter::kFramesCompleted)],
      kFrames);
  const std::uint64_t hits = ms.counters[static_cast<std::size_t>(
      obs::Counter::kPreprocReuseHits)];
  const std::uint64_t misses = ms.counters[static_cast<std::size_t>(
      obs::Counter::kPreprocReuseMisses)];
  EXPECT_EQ(hits + misses, kFrames);

  // Every frame was sampled: the poll-mode drain must have recorded the
  // dispatch-side spans for all of them, deterministically.
  const obs::TraceSnapshot snap = obs::drain_spans();
  EXPECT_EQ(spans_of(snap, obs::Stage::kQueueWait).size(), kFrames);
  EXPECT_EQ(spans_of(snap, obs::Stage::kComplete).size(), kFrames);
  EXPECT_EQ(spans_of(snap, obs::Stage::kPathGrid).size(), kFrames);
  const auto submits = spans_of(snap, obs::Stage::kSubmit);
  EXPECT_EQ(submits.size(), kFrames);
  // Frame ids are the begin_frame sequence: distinct and increasing.
  std::set<std::uint64_t> ids;
  for (const obs::SpanRecord& s : submits) ids.insert(s.frame_id);
  EXPECT_EQ(ids.size(), kFrames);
}

TEST(ObsRuntime, ReusePolicyFeedsReuseCounters) {
  obs::reset_for_test(traced(0));
  Constellation qam(4);
  const Frame fr = make_frame(qam, 3, 2, 4, 4, 0.05, 78);

  fa::RuntimeConfig rcfg;
  rcfg.dispatchers = 0;
  fa::Runtime rt(rcfg);
  fa::CellConfig ccfg;
  ccfg.detector = "flexcore-4";
  ccfg.qam_order = 4;
  ccfg.reuse_preprocessing = true;  // coherence policy: reuse after warmup
  fa::Cell& cell = rt.open_cell(ccfg);

  for (int i = 0; i < 4; ++i) {
    fa::FrameTicket t = rt.submit(cell, job_of(fr, 0.05));
    while (rt.run_one()) {
    }
    EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);
  }
  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  // First frame preprocesses (miss), the next three reuse (hits).
  EXPECT_EQ(ms.counters[static_cast<std::size_t>(
                obs::Counter::kPreprocReuseMisses)],
            1u);
  EXPECT_EQ(
      ms.counters[static_cast<std::size_t>(obs::Counter::kPreprocReuseHits)],
      3u);
  // Reuse hits still record (zero-cost) preprocess samples: stage counts
  // keep matching latency_count.
  const fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.stage(obs::Stage::kPreprocess).count(), rs.latency_count);
}

TEST(ObsSharded, PerShardTracksAndMergeCounters) {
  obs::reset_for_test(traced(1, 4096));
  Constellation qam(4);
  // Tall frame: 8 antennas, 2 streams -> 2 effective shards.
  const Frame fr = make_frame(qam, 4, 2, 8, 2, 0.05, 79);

  constexpr std::size_t kShards = 2;
  constexpr std::size_t kFrames = 3;
  {
    fa::RuntimeConfig rcfg;
    rcfg.shards = kShards;
    rcfg.threads_per_shard = 1;
    rcfg.dispatchers = 1;
    fa::Runtime rt(rcfg);
    fa::CellConfig ccfg;
    ccfg.detector = "flexcore-4";
    ccfg.qam_order = 4;
    fa::Cell& cell = rt.open_cell(ccfg);
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(rt.submit(cell, job_of(fr, 0.05)).wait(),
                fa::TicketStatus::kDone);
    }
    const fa::RuntimeStats rs = rt.stats();
    // The shard stage records into the runtime's own per-stage histogram.
    EXPECT_EQ(rs.stage(obs::Stage::kShardPartialQr).count(), kFrames);
  }  // destroy the runtime: every recording thread has quiesced

  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  EXPECT_EQ(ms.counters[static_cast<std::size_t>(
                obs::Counter::kShardMergeFanins)],
            kFrames * kShards);

  const obs::TraceSnapshot snap = obs::drain_spans();
  const auto qr_spans = spans_of(snap, obs::Stage::kShardPartialQr);
  // Per frame: one whole-stage span (submitter track) + one per cluster.
  EXPECT_EQ(qr_spans.size(), kFrames * (1 + kShards));
  std::set<std::string> shard_tracks;
  for (const obs::SpanRecord& s : qr_spans) {
    ASSERT_LT(s.track, snap.tracks.size());
    const std::string& name = snap.tracks[s.track];
    if (name.rfind("shard", 0) == 0) shard_tracks.insert(name);
  }
  EXPECT_EQ(shard_tracks, (std::set<std::string>{"shard0", "shard1"}));
}

TEST(ObsControl, DecisionsBumpCountersAndShedRungs) {
  obs::reset_for_test(traced(1, 64));
  obs::set_thread_track("control");
  Constellation qam(16);
  fc::ControlConfig cfg;
  cfg.degrade_after = 2;
  fc::FeedbackLoop loop(qam, 4, cfg);

  fc::Observation good;
  good.snr_db_estimate = 18.0;
  ASSERT_TRUE(loop.observe(good).has_value());  // "init"

  // Saturated queue: occupancy 1.0 >= load_high.  A halving step whose
  // spec comes out unchanged emits nothing (and bumps nothing) — but the
  // ladder's precision/family rungs always change the spec, so walking the
  // whole ladder guarantees emitted load-degrade decisions.
  fc::Observation pressured = good;
  pressured.queue_depth = 8;
  pressured.queue_capacity = 8;
  std::vector<fc::Decision> degrades;
  for (int i = 0; i < 40 && degrades.size() < 2; ++i) {
    const auto d = loop.observe(pressured);
    if (d && std::string(d->reason) == "load-degrade") {
      degrades.push_back(*d);
    }
  }
  ASSERT_GE(degrades.size(), 2u);

  const obs::MetricsSnapshot ms = obs::metrics_snapshot();
  EXPECT_EQ(ms.counters[static_cast<std::size_t>(
                obs::Counter::kControlDecisions)],
            1 + degrades.size());
  // Each emitted degrade at ladder step s sheds on rung s-1.
  for (const fc::Decision& d : degrades) {
    const std::size_t rung =
        std::min(d.degrade_step - 1, obs::kMaxLadderRungs - 1);
    EXPECT_EQ(ms.shed_per_rung[rung], 1u) << "step " << d.degrade_step;
  }

  // Every decision is an instant kControl event with its trigger in aux.
  const obs::TraceSnapshot snap = obs::drain_spans();
  const auto events = spans_of(snap, obs::Stage::kControl);
  ASSERT_EQ(events.size(), 1 + degrades.size());
  EXPECT_TRUE(events.front().instant);
  EXPECT_EQ(events.front().aux,
            static_cast<std::uint32_t>(obs::ControlReason::kInit));
  EXPECT_EQ(events.back().aux,
            static_cast<std::uint32_t>(obs::ControlReason::kLoadDegrade));
}

#endif  // FLEXCORE_OBS >= 2

TEST(LatencyHistogramExt, InterpolatedQuantilesWalkInsideTheBucket) {
  fa::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(10.0);  // all in [8, 16)
  // The estimate walks linearly through the bucket by rank: the 50th of
  // 100 samples sits halfway, the 99th at 99%, the last at the upper edge.
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(0.5), 12.0);
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(0.99), 8.0 + 8.0 * 0.99);
  EXPECT_DOUBLE_EQ(h.quantile_interp_us(1.0), 16.0);
  // Empty histogram reports 0.
  fa::LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile_interp_us(0.5), 0.0);
}

}  // namespace
