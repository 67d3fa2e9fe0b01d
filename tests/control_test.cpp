// Tests for the adaptive control plane: control::PathPolicy (fig14 model
// inversion), control::FeedbackLoop (convergence, hysteresis, error
// integral action, load degrade/restore, determinism) and the FIFO-safe
// Runtime::reconfigure path, plus the scenario driver feeding them.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "api/cell.h"
#include "api/runtime.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "channel/estimation.h"
#include "channel/rng.h"
#include "control/feedback.h"
#include "control/path_policy.h"
#include "core/preprocessing.h"
#include "frame_fixtures.h"
#include "sim/scenario.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace ctl = flexcore::control;
namespace fs = flexcore::sim;
using flexcore::modulation::Constellation;
using flexcore::testing::expect_bit_identical;
using flexcore::testing::Frame;
using flexcore::testing::job_of;
using flexcore::testing::make_frame;

namespace {

/// Synchronous single-threaded reference for bit-identity checks.
std::vector<flexcore::detect::DetectionResult> sync_reference(
    const std::string& spec, int qam, const Frame& fr, double noise_var) {
  fa::PipelineConfig cfg;
  cfg.detector = spec;
  cfg.qam_order = qam;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  return pipe.detect_frame(job_of(fr, noise_var)).results;
}

/// Model coverage pc_sum of the best `paths` paths at `snr_db`: the forward
/// model solve_path_count inverts, run as the solver runs it (nominal
/// per-level Pe, uncapped frontier) but never stopping early.
double model_coverage(const Constellation& c, std::size_t nt, double snr_db,
                      std::size_t paths) {
  const std::vector<double> pe(nt, ctl::nominal_level_pe(c, snr_db));
  flexcore::core::PreprocessingConfig cfg;
  cfg.num_paths = paths;
  cfg.stop_threshold = 2.0;  // total model mass is < 1
  cfg.candidate_list_cap = paths + nt;
  return flexcore::core::find_most_promising_paths(pe, c.order(), cfg).pc_sum;
}

ctl::Observation snr_obs(double snr_db) {
  ctl::Observation obs;
  obs.snr_db_estimate = snr_db;
  return obs;
}

ctl::Observation load_obs(double snr_db, std::size_t depth,
                          std::size_t capacity) {
  ctl::Observation obs = snr_obs(snr_db);
  obs.queue_depth = depth;
  obs.queue_capacity = capacity;
  return obs;
}

}  // namespace

// ------------------------------------------------------------- path policy

TEST(PathPolicy, SolvesMinimalCountMeetingTarget) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.target_error = 1e-2;
  cfg.max_paths = 256;
  const ctl::PathDecision d = ctl::solve_path_count(qam, 4, 10.0, cfg);
  ASSERT_TRUE(d.feasible);
  EXPECT_GE(d.coverage, 1.0 - cfg.target_error);
  // Minimality: the solved count meets the target, one path fewer misses.
  EXPECT_GE(model_coverage(qam, 4, 10.0, d.paths), 1.0 - cfg.target_error);
  ASSERT_GT(d.paths, 1u);
  EXPECT_LT(model_coverage(qam, 4, 10.0, d.paths - 1), 1.0 - cfg.target_error);
}

TEST(PathPolicy, MonotoneInSnrAndTarget) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.target_error = 1e-2;
  cfg.max_paths = 1024;
  const std::size_t at5 = ctl::solve_path_count(qam, 4, 5.0, cfg).paths;
  const std::size_t at10 = ctl::solve_path_count(qam, 4, 10.0, cfg).paths;
  const std::size_t at20 = ctl::solve_path_count(qam, 4, 20.0, cfg).paths;
  EXPECT_GE(at5, at10);
  EXPECT_GE(at10, at20);
  EXPECT_GT(at5, at20);  // strictly cheaper somewhere across 15 dB
  // A tighter target can only cost paths.
  ctl::PathPolicyConfig tight = cfg;
  tight.target_error = 1e-3;
  EXPECT_GE(ctl::solve_path_count(qam, 4, 10.0, tight).paths, at10);
}

TEST(PathPolicy, ClampsAndInfeasibilityAreExplicit) {
  Constellation qam(64);
  ctl::PathPolicyConfig cfg;
  cfg.target_error = 1e-3;
  cfg.max_paths = 8;  // far too small for 64-QAM at 0 dB
  const ctl::PathDecision d = ctl::solve_path_count(qam, 8, 0.0, cfg);
  EXPECT_FALSE(d.feasible);
  EXPECT_EQ(d.paths, cfg.max_paths);
  EXPECT_LT(d.coverage, 1.0 - cfg.target_error);

  cfg.max_paths = 256;
  cfg.target_error = 0.5;  // trivially met by the root path at high SNR
  const ctl::PathDecision e = ctl::solve_path_count(qam, 8, 30.0, cfg);
  EXPECT_TRUE(e.feasible);
  EXPECT_EQ(e.paths, 1u);

  EXPECT_THROW(ctl::solve_path_count(qam, 0, 10.0, cfg),
               std::invalid_argument);
}

TEST(PathPolicy, PathSpecFamilies) {
  EXPECT_EQ(ctl::path_spec(24), "flexcore-24");
  EXPECT_THROW(ctl::path_spec(0), std::invalid_argument);
}

// ------------------------------------------------------------ feedback loop

TEST(FeedbackLoop, ConvergesAtFixedSnr) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.max_paths = 64;
  ctl::FeedbackLoop loop(qam, 4, cfg);
  std::size_t emitted = 0;
  for (int i = 0; i < 100; ++i) {
    emitted += loop.observe(snr_obs(12.0)).has_value();
  }
  // Exactly the initial decision, then steady state.
  EXPECT_EQ(emitted, 1u);
  ASSERT_TRUE(loop.current().has_value());
  EXPECT_EQ(loop.current()->reason, std::string("init"));
  const std::size_t solved = ctl::solve_path_count(qam, 4, 12.0, cfg).paths;
  EXPECT_EQ(loop.current()->detector,
            "flexcore-" + std::to_string(solved));
}

TEST(FeedbackLoop, HysteresisStopsThrash) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.max_paths = 64;
  ctl::FeedbackLoop loop(qam, 4, cfg);
  std::size_t emitted = 0;
  // +-0.4 dB wobble around 12: inside the kHysteresisDb = 1 dB band after
  // smoothing.
  static_assert(ctl::kHysteresisDb > 0.4);
  for (int i = 0; i < 200; ++i) {
    emitted += loop.observe(snr_obs(12.0 + (i % 2 ? 0.4 : -0.4))).has_value();
  }
  EXPECT_EQ(emitted, 1u) << "spec thrashed inside the hysteresis band";
}

TEST(FeedbackLoop, TracksRampAndHonoursHold) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.max_paths = 256;
  ctl::FeedbackLoop loop(qam, 4, cfg);
  for (int i = 0; i < 100; ++i) {
    loop.observe(snr_obs(18.0 - 0.1 * i));  // 18 -> 8 dB ramp
  }
  const auto& log = loop.decisions();
  ASSERT_GE(log.size(), 3u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    // Falling SNR can only grow the budget...
    EXPECT_GE(log[i].paths, log[i - 1].paths);
    // ...and changes respect the coherence hold.
    EXPECT_GE(log[i].frame_index - log[i - 1].frame_index,
              ctl::kMinHoldFrames);
  }
  EXPECT_GT(log.back().paths, log.front().paths);
}

TEST(FeedbackLoop, DeterministicGivenSameObservables) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.max_paths = 64;
  ctl::FeedbackLoop a(qam, 4, cfg), b(qam, 4, cfg);
  ch::Rng rng(5);
  std::vector<ctl::Observation> seq;
  for (int i = 0; i < 300; ++i) {
    ctl::Observation obs =
        snr_obs(12.0 + 6.0 * std::sin(i / 20.0) + rng.gaussian() * 0.3);
    obs.symbols = 64;
    obs.symbol_errors = (i % 17 == 0) ? 2 : 0;
    obs.queue_depth = (i / 50) % 2 == 1 ? 4 : 0;
    obs.queue_capacity = 4;
    seq.push_back(obs);
  }
  for (const auto& obs : seq) {
    const auto da = a.observe(obs);
    const auto db = b.observe(obs);
    ASSERT_EQ(da.has_value(), db.has_value());
  }
  ASSERT_EQ(a.decisions().size(), b.decisions().size());
  for (std::size_t i = 0; i < a.decisions().size(); ++i) {
    EXPECT_EQ(a.decisions()[i].detector, b.decisions()[i].detector);
    EXPECT_EQ(a.decisions()[i].frame_index, b.decisions()[i].frame_index);
    EXPECT_EQ(std::string(a.decisions()[i].reason),
              std::string(b.decisions()[i].reason));
  }
}

TEST(FeedbackLoop, ErrorFeedbackBacksOffThenRecovers) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.max_paths = 256;
  ctl::FeedbackLoop loop(qam, 4, cfg);
  ctl::Observation clean = snr_obs(14.0);
  clean.symbols = 100;
  loop.observe(clean);  // init
  const std::size_t init_paths = loop.current()->paths;

  // Sustained SER above target at the same reported SNR: the integral
  // action must distrust the model and buy more paths.  Five error
  // windows of bad frames.
  ctl::Observation bad = clean;
  bad.symbol_errors = 5;  // 5e-2 > 1e-2 target
  for (std::size_t i = 0; i < 5 * ctl::kErrorWindow; ++i) loop.observe(bad);
  EXPECT_GT(loop.error_backoff_db(), 0.0);
  EXPECT_GT(loop.current()->paths, init_paths);

  // Clean windows bleed the backoff back off: one kErrorBackoffDb step
  // per window, then a hold before the re-solve.
  const std::size_t windows =
      static_cast<std::size_t>(ctl::kMaxBackoffDb / ctl::kErrorBackoffDb) + 2;
  for (std::size_t i = 0; i < windows * ctl::kErrorWindow; ++i) {
    loop.observe(clean);
  }
  EXPECT_EQ(loop.error_backoff_db(), 0.0);
  EXPECT_EQ(loop.current()->paths, init_paths);
}

TEST(FeedbackLoop, LoadDegradesToFamilySwapAndRestores) {
  Constellation qam(16);
  ctl::PathPolicyConfig cfg;
  cfg.max_paths = 64;
  ctl::FeedbackLoop loop(qam, 4, cfg);
  loop.observe(snr_obs(10.0));  // init at a path-hungry SNR
  const std::size_t solved = loop.current()->paths;
  ASSERT_GE(solved >> ctl::kMaxDegradeSteps, 1u)
      << "scenario needs headroom to halve";

  // Sustained pressure: halve kMaxDegradeSteps times, then swap families.
  std::vector<std::string> specs;
  for (std::size_t i = 0; i < 10 * ctl::kDegradeAfter; ++i) {
    if (loop.degrade_step() > ctl::kMaxDegradeSteps) break;
    if (auto d = loop.observe(load_obs(10.0, 4, 4))) {
      specs.push_back(d->detector);
    }
  }
  ASSERT_EQ(specs.size(), ctl::kMaxDegradeSteps + 1);
  for (std::size_t step = 1; step <= ctl::kMaxDegradeSteps; ++step) {
    EXPECT_EQ(specs[step - 1], "flexcore-" + std::to_string(solved >> step));
  }
  EXPECT_EQ(specs.back(), ctl::kDegradeDetector);
  EXPECT_EQ(loop.decisions().back().reason, std::string("load-degrade"));

  // Sustained slack walks the ladder back up to the full solved budget.
  std::size_t restores = 0;
  for (std::size_t i = 0; i < 7 * ctl::kRestoreAfter; ++i) {
    if (auto d = loop.observe(load_obs(10.0, 0, 4))) {
      ++restores;
      EXPECT_EQ(d->reason, std::string("load-restore"));
    }
  }
  EXPECT_EQ(restores, ctl::kMaxDegradeSteps + 1);
  EXPECT_EQ(loop.degrade_step(), 0u);
  EXPECT_EQ(loop.current()->detector,
            "flexcore-" + std::to_string(solved));
}

TEST(FeedbackLoop, NoDecisionBeforeFirstSnrEstimate) {
  Constellation qam(16);
  ctl::FeedbackLoop loop(qam, 4, {});
  ctl::Observation blind;  // NaN SNR, no errors, no load signal
  blind.queue_depth = 4;
  blind.queue_capacity = 4;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(loop.observe(blind).has_value());
  }
  EXPECT_TRUE(loop.observe(snr_obs(12.0)).has_value());
}

// -------------------------------------------------- runtime reconfiguration

TEST(Reconfigure, FifoSafeAcrossSpecBoundary) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 0;  // poll mode: fully deterministic interleaving
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-16", .qam_order = 16});

  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(cell.constellation(), 4, 3, 4, 4, nv, 77);
  const fa::FrameJob job = job_of(fr, nv);

  std::vector<fa::FrameTicket> before, after;
  for (int i = 0; i < 2; ++i) before.push_back(rt.submit(cell, job));
  fa::FrameTicket swap = rt.reconfigure(cell, {.detector = "zf-sic"});
  for (int i = 0; i < 2; ++i) after.push_back(rt.submit(cell, job));

  // Sequence numbers prove the swap's FIFO slot.
  EXPECT_EQ(swap.sequence(), 2u);
  EXPECT_EQ(after.front().sequence(), 3u);

  while (rt.run_one()) {
  }
  EXPECT_EQ(swap.wait(), fa::TicketStatus::kDone);

  const auto ref_old = sync_reference("flexcore-16", 16, fr, nv);
  const auto ref_new = sync_reference("zf-sic", 16, fr, nv);
  for (auto& t : before) {
    ASSERT_EQ(t.wait(), fa::TicketStatus::kDone);
    expect_bit_identical(t.try_get()->results, ref_old, "pre-swap");
  }
  for (auto& t : after) {
    ASSERT_EQ(t.wait(), fa::TicketStatus::kDone);
    expect_bit_identical(t.try_get()->results, ref_new, "post-swap");
  }
}

TEST(Reconfigure, I16TierSpecAppliesThroughRuntime) {
  // A ":i16" spec must apply through the FIFO-safe reconfigure path like
  // any family swap, and the live spec in RuntimeStats must reflect the
  // tier.
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 0;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-16", .qam_order = 16});

  const double nv = ch::noise_var_for_snr_db(14.0);
  const Frame fr = make_frame(cell.constellation(), 3, 3, 4, 4, nv, 79);
  const fa::FrameJob job = job_of(fr, nv);

  fa::FrameTicket swap = rt.reconfigure(cell, {.detector = "flexcore-16:i16"});
  fa::FrameTicket frame = rt.submit(cell, job);
  while (rt.run_one()) {
  }
  EXPECT_EQ(swap.wait(), fa::TicketStatus::kDone);
  ASSERT_EQ(frame.wait(), fa::TicketStatus::kDone);
  EXPECT_EQ(frame.try_get()->results.size(), fr.ys.size());
  EXPECT_EQ(rt.stats().cells[0].detector, "flexcore-16:i16");
  EXPECT_EQ(rt.stats().cells[0].detector, cell.pipeline().detector().name());

  // The i16 grid stays close to the fp64 reference at this SNR (the
  // kernel suite quantifies the tolerance; here we only guard wiring).
  const auto ref = sync_reference("flexcore-16", 16, fr, nv);
  std::size_t mismatched = 0;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    mismatched += frame.try_get()->results[v].symbols != ref[v].symbols;
  }
  EXPECT_LE(mismatched, ref.size() / 4);

  // A bare spec restores the fp64 tier: it must run fp64 again, and the
  // reported spec must be the one running.
  fa::FrameTicket back = rt.reconfigure(cell, {.detector = "flexcore-16"});
  fa::FrameTicket after = rt.submit(cell, job);
  while (rt.run_one()) {
  }
  EXPECT_EQ(back.wait(), fa::TicketStatus::kDone);
  ASSERT_EQ(after.wait(), fa::TicketStatus::kDone);
  EXPECT_EQ(rt.stats().cells[0].detector, "flexcore-16");
  EXPECT_EQ(rt.stats().cells[0].detector, cell.pipeline().detector().name());
  expect_bit_identical(after.try_get()->results, ref, "restored fp64");
}

TEST(Reconfigure, BypassesFullQueueAndShedding) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 0;
  rcfg.queue_capacity = 1;
  rcfg.policy = fa::QueuePolicy::kDropNewest;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});

  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(cell.constellation(), 2, 2, 4, 4, nv, 78);
  const fa::FrameJob job = job_of(fr, nv);

  fa::FrameTicket first = rt.submit(cell, job);   // fills the queue
  fa::FrameTicket swap = rt.reconfigure(cell, {.detector = "zf-sic"});
  fa::FrameTicket dropped = rt.submit(cell, job);  // frame IS shed
  EXPECT_EQ(dropped.status(), fa::TicketStatus::kDropped);
  EXPECT_EQ(swap.status(), fa::TicketStatus::kPending);

  while (rt.run_one()) {
  }
  EXPECT_EQ(first.wait(), fa::TicketStatus::kDone);
  EXPECT_EQ(swap.wait(), fa::TicketStatus::kDone);

  const fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.reconfigs, 1u);
  EXPECT_EQ(rs.cells[0].detector, "zf-sic");
  EXPECT_EQ(rs.frames_dropped, 1u);
}

TEST(Reconfigure, InvalidSpecThrowsSynchronouslyAndChangesNothing) {
  fa::Runtime rt({.threads = 2, .dispatchers = 0});
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  EXPECT_THROW(rt.reconfigure(cell, {.detector = "warp-fpga"}),
               std::invalid_argument);
  EXPECT_THROW(rt.reconfigure(cell, {.detector = ""}),
               std::invalid_argument);
  const fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.reconfigs, 0u);
  EXPECT_EQ(rs.cells[0].detector, "flexcore-8");
  EXPECT_EQ(rs.queue_depth, 0u);
}

TEST(Reconfigure, ResetsCoherenceWarmup) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 0;
  fa::Runtime rt(rcfg);
  fa::CellConfig ccfg;
  ccfg.detector = "flexcore-8";
  ccfg.qam_order = 16;
  ccfg.reuse_preprocessing = true;
  fa::Cell& cell = rt.open_cell(ccfg);

  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(cell.constellation(), 3, 2, 4, 4, nv, 79);
  const fa::FrameJob job = job_of(fr, nv);

  auto run = [&](fa::FrameTicket t) {
    while (rt.run_one()) {
    }
    EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);
    return t.take();
  };
  EXPECT_EQ(run(rt.submit(cell, job)).channels_installed, 3u);  // cold
  EXPECT_EQ(run(rt.submit(cell, job)).channels_installed, 0u);  // coherent
  rt.reconfigure(cell, {.detector = "flexcore-4"});
  // The swapped detector has no caches: reuse would walk stale state.
  EXPECT_EQ(run(rt.submit(cell, job)).channels_installed, 3u);
  EXPECT_EQ(run(rt.submit(cell, job)).channels_installed, 0u);
}

TEST(Reconfigure, StatsInvariantHoldsWithControlMessages) {
  fa::Runtime rt({.threads = 2, .dispatchers = 0});
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(cell.constellation(), 2, 2, 4, 4, nv, 80);
  const fa::FrameJob job = job_of(fr, nv);

  rt.submit(cell, job);
  rt.reconfigure(cell, {.detector = "flexcore-4"});
  rt.submit(cell, job);
  rt.reconfigure(cell, {.detector = "flexcore-2"});

  // Queued control messages must not appear as frames anywhere.
  fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.frames_in, 2u);
  EXPECT_EQ(rs.queue_depth, 2u);
  EXPECT_EQ(rs.cells[0].queue_depth, 2u);
  EXPECT_EQ(rs.reconfigs, 0u);  // none applied yet

  rt.drain();
  rs = rt.stats();
  EXPECT_EQ(rs.frames_in, 2u);
  EXPECT_EQ(rs.frames_out, 2u);
  EXPECT_EQ(rs.reconfigs, 2u);
  EXPECT_EQ(rs.cells[0].reconfigs, 2u);
  EXPECT_EQ(rs.queue_depth, 0u);
  EXPECT_EQ(rs.latency_count, rs.frames_out)
      << "reconfigs must not enter the latency histogram";
  EXPECT_EQ(rs.cells[0].detector, "flexcore-2");
}

TEST(Reconfigure, TuningResolvedAtCallTimeNotApplyTime) {
  fa::Runtime rt({.threads = 2, .dispatchers = 0});
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const std::size_t default_batch =
      cell.config().tuning.flexcore.batch_expand;

  // First swap changes the tuning; the second (tuning unset, still queued
  // behind the first) must keep the tuning in effect when IT was called —
  // the default — not inherit the first swap's, and must apply cleanly.
  fa::DetectorConfig custom = cell.config().tuning;
  custom.flexcore.batch_expand = default_batch + 2;
  fa::FrameTicket first =
      rt.reconfigure(cell, {.detector = "flexcore-8", .tuning = custom});
  fa::FrameTicket second = rt.reconfigure(cell, {.detector = "flexcore-4"});
  while (rt.run_one()) {
  }
  EXPECT_EQ(first.wait(), fa::TicketStatus::kDone);
  EXPECT_EQ(second.wait(), fa::TicketStatus::kDone);
  EXPECT_EQ(cell.config().detector, "flexcore-4");
  EXPECT_EQ(cell.config().tuning.flexcore.batch_expand, default_batch);
}

TEST(Reconfigure, AppliedByBackgroundDispatchers) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = 2;
  rcfg.dispatchers = 2;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-16", .qam_order = 16});
  const double nv = ch::noise_var_for_snr_db(12.0);
  const Frame fr = make_frame(cell.constellation(), 4, 2, 4, 4, nv, 81);
  const fa::FrameJob job = job_of(fr, nv);

  std::vector<fa::FrameTicket> before, after;
  for (int i = 0; i < 4; ++i) before.push_back(rt.submit(cell, job));
  fa::FrameTicket swap = rt.reconfigure(cell, {.detector = "flexcore-2"});
  for (int i = 0; i < 4; ++i) after.push_back(rt.submit(cell, job));
  rt.drain();

  EXPECT_EQ(swap.wait(), fa::TicketStatus::kDone);
  const auto ref_old = sync_reference("flexcore-16", 16, fr, nv);
  const auto ref_new = sync_reference("flexcore-2", 16, fr, nv);
  for (auto& t : before) {
    ASSERT_EQ(t.wait(), fa::TicketStatus::kDone);
    expect_bit_identical(t.try_get()->results, ref_old, "pre-swap async");
  }
  for (auto& t : after) {
    ASSERT_EQ(t.wait(), fa::TicketStatus::kDone);
    expect_bit_identical(t.try_get()->results, ref_new, "post-swap async");
  }
  EXPECT_EQ(rt.stats().cells[0].detector, "flexcore-2");
}

// ------------------------------------------------------- closed-loop pieces

TEST(Scenario, DriverIsDeterministicAndScriptsShape) {
  fs::ScenarioConfig sc;
  sc.trace = {.nr = 4, .nt = 2, .num_subcarriers = 4};
  sc.segments = {{.frames = 5, .snr_db_begin = 18.0, .snr_db_end = 10.0},
                 {.frames = 3, .snr_db_begin = 10.0, .snr_db_end = 10.0,
                  .rho = 0.9},
                 {.frames = 2, .snr_db_begin = 10.0, .snr_db_end = 16.0,
                  .load_burst = 2}};
  sc.seed = 11;
  fs::ScenarioDriver a(sc), b(sc);
  EXPECT_EQ(a.total_frames(), 10u);
  EXPECT_DOUBLE_EQ(a.min_snr_db(), 10.0);

  Constellation qam(4);
  fs::ScenarioStep sa, sb;
  std::size_t evolved = 0, bursts = 0;
  while (a.next(&sa)) {
    ASSERT_TRUE(b.next(&sb));
    EXPECT_DOUBLE_EQ(sa.snr_db, sb.snr_db);
    evolved += (sa.channel_changed && sa.index > 0);
    bursts += sa.load_burst;
    const fs::SynthFrame fa_ = a.synth_frame(qam, 4, 1);
    const fs::SynthFrame fb_ = b.synth_frame(qam, 4, 1);
    ASSERT_EQ(fa_.tx, fb_.tx);
    for (std::size_t v = 0; v < fa_.ys.size(); ++v) {
      for (std::size_t r = 0; r < fa_.ys[v].size(); ++r) {
        EXPECT_EQ(fa_.ys[v][r], fb_.ys[v][r]);
      }
    }
  }
  EXPECT_FALSE(b.next(&sb));
  EXPECT_EQ(evolved, 3u);  // only the rho < 1 segment evolves the trace
  EXPECT_EQ(bursts, 4u);
  // Ramp endpoints hit exactly.
  fs::ScenarioDriver c(sc);
  fs::ScenarioStep s0;
  c.next(&s0);
  EXPECT_DOUBLE_EQ(s0.snr_db, 18.0);
}

TEST(ClosedLoop, AdaptiveMeetsTargetWithFewerPathsThanWorstCase) {
  // Compact end-to-end: SNR ramp 16 -> 9 -> 16 dB; the adaptive cell must
  // stay at/below the target error while averaging measurably fewer paths
  // than the static worst-case solve.
  Constellation qam(16);
  const std::size_t nsc = 4, nv = 2, nt = 4;
  fs::ScenarioConfig sc;
  sc.trace = {.nr = 8, .nt = nt, .num_subcarriers = nsc};
  sc.segments = {{.frames = 12, .snr_db_begin = 16.0, .snr_db_end = 9.0},
                 {.frames = 12, .snr_db_begin = 9.0, .snr_db_end = 16.0}};
  sc.seed = 21;

  ctl::PathPolicyConfig policy;
  policy.target_error = 1e-2;
  policy.max_paths = 64;
  const std::size_t worst = ctl::solve_path_count(qam, nt, 9.0, policy).paths;

  double paths_static = 0.0, paths_adaptive = 0.0;
  std::size_t errors_adaptive = 0, symbols_adaptive = 0;
  for (const bool adaptive : {false, true}) {
    fs::ScenarioDriver drv(sc);
    fa::RuntimeConfig rcfg;
    rcfg.threads = 2;
    rcfg.dispatchers = 0;
    fa::Runtime rt(rcfg);
    fa::Cell& cell = rt.open_cell(
        {.detector = "flexcore-" + std::to_string(worst), .qam_order = 16});
    ctl::FeedbackLoop loop(qam, nt, policy);

    fs::ScenarioStep step;
    while (drv.next(&step)) {
      const fs::SynthFrame fr = drv.synth_frame(qam, nsc, nv);
      fa::FrameTicket t = rt.submit(cell, fs::frame_job_of(fr, step.noise_var));
      while (rt.run_one()) {
      }
      ASSERT_EQ(t.wait(), fa::TicketStatus::kDone);
      const fa::FrameResult* res = t.try_get();
      const std::size_t errs = fs::count_symbol_errors(fr, res->results);
      (adaptive ? paths_adaptive : paths_static) +=
          res->sum_active_paths / nsc;
      if (adaptive) {
        errors_adaptive += errs;
        symbols_adaptive += fr.tx.size();
        // True-SNR observable: this test isolates the policy from
        // estimator noise (channel_test covers the estimator).
        ctl::Observation obs = snr_obs(step.snr_db);
        obs.symbols = fr.tx.size();
        obs.symbol_errors = errs;
        if (auto d = loop.observe(obs)) {
          rt.reconfigure(cell, {.detector = d->detector});
        }
      }
    }
    rt.drain();
    if (adaptive) {
      EXPECT_GE(rt.stats().reconfigs, 2u);
    }
  }
  const double ser = static_cast<double>(errors_adaptive) /
                     static_cast<double>(symbols_adaptive);
  EXPECT_LE(ser, 2.0 * policy.target_error);
  EXPECT_LT(paths_adaptive, 0.8 * paths_static)
      << "adaptive did not save compute over the static worst case";
}
