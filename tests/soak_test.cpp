// Tests for the soak harness: the four-scenario chaos corpus at a short
// horizon (every invariant must hold at any budget), targeted scenarios
// pinning the quarantine and bypass machinery, and end-to-end determinism
// of the seeded campaign counters.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "fault/injector.h"
#include "sim/soak.h"

namespace fa = flexcore::api;
namespace ff = flexcore::fault;
namespace fs = flexcore::sim;

namespace {

void expect_ok(const fs::SoakScenarioReport& rep) {
  for (const std::string& v : rep.violations) {
    ADD_FAILURE() << rep.name << ": " << v;
  }
  EXPECT_EQ(rep.tickets_lost, 0u) << rep.name;
  EXPECT_EQ(rep.fifo_violations, 0u) << rep.name;
  EXPECT_EQ(rep.bit_mismatches, 0u) << rep.name;
}

}  // namespace

TEST(Soak, DefaultCorpusHoldsEveryInvariantAtShortHorizon) {
  // The fig19 corpus at a CI-friendly horizon: the >= 1000-reconfiguration
  // acceptance gate is a budget property, every OTHER invariant must hold
  // at 10 rounds exactly as at 128.
  for (const fs::SoakScenarioConfig& cfg : fs::default_soak_corpus(10, 77)) {
    SCOPED_TRACE(cfg.name);
    const fs::SoakScenarioReport rep = fs::run_soak_scenario(cfg);
    expect_ok(rep);
    EXPECT_GT(rep.frames_submitted, 0u);
    EXPECT_GT(rep.reconfigs, 0u);
    EXPECT_GT(rep.faults_injected, 0u) << "a chaos run must inject faults";
    EXPECT_EQ(rep.frames_submitted,
              rep.frames_done + rep.frames_quarantined + rep.frames_failed +
                  rep.frames_dropped + rep.frames_expired)
        << "every ticket must reach a terminal state";
  }
}

TEST(Soak, CertainCorruptionQuarantinesEveryFrame) {
  // p=1 non-finite payloads with the admission scan off: every frame is
  // corrupted, reaches dispatch, and terminates kQuarantined — none done,
  // none lost, and the campaign still reports ok.
  fs::SoakScenarioConfig cfg;
  cfg.name = "all-quarantine";
  cfg.cells = 1;
  cfg.rounds = 5;
  cfg.frames_per_cell = 2;
  cfg.reconfig_cycle = {"flexcore-8"};
  cfg.seed = 91;
  cfg.runtime.threads = 2;
  cfg.runtime.dispatchers = 1;
  cfg.runtime.admission_scan = false;
  cfg.spot_check_every = 0;  // no clean frames to check
  cfg.faults.seed = 92;
  cfg.faults.rules = {
      {.kind = ff::FaultKind::kNonFinitePayload, .probability = 1.0}};

  const fs::SoakScenarioReport rep = fs::run_soak_scenario(cfg);
  expect_ok(rep);
  EXPECT_GT(rep.frames_submitted, 0u);
  EXPECT_EQ(rep.injected_bad, rep.frames_submitted);
  EXPECT_EQ(rep.frames_quarantined, rep.frames_submitted);
  EXPECT_EQ(rep.frames_done, 0u);
  EXPECT_EQ(rep.injected_bad_done, 0u)
      << "a non-finite frame must never be reported done";
  EXPECT_GE(rep.watchdog_transitions, 1u)
      << "an all-bad cell must trip the health watchdog";
  EXPECT_EQ(rep.worst_health,
            static_cast<int>(fa::CellHealth::kQuarantining));
}

TEST(Soak, DeadShardFabricBypassesEveryFrameAndStaysDone) {
  // p=1 shard failures on a two-cluster fabric: every frame walks the
  // retry-then-bypass ladder and still completes kDone (the bypass is the
  // identity merge), with zero quarantines and a clean scorecard.
  fs::SoakScenarioConfig cfg;
  cfg.name = "dead-fabric";
  cfg.cells = 1;
  cfg.rounds = 4;
  cfg.frames_per_cell = 2;
  cfg.reconfig_cycle = {"flexcore-8"};
  cfg.seed = 93;
  cfg.runtime.shards = 2;
  cfg.runtime.threads = 2;
  cfg.runtime.dispatchers = 1;
  cfg.runtime.admission_scan = false;
  cfg.spot_check_every = 2;
  cfg.faults.seed = 94;
  cfg.faults.rules = {{.kind = ff::FaultKind::kShardFail,
                       .probability = 1.0}};

  const fs::SoakScenarioReport rep = fs::run_soak_scenario(cfg);
  expect_ok(rep);
  EXPECT_GT(rep.frames_submitted, 0u);
  EXPECT_EQ(rep.frames_done, rep.frames_submitted);
  EXPECT_EQ(rep.frames_quarantined, 0u);
  EXPECT_EQ(rep.shard_retries, rep.frames_submitted);
  EXPECT_EQ(rep.shard_bypasses, rep.frames_submitted);
  EXPECT_GT(rep.spot_checks, 0u);
}

TEST(Soak, CampaignCountersReplayFromTheSeeds) {
  // Determinism: under kBlock with no deadlines, nothing is shed, so the
  // full scorecard (not just the injections) must replay exactly.
  const fs::SoakScenarioConfig cfg = fs::default_soak_corpus(6, 1234)[0];
  ASSERT_EQ(cfg.runtime.policy, fa::QueuePolicy::kBlock);
  const fs::SoakScenarioReport a = fs::run_soak_scenario(cfg);
  const fs::SoakScenarioReport b = fs::run_soak_scenario(cfg);
  expect_ok(a);
  expect_ok(b);
  EXPECT_EQ(a.frames_submitted, b.frames_submitted);
  EXPECT_EQ(a.frames_done, b.frames_done);
  EXPECT_EQ(a.frames_quarantined, b.frames_quarantined);
  EXPECT_EQ(a.injected_bad, b.injected_bad);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.reconfigs, b.reconfigs);
  EXPECT_EQ(a.clean_errors, b.clean_errors);
  EXPECT_EQ(a.oracle_errors, b.oracle_errors);
}
