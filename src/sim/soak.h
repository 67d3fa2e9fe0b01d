// Long-horizon scenario soak harness: chaos campaigns over the serving
// runtime with invariants checked continuously.
//
// A soak scenario drives an api::Runtime (runtime.shards > 1 puts the shard
// fabric in front of admission) through many coherence rounds of a living
// deployment — Gauss-Markov channel aging, per-round detector
// reconfigurations, user churn with cells opening and closing mid-run,
// inter-cell interference coupling, diurnal load curves — while a
// fault::Injector corrupts payloads/channels, fails and stalls antenna
// clusters, squeezes deadlines and fires submit storms.  Throughout, the
// harness asserts the runtime's robustness contract:
//
//   * zero ticket loss — every submitted ticket reaches a terminal state
//     within a bounded wait, storms, stalls and quarantines included;
//   * per-cell FIFO — dispatched completions (done/failed/quarantined) of
//     one cell arrive in strictly increasing sequence order;
//   * fault containment — a clean frame is NEVER quarantined or failed
//     (an injected fault must not poison a later frame), and a frame with
//     injected non-finite data is NEVER reported done;
//   * accounting — the per-cell counter identity of RuntimeStats holds at
//     the end of the campaign;
//   * accuracy — on sampled clean done-frames, detection matches a fresh
//     synchronous pipeline bit-for-bit (shards == 1) and the clean-frame
//     SER stays within kSerMargin of that oracle (any shard count).
//
// Violations are collected as human-readable strings in the report, not
// thrown: one soak run reports every broken invariant at once, and the
// whole campaign replays from the config seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"

namespace flexcore::sim {

/// Allowed clean-frame SER excess over the synchronous oracle (absolute).
inline constexpr double kSerMargin = 0.02;

/// One chaos scenario: workload shape + dynamics + fault plan.
struct SoakScenarioConfig {
  std::string name = "soak";
  std::size_t cells = 2;   ///< cell sessions (churn may add one mid-run)
  std::size_t rounds = 64; ///< coherence rounds (one reconfig per open cell)
  std::size_t frames_per_cell = 2;  ///< base frames per open cell per round
  std::size_t nsc = 8;              ///< subcarriers
  std::size_t nr = 8;               ///< AP antennas
  std::size_t nt = 4;               ///< users
  std::size_t nv = 2;               ///< OFDM symbols per subcarrier
  int qam = 16;
  /// Detector of freshly opened cells.
  std::string detector = "flexcore-8";
  /// Per-round rotation of detector swaps (cell j gets
  /// cycle[(round + j) % size] each round).  Empty disables reconfigs.
  std::vector<std::string> reconfig_cycle = {"flexcore-8", "flexcore-16",
                                             "zf-sic"};
  double snr_db = 18.0;
  /// Gauss-Markov coherence of channel aging (1 = static channels).
  double rho = 0.95;
  /// Leakage of the next cell's channel into this cell's (0 = isolated).
  double interference_coupling = 0.0;
  /// Diurnal load curve: frames per round scale by
  /// 1 + amplitude * sin(2*pi * round / period).
  double diurnal_amplitude = 0.0;
  double diurnal_period = 32.0;
  /// Cells close for whole windows of rounds and one cell only opens a
  /// quarter of the way in (user churn).
  bool churn = false;
  /// Per-frame deadline armed at submit (0 = none; kDeadlineExpire only).
  std::uint64_t deadline_us = 0;
  std::uint64_t seed = 1;
  fault::FaultPlan faults;
  /// Runtime knobs (policy, queue, shards, stall budget, ...); the
  /// harness installs the injector's shard probe itself.  shards == 1 is
  /// the monolithic path, where bit-identity is checked.
  api::RuntimeConfig runtime;
  /// Sample period of the synchronous-oracle spot check (0 disables).
  std::size_t spot_check_every = 16;
};

/// Outcome of one scenario.  `violations` is empty iff every invariant
/// held; the counters feed the BENCH_soak.json scorecard.
struct SoakScenarioReport {
  std::string name;
  std::size_t frames_submitted = 0;  ///< submit() calls (storm dups incl.)
  std::size_t frames_done = 0;
  std::size_t frames_quarantined = 0;
  std::size_t frames_failed = 0;
  std::size_t frames_dropped = 0;
  std::size_t frames_expired = 0;
  std::size_t reconfigs = 0;        ///< reconfigure() calls that completed
  std::uint64_t faults_injected = 0;  ///< injector activations, all kinds
  std::size_t injected_bad = 0;  ///< frames submitted with corrupted data
  std::size_t injected_bad_done = 0;  ///< ... of those, completed kDone
  std::size_t tickets_lost = 0;  ///< non-terminal after the bounded wait
  std::size_t fifo_violations = 0;
  std::size_t spot_checks = 0;     ///< clean done-frames re-detected
  std::size_t bit_mismatches = 0;  ///< ... that differed (shards == 1)
  std::size_t clean_symbols = 0;   ///< symbols scored on spot-checked frames
  std::size_t clean_errors = 0;    ///< runtime symbol errors on those
  std::size_t oracle_errors = 0;   ///< oracle symbol errors on those
  std::uint64_t shard_retries = 0;
  std::uint64_t shard_bypasses = 0;
  std::uint64_t watchdog_transitions = 0;  ///< cell health state changes
  int worst_health = 0;  ///< max CellHealth over cells at campaign end
  double seconds = 0.0;
  std::vector<std::string> violations;
  bool ok() const noexcept { return violations.empty(); }
};

/// Runs one scenario to completion (drains the runtime, waits out every
/// ticket) and returns the scorecard.  Deterministic inputs: the workload,
/// dynamics and injections replay exactly from cfg.seed / cfg.faults.seed;
/// shedding outcomes (drops, expiries) remain timing-dependent, and the
/// invariants are written to hold for every interleaving.
SoakScenarioReport run_soak_scenario(const SoakScenarioConfig& cfg);

/// The four-scenario chaos corpus of bench/fig19_soak_chaos: mobility,
/// churn, interference and diurnal campaigns, each with its own fault mix
/// (see soak.cpp for the exact plans).  `rounds` scales the horizon
/// (>= 128 yields >= 1000 reconfigurations across the corpus); `seed`
/// offsets every scenario's seeds.
std::vector<SoakScenarioConfig> default_soak_corpus(std::size_t rounds,
                                                    std::uint64_t seed);

}  // namespace flexcore::sim
