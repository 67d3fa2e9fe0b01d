// Seeded, scriptable fault injection for chaos testing the serving stack.
//
// The robustness claim of an always-on baseband runtime is not "faults are
// rare" but "faults are survived": a corrupt fronthaul payload, a numerically
// broken channel estimate, a stalled antenna-cluster DSP or an overload burst
// must degrade ONE frame's outcome — never the runtime's invariants (no lost
// ticket, no FIFO inversion, no poisoned later frame).  fault::Injector is
// the adversary that proves it: a declarative FaultPlan (list of FaultRule
// windows) evaluated by a pure hash of (seed, rule, target, frame), so a
// whole chaos campaign replays bit-identically from one seed — a failing
// soak run is a repro, not an anecdote.
//
// Two injection surfaces, matching where real faults enter:
//   * Frame faults (decide_frame/apply) mutate a sim::SynthFrame before
//     submit: non-finite or garbage I/Q payloads, NaN/Inf channel entries,
//     rank-deficient channel bursts — plus submit-side pressure verdicts
//     (deadline squeeze, duplicate-submit storms) the driving harness
//     enacts.
//   * Shard faults (shard_probe) plug into
//     api::RuntimeConfig::shard_fault_probe: per-(cluster, frame) fail and
//     stall verdicts exercising the shard fabric's retry-then-bypass
//     ladder.
//
// Everything is thread-safe: decisions are stateless hashes and the
// injection counters are relaxed atomics (shard probes run concurrently on
// the driver threads).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "api/runtime.h"
#include "sim/frame_synth.h"

namespace flexcore::fault {

/// What a rule injects.  kCorruptPayload stays FINITE (detection completes
/// and returns garbage — the outcome a CRC would catch); the non-finite and
/// rank-deficient kinds trip the numeric guards (quarantine/fail); the
/// shard kinds exercise the fabric's degradation ladder; the pressure kinds
/// are verdicts the submitting harness enacts (the injector cannot shrink a
/// deadline by itself).
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCorruptPayload,        ///< huge-but-finite garbage in ys
  kNonFinitePayload,      ///< NaN/Inf entries in ys
  kNonFiniteChannel,      ///< NaN/Inf entries in H
  kRankDeficientChannel,  ///< duplicated channel columns (rank < Nt)
  kShardFail,             ///< cluster reports a failed prep attempt
  kShardStall,            ///< cluster driver sleeps stall_us first
  kDeadlinePressure,      ///< harness submits with a near-zero deadline
  kSubmitStorm,           ///< harness submits storm_copies duplicates
};
inline constexpr std::size_t kFaultKindCount = 9;
const char* to_string(FaultKind kind);

/// True for kinds that corrupt the frame's DATA so its detection result is
/// untrusted (quarantined, failed, or garbage-Done); pressure/shard kinds
/// leave the payload intact — those frames must still detect exactly.
bool corrupts_frame(FaultKind kind);

/// Wildcard for FaultRule cell/shard targets.
inline constexpr std::uint32_t kAnyTarget =
    std::numeric_limits<std::uint32_t>::max();

/// One injection window.  A rule FIRES for (target, frame) when the target
/// filter matches, from_frame <= frame < until_frame, and the seeded coin
/// (probability) lands — all pure functions of the plan seed, so replays
/// are exact.
struct FaultRule {
  FaultKind kind = FaultKind::kNone;
  std::uint32_t cell = kAnyTarget;   ///< frame-kind target filter
  std::uint32_t shard = kAnyTarget;  ///< shard-kind target filter
  std::uint64_t from_frame = 0;
  std::uint64_t until_frame = std::numeric_limits<std::uint64_t>::max();
  double probability = 1.0;
  std::uint32_t stall_us = 0;      ///< kShardStall only
  std::uint32_t storm_copies = 2;  ///< kSubmitStorm only (extra submits)
};

/// A whole campaign: one seed + the rule list.  First matching rule wins
/// (rule order is the priority order).
struct FaultPlan {
  std::uint64_t seed = 0x5eed;
  std::vector<FaultRule> rules;
};

class Injector {
 public:
  explicit Injector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const noexcept { return plan_; }

  /// First frame-kind rule firing for (cell, frame), nullptr when the
  /// frame is clean.  Pure — same plan, cell and frame always agree.
  const FaultRule* decide_frame(std::size_t cell, std::uint64_t frame) const;

  /// Injects `rule` into the synthesized frame in place (payload/channel
  /// kinds; pressure kinds only count — the harness enacts them) and bumps
  /// the by-kind counter + obs::Counter::kFaultsInjected.  The mutation
  /// sites are seeded by (plan seed, cell, frame): deterministic.
  void apply(const FaultRule& rule, std::size_t cell, std::uint64_t frame,
             sim::SynthFrame& fr);

  /// Shard-side verdict for (shard, sharded-frame seq); counts injections.
  /// Thread-safe — called concurrently by the cluster drivers.
  api::ShardFaultAction shard_action(std::size_t shard, std::uint64_t frame);

  /// The verdict bound as a RuntimeConfig::shard_fault_probe (keep `this`
  /// alive as long as the runtime it is installed in).
  api::ShardFaultProbe shard_probe() {
    return [this](std::size_t shard, std::uint64_t frame) {
      return shard_action(shard, frame);
    };
  }

  std::uint64_t injected(FaultKind kind) const {
    return counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t injected_total() const;

 private:
  /// The seeded coin for rule `idx` on (target, frame).
  bool fires(const FaultRule& rule, std::size_t idx, std::uint64_t target,
             std::uint64_t frame) const;
  void count(FaultKind kind);

  FaultPlan plan_;
  std::array<std::atomic<std::uint64_t>, kFaultKindCount> counts_{};
};

}  // namespace flexcore::fault
