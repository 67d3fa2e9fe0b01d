#include "fault/injector.h"

#include <cmath>
#include <limits>

namespace flexcore::fault {

namespace {

/// splitmix64 finalizer — the one-way mix behind every injection decision.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool is_frame_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCorruptPayload:
    case FaultKind::kNonFinitePayload:
    case FaultKind::kNonFiniteChannel:
    case FaultKind::kRankDeficientChannel:
    case FaultKind::kDeadlinePressure:
    case FaultKind::kSubmitStorm:
      return true;
    case FaultKind::kNone:
    case FaultKind::kShardFail:
    case FaultKind::kShardStall:
      return false;
  }
  return false;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

bool corrupts_frame(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCorruptPayload:
    case FaultKind::kNonFinitePayload:
    case FaultKind::kNonFiniteChannel:
    case FaultKind::kRankDeficientChannel:
      return true;
    default:
      return false;
  }
}

bool Injector::fires(const FaultRule& rule, std::size_t idx,
                     std::uint64_t target, std::uint64_t frame) const {
  if (frame < rule.from_frame || frame >= rule.until_frame) return false;
  if (rule.probability >= 1.0) return true;
  if (rule.probability <= 0.0) return false;
  const std::uint64_t h =
      mix(mix(mix(plan_.seed + idx) ^ target) ^ (frame + 1));
  return u01(h) < rule.probability;
}

void Injector::count(FaultKind kind) {
  counts_[static_cast<std::size_t>(kind)].fetch_add(1,
                                                    std::memory_order_relaxed);
}

std::uint64_t Injector::injected_total() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

const FaultRule* Injector::decide_frame(std::size_t cell,
                                        std::uint64_t frame) const {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (!is_frame_kind(rule.kind)) continue;
    if (rule.cell != kAnyTarget && rule.cell != cell) continue;
    if (fires(rule, i, cell, frame)) return &rule;
  }
  return nullptr;
}

void Injector::apply(const FaultRule& rule, std::size_t cell,
                     std::uint64_t frame, sim::SynthFrame& fr) {
  // Mutation sites are their own hash stream (independent of the firing
  // coin) so adding rules never shifts where an existing rule strikes.
  const std::uint64_t h0 = mix(plan_.seed ^ mix(cell * 0x10001 + frame));
  const std::size_t nsc = fr.channels.size();
  const std::size_t nvec = fr.ys.size();

  switch (rule.kind) {
    case FaultKind::kCorruptPayload: {
      // Huge but FINITE garbage: the numeric guards must NOT fire — the
      // frame detects to completion and returns nonsense symbols.
      if (nvec == 0) break;
      linalg::CVec& y = fr.ys[h0 % nvec];
      for (std::size_t e = 0; e < y.size(); ++e) {
        const std::uint64_t he = mix(h0 + e);
        y[e] = linalg::cplx(1.0e9 * (u01(he) - 0.5),
                            1.0e9 * (u01(mix(he)) - 0.5));
      }
      break;
    }
    case FaultKind::kNonFinitePayload: {
      if (nvec == 0) break;
      linalg::CVec& y = fr.ys[h0 % nvec];
      if (!y.empty()) {
        y[mix(h0) % y.size()] = linalg::cplx(kNan, 0.0);
        y[mix(h0 + 1) % y.size()] += linalg::cplx(0.0, kInf);
      }
      break;
    }
    case FaultKind::kNonFiniteChannel: {
      if (nsc == 0) break;
      linalg::CMat& h = fr.channels[h0 % nsc];
      const std::size_t n = h.rows() * h.cols();
      if (n > 0) {
        h.data()[mix(h0) % n] = linalg::cplx(kNan, kNan);
        h.data()[mix(h0 + 1) % n] = linalg::cplx(kInf, 0.0);
      }
      break;
    }
    case FaultKind::kRankDeficientChannel: {
      // A short burst of subcarriers whose channel collapses to rank < Nt
      // (column 1 := column 0); a single-user channel collapses to zero.
      if (nsc == 0) break;
      const std::size_t f0 = h0 % nsc;
      const std::size_t burst = std::min<std::size_t>(4, nsc - f0);
      for (std::size_t f = f0; f < f0 + burst; ++f) {
        linalg::CMat& h = fr.channels[f];
        const std::size_t nt = h.cols();
        for (std::size_t r = 0; r < h.rows(); ++r) {
          if (nt >= 2) {
            h.data()[r * nt + 1] = h.data()[r * nt + 0];
          } else if (nt == 1) {
            h.data()[r] = linalg::cplx(0.0, 0.0);
          }
        }
      }
      break;
    }
    case FaultKind::kDeadlinePressure:
    case FaultKind::kSubmitStorm:
      // Pressure verdicts: the payload stays intact; the driving harness
      // squeezes the deadline / duplicates the submit.  Counted here so
      // the scorecard sees them alongside the data faults.
      break;
    case FaultKind::kNone:
    case FaultKind::kShardFail:
    case FaultKind::kShardStall:
      return;  // not frame kinds — nothing injected, nothing counted
  }
  count(rule.kind);
}

api::ShardFaultAction Injector::shard_action(std::size_t shard,
                                             std::uint64_t frame) {
  api::ShardFaultAction act;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.kind != FaultKind::kShardFail &&
        rule.kind != FaultKind::kShardStall) {
      continue;
    }
    if (rule.shard != kAnyTarget && rule.shard != shard) continue;
    if (!fires(rule, i, shard, frame)) continue;
    if (rule.kind == FaultKind::kShardFail && !act.fail) {
      act.fail = true;
      count(rule.kind);
    } else if (rule.kind == FaultKind::kShardStall && act.stall_us == 0) {
      act.stall_us = rule.stall_us;
      count(rule.kind);
    }
  }
  return act;
}

}  // namespace flexcore::fault
