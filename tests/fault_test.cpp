// Tests for the fault-injection chaos layer: fault::Injector determinism
// (seeded decisions, windows, target filters, probability), the frame
// mutations (non-finite / finite-garbage / rank-deficient), the shard-side
// fail/stall verdicts, and the shard fabric's retry-then-bypass ladder
// under an always-hostile probe (bypass is the identity merge, so detection
// stays bit-identical to the monolithic path even with the fabric down),
// plus the caller-lifetime contract of a stalled shard stage.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "fault/injector.h"
#include "frame_fixtures.h"

namespace fa = flexcore::api;
namespace fd = flexcore::detect;
namespace ch = flexcore::channel;
namespace ff = flexcore::fault;
using flexcore::linalg::cplx;
using flexcore::modulation::Constellation;
using flexcore::testing::expect_bit_identical;
using flexcore::testing::Frame;
using flexcore::testing::job_of;
using flexcore::testing::make_frame;

namespace {

bool frame_has_non_finite(const Frame& fr) {
  for (const auto& h : fr.channels) {
    const cplx* d = h.data();
    for (std::size_t e = 0; e < h.rows() * h.cols(); ++e) {
      if (!std::isfinite(d[e].real()) || !std::isfinite(d[e].imag())) {
        return true;
      }
    }
  }
  for (const auto& y : fr.ys) {
    for (const cplx& z : y) {
      if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) return true;
    }
  }
  return false;
}

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

}  // namespace

// ----------------------------------------------------------- decisions

TEST(Injector, DecisionsReplayExactlyFromTheSeed) {
  ff::FaultPlan plan;
  plan.seed = 0xfeedbeef;
  plan.rules.push_back({.kind = ff::FaultKind::kNonFinitePayload,
                        .probability = 0.3});
  plan.rules.push_back({.kind = ff::FaultKind::kCorruptPayload,
                        .probability = 0.2});
  ff::Injector a(plan), b(plan);

  std::size_t fired = 0;
  for (std::size_t cell = 0; cell < 4; ++cell) {
    for (std::uint64_t frame = 0; frame < 64; ++frame) {
      const ff::FaultRule* ra = a.decide_frame(cell, frame);
      const ff::FaultRule* rb = b.decide_frame(cell, frame);
      ASSERT_EQ(ra == nullptr, rb == nullptr)
          << "cell " << cell << " frame " << frame;
      if (ra != nullptr) {
        EXPECT_EQ(ra->kind, rb->kind);
        ++fired;
      }
    }
  }
  // ~0.44 combined rate over 256 trials: must fire often but not always.
  EXPECT_GT(fired, 40u);
  EXPECT_LT(fired, 220u);

  // A different seed decides differently somewhere.
  plan.seed = 0xfeedbeef + 1;
  ff::Injector c(plan);
  bool differs = false;
  for (std::uint64_t frame = 0; frame < 64 && !differs; ++frame) {
    differs = (a.decide_frame(0, frame) == nullptr) !=
              (c.decide_frame(0, frame) == nullptr);
  }
  EXPECT_TRUE(differs) << "the seed must steer the decisions";
}

TEST(Injector, WindowsProbabilityAndTargetFiltersGate) {
  ff::FaultPlan plan;
  plan.rules.push_back({.kind = ff::FaultKind::kNonFinitePayload,
                        .cell = 2,
                        .from_frame = 10,
                        .until_frame = 20,
                        .probability = 1.0});
  plan.rules.push_back({.kind = ff::FaultKind::kCorruptPayload,
                        .probability = 0.0});
  const ff::Injector inj(plan);

  for (std::uint64_t frame = 0; frame < 32; ++frame) {
    const bool in_window = frame >= 10 && frame < 20;
    // Only cell 2, only inside [10, 20); the p=0 rule never fires.
    EXPECT_EQ(inj.decide_frame(2, frame) != nullptr, in_window) << frame;
    EXPECT_EQ(inj.decide_frame(1, frame), nullptr) << frame;
  }
}

TEST(Injector, RuleOrderIsPriorityOrder) {
  ff::FaultPlan plan;
  plan.rules.push_back({.kind = ff::FaultKind::kRankDeficientChannel,
                        .probability = 1.0});
  plan.rules.push_back({.kind = ff::FaultKind::kNonFinitePayload,
                        .probability = 1.0});
  const ff::Injector inj(plan);
  const ff::FaultRule* r = inj.decide_frame(0, 0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->kind, ff::FaultKind::kRankDeficientChannel)
      << "first matching rule must win";
}

// ----------------------------------------------------------- mutations

TEST(Injector, NonFiniteMutationsTripTheFullScan) {
  const Constellation qam(16);
  const double nv = 0.05;
  for (const ff::FaultKind kind : {ff::FaultKind::kNonFinitePayload,
                                   ff::FaultKind::kNonFiniteChannel}) {
    SCOPED_TRACE(ff::to_string(kind));
    ff::Injector inj({.seed = 7, .rules = {{.kind = kind}}});
    Frame fr = make_frame(qam, 4, 2, 6, 4, nv, 90);
    ASSERT_FALSE(frame_has_non_finite(fr));
    inj.apply(inj.plan().rules[0], 0, 0, fr);
    EXPECT_TRUE(frame_has_non_finite(fr));
    EXPECT_THROW(fa::validate_frame_job(job_of(fr, nv)), fa::NonFiniteError);
    EXPECT_EQ(inj.injected(kind), 1u);
  }
}

TEST(Injector, CorruptPayloadStaysFiniteButChanges) {
  const Constellation qam(16);
  const double nv = 0.05;
  ff::Injector inj(
      {.seed = 7, .rules = {{.kind = ff::FaultKind::kCorruptPayload}}});
  Frame fr = make_frame(qam, 4, 2, 6, 4, nv, 91);
  const Frame before = fr;
  inj.apply(inj.plan().rules[0], 0, 0, fr);

  EXPECT_FALSE(frame_has_non_finite(fr))
      << "corrupt payload must NOT trip the numeric guards";
  bool changed = false;
  for (std::size_t i = 0; i < fr.ys.size() && !changed; ++i) {
    for (std::size_t e = 0; e < fr.ys[i].size() && !changed; ++e) {
      changed = fr.ys[i][e] != before.ys[i][e];
    }
  }
  EXPECT_TRUE(changed);
  // Garbage detects to completion: the CRC's problem, not the runtime's.
  EXPECT_NO_THROW(fa::validate_frame_job(job_of(fr, nv)));
}

TEST(Injector, RankDeficientBurstDuplicatesChannelColumns) {
  const Constellation qam(16);
  ff::Injector inj(
      {.seed = 7, .rules = {{.kind = ff::FaultKind::kRankDeficientChannel}}});
  Frame fr = make_frame(qam, 8, 2, 6, 4, 0.05, 92);
  inj.apply(inj.plan().rules[0], 0, 0, fr);

  std::size_t collapsed = 0;
  for (const auto& h : fr.channels) {
    bool equal = true;
    for (std::size_t r = 0; r < h.rows() && equal; ++r) {
      equal = h.data()[r * h.cols() + 1] == h.data()[r * h.cols() + 0];
    }
    collapsed += equal;
  }
  EXPECT_GE(collapsed, 1u) << "at least one subcarrier must lose rank";
  EXPECT_LE(collapsed, 4u) << "the burst is bounded";
  EXPECT_FALSE(frame_has_non_finite(fr));
}

TEST(Injector, MutationSitesReplayExactly) {
  const Constellation qam(16);
  ff::Injector inj(
      {.seed = 13, .rules = {{.kind = ff::FaultKind::kNonFinitePayload}}});
  Frame a = make_frame(qam, 4, 2, 6, 4, 0.05, 93);
  Frame b = a;
  inj.apply(inj.plan().rules[0], 3, 17, a);
  inj.apply(inj.plan().rules[0], 3, 17, b);
  for (std::size_t i = 0; i < a.ys.size(); ++i) {
    for (std::size_t e = 0; e < a.ys[i].size(); ++e) {
      const bool na = !std::isfinite(a.ys[i][e].real()) ||
                      !std::isfinite(a.ys[i][e].imag());
      const bool nb = !std::isfinite(b.ys[i][e].real()) ||
                      !std::isfinite(b.ys[i][e].imag());
      EXPECT_EQ(na, nb) << "ys[" << i << "][" << e << "]";
    }
  }
}

// --------------------------------------------------------- shard verdicts

TEST(Injector, ShardVerdictsHonorTargetFiltersAndCount) {
  ff::FaultPlan plan;
  plan.rules.push_back(
      {.kind = ff::FaultKind::kShardFail, .shard = 1, .probability = 1.0});
  plan.rules.push_back({.kind = ff::FaultKind::kShardStall,
                        .probability = 1.0,
                        .stall_us = 250});
  ff::Injector inj(plan);

  const fa::ShardFaultAction on0 = inj.shard_action(0, 5);
  EXPECT_FALSE(on0.fail) << "the fail rule targets shard 1 only";
  EXPECT_EQ(on0.stall_us, 250u);
  const fa::ShardFaultAction on1 = inj.shard_action(1, 5);
  EXPECT_TRUE(on1.fail);
  EXPECT_EQ(on1.stall_us, 250u);

  EXPECT_EQ(inj.injected(ff::FaultKind::kShardFail), 1u);
  EXPECT_EQ(inj.injected(ff::FaultKind::kShardStall), 2u);
  EXPECT_EQ(inj.injected_total(), 3u);

  // The bound probe is the same verdict function.
  const fa::ShardFaultProbe probe = inj.shard_probe();
  const fa::ShardFaultAction via_probe = probe(1, 5);
  EXPECT_TRUE(via_probe.fail);
  EXPECT_EQ(via_probe.stall_us, 250u);
}

TEST(Injector, KindNamesAndCorruptionClasses) {
  for (std::size_t k = 0; k < ff::kFaultKindCount; ++k) {
    const auto kind = static_cast<ff::FaultKind>(k);
    EXPECT_STRNE(ff::to_string(kind), "?") << k;
  }
  EXPECT_TRUE(ff::corrupts_frame(ff::FaultKind::kNonFinitePayload));
  EXPECT_TRUE(ff::corrupts_frame(ff::FaultKind::kCorruptPayload));
  EXPECT_TRUE(ff::corrupts_frame(ff::FaultKind::kRankDeficientChannel));
  EXPECT_FALSE(ff::corrupts_frame(ff::FaultKind::kShardStall));
  EXPECT_FALSE(ff::corrupts_frame(ff::FaultKind::kSubmitStorm));
  EXPECT_FALSE(ff::corrupts_frame(ff::FaultKind::kNone));
}

// ------------------------------------------- retry-then-bypass ladder

TEST(ShardFabricFaults, AllShardsDownFallsBackBitIdentical) {
  // Every prep attempt fails on every cluster: after the retry the fabric
  // is bypassed with the identity merge, so every frame still completes
  // kDone with results bit-identical to the monolithic pipeline.
  ff::Injector inj({.seed = 3,
                    .rules = {{.kind = ff::FaultKind::kShardFail,
                               .probability = 1.0}}});

  constexpr std::size_t kFrames = 3;
  const double nv = ch::noise_var_for_snr_db(14.0);
  std::vector<Frame> frames;
  std::vector<fa::FrameTicket> tickets;
  fa::RuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.threads_per_shard = 1;
  rcfg.threads = 2;
  rcfg.dispatchers = 1;
  rcfg.shard_fault_probe = inj.shard_probe();
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-16", .qam_order = 16});
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames.push_back(make_frame(cell.constellation(), 4, 3, 12, 4, nv,
                                600 + i));
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    tickets.push_back(rt.submit(cell, job_of(frames[i], nv)));
  }
  rt.drain();

  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(tickets[i].wait(), fa::TicketStatus::kDone) << "frame " << i;
    expect_bit_identical(tickets[i].try_get()->results,
                         sync_reference("flexcore-16", 16, frames[i], nv),
                         "bypassed frame");
  }

  const fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.frames_out, kFrames);
  EXPECT_EQ(rs.shard_retries, kFrames) << "one retry per frame";
  EXPECT_EQ(rs.shard_bypasses, kFrames) << "then the bypass";
  std::uint64_t faults = 0;
  for (const fa::ShardStats& ss : rs.shards) faults += ss.faults;
  EXPECT_GE(faults, 2 * kFrames) << "both attempts fault on some cluster";
  EXPECT_GT(inj.injected(ff::FaultKind::kShardFail), 0u);
}

TEST(ShardFabricFaults, TransientFaultHealsViaRetry) {
  // A genuinely TRANSIENT fault (fails the first attempt only — an
  // Injector verdict is a pure hash of (shard, frame), so it would fail
  // the retry too): the re-fan succeeds, no bypass, and detection matches
  // the clean sharded run bit for bit.
  std::atomic<int> hostile_calls{0};
  const fa::ShardFaultProbe transient =
      [&hostile_calls](std::size_t shard, std::uint64_t frame) {
        fa::ShardFaultAction act;
        act.fail = shard == 0 && frame == 0 && hostile_calls.fetch_add(1) == 0;
        return act;
      };

  const double nv = ch::noise_var_for_snr_db(14.0);
  fa::RuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.threads_per_shard = 1;
  rcfg.threads = 1;
  rcfg.dispatchers = 1;

  std::vector<Frame> frames;
  {
    const Constellation qam(16);
    for (std::size_t i = 0; i < 2; ++i) {
      frames.push_back(make_frame(qam, 4, 2, 12, 4, nv, 700 + i));
    }
  }

  auto run = [&](bool hostile) {
    fa::RuntimeConfig cfg = rcfg;
    if (hostile) cfg.shard_fault_probe = transient;
    fa::Runtime rt(cfg);
    fa::Cell& cell =
        rt.open_cell({.detector = "flexcore-16", .qam_order = 16});
    std::vector<fa::FrameTicket> tickets;
    for (const Frame& fr : frames) {
      tickets.push_back(rt.submit(cell, job_of(fr, nv)));
    }
    rt.drain();
    std::vector<std::vector<fd::DetectionResult>> out;
    for (auto& t : tickets) {
      EXPECT_EQ(t.wait(), fa::TicketStatus::kDone);
      out.push_back(t.try_get()->results);
    }
    const fa::RuntimeStats rs = rt.stats();
    EXPECT_EQ(rs.shard_retries, hostile ? 1u : 0u);
    EXPECT_EQ(rs.shard_bypasses, 0u) << "the retry must heal the frame";
    return out;
  };

  const auto clean = run(false);
  const auto healed = run(true);
  ASSERT_EQ(clean.size(), healed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    expect_bit_identical(healed[i], clean[i], "healed frame");
  }
}

TEST(ShardFabricFaults, StallPastBudgetBypassesInsteadOfHanging) {
  // A cluster sleeping far past the stall budget: submit cancels the
  // fan-out, reroutes merged-monolithic, and the ticket terminates kDone
  // bit-identical to the reference.
  ff::Injector inj({.seed = 9,
                    .rules = {{.kind = ff::FaultKind::kShardStall,
                               .shard = 0,
                               .probability = 1.0,
                               .stall_us = 30'000}}});

  const double nv = ch::noise_var_for_snr_db(14.0);
  std::vector<Frame> frames;
  {
    const Constellation qam(16);
    for (std::size_t i = 0; i < 2; ++i) {
      frames.push_back(make_frame(qam, 3, 2, 12, 4, nv, 800 + i));
    }
  }

  std::vector<fa::FrameTicket> tickets;
  std::uint64_t bypasses = 0, frames_out = 0;
  {
    fa::RuntimeConfig rcfg;
    rcfg.shards = 2;
    rcfg.threads_per_shard = 1;
    rcfg.threads = 1;
    rcfg.dispatchers = 1;
    rcfg.shard_stall_budget_us = 1'000;
    rcfg.shard_fault_probe = inj.shard_probe();
    fa::Runtime rt(rcfg);
    fa::Cell& cell =
        rt.open_cell({.detector = "flexcore-16", .qam_order = 16});
    for (const Frame& fr : frames) {
      tickets.push_back(rt.submit(cell, job_of(fr, nv)));
    }
    rt.drain();
    const fa::RuntimeStats rs = rt.stats();
    bypasses = rs.shard_bypasses;
    frames_out = rs.frames_out;
  }  // destructor joins the stalled drivers

  EXPECT_EQ(frames_out, frames.size());
  EXPECT_EQ(bypasses, frames.size())
      << "every stalled frame must reroute, none may hang";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(tickets[i].wait(), fa::TicketStatus::kDone);
    expect_bit_identical(tickets[i].try_get()->results,
                         sync_reference("flexcore-16", 16, frames[i], nv),
                         "stall-bypassed frame");
  }
  EXPECT_GT(inj.injected(ff::FaultKind::kShardStall), 0u);
}

TEST(ShardFabricFaults, CallerJobMayDieRightAfterAStalledSubmit) {
  // The caller-lifetime contract at a stall budget far below one partial
  // QR: each frame and its FrameJob go out of scope the moment submit()
  // returns.  Shard 1 holds every frame until its submit() has returned,
  // so every fan-out times out, typically with shard 0 mid-read.  A
  // driver reading the job afterwards is a use-after-free the sanitizer
  // build reports; instead every driver either claimed its slice before
  // the submitter gave up (and was waited for) or skips it.  Every ticket
  // still completes kDone with the reference symbols (bypassed frames
  // detect the raw antennas).
  constexpr std::size_t kFrames = 4;
  const double nv = ch::noise_var_for_snr_db(20.0);
  const Constellation qam(16);
  std::vector<std::vector<fd::DetectionResult>> want;
  std::vector<fa::FrameTicket> tickets;
  std::atomic<std::uint64_t> returned{0};  // submit() calls that returned

  fa::RuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.threads_per_shard = 1;
  rcfg.threads = 1;
  rcfg.dispatchers = 1;
  rcfg.shard_stall_budget_us = 1;
  rcfg.shard_fault_probe = [&returned](std::size_t shard,
                                       std::uint64_t frame) {
    while (shard == 1 && returned.load() <= frame) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return fa::ShardFaultAction{};
  };
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-16", .qam_order = 16});
  for (std::size_t i = 0; i < kFrames; ++i) {
    const Frame fr = make_frame(qam, 48, 7, 64, 8, nv, 900 + i);
    want.push_back(sync_reference("flexcore-16", 16, fr, nv));
    const fa::FrameJob job = job_of(fr, nv);
    tickets.push_back(rt.submit(cell, job));
    returned.fetch_add(1);
  }
  rt.drain();

  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(tickets[i].wait(), fa::TicketStatus::kDone) << "frame " << i;
    const auto& got = tickets[i].try_get()->results;
    ASSERT_EQ(got.size(), want[i].size());
    for (std::size_t v = 0; v < got.size(); ++v) {
      EXPECT_EQ(got[v].symbols, want[i][v].symbols)
          << "frame " << i << " vector " << v;
    }
  }
  const fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.frames_out, kFrames);
  EXPECT_EQ(rs.shard_bypasses, kFrames) << "every fan-out must time out";
}
