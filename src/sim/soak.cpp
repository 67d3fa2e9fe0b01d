#include "sim/soak.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "channel/channel.h"
#include "channel/rng.h"
#include "channel/trace.h"
#include "sim/frame_synth.h"

namespace flexcore::sim {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// One terminal completion, recorded from the ticket callback (any thread).
struct CompletionEvent {
  std::size_t cell_id = 0;
  std::uint64_t seq = 0;
  api::TicketStatus status = api::TicketStatus::kPending;
};

struct CompletionLog {
  std::mutex mu;
  std::vector<CompletionEvent> events;
  void note(std::size_t cell, std::uint64_t seq, api::TicketStatus st) {
    std::lock_guard lock(mu);
    events.push_back({cell, seq, st});
  }
};

/// One submitted frame kept alive until the campaign ends (the runtime
/// borrows the SynthFrame's spans until the ticket is terminal).
struct PendingFrame {
  api::FrameTicket ticket;
  std::shared_ptr<SynthFrame> frame;
  std::size_t cell_id = 0;
  fault::FaultKind kind = fault::FaultKind::kNone;
  bool corrupted = false;  ///< fault::corrupts_frame(kind)
  bool storm_dup = false;  ///< duplicate submit of a storm burst
  std::string spec;        ///< detector live when this frame dispatches
};

struct CellCtx {
  api::Cell* cell = nullptr;  ///< null until the cell opens
  channel::ChannelTrace trace;
  channel::Rng rng{0};
  std::string spec;
  std::uint64_t frame_index = 0;  ///< per-cell fault-decision clock
};

/// Churn schedule: whole 16-round outage windows rotating across cells,
/// plus the last cell only opening a quarter of the way into the campaign.
bool participates(const SoakScenarioConfig& cfg, std::size_t j,
                  std::size_t r) {
  if (!cfg.churn) return true;
  if (j + 1 == cfg.cells && r < cfg.rounds / 4) return false;
  return ((r / 16) + j) % 4 != 3;
}

bool nonfinite_kind(fault::FaultKind kind) {
  return kind == fault::FaultKind::kNonFinitePayload ||
         kind == fault::FaultKind::kNonFiniteChannel;
}

/// Per-cell counter identity of one stats snapshot; append a violation per
/// broken cell.  Valid at ANY instant (the runtime snapshots under its
/// lock), which is what makes it a continuous soak invariant.
void check_accounting(const api::RuntimeStats& rs, const std::string& when,
                      std::vector<std::string>& violations) {
  for (const api::CellStats& cs : rs.cells) {
    const std::uint64_t accounted = cs.frames_out + cs.frames_dropped +
                                    cs.frames_expired + cs.frames_failed +
                                    cs.frames_quarantined;
    if (cs.frames_in != accounted + cs.queue_depth + cs.in_flight) {
      violations.push_back(when + ": counter identity broken for " + cs.name +
                           " (in=" + std::to_string(cs.frames_in) +
                           " accounted=" + std::to_string(accounted) + ")");
    }
  }
}

}  // namespace

SoakScenarioReport run_soak_scenario(const SoakScenarioConfig& cfg) {
  SoakScenarioReport rep;
  rep.name = cfg.name;
  const auto t_start = std::chrono::steady_clock::now();

  // Declaration order is lifetime order: the injector (shard probe) and
  // completion log (callbacks) must outlive the runtime — a stalled shard
  // driver can still be winding down inside the runtime's destructor.
  fault::Injector injector(cfg.faults);
  CompletionLog log;
  std::vector<PendingFrame> pending;
  std::vector<api::FrameTicket> control;  // reconfigure tickets
  pending.reserve(cfg.rounds * cfg.cells * (cfg.frames_per_cell + 2));

  api::RuntimeConfig rcfg = cfg.runtime;
  rcfg.shard_fault_probe = injector.shard_probe();
  api::Runtime rt(rcfg);

  const double noise_var = channel::noise_var_for_snr_db(cfg.snr_db);

  channel::TraceConfig tcfg;
  tcfg.nr = cfg.nr;
  tcfg.nt = cfg.nt;
  tcfg.num_subcarriers = cfg.nsc;

  std::vector<CellCtx> cells(cfg.cells);
  const auto ensure_open = [&](std::size_t j) {
    CellCtx& cc = cells[j];
    if (cc.cell != nullptr) return;
    api::CellConfig ccfg;
    ccfg.name = cfg.name + "-cell" + std::to_string(j);
    ccfg.detector = cfg.detector;
    ccfg.qam_order = cfg.qam;
    cc.cell = &rt.open_cell(ccfg);
    cc.spec = cfg.detector;
    cc.rng = channel::Rng(cfg.seed * 7919 + j + 1);
    channel::TraceGenerator gen(tcfg, cfg.seed * 104729 + j + 1);
    cc.trace = gen.next();
  };

  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    // Diurnal load curve: how many frames each open cell offers this round.
    const double load =
        1.0 + cfg.diurnal_amplitude *
                  std::sin(2.0 * kPi * static_cast<double>(r) /
                           std::max(1.0, cfg.diurnal_period));
    const auto frames_this_round = static_cast<std::size_t>(std::max(
        1.0, std::round(static_cast<double>(cfg.frames_per_cell) * load)));

    for (std::size_t j = 0; j < cfg.cells; ++j) {
      if (!participates(cfg, j, r)) continue;
      ensure_open(j);
      CellCtx& cc = cells[j];

      // Gauss-Markov channel aging, one coherence step per round.
      cc.trace = channel::evolve_trace(cc.trace, cfg.rho, cc.rng);

      if (!cfg.reconfig_cycle.empty()) {
        const std::string& next =
            cfg.reconfig_cycle[(r + j) % cfg.reconfig_cycle.size()];
        control.push_back(rt.reconfigure(*cc.cell, {.detector = next}));
        cc.spec = next;
        ++rep.reconfigs;
      }

      // Inter-cell interference: the neighbour's channel leaks in (a
      // closed neighbour's last trace is fine — leakage, not truth).
      std::vector<linalg::CMat> chans = cc.trace.per_subcarrier;
      if (cfg.interference_coupling > 0.0 && cfg.cells > 1) {
        const CellCtx& other = cells[(j + 1) % cfg.cells];
        if (other.cell != nullptr) {
          for (std::size_t f = 0; f < chans.size(); ++f) {
            const linalg::CMat& o = other.trace.per_subcarrier[f];
            const std::size_t n = chans[f].rows() * chans[f].cols();
            for (std::size_t i = 0; i < n; ++i) {
              chans[f].data()[i] += cfg.interference_coupling * o.data()[i];
            }
          }
        }
      }

      for (std::size_t q = 0; q < frames_this_round; ++q) {
        auto fr = std::make_shared<SynthFrame>(synth_frame_over(
            cc.cell->constellation(), chans, cfg.nv, noise_var, cc.rng));
        const std::uint64_t fidx = cc.frame_index++;
        const fault::FaultRule* rule =
            injector.decide_frame(cc.cell->id(), fidx);
        std::uint64_t deadline = cfg.deadline_us;
        std::size_t copies = 1;
        fault::FaultKind kind = fault::FaultKind::kNone;
        if (rule != nullptr) {
          kind = rule->kind;
          injector.apply(*rule, cc.cell->id(), fidx, *fr);
          if (kind == fault::FaultKind::kDeadlinePressure) deadline = 25;
          if (kind == fault::FaultKind::kSubmitStorm) {
            copies += rule->storm_copies;
          }
        }
        const bool corrupted = fault::corrupts_frame(kind);
        rep.injected_bad += corrupted;
        const api::FrameJob job = frame_job_of(*fr, noise_var);
        for (std::size_t dup = 0; dup < copies; ++dup) {
          PendingFrame pf;
          pf.frame = fr;
          pf.cell_id = cc.cell->id();
          pf.kind = kind;
          pf.corrupted = corrupted;
          pf.storm_dup = dup > 0;
          pf.spec = cc.spec;
          try {
            pf.ticket = rt.submit(*cc.cell, job, deadline);
          } catch (const api::NonFiniteError&) {
            // admission_scan on: the corrupted job was refused at the call
            // site — containment by rejection rather than quarantine.
            continue;
          }
          ++rep.frames_submitted;
          const std::size_t cid = pf.cell_id;
          const std::uint64_t seq = pf.ticket.sequence();
          pf.ticket.on_complete([&log, cid, seq](api::TicketStatus st,
                                                 const api::FrameResult*) {
            log.note(cid, seq, st);
          });
          pending.push_back(std::move(pf));
        }
      }
    }

    // Continuous invariant: the accounting identity holds mid-flight too.
    if ((r & 15u) == 15u) {
      check_accounting(rt.stats(), cfg.name + " (round " + std::to_string(r) +
                                       ")",
                       rep.violations);
    }
  }

  rt.drain();

  using namespace std::chrono_literals;
  for (api::FrameTicket& ct : control) {
    const api::TicketStatus st = ct.wait_for(5s);
    if (st != api::TicketStatus::kDone) {
      if (st == api::TicketStatus::kPending) ++rep.tickets_lost;
      rep.violations.push_back(cfg.name + ": reconfigure ticket ended " +
                               std::string(api::to_string(st)));
    }
  }

  for (PendingFrame& pf : pending) {
    const api::TicketStatus st = pf.ticket.wait_for(5s);
    switch (st) {
      case api::TicketStatus::kDone: ++rep.frames_done; break;
      case api::TicketStatus::kQuarantined: ++rep.frames_quarantined; break;
      case api::TicketStatus::kFailed: ++rep.frames_failed; break;
      case api::TicketStatus::kDropped: ++rep.frames_dropped; break;
      case api::TicketStatus::kExpired: ++rep.frames_expired; break;
      case api::TicketStatus::kPending:
        ++rep.tickets_lost;
        rep.violations.push_back(cfg.name + ": ticket stuck pending (cell " +
                                 std::to_string(pf.cell_id) + ", seq " +
                                 std::to_string(pf.ticket.sequence()) + ")");
        continue;
    }
    if (!pf.corrupted && (st == api::TicketStatus::kQuarantined ||
                          st == api::TicketStatus::kFailed)) {
      rep.violations.push_back(
          cfg.name + ": CLEAN frame ended " +
          std::string(api::to_string(st)) + " (cell " +
          std::to_string(pf.cell_id) + ", seq " +
          std::to_string(pf.ticket.sequence()) +
          ") — an injected fault leaked across frames");
    }
    if (pf.corrupted && st == api::TicketStatus::kDone) {
      ++rep.injected_bad_done;
      if (nonfinite_kind(pf.kind)) {
        rep.violations.push_back(cfg.name +
                                 ": non-finite frame completed kDone (cell " +
                                 std::to_string(pf.cell_id) + ", seq " +
                                 std::to_string(pf.ticket.sequence()) + ")");
      }
    }
  }

  // Per-cell FIFO over DISPATCHED completions: done/failed/quarantined
  // frames of one cell must complete in strictly increasing sequence order
  // (admission-shed drops/expiries legitimately complete out of band).
  {
    std::map<std::size_t, std::uint64_t> last;
    std::lock_guard lock(log.mu);
    for (const CompletionEvent& ev : log.events) {
      if (ev.status != api::TicketStatus::kDone &&
          ev.status != api::TicketStatus::kFailed &&
          ev.status != api::TicketStatus::kQuarantined) {
        continue;
      }
      const auto [it, fresh] = last.try_emplace(ev.cell_id, ev.seq);
      if (!fresh) {
        if (ev.seq <= it->second) {
          ++rep.fifo_violations;
          rep.violations.push_back(
              cfg.name + ": FIFO inversion on cell " +
              std::to_string(ev.cell_id) + " (seq " + std::to_string(ev.seq) +
              " after " + std::to_string(it->second) + ")");
        }
        it->second = ev.seq;
      }
    }
  }

  // Accuracy spot checks on sampled clean done-frames: re-detect on a
  // fresh synchronous pipeline with the spec that was live.  shards == 1
  // must be bit-identical; any shard count must hold the SER margin.
  if (cfg.spot_check_every > 0) {
    std::map<std::string, std::unique_ptr<api::UplinkPipeline>> oracles;
    std::size_t idx = 0;
    for (PendingFrame& pf : pending) {
      ++idx;
      if (pf.corrupted || pf.storm_dup) continue;
      if (idx % cfg.spot_check_every != 0) continue;
      if (pf.ticket.status() != api::TicketStatus::kDone) continue;
      const api::FrameResult* res = pf.ticket.try_get();
      if (res == nullptr) continue;
      auto it = oracles.find(pf.spec);
      if (it == oracles.end()) {
        api::PipelineConfig pcfg;
        pcfg.detector = pf.spec;
        pcfg.qam_order = cfg.qam;
        pcfg.threads = 1;
        it = oracles
                 .emplace(pf.spec, std::make_unique<api::UplinkPipeline>(pcfg))
                 .first;
      }
      const api::FrameResult ref =
          it->second->detect_frame(frame_job_of(*pf.frame, noise_var));
      ++rep.spot_checks;
      rep.clean_errors += count_symbol_errors(*pf.frame, res->results);
      rep.oracle_errors += count_symbol_errors(*pf.frame, ref.results);
      rep.clean_symbols += pf.frame->tx.size();
      if (cfg.runtime.shards == 1) {
        bool same = res->results.size() == ref.results.size();
        for (std::size_t v = 0; same && v < ref.results.size(); ++v) {
          same = res->results[v].symbols == ref.results[v].symbols;
        }
        if (!same) {
          ++rep.bit_mismatches;
          rep.violations.push_back(
              cfg.name + ": bit-identity mismatch vs synchronous pipeline "
              "(cell " + std::to_string(pf.cell_id) + ", seq " +
              std::to_string(pf.ticket.sequence()) + ")");
        }
      }
    }
    if (rep.clean_symbols >= 200) {
      const double ser = static_cast<double>(rep.clean_errors) /
                         static_cast<double>(rep.clean_symbols);
      const double oracle_ser = static_cast<double>(rep.oracle_errors) /
                                static_cast<double>(rep.clean_symbols);
      if (ser > oracle_ser + cfg.ser_margin) {
        rep.violations.push_back(cfg.name + ": clean-frame SER " +
                                 std::to_string(ser) + " exceeds oracle " +
                                 std::to_string(oracle_ser) + " + margin " +
                                 std::to_string(cfg.ser_margin));
      }
    }
  }

  const api::RuntimeStats rs = rt.stats();
  check_accounting(rs, cfg.name + " (final)", rep.violations);
  for (const api::CellStats& cs : rs.cells) {
    rep.worst_health = std::max(rep.worst_health, cs.health);
    rep.watchdog_transitions += cs.health_transitions;
  }
  rep.shard_retries = rs.shard_retries;
  rep.shard_bypasses = rs.shard_bypasses;
  rep.faults_injected = injector.injected_total();
  rep.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t_start)
                    .count();
  return rep;
}

std::vector<SoakScenarioConfig> default_soak_corpus(std::size_t rounds,
                                                    std::uint64_t seed) {
  std::vector<SoakScenarioConfig> corpus;

  {
    // Fast-aging channels on the monolithic path while payloads and
    // channel estimates corrupt — quarantine + bit-identity under churn of
    // the numeric guards.
    SoakScenarioConfig c;
    c.name = "mobility-chaos";
    c.cells = 2;
    c.rounds = rounds;
    c.rho = 0.90;
    c.seed = seed + 1;
    c.spot_check_every = 8;
    c.runtime.dispatchers = 2;
    c.runtime.queue_capacity = 8;
    c.runtime.policy = api::QueuePolicy::kBlock;
    c.runtime.admission_scan = false;  // corruption must reach dispatch
    c.faults.seed = seed + 11;
    c.faults.rules = {
        {.kind = fault::FaultKind::kNonFinitePayload, .probability = 0.05},
        {.kind = fault::FaultKind::kNonFiniteChannel, .probability = 0.04},
        {.kind = fault::FaultKind::kCorruptPayload, .probability = 0.04},
        {.kind = fault::FaultKind::kRankDeficientChannel,
         .probability = 0.03},
        {.kind = fault::FaultKind::kSubmitStorm, .probability = 0.03,
         .storm_copies = 2},
    };
    corpus.push_back(std::move(c));
  }

  {
    // Cells opening/closing on a sharded fabric whose clusters fail and
    // stall — the retry-then-bypass ladder under churn, including stalls
    // that blow the budget.
    SoakScenarioConfig c;
    c.name = "churn-chaos";
    c.cells = 3;
    c.rounds = rounds;
    c.churn = true;
    c.rho = 0.97;
    c.seed = seed + 2;
    c.spot_check_every = 12;
    c.runtime.dispatchers = 2;
    c.runtime.queue_capacity = 8;
    c.runtime.policy = api::QueuePolicy::kBlock;
    c.runtime.admission_scan = false;
    c.runtime.shards = 2;
    c.runtime.shard_stall_budget_us = 4000;
    c.faults.seed = seed + 22;
    c.faults.rules = {
        {.kind = fault::FaultKind::kShardFail, .probability = 0.05},
        {.kind = fault::FaultKind::kShardStall, .probability = 0.04,
         .stall_us = 300},
        {.kind = fault::FaultKind::kShardStall, .probability = 0.008,
         .stall_us = 20000},  // exceeds the budget: forces a bypass
        {.kind = fault::FaultKind::kNonFinitePayload, .probability = 0.03},
    };
    corpus.push_back(std::move(c));
  }

  {
    // Neighbouring cells leaking into each other under real deadlines,
    // with deadline squeezes and cluster failures on top.
    SoakScenarioConfig c;
    c.name = "interference-chaos";
    c.cells = 3;
    c.rounds = rounds;
    c.rho = 0.95;
    c.interference_coupling = 0.15;
    c.seed = seed + 3;
    c.spot_check_every = 12;
    c.deadline_us = 20000;
    c.runtime.dispatchers = 2;
    c.runtime.queue_capacity = 8;
    c.runtime.policy = api::QueuePolicy::kDeadlineExpire;
    c.runtime.admission_scan = false;
    c.runtime.shards = 2;
    c.faults.seed = seed + 33;
    c.faults.rules = {
        {.kind = fault::FaultKind::kDeadlinePressure, .probability = 0.05},
        {.kind = fault::FaultKind::kShardFail, .probability = 0.04},
        {.kind = fault::FaultKind::kRankDeficientChannel,
         .probability = 0.03},
    };
    corpus.push_back(std::move(c));
  }

  {
    // Diurnal load swinging into overload on a small kDropNewest queue,
    // with submit storms amplifying the peaks — shedding and watchdog
    // degradation without a single lost ticket.
    SoakScenarioConfig c;
    c.name = "diurnal-chaos";
    c.cells = 2;
    c.rounds = rounds;
    c.rho = 0.98;
    c.diurnal_amplitude = 0.9;
    c.diurnal_period = 16.0;
    c.seed = seed + 4;
    c.spot_check_every = 8;
    c.runtime.dispatchers = 1;
    c.runtime.queue_capacity = 4;
    c.runtime.policy = api::QueuePolicy::kDropNewest;
    c.runtime.admission_scan = false;
    c.faults.seed = seed + 44;
    c.faults.rules = {
        {.kind = fault::FaultKind::kSubmitStorm, .probability = 0.08,
         .storm_copies = 3},
        {.kind = fault::FaultKind::kCorruptPayload, .probability = 0.04},
        {.kind = fault::FaultKind::kRankDeficientChannel,
         .probability = 0.04},
    };
    corpus.push_back(std::move(c));
  }

  return corpus;
}

}  // namespace flexcore::sim
