// Fig. 19 (new, beyond the paper): long-horizon chaos soak of the serving
// stack.  Four scenario campaigns (sim::default_soak_corpus — mobility,
// churn, interference, diurnal) drive an api::Runtime (two of them behind
// its shard fabric) through thousands of frames and >= 1000 detector
// reconfigurations while fault::Injector corrupts payloads/channels, fails
// and stalls antenna clusters, squeezes deadlines and fires submit storms
// — all from one fixed seed, so any
// failure replays exactly.  The harness asserts the robustness contract
// (zero ticket loss, per-cell FIFO, fault containment, accounting identity,
// bounded SER vs a synchronous oracle, and a still-clean steady-state hot
// path afterwards) and exits non-zero on ANY violation.  Emits
// BENCH_soak.json as the per-scenario scorecard.
//
// Knobs: FLEXCORE_SOAK_ROUNDS (default 128; the >= 1000-reconfiguration
// gate is enforced at >= 128) and FLEXCORE_SOAK_SEED.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "parallel/hot_path_guard.h"
#include "sim/frame_synth.h"
#include "sim/soak.h"

namespace fa = flexcore::api;
namespace fb = flexcore::bench;
namespace fp = flexcore::parallel;
namespace fs = flexcore::sim;
namespace ch = flexcore::channel;

namespace {

/// The "no alloc/lock regressions on the clean hot path" invariant: after
/// every chaos campaign ran in this process, a warmed steady-state
/// detect_frame must still be heap- and lock-free on a threads=1 pipeline.
bool clean_hot_path_ok() {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-16";
  cfg.qam_order = 16;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  const double noise_var = ch::noise_var_for_snr_db(14.0);
  const fs::SynthFrame fr =
      fs::synth_frame(pipe.constellation(), 6, 3, 4, 4, noise_var, 31);
  fa::FrameJob job = fs::frame_job_of(fr, noise_var);
  fa::FrameResult out;
  pipe.detect_frame(job, &out);  // cold: preprocess + buffer growth
  job.reuse_preprocessing = true;
  pipe.detect_frame(job, &out);  // warm-up reuse pass

  fp::HotPathScope guard("post-soak steady state",
                         fp::HotPathScope::Scope::kThread);
  pipe.detect_frame(job, &out);
  const auto d = guard.delta();
  const bool alloc_ok = !fp::hot_path_guard_enabled() || d.allocations == 0;
  const bool lock_ok = d.lock_acquisitions == 0;
  std::printf("clean hot path: allocations=%llu locks=%llu  %s\n",
              static_cast<unsigned long long>(d.allocations),
              static_cast<unsigned long long>(d.lock_acquisitions),
              alloc_ok && lock_ok ? "OK" : "VIOLATION");
  return alloc_ok && lock_ok;
}

}  // namespace

int main() {
  const std::size_t rounds = fb::env_size("FLEXCORE_SOAK_ROUNDS", 128);
  const auto seed =
      static_cast<std::uint64_t>(fb::env_size("FLEXCORE_SOAK_SEED", 20170327));

  fb::banner("fig19: fault-injection chaos soak");
  std::printf("rounds/scenario: %zu  seed: %llu\n", rounds,
              static_cast<unsigned long long>(seed));

  fb::BenchJson json("soak");
  std::size_t total_reconfigs = 0;
  std::size_t total_violations = 0;
  std::size_t scenarios_run = 0;

  std::printf("%-20s %8s %6s %6s %6s %6s %6s %9s %7s %7s %6s\n", "scenario",
              "frames", "done", "quar", "fail", "drop", "expd", "reconfigs",
              "faults", "bypass", "ok");
  fb::rule();

  for (const fs::SoakScenarioConfig& cfg :
       fs::default_soak_corpus(rounds, seed)) {
    const fs::SoakScenarioReport rep = fs::run_soak_scenario(cfg);
    ++scenarios_run;
    total_reconfigs += rep.reconfigs;
    total_violations += rep.violations.size();

    std::printf("%-20s %8zu %6zu %6zu %6zu %6zu %6zu %9zu %7llu %7llu %6s\n",
                rep.name.c_str(), rep.frames_submitted, rep.frames_done,
                rep.frames_quarantined, rep.frames_failed, rep.frames_dropped,
                rep.frames_expired, rep.reconfigs,
                static_cast<unsigned long long>(rep.faults_injected),
                static_cast<unsigned long long>(rep.shard_bypasses),
                rep.ok() ? "yes" : "NO");
    for (const std::string& v : rep.violations) {
      std::printf("    VIOLATION: %s\n", v.c_str());
    }

    json.row()
        .field("scenario", rep.name)
        .field("rounds", rounds)
        .field("frames_submitted", rep.frames_submitted)
        .field("frames_done", rep.frames_done)
        .field("frames_quarantined", rep.frames_quarantined)
        .field("frames_failed", rep.frames_failed)
        .field("frames_dropped", rep.frames_dropped)
        .field("frames_expired", rep.frames_expired)
        .field("reconfigs", rep.reconfigs)
        .field("faults_injected",
               static_cast<std::size_t>(rep.faults_injected))
        .field("injected_bad", rep.injected_bad)
        .field("injected_bad_done", rep.injected_bad_done)
        .field("tickets_lost", rep.tickets_lost)
        .field("fifo_violations", rep.fifo_violations)
        .field("spot_checks", rep.spot_checks)
        .field("bit_mismatches", rep.bit_mismatches)
        .field("clean_symbols", rep.clean_symbols)
        .field("clean_errors", rep.clean_errors)
        .field("oracle_errors", rep.oracle_errors)
        .field("shard_retries", static_cast<std::size_t>(rep.shard_retries))
        .field("shard_bypasses",
               static_cast<std::size_t>(rep.shard_bypasses))
        .field("watchdog_transitions",
               static_cast<std::size_t>(rep.watchdog_transitions))
        .field("worst_health", rep.worst_health)
        .field("violations", rep.violations.size())
        .field("seconds", rep.seconds)
        .field("ok", rep.ok() ? "true" : "false");
  }

  fb::rule();
  const bool hot_ok = clean_hot_path_ok();
  total_violations += !hot_ok;

  // The acceptance gate of the default budget: >= 1000 reconfigurations
  // across >= 4 scenarios.  Shorter budgets (CI smoke with a reduced
  // FLEXCORE_SOAK_ROUNDS) keep every other invariant.
  const bool reconfig_goal =
      scenarios_run >= 4 && (rounds < 128 || total_reconfigs >= 1000);
  if (!reconfig_goal) {
    std::printf("VIOLATION: reconfiguration goal missed (%zu scenarios, "
                "%zu reconfigs)\n",
                scenarios_run, total_reconfigs);
  }

  std::printf("total: %zu scenarios, %zu reconfigurations, %zu violations\n",
              scenarios_run, total_reconfigs, total_violations);
  json.write();
  return total_violations == 0 && reconfig_goal ? 0 : 1;
}
