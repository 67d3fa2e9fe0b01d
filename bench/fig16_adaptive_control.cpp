// Closed-loop adaptive control (new figure, beyond the paper): the
// control plane of src/control driving api::Runtime::reconfigure against
// time-varying scenarios, vs the static worst-case provisioning a
// fixed-spec deployment needs.
//
// Per scenario the same scripted conditions (sim::ScenarioDriver — SNR
// ramps, a fading burst, an offered-load spike) are served twice:
//   * static-worst: flexcore-N with N solved once at the script's minimum
//     SNR — the fixed config that meets the target everywhere;
//   * adaptive: a control::FeedbackLoop observing estimated SNR (pilot
//     sounding + channel::estimated_snr_db), post-detection symbol errors
//     and runtime queue depth, reconfiguring the cell's path budget at
//     frame boundaries.
// The adaptive policy must meet the same target error rate with
// measurably fewer average paths (= less compute, more cells per PE
// pool).  Emits BENCH_control.json; exits non-zero when the adaptive
// policy fails to converge (or misses the target) in the fixed-SNR
// scenario — the CI smoke gate.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "bench_json.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "channel/estimation.h"
#include "channel/rng.h"
#include "control/feedback.h"
#include "control/path_policy.h"
#include "sim/frame_synth.h"
#include "sim/scenario.h"

namespace fa = flexcore::api;
namespace fb = flexcore::bench;
namespace ch = flexcore::channel;
namespace ctl = flexcore::control;
namespace fs = flexcore::sim;
using flexcore::modulation::Constellation;

namespace {

constexpr std::size_t kNsc = 8;      // data subcarriers per frame
constexpr std::size_t kNv = 2;       // OFDM symbols per frame
constexpr std::size_t kQueueCap = 4;
constexpr std::size_t kPilotRepeats = 4;
constexpr std::size_t kSoundedSubcarriers = 4;

struct ModeResult {
  std::size_t frames = 0;
  std::size_t symbols = 0;
  std::size_t errors = 0;
  double paths_sum = 0.0;  ///< sum over frames of avg paths per subcarrier
  double seconds = 0.0;
  std::uint64_t reconfigs = 0;
  std::uint64_t dropped = 0;
  std::size_t decisions = 0;
  std::size_t decisions_late_half = 0;
  std::string final_spec;
  fa::RuntimeStats stats;

  double ser() const {
    return symbols > 0 ? static_cast<double>(errors) /
                             static_cast<double>(symbols)
                       : 0.0;
  }
  double avg_paths() const {
    return frames > 0 ? paths_sum / static_cast<double>(frames) : 0.0;
  }
};

ModeResult run_mode(const fs::ScenarioConfig& scfg, const Constellation& qam,
                    bool adaptive, std::size_t static_paths,
                    const ctl::PathPolicyConfig& policy) {
  fs::ScenarioDriver drv(scfg);

  fa::RuntimeConfig rcfg;
  rcfg.dispatchers = 0;  // poll mode: the run is a pure function of the seed
  rcfg.queue_capacity = kQueueCap;
  rcfg.policy = fa::QueuePolicy::kDropNewest;
  fa::Runtime rt(rcfg);

  fa::CellConfig cell_cfg;
  cell_cfg.detector = "flexcore-" + std::to_string(static_paths);
  cell_cfg.qam_order = qam.order();
  fa::Cell& cell = rt.open_cell(cell_cfg);

  ctl::FeedbackLoop loop(qam, scfg.trace.nt, policy);
  ch::Rng pilot_rng(scfg.seed ^ 0x9e3779b97f4a7c15ull);

  ModeResult mr;
  mr.final_spec = cell_cfg.detector;
  fs::ScenarioStep step;
  const auto t0 = std::chrono::steady_clock::now();
  while (drv.next(&step)) {
    const fs::SynthFrame fr = drv.synth_frame(qam, kNsc, kNv);
    const fa::FrameJob job = fs::frame_job_of(fr, step.noise_var);

    // Offered load: the primary frame plus the segment's burst duplicates
    // against the bounded admission queue (DropNewest sheds the excess).
    fa::FrameTicket primary = rt.submit(cell, job);
    std::vector<fa::FrameTicket> extras;
    extras.reserve(step.load_burst);
    for (std::size_t b = 0; b < step.load_burst; ++b) {
      extras.push_back(rt.submit(cell, job));
    }
    const std::size_t queue_depth = rt.stats().queue_depth;
    while (rt.run_one()) {
    }
    std::size_t errors = 0;
    if (const fa::FrameResult* res = primary.try_get()) {
      errors = fs::count_symbol_errors(fr, res->results);
      mr.paths_sum += res->sum_active_paths / static_cast<double>(kNsc);
      mr.symbols += fr.tx.size();
      mr.errors += errors;
      ++mr.frames;
    }

    if (adaptive) {
      // The controller sees what a real AP would: pilot-sounded SNR
      // estimates (never the true H) averaged over a few subcarriers, its
      // own link's error feedback, and the admission-queue pressure at
      // submit time.
      double snr_sum = 0.0;
      for (std::size_t f = 0; f < kSoundedSubcarriers; ++f) {
        const ch::ChannelEstimate est =
            ch::estimate_channel(drv.trace().per_subcarrier[f],
                                 step.noise_var, kPilotRepeats, pilot_rng);
        snr_sum += ch::estimated_snr_db(est);
      }
      ctl::Observation obs;
      obs.snr_db_estimate = snr_sum / kSoundedSubcarriers;
      obs.symbols = fr.tx.size();
      obs.symbol_errors = errors;
      obs.queue_depth = queue_depth;
      obs.queue_capacity = kQueueCap;
      if (auto d = loop.observe(obs)) {
        // FIFO-safe swap; applied by the pump before the next frame.
        rt.reconfigure(cell, {.detector = d->detector, .tuning = {}});
        ++mr.decisions;
        if (d->frame_index >= drv.total_frames() / 2) {
          ++mr.decisions_late_half;
        }
        mr.final_spec = d->detector;
      }
    }
  }
  rt.drain();
  mr.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  mr.stats = rt.stats();
  mr.reconfigs = mr.stats.reconfigs;
  mr.dropped = mr.stats.frames_dropped;
  return mr;
}

}  // namespace

int main() {
  const std::size_t seg_frames = fb::env_size("FLEXCORE_FRAMES", 40);
  const std::size_t nr = 8, nt = 4;
  Constellation qam(16);

  ctl::PathPolicyConfig policy;
  policy.target_error = 1e-2;
  policy.max_paths = 64;
  const double target = policy.target_error;

  ch::TraceConfig tcfg;
  tcfg.nr = nr;
  tcfg.nt = nt;
  tcfg.num_subcarriers = kNsc;

  struct Scenario {
    const char* name;
    fs::ScenarioConfig cfg;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"fixed-snr",
       {tcfg, {{seg_frames * 2, 12.0, 12.0, 1.0, 0}}, 71}});
  scenarios.push_back({"snr-ramp",
                       {tcfg,
                        {{seg_frames, 18.0, 8.0, 1.0, 0},
                         {seg_frames, 8.0, 8.0, 1.0, 0},
                         {seg_frames, 8.0, 18.0, 1.0, 0}},
                        72}});
  scenarios.push_back({"fading-burst",
                       {tcfg,
                        {{seg_frames, 14.0, 14.0, 1.0, 0},
                         {seg_frames, 14.0, 10.0, 0.95, 0},
                         {seg_frames, 14.0, 14.0, 1.0, 0}},
                        73}});
  scenarios.push_back({"load-spike",
                       {tcfg,
                        {{seg_frames, 12.0, 12.0, 1.0, 0},
                         {seg_frames, 12.0, 12.0, 1.0, 4},
                         {seg_frames, 12.0, 12.0, 1.0, 0}},
                        74}});

  fb::banner("Fig. 16: closed-loop adaptive control vs static worst-case");
  std::printf("target error %.3g, %zu users, %d-QAM, %zu subcarriers x %zu "
              "symbols per frame\n",
              target, nt, qam.order(), kNsc, kNv);
  fb::BenchJson json("control");

  std::printf("\n%-13s %-13s %-9s %-10s %-7s %-6s %-6s %-14s\n", "scenario",
              "mode", "paths/sc", "ser", "reconf", "drop", "conv",
              "final spec");
  fb::rule();

  bool ci_ok = true;
  for (const Scenario& sc : scenarios) {
    fs::ScenarioDriver probe(sc.cfg);
    // Static worst case: the smallest fixed budget meeting the target at
    // the lowest SNR the script ever reaches.
    const ctl::PathDecision worst =
        ctl::solve_path_count(qam, nt, probe.min_snr_db(), policy);

    for (const bool adaptive : {false, true}) {
      const ModeResult mr =
          run_mode(sc.cfg, qam, adaptive, worst.paths, policy);
      // Converged = the policy settled: no reconfiguration in the second
      // half of the run.  Only meaningful for the statically-conditioned
      // scenarios; the gate below uses fixed-snr.
      const bool converged = !adaptive || mr.decisions_late_half == 0;
      const bool met_target = mr.ser() <= 2.0 * target;
      std::printf("%-13s %-13s %-9.2f %-10.3g %-7llu %-6llu %-6s %-14s\n",
                  sc.name, adaptive ? "adaptive" : "static-worst",
                  mr.avg_paths(), mr.ser(),
                  static_cast<unsigned long long>(mr.reconfigs),
                  static_cast<unsigned long long>(mr.dropped),
                  converged ? "yes" : "NO", mr.final_spec.c_str());
      json.row()
          .field("scenario", sc.name)
          .field("mode", adaptive ? "adaptive" : "static-worst")
          .field("target_error", target)
          .field("min_snr_db", probe.min_snr_db())
          .field("worst_case_paths", worst.paths)
          .field("frames", mr.frames)
          .field("avg_paths_per_subcarrier", mr.avg_paths())
          .field("ser", mr.ser())
          .field("reconfigs", mr.reconfigs)
          .field("frames_dropped", mr.dropped)
          .field("decisions", mr.decisions)
          .field("converged", converged ? 1 : 0)
          .field("met_target", met_target ? 1 : 0)
          .field("final_spec", mr.final_spec)
          .field("seconds", mr.seconds);
      fb::append_latency_buckets(json, mr.stats);

      if (adaptive && std::string(sc.name) == "fixed-snr" &&
          (!converged || !met_target)) {
        ci_ok = false;
      }
    }
  }

  std::printf("\nShape checks:\n");
  std::printf("  * time-varying scenarios: adaptive meets the target error "
              "with measurably fewer\n    average paths than static-worst "
              "(solved at the script's minimum SNR).\n");
  std::printf("  * fixed-snr: the policy converges to ~the worst-case "
              "solve and reconfigurations\n    stop in the first half "
              "(the CI gate).\n");
  std::printf("  * load-spike: queue pressure degrades the path budget "
              "(cheaper frames) while the\n    bounded queue sheds the "
              "same open-loop excess in both modes.\n");
  if (!ci_ok) {
    std::printf("\nFAIL: adaptive policy did not converge/meet target in "
                "the fixed-SNR scenario\n");
    return 1;
  }
  return 0;
}
