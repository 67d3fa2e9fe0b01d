// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench binary prints the rows/series of one paper table or figure.
// Monte-Carlo sizes default to values that keep each binary's runtime in
// the tens of seconds; set FLEXCORE_PACKETS / FLEXCORE_TRIALS to larger
// values (or FLEXCORE_FULL=1 for the full sweeps) to tighten confidence —
// EXPERIMENTS.md records which settings produced the committed numbers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "api/uplink_pipeline.h"
#include "bench_json.h"
#include "channel/rng.h"
#include "channel/trace.h"

namespace flexcore::bench {

/// Appends the full latency distribution of a RuntimeStats snapshot to the
/// current BenchJson row: one "lat_us_le_<edge>" field per histogram
/// bucket (the last, open-ended bucket is "lat_us_inf"), plus the sample
/// count.  Keys are emitted for every bucket — zeros included — so the
/// row schema is stable across runs and diffs cleanly.
inline void append_latency_buckets(BenchJson& json,
                                   const api::RuntimeStats& rs) {
  json.field("lat_count", rs.latency_count);
  for (std::size_t i = 0; i < api::LatencyHistogram::kBuckets; ++i) {
    std::string key;
    if (i + 1 < api::LatencyHistogram::kBuckets) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "lat_us_le_%.0f",
                    api::LatencyHistogram::upper_edge_us(i));
      key = buf;
    } else {
      key = "lat_us_inf";
    }
    json.field(key.c_str(), rs.stage(obs::Stage::kComplete).buckets()[i]);
  }
}

/// Appends the per-stage latency breakdown (obs::Stage taxonomy) to the
/// current BenchJson row: stage_<name>_count / _p50_us / _p99_us per
/// serving stage, interpolated quantiles.  Stage names use '_' where the
/// taxonomy uses '-' ("queue-wait" -> stage_queue_wait_p50_us).  Keys are
/// emitted even for empty stages (count 0, null quantiles) so the row
/// schema stays stable.
inline void append_stage_latency(BenchJson& json,
                                 const api::RuntimeStats& rs) {
  static constexpr obs::Stage kStages[] = {
      obs::Stage::kQueueWait,   obs::Stage::kShardPartialQr,
      obs::Stage::kPreprocess,  obs::Stage::kPathGrid,
      obs::Stage::kReconstruct,
  };
  for (const obs::Stage stage : kStages) {
    std::string name = obs::to_string(stage);
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    const api::LatencyHistogram& h = rs.stage(stage);
    json.field(("stage_" + name + "_count").c_str(), h.count());
    const bool empty = h.count() == 0;
    json.field(("stage_" + name + "_p50_us").c_str(),
               empty ? std::numeric_limits<double>::quiet_NaN()
                     : h.quantile_interp_us(0.50));
    json.field(("stage_" + name + "_p99_us").c_str(),
               empty ? std::numeric_limits<double>::quiet_NaN()
                     : h.quantile_interp_us(0.99));
  }
}

/// Integer environment knob with default.
inline std::size_t env_size(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  if (!v || !*v) return def;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : def;
}

/// Boolean environment flag (set to any non-empty, non-"0" value).
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v && *v && std::string(v) != "0";
}

/// Section banner.
inline void banner(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Horizontal rule sized for typical rows.
inline void rule() {
  std::printf("-------------------------------------------------------------"
              "-----------------\n");
}

/// Repeats per mode of compare_frame_vs_loop, which reports each mode's
/// fastest.
inline constexpr std::size_t kFrameLoopRepeats = 9;

/// Result of one frame-mode vs per-subcarrier-loop detection comparison.
/// Each rate is the fastest of kFrameLoopRepeats repeats.
struct FrameLoopResult {
  double loop_vps = 0.0;    ///< vectors/sec, sequential set_channel+detect
  double frame_vps = 0.0;   ///< vectors/sec, one detect_frame job per frame
  double stream_vps = 0.0;  ///< vectors/sec, coherence-interval streaming
  bool identical = true;    ///< hard decisions bit-identical across modes
  std::size_t vectors = 0;  ///< nsc * nsym per frame
};

/// Times the same frame of detection work three ways on one pipeline:
/// (a) the per-subcarrier loop (set_channel + detect per subcarrier),
/// (b) one detect_frame job per frame (full preprocessing every frame) and
/// (c) streaming frames through a static-channel coherence interval with
///     FrameJob::reuse_preprocessing — the amortization the loop cannot
///     express because set_channel overwrites the single-channel state.
/// Each mode runs kFrameLoopRepeats times and reports its fastest repeat:
/// on a shared host a mean of a few repeats swings with the load, while the
/// best repeat is what the code costs when it runs undisturbed.  Decisions
/// are cross-checked for bit-identity across all three modes (the last
/// repeat of each).
inline FrameLoopResult compare_frame_vs_loop(api::UplinkPipeline& pipe,
                                             std::size_t nsc, std::size_t nsym,
                                             std::size_t nr, std::size_t nt,
                                             double noise_var,
                                             std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  const auto elapsed = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  channel::TraceConfig tcfg;
  tcfg.nr = nr;
  tcfg.nt = nt;
  tcfg.num_subcarriers = nsc;
  channel::TraceGenerator gen(tcfg, seed);
  const channel::ChannelTrace trace = gen.next();
  channel::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);

  const modulation::Constellation& c = pipe.constellation();
  std::vector<linalg::CVec> ys(nsc * nsym);
  linalg::CVec s(nt);
  for (std::size_t f = 0; f < nsc; ++f) {
    for (std::size_t t = 0; t < nsym; ++t) {
      for (std::size_t u = 0; u < nt; ++u) {
        s[u] = c.point(static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(c.order()))));
      }
      ys[f * nsym + t] =
          channel::transmit(trace.per_subcarrier[f], s, noise_var, rng);
    }
  }

  FrameLoopResult out;
  out.vectors = nsc * nsym;
  const std::span<const linalg::CVec> yspan(ys);

  // Mode (a): the per-subcarrier set_channel + detect loop.
  std::vector<detect::DetectionResult> loop_results(ys.size());
  double loop_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kFrameLoopRepeats; ++rep) {
    const auto t0 = clock::now();
    for (std::size_t f = 0; f < nsc; ++f) {
      pipe.set_channel(trace.per_subcarrier[f], noise_var);
      detect::BatchResult batch = pipe.detect(yspan.subspan(f * nsym, nsym));
      for (std::size_t t = 0; t < nsym; ++t) {
        loop_results[f * nsym + t] = std::move(batch.results[t]);
      }
    }
    loop_seconds = std::min(loop_seconds, elapsed(t0));
  }

  // Mode (b): one frame job per frame (first call warms the per-subcarrier
  // clones and grid buffers; repeats measure the steady state).
  api::FrameJob job;
  job.channels =
      std::span<const linalg::CMat>(trace.per_subcarrier.data(), nsc);
  job.ys = yspan;
  job.vectors_per_channel = nsym;
  job.noise_var = noise_var;
  api::FrameResult fr = pipe.detect_frame(job);
  double frame_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kFrameLoopRepeats; ++rep) {
    const auto t0 = clock::now();
    fr = pipe.detect_frame(job);
    frame_seconds = std::min(frame_seconds, elapsed(t0));
  }

  // Mode (c): streaming — first frame of the coherence interval pays the
  // preprocessing, the following frames reuse it.
  api::FrameJob streaming = job;
  api::FrameResult sr = pipe.detect_frame(streaming);  // interval start
  streaming.reuse_preprocessing = true;
  double stream_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kFrameLoopRepeats; ++rep) {
    const auto t0 = clock::now();
    sr = pipe.detect_frame(streaming);
    stream_seconds = std::min(stream_seconds, elapsed(t0));
  }

  for (std::size_t v = 0; v < ys.size(); ++v) {
    if (fr.results[v].symbols != loop_results[v].symbols ||
        sr.results[v].symbols != loop_results[v].symbols) {
      out.identical = false;
      break;
    }
  }
  const double vectors = static_cast<double>(out.vectors);
  out.loop_vps = vectors / loop_seconds;
  out.frame_vps = vectors / frame_seconds;
  out.stream_vps = vectors / stream_seconds;
  return out;
}

}  // namespace flexcore::bench
