// Sharded-runtime sweep (new figure, beyond the paper): api::Runtime with
// and without its shard fabric as the antenna-cluster count C
// (RuntimeConfig::shards) and the served-cell count vary.  Each cell is a
// flexcore-16 / 16-QAM large-aperture uplink (B=16 receive antennas, Nt=4
// streams — the tall-channel regime decentralized baseband processing
// targets); producer threads submit OFDM frames back-to-back.  shards=0
// rows are the monolithic baseline; C=1 builds no fabric either (a second
// monolithic row); C in {2,4,8} run the per-cluster partial-QR fronthaul
// with its own thread pools.  Emits BENCH_sharded.json (per-shard counters
// included) for the perf trajectory.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "channel/channel.h"
#include "obs/trace_export.h"
#include "sim/frame_synth.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fb = flexcore::bench;
namespace fs = flexcore::sim;
using flexcore::modulation::Constellation;

namespace {

struct SweepResult {
  double seconds = 0.0;
  fa::RuntimeStats stats;
};

/// One run: `cells` producers x `frames_per_cell` frames through `rt`.
SweepResult drive(fa::Runtime& rt, std::size_t cells,
                  std::size_t frames_per_cell,
                  const std::vector<fs::SynthFrame>& frames,
                  double noise_var) {
  std::vector<fa::Cell*> handles;
  for (std::size_t cidx = 0; cidx < cells; ++cidx) {
    fa::CellConfig ccfg;
    ccfg.detector = "flexcore-16";
    ccfg.qam_order = 16;
    handles.push_back(&rt.open_cell(ccfg));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(cells);
  for (std::size_t cidx = 0; cidx < cells; ++cidx) {
    producers.emplace_back([&, cidx] {
      const fa::FrameJob job = fs::frame_job_of(frames[cidx], noise_var);
      std::vector<fa::FrameTicket> tickets;
      tickets.reserve(frames_per_cell);
      for (std::size_t i = 0; i < frames_per_cell; ++i) {
        tickets.push_back(rt.submit(*handles[cidx], job));
      }
      for (auto& t : tickets) t.wait();
    });
  }
  for (auto& t : producers) t.join();
  rt.drain();
  SweepResult out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.stats = rt.stats();
  return out;
}

}  // namespace

int main() {
  const std::size_t frames_per_cell = fb::env_size("FLEXCORE_FRAMES", 16);
  const std::size_t nsc = 12, nsym = 4;
  const std::size_t b = 16, nt = 4;  // tall channel: 16 antennas, 4 streams
  const double noise_var = ch::noise_var_for_snr_db(14.0);
  Constellation qam(16);

  fb::banner("Sharded runtime: cells x antenna clusters vs monolithic");
  fb::BenchJson json("sharded");

  std::vector<fs::SynthFrame> frames;
  for (std::size_t cidx = 0; cidx < 4; ++cidx) {
    frames.push_back(
        fs::synth_frame(qam, nsc, nsym, b, nt, noise_var, 1800 + cidx));
  }
  const std::size_t vectors_per_frame = nsc * nsym;

  std::printf("%-6s %-8s %-11s %-6s %-10s %-10s %-14s\n", "cells", "shards",
              "vec/s", "out", "p50 us", "p99 us", "shard busy s");
  fb::rule();

  for (const std::size_t cells : {1u, 2u, 4u}) {
    for (const std::size_t shards : {0u, 1u, 2u, 4u, 8u}) {
      fa::RuntimeConfig rcfg;
      rcfg.dispatchers = std::min<std::size_t>(cells, 4);
      rcfg.queue_capacity = 16;
      rcfg.shards = std::max<std::size_t>(shards, 1);
      fa::Runtime rt(rcfg);
      const SweepResult r =
          drive(rt, cells, frames_per_cell, frames, noise_var);

      const double vps =
          static_cast<double>(r.stats.frames_out * vectors_per_frame) /
          r.seconds;
      double shard_busy = 0.0;
      for (const fa::ShardStats& ss : r.stats.shards) {
        shard_busy += ss.busy_seconds;
      }
      std::printf("%-6zu %-8s %-11.0f %-6llu %-10.0f %-10.0f %-14.3f\n",
                  cells, shards == 0 ? "mono" : std::to_string(shards).c_str(),
                  vps, static_cast<unsigned long long>(r.stats.frames_out),
                  r.stats.latency_p50_us, r.stats.latency_p99_us, shard_busy);

      json.row()
          .field("cells", cells)
          .field("shards", shards)  // 0 = monolithic baseline
          .field("frames_per_cell", frames_per_cell)
          .field("antennas", b)
          .field("streams", nt)
          .field("vectors_per_sec", vps)
          .field("frames_in", r.stats.frames_in)
          .field("frames_out", r.stats.frames_out)
          .field("latency_p50_us", r.stats.latency_p50_us)
          .field("latency_p99_us", r.stats.latency_p99_us)
          .field("latency_mean_us", r.stats.latency_mean_us)
          .field("seconds", r.seconds);
      fb::append_stage_latency(json, r.stats);
      // Per-shard counters, flattened: the consistency the tests pin
      // (frames identical across shards, rows partitioning B) stays
      // visible in the trajectory.
      for (const fa::ShardStats& ss : r.stats.shards) {
        const std::string p = "shard" + std::to_string(ss.shard_id) + "_";
        json.field((p + "frames").c_str(), ss.frames)
            .field((p + "partials").c_str(), ss.partials)
            .field((p + "rows").c_str(), ss.rows_processed)
            .field((p + "busy_s").c_str(), ss.busy_seconds)
            .field((p + "threads").c_str(), ss.threads);
      }
    }
  }

  std::printf("\nShape checks:\n");
  std::printf("  * shards=1 is monolithic (no fabric is built).\n");
  std::printf("  * For B >> C*Nt the merged stack shrinks detection-side "
              "preprocessing (16 rows -> 8 at C=2).\n");
  std::printf("  * Per-shard frames are identical across shards; rows sum "
              "to B per subcarrier.\n");

  // With tracing live (FLEXCORE_OBS_TRACE=1), FLEXCORE_TRACE_OUT=<path>
  // exports the retained spans — per-shard tracks included — as a
  // Chrome/Perfetto trace.
  if (const char* trace_out = std::getenv("FLEXCORE_TRACE_OUT");
      trace_out && *trace_out) {
    const bool ok = flexcore::obs::export_chrome_trace(trace_out);
    std::printf("\ntrace: %s %s\n", ok ? "wrote" : "FAILED to write",
                trace_out);
  }
  return 0;
}
