#include "sim/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "channel/channel.h"

namespace flexcore::sim {

ScenarioDriver::ScenarioDriver(const ScenarioConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.segments.empty()) {
    throw std::invalid_argument("ScenarioDriver: no segments");
  }
  min_snr_db_ = cfg_.segments.front().snr_db_begin;
  for (const ScenarioSegment& seg : cfg_.segments) {
    if (seg.frames == 0) {
      throw std::invalid_argument("ScenarioDriver: segment with 0 frames");
    }
    total_frames_ += seg.frames;
    min_snr_db_ = std::min({min_snr_db_, seg.snr_db_begin, seg.snr_db_end});
  }
  // One generator draw seeds the whole run; evolution reuses rng_ so the
  // entire trajectory is a pure function of cfg.seed.
  channel::TraceGenerator gen(cfg_.trace, cfg_.seed);
  trace_ = gen.next();
}

bool ScenarioDriver::next(ScenarioStep* step) {
  while (segment_ < cfg_.segments.size() &&
         frame_in_segment_ >= cfg_.segments[segment_].frames) {
    ++segment_;
    frame_in_segment_ = 0;
  }
  if (segment_ >= cfg_.segments.size()) return false;
  const ScenarioSegment& seg = cfg_.segments[segment_];

  bool channel_changed = !started_;
  if (started_ && seg.rho < 1.0) {
    trace_ = channel::evolve_trace(trace_, seg.rho, rng_);
    channel_changed = true;
  }
  started_ = true;

  // Linear ramp; a 1-frame segment sits at its begin SNR.
  const double frac =
      seg.frames > 1 ? static_cast<double>(frame_in_segment_) /
                           static_cast<double>(seg.frames - 1)
                     : 0.0;
  current_.index = frame_++;
  current_.segment = segment_;
  current_.snr_db =
      seg.snr_db_begin + frac * (seg.snr_db_end - seg.snr_db_begin);
  current_.noise_var = channel::noise_var_for_snr_db(current_.snr_db);
  current_.channel_changed = channel_changed;
  current_.load_burst = seg.load_burst;
  ++frame_in_segment_;
  *step = current_;
  return true;
}

SynthFrame ScenarioDriver::synth_frame(const modulation::Constellation& c,
                                       std::size_t nsc, std::size_t nv) {
  if (!started_) {
    throw std::logic_error("ScenarioDriver::synth_frame before next()");
  }
  if (nsc > trace_.per_subcarrier.size()) {
    throw std::invalid_argument(
        "ScenarioDriver::synth_frame: nsc exceeds the trace's subcarriers");
  }
  return synth_frame_over(
      c, std::span<const linalg::CMat>(trace_.per_subcarrier).first(nsc), nv,
      current_.noise_var, rng_);
}

}  // namespace flexcore::sim
