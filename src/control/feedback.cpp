#include "control/feedback.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace flexcore::control {

FeedbackLoop::FeedbackLoop(const modulation::Constellation& c, std::size_t nt,
                           const PathPolicyConfig& policy)
    : c_(&c), nt_(nt), policy_(policy) {
  if (nt_ == 0) {
    throw std::invalid_argument("FeedbackLoop: nt must be >= 1");
  }
  // Fail at construction, not mid-flight: the solver config must be sane.
  solve_path_count(*c_, nt_, 10.0, policy_);
}

std::optional<Decision> FeedbackLoop::observe(const Observation& obs) {
  ++frame_;

  // --- SNR tracking (EWMA) -------------------------------------------------
  if (std::isfinite(obs.snr_db_estimate)) {
    snr_smooth_ = std::isnan(snr_smooth_)
                      ? obs.snr_db_estimate
                      : kSnrAlpha * obs.snr_db_estimate +
                            (1.0 - kSnrAlpha) * snr_smooth_;
  }

  // --- symbol-error integral action ---------------------------------------
  window_symbols_ += obs.symbols;
  window_errors_ += obs.symbol_errors;
  if (++window_frames_ >= kErrorWindow) {
    if (window_symbols_ > 0) {
      const double ser = static_cast<double>(window_errors_) /
                         static_cast<double>(window_symbols_);
      if (ser > policy_.target_error && backoff_db_ < kMaxBackoffDb) {
        backoff_db_ = std::min(kMaxBackoffDb, backoff_db_ + kErrorBackoffDb);
        resolve_reason_ = "error";
      } else if (ser < policy_.target_error / 4.0 && backoff_db_ > 0.0) {
        backoff_db_ = std::max(0.0, backoff_db_ - kErrorBackoffDb);
        resolve_reason_ = "error";
      }
    }
    window_symbols_ = window_errors_ = 0;
    window_frames_ = 0;
  }

  // --- load shedding -------------------------------------------------------
  int load_delta = 0;
  if (obs.queue_capacity > 0) {
    const double occupancy = static_cast<double>(obs.queue_depth) /
                             static_cast<double>(obs.queue_capacity);
    if (occupancy >= kLoadHigh) {
      ++high_run_;
      low_run_ = 0;
    } else if (occupancy <= kLoadLow) {
      ++low_run_;
      high_run_ = 0;
    } else {
      high_run_ = low_run_ = 0;
    }
    if (high_run_ >= kDegradeAfter && degrade_step_ <= kMaxDegradeSteps) {
      ++degrade_step_;
      high_run_ = 0;
      load_delta = 1;
    } else if (low_run_ >= kRestoreAfter && degrade_step_ > 0) {
      --degrade_step_;
      low_run_ = 0;
      load_delta = -1;
    }
  }

  // --- decide --------------------------------------------------------------
  if (std::isnan(snr_smooth_)) return std::nullopt;  // nothing to solve yet
  if (!current_) return emit("init");
  // Load responses act immediately — backpressure cannot wait out a
  // coherence hold; the streak counters already debounce them.
  if (load_delta > 0) return emit("load-degrade");
  if (load_delta < 0) return emit("load-restore");
  if (frame_ - last_emit_frame_ < kMinHoldFrames) return std::nullopt;
  const double eff = snr_smooth_ - backoff_db_;
  if (resolve_reason_ != nullptr) return emit(resolve_reason_);
  if (std::abs(eff - solved_snr_db_) > kHysteresisDb) return emit("snr");
  return std::nullopt;
}

std::optional<Decision> FeedbackLoop::emit(const char* reason) {
  const double eff = snr_smooth_ - backoff_db_;
  const PathDecision pd = solve_path_count(*c_, nt_, eff, policy_);
  // Re-anchor hysteresis and the hold window at this solve even when the
  // spec comes out unchanged — that is what stops a slow drift from
  // re-solving every frame.
  solved_snr_db_ = eff;
  resolve_reason_ = nullptr;
  last_emit_frame_ = frame_;

  std::size_t paths = pd.paths;
  const std::size_t halvings = std::min(degrade_step_, kMaxDegradeSteps);
  for (std::size_t s = 0; s < halvings; ++s) {
    paths = std::max<std::size_t>(1, paths / 2);
  }
  // The terminal rung past the halvings: the family swap.
  const std::string spec = degrade_step_ > kMaxDegradeSteps
                               ? std::string(kDegradeDetector)
                               : path_spec(paths);
  if (current_ && current_->detector == spec) return std::nullopt;

  Decision d;
  d.frame_index = frame_ - 1;
  d.detector = spec;
  d.paths = paths;
  d.snr_db = eff;
  d.degrade_step = degrade_step_;
  d.reason = reason;
  current_ = d;
  decisions_.push_back(d);
  if (obs::tracing_enabled()) {
    // Control decisions are rare and load-bearing: mark every one as an
    // instant event regardless of frame sampling, on the caller's track.
    obs::TraceCtx ctx;
    ctx.id = frame_;
    ctx.decided = true;
    ctx.sampled = true;
    obs::record_instant(obs::Stage::kControl, obs::now_ns(), ctx,
                        static_cast<std::uint32_t>(
                            obs::control_reason_from(reason)));
  }
  return d;
}

}  // namespace flexcore::control
