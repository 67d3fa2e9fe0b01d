// Per-cell closed-loop control: observables in, detector specs out.
//
// A FeedbackLoop is the control plane of ONE cell.  Once per frame the
// serving layer feeds it an Observation — the estimated SNR from channel
// sounding (channel::estimated_snr_db), the post-detection symbol-error
// feedback from the link, and the cell's share of the runtime admission
// queue — and the loop answers with at most one Decision: a registry
// detector spec to apply at the next frame boundary
// (Runtime::reconfigure keeps the swap FIFO-safe).
//
// The loop composes three controllers, all deterministic in the
// observation sequence:
//   * SNR tracking — an EWMA of the SNR estimates feeds PathPolicy's
//     model inversion; kHysteresisDb plus kMinHoldFrames stop the spec
//     from thrashing inside a coherence interval;
//   * error feedback (integral action) — when the measured symbol-error
//     rate over kErrorWindow frames misses the target, an SNR backoff
//     accumulates (the model was too optimistic for this channel), which
//     re-solves to more paths; sustained clean windows bleed it off;
//   * load shedding — sustained queue pressure degrades the budget by
//     halving the path count per step; past kMaxDegradeSteps the ladder
//     swaps the detector family to the linear-complexity kDegradeDetector
//     (graceful degradation instead of dropped frames); sustained slack
//     restores one step at a time.  The ladder sheds no precision: no
//     reduced tier beats the fp64 grid on every ISA copy (fig17), so a
//     precision rung would slow the grid it is meant to relieve.
//
// The loop's only settings are the PathPolicyConfig's error target and
// path budget.  Its tuning is the constants below: one configuration,
// the one fig16 runs and the tests cover.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "control/path_policy.h"
#include "modulation/constellation.h"

namespace flexcore::control {

/// EWMA weight of the newest SNR estimate (1 = no smoothing).
inline constexpr double kSnrAlpha = 0.5;
/// The smoothed effective SNR must move this far from the last solved
/// point before the policy re-solves.
inline constexpr double kHysteresisDb = 1.0;
/// Minimum frames between emitted SNR/error-driven spec changes — the
/// coherence-boundary rule: reconfigure at most once per interval.
inline constexpr std::size_t kMinHoldFrames = 4;

/// Symbol-error feedback: evaluated every kErrorWindow frames.  A window
/// SER above the target grows the SNR backoff by kErrorBackoffDb (up to
/// kMaxBackoffDb); a window below target / 4 shrinks it.
inline constexpr std::size_t kErrorWindow = 8;
inline constexpr double kErrorBackoffDb = 1.0;
inline constexpr double kMaxBackoffDb = 6.0;

/// Queue occupancy (depth / capacity) at or above kLoadHigh counts as
/// pressure, at or below kLoadLow as slack; in between both streaks reset.
/// kDegradeAfter consecutive pressure frames cost one degrade step
/// (immediately — load responses skip the SNR hold), kRestoreAfter slack
/// frames give one back.
inline constexpr double kLoadHigh = 0.75;
inline constexpr double kLoadLow = 0.25;
inline constexpr std::size_t kDegradeAfter = 3;
inline constexpr std::size_t kRestoreAfter = 8;
/// Halvings of the path budget before the terminal rung: degrade step
/// kMaxDegradeSteps + 1 swaps the family to kDegradeDetector.
inline constexpr std::size_t kMaxDegradeSteps = 3;
inline constexpr const char* kDegradeDetector = "zf-sic";

/// One frame's observables.  All fields optional in spirit: NaN SNR means
/// no estimate this frame, symbols == 0 means no error feedback,
/// queue_capacity == 0 means no load signal.
struct Observation {
  double snr_db_estimate = std::numeric_limits<double>::quiet_NaN();
  std::size_t symbols = 0;        ///< symbols detected this frame
  std::size_t symbol_errors = 0;  ///< of which wrong (CRC / pilot feedback)
  std::size_t queue_depth = 0;    ///< runtime admission queue, this cell
  std::size_t queue_capacity = 0;
};

/// One emitted reconfiguration.
struct Decision {
  std::size_t frame_index = 0;  ///< observation index that triggered it
  std::string detector;         ///< registry spec to apply
  std::size_t paths = 0;        ///< solved path budget (post-degrade)
  double snr_db = 0.0;          ///< effective SNR the solve used
  std::size_t degrade_step = 0;
  const char* reason = "";      ///< "init"|"snr"|"error"|"load-degrade"|
                                ///< "load-restore"
};

class FeedbackLoop {
 public:
  /// `nt` is the cell's user count (tree depth of the model); `policy`
  /// holds the error target and the cell's path budget.  The
  /// constellation must outlive the loop.
  FeedbackLoop(const modulation::Constellation& c, std::size_t nt,
               const PathPolicyConfig& policy);

  /// Feeds one frame's observables; returns the spec change to apply at
  /// the next frame boundary, if any.  Deterministic: two loops fed the
  /// same observation sequence emit identical decision logs.
  std::optional<Decision> observe(const Observation& obs);

  std::size_t frames_observed() const noexcept { return frame_; }
  /// Smoothed SNR estimate (NaN until the first finite observation).
  double smoothed_snr_db() const noexcept { return snr_smooth_; }
  /// Accumulated error-feedback SNR penalty in dB.
  double error_backoff_db() const noexcept { return backoff_db_; }
  std::size_t degrade_step() const noexcept { return degrade_step_; }
  /// Last emitted decision (nullopt before the first).
  const std::optional<Decision>& current() const noexcept { return current_; }
  /// Full decision log, in emission order.
  const std::vector<Decision>& decisions() const noexcept {
    return decisions_;
  }

 private:
  /// Solves the current spec from the smoothed state; emits iff it
  /// differs from the live spec.
  std::optional<Decision> emit(const char* reason);

  const modulation::Constellation* c_;
  std::size_t nt_;
  PathPolicyConfig policy_;

  std::size_t frame_ = 0;
  double snr_smooth_ = std::numeric_limits<double>::quiet_NaN();
  double solved_snr_db_ = std::numeric_limits<double>::quiet_NaN();
  double backoff_db_ = 0.0;
  std::size_t window_symbols_ = 0;
  std::size_t window_errors_ = 0;
  std::size_t window_frames_ = 0;
  std::size_t high_run_ = 0;
  std::size_t low_run_ = 0;
  std::size_t degrade_step_ = 0;
  std::size_t last_emit_frame_ = 0;
  /// Set when the error integral moved the backoff: a re-solve is owed as
  /// soon as the hold window opens, even if the SNR itself sat still.
  const char* resolve_reason_ = nullptr;
  std::optional<Decision> current_;
  std::vector<Decision> decisions_;
};

}  // namespace flexcore::control
