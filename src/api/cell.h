// One cell's session inside the asynchronous access-point runtime.
//
// A Cell is the per-cell building block api::Runtime composes: it owns the
// cell's detector spec, constellation and antenna geometry (via an
// UplinkPipeline running on the runtime's SHARED thread pool), the cell's
// FIFO queue of pending frames, and the per-cell counters surfaced in
// RuntimeStats.  Cells are created by Runtime::open_cell and live as long
// as the runtime; the runtime serializes all detection on one cell (frames
// of the same cell never run concurrently, which is what makes the
// bit-identical-to-synchronous guarantee and the FIFO completion order
// hold), while frames of DIFFERENT cells decode concurrently.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "api/uplink_pipeline.h"

namespace flexcore::shard {
struct MergedFrame;
}

namespace flexcore::api {

struct TicketState;  // defined in runtime.cpp; shared with FrameTicket

/// Configuration of one cell session.  Each cell owns its detector spec,
/// constellation and antenna geometry (implied by the jobs it receives);
/// `reuse_preprocessing` is the cell's channel-coherence policy.
struct CellConfig {
  /// Label reported in RuntimeStats (default: "cell<id>").
  std::string name;
  /// Registry spec for the cell's detector ("flexcore-64", "fcsd-L2", ...).
  std::string detector = "flexcore-64";
  int qam_order = 64;
  /// Detector tuning forwarded to api::make_detector (constellation field
  /// is ignored — the cell owns its constellation).
  DetectorConfig tuning;
  /// Static-channel coherence policy: when true, every frame after the
  /// cell's first reuses the per-subcarrier preprocessing (QR + path
  /// selection) of the previous frame — the caller asserts the channels are
  /// unchanged within the coherence interval.  A frame with a different
  /// subcarrier count, antenna geometry or noise_var re-preprocesses
  /// automatically (the pipeline guards the mismatch).  Independent of this
  /// policy, a submitted FrameJob with reuse_preprocessing = true keeps
  /// that request.
  bool reuse_preprocessing = false;
};

/// An atomic detector swap for a live cell, applied by Runtime::reconfigure
/// in FIFO position: every frame submitted before it is detected with the
/// old spec, every frame after with the new one.  The constellation and
/// antenna geometry are NOT reconfigurable — a cell's QAM order is part of
/// its air interface, not its compute budget; open a new cell for that.
struct CellReconfig {
  /// Registry spec to switch to ("flexcore-32", "zf-sic", ...).
  std::string detector;
  /// When set, replaces the cell's detector tuning as well (the
  /// constellation field is ignored, as everywhere in the api layer).
  /// When unset, the swap keeps the tuning in effect when reconfigure was
  /// CALLED — not when it applies — so a queued earlier tuning change can
  /// never alter what this call validated.
  std::optional<DetectorConfig> tuning;
};

/// Per-cell counter snapshot inside RuntimeStats.  Consistency invariant
/// (checked by tests): frames_in == frames_out + frames_dropped +
/// frames_expired + frames_failed + frames_quarantined + queue_depth +
/// in-flight (0 or 1).
/// Reconfigurations are control messages, not frames: they appear only in
/// `reconfigs` and never in the frame counters or queue_depth.
struct CellStats {
  std::size_t cell_id = 0;
  std::string name;
  /// The LIVE detector spec — reflects applied reconfigurations.
  std::string detector;
  std::uint64_t reconfigs = 0;       ///< reconfigurations applied
  std::uint64_t frames_in = 0;       ///< submit() calls (incl. dropped)
  std::uint64_t frames_out = 0;      ///< completed Done
  std::uint64_t frames_dropped = 0;  ///< rejected by DropNewest admission
  std::uint64_t frames_expired = 0;  ///< completed Expired (DeadlineExpire)
  std::uint64_t frames_failed = 0;   ///< detection threw (status Failed)
  std::uint64_t frames_quarantined = 0;  ///< numeric quarantine (see
                                         ///< TicketStatus::kQuarantined)
  std::size_t queue_depth = 0;       ///< currently queued, not in flight
  std::size_t in_flight = 0;         ///< 0 or 1 (cells are serialized)
  /// Watchdog verdict over the cell's recent terminal outcomes (the enum
  /// lives in runtime.h; 0 == kHealthy).  Cheap: maintained inline by the
  /// completion bookkeeping, no extra thread.
  int health = 0;
  std::uint64_t health_transitions = 0;  ///< state changes since open
};

class Runtime;

/// A per-cell session handle.  Thread-safe to pass around; all mutation
/// happens through the owning Runtime (submit/dispatch), which guards the
/// queue and counters with its own lock.
class Cell {
 public:
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  std::size_t id() const noexcept { return id_; }
  const CellConfig& config() const noexcept { return cfg_; }
  const modulation::Constellation& constellation() const noexcept {
    return pipe_.constellation();
  }

  /// The cell's pipeline.  The runtime serializes its own use of it; only
  /// touch it when no frames of this cell are queued or in flight (e.g.
  /// for set_channel-style warmup before submitting, or in tests).
  UplinkPipeline& pipeline() noexcept { return pipe_; }

 private:
  friend class Runtime;

  Cell(std::size_t id, const CellConfig& cfg, parallel::ThreadPool* pool);

  /// One admitted queue entry waiting for dispatch: a frame, or (when
  /// `reconfig` is set) a detector swap holding the frame's FIFO slot.
  /// Everything below is guarded by the owning Runtime's mutex.
  struct Pending {
    FrameJob job;
    /// The shard fabric's merged (S, z) that `job` borrows when the frame
    /// ran the shard stage (null otherwise); released with the entry.
    std::shared_ptr<const shard::MergedFrame> merged;
    /// Control message: apply this spec instead of detecting.  Exempt from
    /// admission capacity, deadlines and load shedding (deadline stays
    /// time_point::max(), so expire_stale never touches it).  The tuning
    /// is RESOLVED (always set) at enqueue time.
    std::optional<CellReconfig> reconfig;
    /// The swap's detector, constructed by Runtime::reconfigure at call
    /// time (validation == the one construction, off the dispatch path);
    /// adopted by the pipeline when the entry reaches the queue front.
    std::unique_ptr<detect::Detector> prebuilt;
    std::shared_ptr<TicketState> ticket;
    std::chrono::steady_clock::time_point submitted;
    /// time_point::max() when the frame carries no deadline.
    std::chrono::steady_clock::time_point deadline;
  };

  /// Watchdog outcome classes fed into the health ring (note_outcome).
  enum class Outcome : std::uint8_t {
    kOk = 0,   ///< completed kDone
    kShed,     ///< dropped or expired — load, not input, is the problem
    kBad,      ///< quarantined or failed — the input itself is suspect
  };

  /// Records one terminal outcome into the fixed health ring and
  /// recomputes the cell's health verdict, counting a change in
  /// health_transitions_.  Pre: the owning Runtime's mutex is held.
  void note_outcome(Outcome outcome);

  std::size_t id_;
  CellConfig cfg_;
  UplinkPipeline pipe_;
  std::deque<Pending> queue_;
  bool busy_ = false;       ///< a dispatcher is running this cell's entry
  bool busy_reconfig_ = false;  ///< ... and that entry is a reconfig
  bool scheduled_ = false;  ///< busy_ or sitting in the runnable list
  bool warm_ = false;       ///< a frame has run; coherence reuse is valid
  std::uint64_t next_seq_ = 0;
  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_expired_ = 0;
  std::uint64_t frames_failed_ = 0;
  std::uint64_t frames_quarantined_ = 0;
  std::uint64_t reconfigs_ = 0;        ///< reconfigurations applied
  std::size_t queued_reconfigs_ = 0;   ///< reconfig entries in queue_

  /// Health watchdog: fixed ring of the last kHealthWindow terminal
  /// outcomes (frames only), plus the current verdict.  All guarded by the
  /// owning Runtime's mutex like every other counter here.
  static constexpr std::size_t kHealthWindow = 16;
  std::array<Outcome, kHealthWindow> health_ring_{};
  std::size_t health_idx_ = 0;   ///< next slot to overwrite
  std::size_t health_len_ = 0;   ///< outcomes recorded, capped at window
  int health_ = 0;               ///< CellHealth as int (header layering)
  std::uint64_t health_transitions_ = 0;
};

}  // namespace flexcore::api
