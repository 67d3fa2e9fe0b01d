// Asynchronous multi-cell access-point runtime: submit/poll detection.
//
// FlexCore's premise is that a large-MIMO access point keeps many
// independent detection problems in flight at once across a sea of
// processing elements.  UplinkPipeline::detect_frame is the single-cell
// building block — one blocking call per frame; api::Runtime is the
// serving layer on top of it:
//
//   api::RuntimeConfig rcfg;
//   rcfg.threads = 8;            // ONE shared PE pool for every cell
//   rcfg.dispatchers = 2;        // frames decoded concurrently
//   rcfg.queue_capacity = 16;    // bounded admission queue
//   rcfg.policy = api::QueuePolicy::kDeadlineExpire;
//   api::Runtime rt(rcfg);
//
//   api::Cell& a = rt.open_cell({.detector = "flexcore-64"});
//   api::Cell& b = rt.open_cell({.detector = "fcsd-L1", .qam_order = 16});
//
//   api::FrameTicket t = rt.submit(a, job, /*deadline_us=*/500);
//   ...                                    // do other work
//   if (const api::FrameResult* r = t.try_get()) consume(*r);   // poll
//   t.wait();                              // or block; or on_complete(cb)
//
// Guarantees:
//   * Per-cell FIFO — frames of one cell are detected strictly in
//     submission order, never concurrently with each other, so results are
//     bit-identical to calling detect_frame synchronously on that cell.
//     (Frames shed at admission — drops, queue-side expiries — complete
//     immediately rather than in dispatch order.)
//   * Cross-cell concurrency — up to `dispatchers` cells decode at once,
//     each frame's task grid multiplexed onto the shared pool (the
//     ThreadPool's job-scoped counters let independent grids overlap).
//   * Backpressure — the admission queue is bounded by `queue_capacity`;
//     when full, `policy` decides: kBlock (submit waits for space),
//     kDropNewest (the incoming frame completes instantly with kDropped),
//     kDeadlineExpire (stale queued frames complete with kExpired to make
//     room; submit blocks only if nothing is stale).
//   * Deadlines — under kDeadlineExpire a frame whose deadline passed
//     before dispatch completes with kExpired and never occupies workers;
//     its result is never partially written (try_get() stays null).  A
//     frame already being detected always runs to completion.  Other
//     policies ignore deadlines.
//   * Sharding — with `shards` > 1, submit() first runs the frame through
//     the shard fabric (shard/fabric.h): per-antenna-cluster partial QR
//     on per-shard driver threads and pools, merged into runtime-owned
//     (S, z) buffers that the admitted job borrows instead of the
//     caller's spans.  Shard threads keep the CPU affinity the process
//     gave them; nothing is pinned.
#pragma once

#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/cell.h"
#include "api/uplink_pipeline.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace flexcore::shard {
class Fabric;
}

namespace flexcore::api {

/// Admission-queue behaviour when the bounded queue is full.
enum class QueuePolicy {
  /// submit() blocks until a slot frees.  With dispatchers == 0 a slot
  /// only frees when SOME thread calls run_one(): a single-threaded
  /// poll-mode caller must pump before over-filling the queue, or the
  /// blocking submit deadlocks (nothing else can drain it).
  kBlock,
  kDropNewest,  ///< the incoming frame is rejected (ticket -> kDropped)
  /// Expire stale queued frames to make room (and honour per-frame
  /// deadlines at dispatch time).  A full queue of frames WITHOUT
  /// deadlines (deadline_us == 0) can never go stale, so submit then
  /// degrades to kBlock semantics — including kBlock's poll-mode caveat
  /// above: arm deadlines or pump run_one() when dispatchers == 0.
  kDeadlineExpire
};

const char* to_string(QueuePolicy policy);

/// Terminal (and initial) states of a submitted frame.
enum class TicketStatus {
  kPending,  ///< queued or currently being detected
  kDone,     ///< detected; result available
  kDropped,  ///< rejected by kDropNewest admission
  kExpired,  ///< deadline passed before dispatch (kDeadlineExpire)
  kFailed,   ///< detection threw; see FrameTicket::error()
  /// Dispatch-side numeric quarantine: the frame carried non-finite data
  /// or a channel QR could not factorize (api::NonFiniteError /
  /// api::NumericError).  A quarantined frame terminates cleanly — no
  /// partial result, the cell's preprocessing caches are invalidated, and
  /// the next frame of the cell is detected from scratch.  See
  /// FrameTicket::error() for the offending coordinates.
  kQuarantined
};

const char* to_string(TicketStatus status);

/// Watchdog verdict on one cell's recent terminal outcomes (CellStats::
/// health).  Computed over a fixed ring of the cell's last completions:
///   kHealthy      — completing normally.
///   kDegraded     — shedding load (drops/expiries) but detection works.
///   kQuarantining — repeated numeric quarantines / failures: the cell's
///                   input is suspect (corrupt fronthaul, broken channel
///                   estimates), not merely overloaded.
enum class CellHealth { kHealthy, kDegraded, kQuarantining };

/// Verdict of a ShardFaultProbe for one (shard, frame) prep attempt.
/// Chaos harnesses install a probe (fault::Injector::shard_probe) to
/// simulate cluster failures: `fail` makes the shard skip the prep and
/// report a fault (exercising the retry-then-bypass ladder), `stall_us`
/// sleeps the driver first (exercising the stall budget).
struct ShardFaultAction {
  bool fail = false;
  std::uint32_t stall_us = 0;
};

/// Called by each shard driver before it preprocesses a frame.  Invoked
/// concurrently from the C driver threads — must be thread-safe; `frame`
/// is the sharded-path frame sequence number (0-based, identical across
/// the shards of one frame).
using ShardFaultProbe =
    std::function<ShardFaultAction(std::size_t shard, std::uint64_t frame)>;

struct RuntimeConfig {
  /// Worker threads of the ONE pool shared by every cell's task grids
  /// (0 = all hardware threads) — the PE pool of the paper, serving all
  /// cells at once.
  std::size_t threads = 0;
  /// Dispatcher threads = frames decoded concurrently (each drives one
  /// cell's detect_frame at a time).  0 disables background dispatch: the
  /// caller pumps frames explicitly with run_one() — the deterministic
  /// mode tests and single-threaded embeddings use.
  std::size_t dispatchers = 2;
  /// Bound on frames queued across all cells (in-flight frames excluded).
  /// Must be >= 1.
  std::size_t queue_capacity = 16;
  QueuePolicy policy = QueuePolicy::kBlock;
  /// Depth of the synchronous validation submit() runs: true (default)
  /// scans every channel/payload entry for NaN/Inf at the call site
  /// (FrameCheck::kFull — malformed jobs throw in the submitter);
  /// false checks shapes only, letting non-finite frames reach the
  /// dispatch path where they complete as kQuarantined.  Fault-injection
  /// harnesses run with false so corruption exercises the quarantine
  /// machinery end to end; detect_frame itself ALWAYS runs the full scan.
  bool admission_scan = true;
  /// Antenna clusters C of the shard fabric.  1 (default) = monolithic:
  /// no fabric is built.  A frame with fewer antenna rows than C uses one
  /// cluster per row; a frame left with a single cluster skips the stage
  /// and is admitted verbatim.
  std::size_t shards = 1;
  /// Worker threads of each shard's pool (the caller-participates
  /// convention of parallel::ThreadPool: 1 = the driver thread alone).
  /// 0 = split the hardware threads evenly across shards (>= 1 each).
  std::size_t threads_per_shard = 0;
  /// Upper bound, in microseconds, submit() waits for the shard fabric
  /// before cancelling the frame's fan-out and bypassing it (identity
  /// merge — the ticket NEVER hangs on a dead cluster).  0 waits forever.
  /// At any budget no shard driver reads the caller's job after submit()
  /// returns.
  std::uint64_t shard_stall_budget_us = 0;
  /// Chaos hook run by each shard driver before it preprocesses a frame
  /// (see ShardFaultProbe).  Read once at construction; empty in
  /// production.
  ShardFaultProbe shard_fault_probe;
};

/// Fixed-bucket latency histogram: bucket 0 counts [0, 1) us, bucket i
/// counts [2^(i-1), 2^i) us, the last bucket is open-ended.  Quantiles
/// interpolate linearly inside the winning bucket — deterministic,
/// allocation-free, and cheap enough for the submit path.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record(double us) {
    ++buckets_[bucket_of(us)];
    ++count_;
    sum_us_ += us;
  }

  std::uint64_t count() const noexcept { return count_; }
  double mean_us() const noexcept {
    return count_ > 0 ? sum_us_ / static_cast<double>(count_) : 0.0;
  }

  /// q-quantile (q in [0, 1]; 0 when empty): the estimate walks into the
  /// winning bucket proportionally to the target rank's position among
  /// that bucket's samples.
  double quantile_interp_us(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (seen + buckets_[i] >= target) {
        // Bucket i spans [lower, upper); bucket 0 starts at 0 and the last
        // bucket is open-ended, so its "upper" is twice its lower edge.
        const double lower = i == 0 ? 0.0 : upper_edge_us(i - 1);
        const double upper = i + 1 < kBuckets ? upper_edge_us(i)
                                              : 2.0 * upper_edge_us(i - 1);
        const double frac = static_cast<double>(target - seen) /
                            static_cast<double>(buckets_[i]);
        return lower + (upper - lower) * frac;
      }
      seen += buckets_[i];
    }
    return upper_edge_us(kBuckets - 1);
  }

  static std::size_t bucket_of(double us) noexcept {
    if (!(us >= 1.0)) return 0;  // also catches NaN / negatives
    std::size_t i = 1;
    double edge = 2.0;  // bucket i spans [2^(i-1), 2^i)
    while (i + 1 < kBuckets && us >= edge) {
      ++i;
      edge *= 2.0;
    }
    return i;
  }

  static double upper_edge_us(std::size_t bucket) noexcept {
    double edge = 1.0;
    for (std::size_t i = 0; i < bucket; ++i) edge *= 2.0;
    return edge;
  }

  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
};

/// Per-antenna-cluster counters of the shard fabric.  Reported only by a
/// runtime with shards > 1.  Consistency invariant (checked by tests):
/// every shard preprocesses every sharded-path frame exactly once, so
/// `frames` is identical across shards and equals the number of frames
/// that ran the shard stage — single-cluster frames skip it, while frames
/// later shed by admission were still preprocessed first (the fronthaul
/// runs before admission).
struct ShardStats {
  std::size_t shard_id = 0;
  std::size_t threads = 0;         ///< workers of this shard's pool
  std::uint64_t frames = 0;        ///< frames this shard preprocessed
  std::uint64_t partials = 0;      ///< per-subcarrier partial QRs computed
  std::uint64_t rows_processed = 0;  ///< antenna rows factorized, summed
  double busy_seconds = 0.0;       ///< wall time inside the shard stage
  /// Prep attempts this shard failed (numeric faults in the partial QR or
  /// injected shard failures) — each triggers the retry-then-bypass
  /// ladder.
  std::uint64_t faults = 0;
};

/// Point-in-time snapshot of the runtime's counters (Runtime::stats()).
struct RuntimeStats {
  std::vector<CellStats> cells;
  /// Per-antenna-cluster preprocessing counters; empty unless shards > 1
  /// (see ShardStats).
  std::vector<ShardStats> shards;
  std::uint64_t frames_in = 0;  ///< sums of the per-cell counters
  std::uint64_t frames_out = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_expired = 0;
  std::uint64_t frames_failed = 0;
  std::uint64_t frames_quarantined = 0;  ///< completed kQuarantined
  /// Shard-fabric degradation counters (0 when shards == 1): shard-stage
  /// fan-outs re-run after a shard fault, and frames rerouted
  /// merged-monolithic because the fabric failed twice or stalled past the
  /// budget.
  std::uint64_t shard_retries = 0;
  std::uint64_t shard_bypasses = 0;
  std::uint64_t reconfigs = 0;  ///< reconfigurations applied, all cells
  std::size_t queue_depth = 0;  ///< queued across all cells (not in flight)
  std::size_t in_flight = 0;    ///< frames currently being detected
  /// Admission -> completion latency of kDone frames (queue wait
  /// included): a view of stage_latency[kComplete].
  std::uint64_t latency_count = 0;
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  /// Per-stage latency breakdown of kDone frames, indexed by obs::Stage.
  /// Always on (independent of the FLEXCORE_OBS span gating — recording is
  /// an O(1) array bump inside sections the runtime already locks).  The
  /// dispatch-side stages (kQueueWait, kPreprocess, kPathGrid,
  /// kReconstruct, kComplete) each count exactly latency_count samples —
  /// a reuse-preprocessing hit records a 0 us preprocess sample rather
  /// than skipping it, so the breakdown always sums consistently.
  /// kShardPartialQr counts every frame that ran the shard stage (measured
  /// in submit, before admission can shed the frame, so its count can
  /// exceed latency_count under shedding).
  std::array<LatencyHistogram, obs::kStageCount> stage_latency{};
  const LatencyHistogram& stage(obs::Stage s) const noexcept {
    return stage_latency[static_cast<std::size_t>(s)];
  }
};

/// Future-like handle to one submitted frame.  Cheap to copy (shared
/// state); safe to poll/wait from any thread.  The FrameResult lives in the
/// shared state: pointers from try_get() stay valid while any handle to
/// this ticket exists.
class FrameTicket {
 public:
  FrameTicket() = default;  // empty handle; valid() == false
  ~FrameTicket();
  FrameTicket(const FrameTicket&) = default;
  FrameTicket(FrameTicket&&) noexcept = default;
  FrameTicket& operator=(const FrameTicket&) = default;
  FrameTicket& operator=(FrameTicket&&) noexcept = default;

  bool valid() const noexcept { return st_ != nullptr; }

  /// Current status (kPending until the frame reaches a terminal state).
  TicketStatus status() const;

  /// Blocks until the frame reaches a terminal state; returns it.
  TicketStatus wait() const;

  /// Bounded wait: blocks at most `timeout`, returning the status observed
  /// at the end — kPending iff the wait timed out.  The bound a caller
  /// puts on a wedged runtime: soak harnesses assert zero ticket loss with
  /// it instead of hanging on wait().
  TicketStatus wait_for(std::chrono::steady_clock::duration timeout) const;

  /// Poll: the result when status() == kDone and it has not been take()n,
  /// nullptr otherwise (pending, dropped, expired and failed frames never
  /// expose a partial result; a consumed one is gone, not empty).
  const FrameResult* try_get() const;

  /// Moves the result out (requires status kDone — call wait() first —
  /// and that it was not already taken; throws std::logic_error
  /// otherwise).  Single-consumer: afterwards try_get()/late callbacks
  /// observe nullptr.  Briefly waits out any late-registered callback
  /// still reading the result, so the move never races a reader.
  FrameResult take();

  /// Failure message when status() is kFailed or kQuarantined (for a
  /// quarantine: the offending coordinates from the numeric scan), ""
  /// otherwise.
  std::string error() const;

  /// Registers a callback fired exactly once when the frame reaches a
  /// terminal state, with the final status and the result (non-null only
  /// for kDone).  Runs on the thread that completes the frame — a
  /// dispatcher, the run_one() caller, or (for drops/expiries decided at
  /// admission) the submitting thread; if the ticket is already terminal it
  /// runs immediately on the calling thread.  Callbacks of one cell's
  /// DISPATCHED frames fire in FIFO submission order (the cell is not
  /// released to its next frame until the callbacks return — keep them
  /// light); frames shed at ADMISSION (kDropNewest rejections, queue-side
  /// kDeadlineExpire expiries) complete immediately on the shedding
  /// thread, out of band with the cell's dispatch order.  Do not submit
  /// with a kBlock runtime from inside a callback (it can deadlock a
  /// dispatcher), and do not call take() on the same ticket from inside
  /// its own callback.  Callbacks should not throw: an exception on the
  /// completion path is swallowed (it cannot be delivered anywhere
  /// useful); one thrown from an immediate fire propagates to the
  /// registering caller.
  void on_complete(std::function<void(TicketStatus, const FrameResult*)> fn);

  /// Submission sequence number within the ticket's cell (0-based).
  std::uint64_t sequence() const;
  std::size_t cell_id() const;

 private:
  friend class Runtime;
  explicit FrameTicket(std::shared_ptr<TicketState> st);
  void release_late_reader();
  std::shared_ptr<TicketState> st_;
};

/// The asynchronous multi-cell runtime.  Thread-safe:
/// submit/reconfigure/stats/drain may be called from any thread; open_cell
/// must not race with submit.
class Runtime {
 public:
  explicit Runtime(const RuntimeConfig& cfg = {});
  /// Drains every admitted frame (see drain()), then joins the dispatchers.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Opens a per-cell session.  The reference stays valid for the
  /// runtime's lifetime.
  Cell& open_cell(const CellConfig& cfg);

  /// Submits one frame for the cell.  Validates the job synchronously
  /// (throws std::invalid_argument on degenerate shapes, std::logic_error
  /// after shutdown began) and returns a ticket immediately — unless the
  /// queue is full and the policy blocks.  `deadline_us` > 0 arms a
  /// deadline that many microseconds from now (kDeadlineExpire only;
  /// 0 = none; the shard stage counts against it).  The job's channel/ys
  /// spans are BORROWED: they must stay valid until the ticket reaches a
  /// terminal state — unless the frame ran the shard stage, whose merged
  /// buffers replace them, in which case they are released on return.
  FrameTicket submit(Cell& cell, const FrameJob& job,
                     std::uint64_t deadline_us = 0);

  /// Enqueues an atomic detector swap for the cell, in FIFO position:
  /// every frame submitted before this call is detected with the old spec,
  /// every frame submitted after with the new one — on any dispatcher
  /// count, bit-deterministically.  The swap's detector is BUILT by this
  /// call (off the dispatch path, outside the runtime lock) — construction
  /// is the validation (std::invalid_argument on unknown/invalid specs,
  /// std::logic_error after shutdown began), and an unset rc.tuning
  /// resolves to the tuning in effect NOW, not at apply time, so queued
  /// earlier tuning changes cannot alter what was validated.  The finished
  /// detector is adopted by the dispatch machinery once the cell's earlier
  /// frames completed, and the returned ticket completes kDone (empty
  /// FrameResult) at that moment.
  /// Reconfigurations are control messages: they bypass the admission
  /// capacity and every shedding policy (never dropped, never expired), do
  /// not count as frames in RuntimeStats, and reset the cell's coherence
  /// warmup (the first frame after a swap re-preprocesses even under
  /// reuse_preprocessing).
  FrameTicket reconfigure(Cell& cell, const CellReconfig& rc);

  /// Manual pump: dispatches ONE queued frame on the calling thread
  /// (detection runs here, its grid still fans across the shared pool).
  /// Returns false when nothing is queued.  This is the poll-mode driver
  /// for dispatchers == 0, and composes with background dispatchers.
  bool run_one();

  /// Blocks until no frame is queued or in flight.  With dispatchers == 0
  /// the calling thread pumps the queue itself.
  void drain();

  RuntimeStats stats() const;

  parallel::ThreadPool& pool() noexcept { return pool_; }
  const RuntimeConfig& config() const noexcept { return cfg_; }

 private:
  void dispatcher_loop();
  /// Pops the next runnable cell's front entry and runs/expires/applies
  /// it.  Pre: lock held, runnable_ non-empty.  Unlocks while detecting.
  void process_next(std::unique_lock<std::mutex>& lock);
  /// Applies a popped reconfig entry (cell already marked busy).  Unlocks
  /// while swapping the detector; returns with the lock held again.
  void apply_reconfig(std::unique_lock<std::mutex>& lock, Cell* cell,
                      Cell::Pending& pf);
  /// Releases a busy cell after its entry completed: requeues it when more
  /// entries wait, wakes drain() waiters.  Pre: lock held.
  void release_cell_locked(Cell* cell);
  /// Earliest deadline among all queued frames (time_point::max() when
  /// none is armed).  Pre: lock held.
  std::chrono::steady_clock::time_point earliest_deadline_locked() const;
  /// Removes queued frames whose deadline passed (kDeadlineExpire helper);
  /// completes their tickets after dropping the lock.  Returns whether any
  /// slot was freed.
  bool expire_stale(std::unique_lock<std::mutex>& lock);
  /// Records one dispatch-stage latency sample.  Pre: mu_ held.
  void stage_record(obs::Stage stage, double us) {
    stage_latency_[static_cast<std::size_t>(stage)].record(us);
  }

  RuntimeConfig cfg_;
  parallel::ThreadPool pool_;
  /// The shard stage; null when shards == 1.  Declared before cells_ so it
  /// outlives every queued entry holding one of its merged buffers.
  std::unique_ptr<shard::Fabric> fabric_;

  mutable std::mutex mu_;
  std::condition_variable runnable_cv_;      ///< dispatchers wait for work
  std::condition_variable space_cv_;         ///< blocked submitters
  mutable std::condition_variable drain_cv_; ///< drain() waiters
  std::vector<std::unique_ptr<Cell>> cells_;
  std::deque<Cell*> runnable_;  ///< cells with queued entries, none in flight
  std::size_t queued_total_ = 0;      ///< queued FRAMES (capacity bound)
  std::size_t queued_reconfigs_ = 0;  ///< queued reconfigs (uncapped)
  std::size_t in_flight_ = 0;         ///< frames being detected
  std::size_t in_flight_reconfigs_ = 0;  ///< reconfigs being applied
  bool shutdown_ = false;
  /// Per-stage breakdown behind mu_ (see RuntimeStats::stage_latency).
  std::array<LatencyHistogram, obs::kStageCount> stage_latency_{};
  std::uint64_t shard_retries_ = 0;   ///< behind mu_
  std::uint64_t shard_bypasses_ = 0;  ///< behind mu_

  std::vector<std::thread> dispatchers_;
};

}  // namespace flexcore::api
