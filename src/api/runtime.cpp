#include "api/runtime.h"

#include "parallel/hot_path_guard.h"
#include "shard/fabric.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace flexcore::api {

using Clock = std::chrono::steady_clock;

const char* to_string(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kBlock: return "block";
    case QueuePolicy::kDropNewest: return "drop-newest";
    case QueuePolicy::kDeadlineExpire: return "deadline-expire";
  }
  return "?";
}

const char* to_string(TicketStatus status) {
  switch (status) {
    case TicketStatus::kPending: return "pending";
    case TicketStatus::kDone: return "done";
    case TicketStatus::kDropped: return "dropped";
    case TicketStatus::kExpired: return "expired";
    case TicketStatus::kFailed: return "failed";
    case TicketStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

// ------------------------------------------------------------- FrameTicket

/// Shared between the submitting thread, the completing thread and every
/// FrameTicket copy.  Guarded by its own mutex so ticket polling never
/// contends with the runtime lock.
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  /// Published state: what wait()/try_get()/take() observe.  Stays
  /// kPending until the registered callbacks have RETURNED, so a waiter
  /// can never move the result out (take) while a callback still reads it.
  TicketStatus status = TicketStatus::kPending;
  /// Decided outcome, set when completion begins (callbacks may still be
  /// running).  != kPending means late on_complete registrations fire
  /// immediately instead of queueing (the queue was already drained).
  TicketStatus final_status = TicketStatus::kPending;
  FrameResult result;
  std::string error;
  std::vector<std::function<void(TicketStatus, const FrameResult*)>>
      callbacks;
  /// take() consumed the result: late callbacks observe nullptr instead of
  /// the moved-from shell.
  bool taken = false;
  /// Callbacks registered after completion, currently running unlocked
  /// with a pointer into `result`; take() waits for them to finish so the
  /// move can never race a reader.
  int late_readers = 0;
  std::uint64_t seq = 0;
  std::size_t cell_id = 0;
};

namespace {

/// Transitions a ticket to its terminal state: stores the outcome, fires
/// the registered callbacks (outside the ticket lock), and only THEN
/// publishes the status and wakes waiters — callbacks read the result in
/// place, so nothing may be able to take() it concurrently.
void complete_ticket(TicketState& st, TicketStatus status,
                     FrameResult&& result, std::string&& error) {
  std::vector<std::function<void(TicketStatus, const FrameResult*)>> cbs;
  {
    std::lock_guard lock(st.mu);
    parallel::guard_detail::note_lock();
    st.final_status = status;
    st.result = std::move(result);
    st.error = std::move(error);
    cbs.swap(st.callbacks);
  }
  const FrameResult* r =
      status == TicketStatus::kDone ? &st.result : nullptr;
  for (auto& cb : cbs) {
    // Callbacks must not throw.  One that does must not be allowed to
    // derail the completion protocol (status unpublished -> waiters hang,
    // exception escaping a dispatcher -> std::terminate), so it is
    // swallowed here.
    try {
      cb(status, r);
    } catch (...) {
    }
  }
  {
    std::lock_guard lock(st.mu);
    parallel::guard_detail::note_lock();
    st.status = status;
  }
  st.cv.notify_all();
}

}  // namespace

FrameTicket::FrameTicket(std::shared_ptr<TicketState> st)
    : st_(std::move(st)) {}

FrameTicket::~FrameTicket() = default;

TicketStatus FrameTicket::status() const {
  std::lock_guard lock(st_->mu);
  parallel::guard_detail::note_lock();
  return st_->status;
}

TicketStatus FrameTicket::wait() const {
  std::unique_lock lock(st_->mu);
  parallel::guard_detail::note_lock();
  st_->cv.wait(lock, [&] { return st_->status != TicketStatus::kPending; });
  return st_->status;
}

TicketStatus FrameTicket::wait_for(
    std::chrono::steady_clock::duration timeout) const {
  std::unique_lock lock(st_->mu);
  parallel::guard_detail::note_lock();
  st_->cv.wait_for(lock, timeout,
                   [&] { return st_->status != TicketStatus::kPending; });
  return st_->status;  // kPending iff the wait timed out
}

const FrameResult* FrameTicket::try_get() const {
  std::lock_guard lock(st_->mu);
  parallel::guard_detail::note_lock();
  // A taken result is gone: expose "no result", never the moved-from shell.
  return st_->status == TicketStatus::kDone && !st_->taken ? &st_->result
                                                           : nullptr;
}

FrameResult FrameTicket::take() {
  std::unique_lock lock(st_->mu);
  parallel::guard_detail::note_lock();
  if (st_->status != TicketStatus::kDone) {
    throw std::logic_error(std::string("FrameTicket::take: status is ") +
                           to_string(st_->status));
  }
  if (st_->taken) {
    throw std::logic_error("FrameTicket::take: result already taken");
  }
  // A late-registered callback may be reading the result unlocked right
  // now; moving it out from under the read would be a data race.
  st_->cv.wait(lock, [&] { return st_->late_readers == 0; });
  if (st_->taken) {  // a concurrent take() won the race while we waited
    throw std::logic_error("FrameTicket::take: result already taken");
  }
  st_->taken = true;
  return std::move(st_->result);
}

std::string FrameTicket::error() const {
  std::lock_guard lock(st_->mu);
  parallel::guard_detail::note_lock();
  return st_->error;
}

void FrameTicket::on_complete(
    std::function<void(TicketStatus, const FrameResult*)> fn) {
  TicketStatus now;
  const FrameResult* r = nullptr;
  {
    std::lock_guard lock(st_->mu);
    parallel::guard_detail::note_lock();
    // final_status (not status): once completion began the callback list
    // was drained, so queueing here would silently lose the callback.
    if (st_->final_status == TicketStatus::kPending) {
      st_->callbacks.push_back(std::move(fn));
      return;
    }
    now = st_->final_status;
    // Late fire: pin the result against take() while the callback reads it
    // (a result already taken is gone — the callback gets nullptr).
    if (now == TicketStatus::kDone && !st_->taken) {
      r = &st_->result;
      ++st_->late_readers;
    }
  }
  if (r == nullptr) {
    fn(now, r);  // nothing pinned; a throw is the caller's own problem
    return;
  }
  try {
    fn(now, r);
  } catch (...) {
    release_late_reader();
    throw;  // rethrown on the registering thread with the pin released
  }
  release_late_reader();
}

void FrameTicket::release_late_reader() {
  {
    std::lock_guard lock(st_->mu);
    parallel::guard_detail::note_lock();
    --st_->late_readers;
  }
  st_->cv.notify_all();
}

std::uint64_t FrameTicket::sequence() const { return st_->seq; }
std::size_t FrameTicket::cell_id() const { return st_->cell_id; }

// ----------------------------------------------------------------- Runtime

Runtime::Runtime(const RuntimeConfig& cfg)
    : cfg_(cfg),
      pool_(cfg.threads > 0 ? cfg.threads : parallel::default_thread_count()) {
  if (cfg_.queue_capacity == 0) {
    throw std::invalid_argument("Runtime: queue_capacity must be >= 1");
  }
  if (cfg_.shards == 0) {
    throw std::invalid_argument("Runtime: shards must be >= 1");
  }
  if (cfg_.shards > 1) fabric_ = std::make_unique<shard::Fabric>(cfg_);
  dispatchers_.reserve(cfg_.dispatchers);
  for (std::size_t d = 0; d < cfg_.dispatchers; ++d) {
    dispatchers_.emplace_back([this, d] {
      char track[32];
      std::snprintf(track, sizeof(track), "dispatcher%zu", d);
      obs::set_thread_track(track);
      dispatcher_loop();
    });
  }
}

Runtime::~Runtime() {
  {
    std::lock_guard lock(mu_);
    parallel::guard_detail::note_lock();
    shutdown_ = true;
  }
  runnable_cv_.notify_all();
  space_cv_.notify_all();  // blocked submitters throw on wake
  if (dispatchers_.empty()) {
    while (run_one()) {  // poll mode: pump the remaining frames here
    }
  }
  for (auto& t : dispatchers_) t.join();
}

Cell& Runtime::open_cell(const CellConfig& cfg) {
  std::lock_guard lock(mu_);
  parallel::guard_detail::note_lock();
  cells_.emplace_back(new Cell(cells_.size(), cfg, &pool_));
  return *cells_.back();
}

FrameTicket Runtime::submit(Cell& cell, const FrameJob& job,
                            std::uint64_t deadline_us) {
  // Shape checks always; the per-entry non-finite scan only when the
  // admission knob asks for it (see RuntimeConfig::admission_scan) —
  // detect_frame re-runs the full check on the dispatch path either way,
  // quarantining instead of throwing.
  validate_frame_job(job, cfg_.admission_scan ? FrameCheck::kFull
                                              : FrameCheck::kShape);
  Cell::Pending pf;
  pf.job = job;
  // Decide the frame's trace identity exactly once (unless the caller
  // stamped it), before the shard stage, so every cluster's span and the
  // dispatch-side stages agree on the frame id and the sampling verdict.
  if (!pf.job.trace.decided) {
    pf.job.trace = obs::begin_frame(static_cast<std::uint32_t>(cell.id_));
  }
  const obs::TraceCtx trace = pf.job.trace;
  shard::Fabric::Result sharded;
  if (fabric_ != nullptr && fabric_->clusters(job) > 1) {
    sharded = fabric_->run(job, trace);
    pf.job.channels = std::span<const linalg::CMat>(sharded.merged->channels);
    pf.job.ys = std::span<const linalg::CVec>(sharded.merged->zs);
    if (deadline_us > 0) {
      const auto spent = static_cast<std::uint64_t>(sharded.stage_us);
      deadline_us = deadline_us > spent + 1 ? deadline_us - spent : 1;
    }
  }
  const std::uint64_t sub_t0_ns = obs::tracing_enabled() ? obs::now_ns() : 0;
  auto st = std::make_shared<TicketState>();
  st->cell_id = cell.id_;

  std::unique_lock lock(mu_);
  parallel::guard_detail::note_lock();
  if (sharded.merged != nullptr) {
    stage_record(obs::Stage::kShardPartialQr, sharded.stage_us);
    shard_retries_ += sharded.retries;
    if (sharded.bypassed) ++shard_bypasses_;
  }
  while (true) {
    if (shutdown_) {
      throw std::logic_error("Runtime::submit: runtime is shutting down");
    }
    if (queued_total_ < cfg_.queue_capacity) break;
    switch (cfg_.policy) {
      case QueuePolicy::kDropNewest: {
        st->seq = cell.next_seq_++;
        ++cell.frames_in_;
        ++cell.frames_dropped_;
        cell.note_outcome(Cell::Outcome::kShed);
        lock.unlock();
        FrameTicket ticket(st);
        complete_ticket(*st, TicketStatus::kDropped, FrameResult{}, "");
        return ticket;
      }
      case QueuePolicy::kDeadlineExpire: {
        if (expire_stale(lock)) continue;  // re-check capacity
        // Nothing stale yet: sleep until the earliest queued deadline (or
        // a slot frees), then loop — expire_stale will catch whatever went
        // stale in the meantime.  An untimed wait here would never expire
        // anything in poll mode (nobody else wakes this thread).
        const auto wake = earliest_deadline_locked();
        const auto have_space = [&] {
          return shutdown_ || queued_total_ < cfg_.queue_capacity;
        };
        if (wake == Clock::time_point::max()) {
          space_cv_.wait(lock, have_space);
        } else {
          space_cv_.wait_until(lock, wake, have_space);
        }
        continue;
      }
      case QueuePolicy::kBlock:
        space_cv_.wait(lock, [&] {
          return shutdown_ || queued_total_ < cfg_.queue_capacity;
        });
        break;
    }
  }

  // Sequence numbers are assigned at ENQUEUE time, so per-cell queue order,
  // sequence order and completion order all coincide.
  st->seq = cell.next_seq_++;
  ++cell.frames_in_;
  pf.merged = std::move(sharded.merged);
  pf.ticket = st;
  pf.submitted = Clock::now();
  pf.deadline = deadline_us > 0
                    ? pf.submitted + std::chrono::microseconds(deadline_us)
                    : Clock::time_point::max();
  cell.queue_.push_back(std::move(pf));
  ++queued_total_;
  if (!cell.scheduled_) {
    cell.scheduled_ = true;
    runnable_.push_back(&cell);
    runnable_cv_.notify_one();
  }
  if (obs::want_span(trace) && sub_t0_ns != 0) {
    // Admission span: end of the shard stage (submit() entry when none
    // ran) to enqueue — the blocking wait under backpressure is exactly
    // this span's duration.
    obs::record_span(obs::Stage::kSubmit, sub_t0_ns, obs::now_ns(), trace);
  }
  return FrameTicket(std::move(st));
}

FrameTicket Runtime::reconfigure(Cell& cell, const CellReconfig& rc) {
  if (rc.detector.empty()) {
    throw std::invalid_argument("Runtime::reconfigure: empty detector spec");
  }
  // Resolve the effective tuning at CALL time (cfg_.tuning is
  // runtime-guarded state), so a queued earlier tuning change can never
  // alter what this call validated.
  DetectorConfig tuning;
  {
    std::lock_guard lock(mu_);
    parallel::guard_detail::note_lock();
    if (shutdown_) {
      throw std::logic_error("Runtime::reconfigure: runtime is shutting down");
    }
    tuning = rc.tuning ? *rc.tuning : cell.cfg_.tuning;
  }
  // Build the swap's detector HERE, outside the lock: construction is the
  // validation (a typo throws at the call site), the apply step merely
  // adopts the finished object, and dispatchers never stall behind a
  // control-plane build.
  DetectorConfig dcfg = tuning;
  dcfg.constellation = &cell.constellation();
  std::unique_ptr<detect::Detector> prebuilt = make_detector(rc.detector, dcfg);

  auto st = std::make_shared<TicketState>();
  st->cell_id = cell.id_;

  std::unique_lock lock(mu_);
  parallel::guard_detail::note_lock();
  if (shutdown_) {
    throw std::logic_error("Runtime::reconfigure: runtime is shutting down");
  }
  // FIFO slot: same sequence counter as frames, so ordering is provable
  // from tickets alone.  No capacity check — control messages must get
  // through exactly when the data plane is saturated.
  st->seq = cell.next_seq_++;
  Cell::Pending pf;
  pf.reconfig = CellReconfig{rc.detector, tuning};
  pf.prebuilt = std::move(prebuilt);
  pf.ticket = st;
  pf.submitted = Clock::now();
  pf.deadline = Clock::time_point::max();
  cell.queue_.push_back(std::move(pf));
  ++cell.queued_reconfigs_;
  ++queued_reconfigs_;
  if (!cell.scheduled_) {
    cell.scheduled_ = true;
    runnable_.push_back(&cell);
    runnable_cv_.notify_one();
  }
  return FrameTicket(std::move(st));
}

Clock::time_point Runtime::earliest_deadline_locked() const {
  auto earliest = Clock::time_point::max();
  for (const auto& cell : cells_) {
    for (const auto& pf : cell->queue_) {
      if (pf.deadline < earliest) earliest = pf.deadline;
    }
  }
  return earliest;
}

bool Runtime::expire_stale(std::unique_lock<std::mutex>& lock) {
  const auto now = Clock::now();
  std::vector<std::shared_ptr<TicketState>> expired;
  for (auto& cell : cells_) {
    auto& q = cell->queue_;
    for (auto it = q.begin(); it != q.end();) {
      if (it->deadline < now) {
        expired.push_back(std::move(it->ticket));
        it = q.erase(it);
        --queued_total_;
        ++cell->frames_expired_;
        cell->note_outcome(Cell::Outcome::kShed);
      } else {
        ++it;
      }
    }
    if (q.empty() && cell->scheduled_ && !cell->busy_) {
      runnable_.erase(
          std::remove(runnable_.begin(), runnable_.end(), cell.get()),
          runnable_.end());
      cell->scheduled_ = false;
    }
  }
  if (expired.empty()) return false;
  space_cv_.notify_all();
  drain_cv_.notify_all();
  lock.unlock();
  for (auto& st : expired) {
    complete_ticket(*st, TicketStatus::kExpired, FrameResult{}, "");
  }
  lock.lock();
  parallel::guard_detail::note_lock();  // re-acquired after unlocked section
  return true;
}

void Runtime::process_next(std::unique_lock<std::mutex>& lock) {
  Cell* cell = runnable_.front();
  runnable_.pop_front();
  cell->busy_ = true;  // scheduled_ stays true while busy
  Cell::Pending pf = std::move(cell->queue_.front());
  cell->queue_.pop_front();
  if (pf.reconfig) {
    apply_reconfig(lock, cell, pf);
    return;
  }
  --queued_total_;
  ++in_flight_;
  space_cv_.notify_one();
  // The cell's coherence policy ORs with the job's own flag; only valid
  // once a first frame warmed the per-subcarrier preprocessing caches.
  const bool reuse = pf.job.reuse_preprocessing ||
                     (cell->cfg_.reuse_preprocessing && cell->warm_);
  const auto dispatch_start = Clock::now();
  lock.unlock();

  TicketStatus status;
  FrameResult result;
  std::string error;
  // Stage timings of this frame, captured before the result is moved into
  // the ticket; recorded into the per-stage histograms under the re-taken
  // lock below (kDone only).
  double pre_us = 0.0, grid_us = 0.0, rec_us = 0.0;
  if (cfg_.policy == QueuePolicy::kDeadlineExpire &&
      Clock::now() > pf.deadline) {
    status = TicketStatus::kExpired;  // never occupies the PE pool
  } else {
    FrameJob job = pf.job;
    job.reuse_preprocessing = reuse;
    try {
      result = cell->pipe_.detect_frame(job);
      status = TicketStatus::kDone;
      pre_us = result.preprocess_seconds * 1e6;
      grid_us = result.detect_seconds * 1e6;
      rec_us = result.reconstruct_seconds * 1e6;
    } catch (const NonFiniteError& e) {
      // Corrupt payload/channel caught by the pipeline's full scan: an
      // input fault, not a detection failure — quarantine the frame so
      // callers can tell "your data was bad" from "detection broke".
      status = TicketStatus::kQuarantined;
      error = e.what();
    } catch (const NumericError& e) {
      // Finite but numerically unusable channel (rank-deficient QR): the
      // pipeline already invalidated its preprocessing caches.
      status = TicketStatus::kQuarantined;
      error = e.what();
    } catch (const std::exception& e) {
      status = TicketStatus::kFailed;
      error = e.what();
    }
  }
  const auto done = Clock::now();
  // Detection no longer reads the job: the shard buffers go back to the
  // fabric before the ticket wakes anyone who may submit the next frame.
  pf.merged.reset();
  const double latency_us =
      std::chrono::duration<double, std::micro>(done - pf.submitted).count();
  const double queue_wait_us =
      std::chrono::duration<double, std::micro>(dispatch_start - pf.submitted)
          .count();
  if (obs::want_span(pf.job.trace) && status == TicketStatus::kDone) {
    obs::record_span(obs::Stage::kQueueWait, obs::to_ns(pf.submitted),
                     obs::to_ns(dispatch_start), pf.job.trace);
    obs::record_span(obs::Stage::kComplete, obs::to_ns(pf.submitted),
                     obs::to_ns(done), pf.job.trace);
  }

  // Ticket first (callbacks run without any lock), bookkeeping second.
  // The cell is NOT released until the callbacks return: that is what
  // makes per-dispatch callback order strictly FIFO per cell — the cell's
  // next frame cannot complete (or even start) while this frame's
  // callbacks run.
  complete_ticket(*pf.ticket, status, std::move(result), std::move(error));

  // One critical section for outcome counters AND the in-flight/busy
  // release, so stats() never observes a frame double-counted as both
  // completed and in flight (an observer woken by the ticket may briefly
  // still see it as in flight — the consistent direction).
  lock.lock();
  parallel::guard_detail::note_lock();  // re-acquired after unlocked section
  switch (status) {
    case TicketStatus::kDone:
      ++cell->frames_out_;
      cell->warm_ = true;
      // Per-stage breakdown, one sample per stage per kDone frame (reuse
      // hits record a 0 us preprocess sample), so every dispatch-side
      // stage count equals latency_count (the kComplete count).
      stage_record(obs::Stage::kQueueWait, queue_wait_us);
      stage_record(obs::Stage::kPreprocess, pre_us);
      stage_record(obs::Stage::kPathGrid, grid_us);
      stage_record(obs::Stage::kReconstruct, rec_us);
      stage_record(obs::Stage::kComplete, latency_us);
      cell->note_outcome(Cell::Outcome::kOk);
      break;
    case TicketStatus::kExpired:
      ++cell->frames_expired_;
      cell->note_outcome(Cell::Outcome::kShed);
      break;
    case TicketStatus::kFailed:
      ++cell->frames_failed_;
      // Whatever threw may have left the frame detectors' per-channel
      // state partially updated: force the next frame to re-preprocess.
      cell->warm_ = false;
      cell->note_outcome(Cell::Outcome::kBad);
      break;
    case TicketStatus::kQuarantined:
      ++cell->frames_quarantined_;
      // The pipeline invalidated its preprocessing caches; drop the
      // cell-level warmup too so coherence reuse restarts cleanly.
      cell->warm_ = false;
      cell->note_outcome(Cell::Outcome::kBad);
      break;
    default: break;
  }
  --in_flight_;
  release_cell_locked(cell);
}

void Runtime::apply_reconfig(std::unique_lock<std::mutex>& lock, Cell* cell,
                             Cell::Pending& pf) {
  --cell->queued_reconfigs_;
  --queued_reconfigs_;
  ++in_flight_reconfigs_;
  cell->busy_reconfig_ = true;
  const CellReconfig rc = std::move(*pf.reconfig);
  std::unique_ptr<detect::Detector> prebuilt = std::move(pf.prebuilt);
  // The swap runs unlocked — the cell is serialized by busy_, so the
  // pipeline is exclusively ours, and other cells keep dispatching.  The
  // detector was built (and thereby validated) at reconfigure() time with
  // the tuning carried in the entry; adoption cannot fail.
  lock.unlock();

  TicketStatus status = TicketStatus::kDone;
  std::string error;
  try {
    cell->pipe_.adopt_detector(std::move(prebuilt), rc.detector, *rc.tuning);
  } catch (const std::exception& e) {
    status = TicketStatus::kFailed;  // defensive; adoption does not throw
    error = e.what();
  }
  // Same FIFO-callback contract as frames: the cell is not released (so
  // its next frame cannot start) until the ticket's callbacks returned.
  complete_ticket(*pf.ticket, status, FrameResult{}, std::move(error));

  lock.lock();
  parallel::guard_detail::note_lock();  // re-acquired after unlocked section
  if (status == TicketStatus::kDone) {
    cell->cfg_.detector = rc.detector;
    if (rc.tuning) cell->cfg_.tuning = *rc.tuning;
    // The swapped detector has no preprocessing caches: the next frame
    // re-preprocesses even under the cell's coherence policy.
    cell->warm_ = false;
    ++cell->reconfigs_;
  }
  cell->busy_reconfig_ = false;
  --in_flight_reconfigs_;
  release_cell_locked(cell);
}

void Runtime::release_cell_locked(Cell* cell) {
  cell->busy_ = false;
  if (!cell->queue_.empty()) {
    runnable_.push_back(cell);  // round-robin across cells
    runnable_cv_.notify_one();
  } else {
    cell->scheduled_ = false;
  }
  drain_cv_.notify_all();
}

bool Runtime::run_one() {
  std::unique_lock lock(mu_);
  parallel::guard_detail::note_lock();
  if (runnable_.empty()) return false;
  process_next(lock);
  return true;
}

void Runtime::dispatcher_loop() {
  std::unique_lock lock(mu_);
  parallel::guard_detail::note_lock();
  for (;;) {
    runnable_cv_.wait(lock,
                      [&] { return shutdown_ || !runnable_.empty(); });
    if (!runnable_.empty()) {
      process_next(lock);
      continue;  // drain everything before honouring shutdown
    }
    if (shutdown_) return;
  }
}

void Runtime::drain() {
  const auto idle = [&] {
    return queued_total_ == 0 && queued_reconfigs_ == 0 &&
           in_flight_ == 0 && in_flight_reconfigs_ == 0;
  };
  if (cfg_.dispatchers == 0) {
    // Poll mode: pump the queue on this thread; if another thread is
    // mid-frame, wait for its completion notification and re-check.
    for (;;) {
      while (run_one()) {
      }
      std::unique_lock lock(mu_);
      parallel::guard_detail::note_lock();
      if (idle()) return;
      drain_cv_.wait(lock);
    }
  }
  std::unique_lock lock(mu_);
  parallel::guard_detail::note_lock();
  drain_cv_.wait(lock, idle);
}

RuntimeStats Runtime::stats() const {
  RuntimeStats out;
  if (fabric_ != nullptr) out.shards = fabric_->shard_stats();
  std::lock_guard lock(mu_);
  parallel::guard_detail::note_lock();
  out.cells.reserve(cells_.size());
  for (const auto& cell : cells_) {
    CellStats cs;
    cs.cell_id = cell->id_;
    cs.name = cell->cfg_.name;
    cs.detector = cell->cfg_.detector;
    cs.frames_in = cell->frames_in_;
    cs.frames_out = cell->frames_out_;
    cs.frames_dropped = cell->frames_dropped_;
    cs.frames_expired = cell->frames_expired_;
    cs.frames_failed = cell->frames_failed_;
    cs.frames_quarantined = cell->frames_quarantined_;
    cs.health = cell->health_;
    cs.health_transitions = cell->health_transitions_;
    cs.reconfigs = cell->reconfigs_;
    // Control messages are not frames: queue_depth/in_flight stay
    // frame-only so the stats invariant holds across reconfigurations.
    cs.queue_depth = cell->queue_.size() - cell->queued_reconfigs_;
    cs.in_flight = (cell->busy_ && !cell->busy_reconfig_) ? 1 : 0;
    out.frames_in += cs.frames_in;
    out.frames_out += cs.frames_out;
    out.frames_dropped += cs.frames_dropped;
    out.frames_expired += cs.frames_expired;
    out.frames_failed += cs.frames_failed;
    out.frames_quarantined += cs.frames_quarantined;
    out.reconfigs += cs.reconfigs;
    out.cells.push_back(std::move(cs));
  }
  out.queue_depth = queued_total_;
  out.in_flight = in_flight_;
  out.shard_retries = shard_retries_;
  out.shard_bypasses = shard_bypasses_;
  const LatencyHistogram& done = stage_latency_[static_cast<std::size_t>(
      obs::Stage::kComplete)];
  out.latency_count = done.count();
  out.latency_mean_us = done.mean_us();
  out.latency_p50_us = done.quantile_interp_us(0.50);
  out.latency_p99_us = done.quantile_interp_us(0.99);
  out.stage_latency = stage_latency_;
  return out;
}

}  // namespace flexcore::api
