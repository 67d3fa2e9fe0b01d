#include "shard/fabric.h"

#include "parallel/hot_path_guard.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

namespace flexcore::shard {

using Clock = std::chrono::steady_clock;

/// Work order one run() posts to every shard driver.  Heap-allocated and
/// co-owned by the mailboxes and the submitting thread, so a fan-out the
/// submitter CANCELS (stall budget exceeded -> bypass) stays valid for a
/// driver that only gets to it later.  `job` and `merged` are read only by
/// drivers that claimed the frame before the cancellation.
struct Fabric::PrepJob {
  const api::FrameJob* job = nullptr;  ///< the caller's job (borrowed)
  MergedFrame* merged = nullptr;
  obs::TraceCtx trace;  ///< decided by submit(); shard drivers record with it
  std::vector<RowRange> plan;
  std::vector<std::size_t> row_offsets;  ///< merged-row start per cluster
  std::size_t nt = 0;
  std::size_t nv = 0;       ///< vectors per channel
  std::size_t nsc = 0;      ///< subcarriers
  std::uint64_t frame = 0;  ///< sharded-path sequence, fed to the probe

  /// Drivers between their claim and their finish (see shard_loop).  On
  /// its own cache line: each driver bumps it while the others compute.
  alignas(64) std::atomic<std::size_t> running{0};
  /// The submitter timed out and went merged-monolithic: a driver that has
  /// not claimed the frame yet skips it (the caller's job may be gone).
  std::atomic<bool> canceled{false};

  std::mutex mu;
  std::condition_variable cv;
  // Behind `mu`:
  std::size_t remaining = 0;  ///< shards that have not finished this frame
  /// Some shard faulted (injected or numeric) — the merged content is
  /// invalid; run() retries once, then bypasses.
  bool failed = false;
};

struct Fabric::Shard {
  Shard(std::size_t id_in, std::size_t threads)
      : id(id_in), pool(threads), worker_partials(pool.size()) {}

  const std::size_t id;
  parallel::ThreadPool pool;
  /// One warm partial per pool worker: run_prep's tasks factorize into
  /// these, so the stage allocates nothing per subcarrier.
  std::vector<PartialQr> worker_partials;

  std::mutex mu;
  std::condition_variable cv;
  /// Frames waiting for this shard, FIFO (shared: see PrepJob ownership).
  std::deque<std::shared_ptr<PrepJob>> mailbox;
  bool shutdown = false;

  // Counters behind `mu` (surfaced as api::ShardStats).
  std::uint64_t frames = 0;
  std::uint64_t partials = 0;
  std::uint64_t rows_processed = 0;
  std::uint64_t faults = 0;  ///< attempts this shard failed (injected+numeric)
  double busy_seconds = 0.0;

  std::thread thread;  ///< started by Fabric after construction
};

Fabric::Fabric(const api::RuntimeConfig& cfg)
    : stall_budget_us_(cfg.shard_stall_budget_us),
      fault_probe_(cfg.shard_fault_probe) {
  const std::size_t hw = parallel::default_thread_count();
  const std::size_t threads_per_shard =
      cfg.threads_per_shard > 0 ? cfg.threads_per_shard
                                : std::max<std::size_t>(1, hw / cfg.shards);

  shards_.reserve(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    shards_.emplace_back(std::make_unique<Shard>(s, threads_per_shard));
  }
  // Spawn the drivers only after every Shard exists: a throw above must
  // not leave joinable threads behind.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->thread = std::thread([this, s] { shard_loop(s); });
  }
}

Fabric::~Fabric() {
  // Submits have stopped (the owning Runtime drained), so the only
  // possible mailbox leftovers are CANCELED jobs from stalled fan-outs —
  // the drivers drain those (cheap skips) before honouring shutdown.
  for (auto& sh : shards_) {
    {
      std::lock_guard lock(sh->mu);
      parallel::guard_detail::note_lock();
      sh->shutdown = true;
    }
    sh->cv.notify_all();
  }
  for (auto& sh : shards_) sh->thread.join();
}

std::size_t Fabric::clusters(const api::FrameJob& job) const noexcept {
  if (job.channels.empty()) return 0;
  return std::min(shards_.size(), job.channels.front().rows());
}

std::shared_ptr<MergedFrame> Fabric::acquire_merged(std::size_t nsc,
                                                    std::size_t k,
                                                    std::size_t nt,
                                                    std::size_t n_vectors) {
  std::unique_ptr<MergedFrame> m;
  {
    std::lock_guard lock(freelist_mu_);
    parallel::guard_detail::note_lock();
    if (!freelist_.empty()) {
      m = std::move(freelist_.back());
      freelist_.pop_back();
    }
  }
  if (!m) m = std::make_unique<MergedFrame>();
  // Reshape only where needed; every retained entry is fully overwritten
  // by the shard stage (all K rows of every channel, all K entries of
  // every z), so no zeroing.
  m->channels.resize(nsc);
  for (auto& ch : m->channels) {
    if (ch.rows() != k || ch.cols() != nt) ch = linalg::CMat(k, nt);
  }
  m->zs.resize(n_vectors);
  for (auto& z : m->zs) z.resize(k);
  // The last owner returns the buffers to the freelist, not the heap.
  return std::shared_ptr<MergedFrame>(m.release(), [this](MergedFrame* p) {
    std::lock_guard lock(freelist_mu_);
    parallel::guard_detail::note_lock();
    freelist_.emplace_back(p);
  });
}

bool Fabric::run_prep(std::size_t shard_id, const PrepJob& pj) {
  Shard& sh = *shards_[shard_id];
  const RowRange range = pj.plan[shard_id];
  const std::size_t k_c = compressed_rows(range, pj.nt);
  const std::size_t row_off = pj.row_offsets[shard_id];
  const std::size_t nt = pj.nt;
  const std::size_t nv = pj.nv;
  std::atomic<bool> bad{false};
  // One task per subcarrier on THIS shard's pool: the partial QR of this
  // cluster's antenna rows into the worker's own PartialQr, its block
  // copied into the merged stack, and the cluster's slice of every
  // received vector rotated.
  sh.pool.parallel_for_worker(pj.nsc, [&](std::size_t w, std::size_t f) {
    try {
      const linalg::CMat& h = pj.job->channels[f];
      PartialQr& partial = sh.worker_partials[w];
      compute_partial_into(h.row_range(range.begin, range.count), &partial);
      linalg::CMat& merged_h = pj.merged->channels[f];
      std::memcpy(merged_h.data() + row_off * nt, partial.r.data(),
                  k_c * nt * sizeof(linalg::cplx));
      for (std::size_t t = 0; t < nv; ++t) {
        const linalg::CVec& y = pj.job->ys[f * nv + t];
        linalg::CVec& z = pj.merged->zs[f * nv + t];
        rotate_partial(partial,
                       std::span<const linalg::cplx>(y.data() + range.begin,
                                                     range.count),
                       std::span<linalg::cplx>(z.data() + row_off, k_c));
      }
    } catch (const std::exception&) {
      // Exceptions must never cross the pool boundary (worker_loop has no
      // handler — std::terminate on a spawned worker): a partial QR that
      // cannot factorize this cluster's rows (non-finite entries) fails
      // the shard's whole attempt instead, and run()'s retry-then-bypass
      // ladder takes it from there.
      bad.store(true, std::memory_order_relaxed);
    }
  });
  return !bad.load(std::memory_order_relaxed);
}

void Fabric::shard_loop(std::size_t shard_id) {
  Shard& sh = *shards_[shard_id];
  {
    char track[32];
    std::snprintf(track, sizeof(track), "shard%zu", shard_id);
    obs::set_thread_track(track);
  }
  std::unique_lock lock(sh.mu);
  parallel::guard_detail::note_lock();
  for (;;) {
    sh.cv.wait(lock, [&] { return sh.shutdown || !sh.mailbox.empty(); });
    if (sh.mailbox.empty()) return;  // shutdown with everything drained
    std::shared_ptr<PrepJob> pj = std::move(sh.mailbox.front());
    sh.mailbox.pop_front();
    lock.unlock();

    // Chaos hook: an injected verdict may stall this driver and/or fail
    // the attempt outright, skipping the math — run()'s retry-then-bypass
    // ladder handles both.
    api::ShardFaultAction act;
    if (fault_probe_) act = fault_probe_(shard_id, pj->frame);
    if (act.stall_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(act.stall_us));
    }

    // Claim the frame before the first read of the caller's job.  The
    // claim and the cancel flag pair up (both sequentially consistent): a
    // submitter that cancels either sees this claim and waits for it, or
    // this driver sees the cancellation and never reads the job.
    pj->running.fetch_add(1);
    const bool claimed = !pj->canceled.load();
    const auto t0 = Clock::now();
    const bool faulted = claimed && (act.fail || !run_prep(shard_id, *pj));
    const auto t1 = Clock::now();
    if (claimed && !faulted && obs::want_span(pj->trace)) {
      // One span per cluster on the shard's own track; aux = cluster id.
      obs::record_span(obs::Stage::kShardPartialQr, obs::to_ns(t0),
                       obs::to_ns(t1), pj->trace,
                       static_cast<std::uint32_t>(shard_id));
    }
    const double secs =
        claimed ? std::chrono::duration<double>(t1 - t0).count() : 0.0;
    {
      // Notify UNDER the job lock: the moment the submitter observes its
      // predicate it may move on (retry or bypass), so the cv must not be
      // touched after this block releases the mutex.
      std::lock_guard jlock(pj->mu);
      parallel::guard_detail::note_lock();
      pj->running.fetch_sub(1);
      if (faulted) pj->failed = true;
      --pj->remaining;
      pj->cv.notify_all();
    }
    pj.reset();  // drop co-ownership before blocking on the mailbox again

    lock.lock();
    parallel::guard_detail::note_lock();  // re-acquired after unlocked section
    sh.busy_seconds += secs;
    if (faulted) ++sh.faults;
  }
}

Fabric::Result Fabric::run(const api::FrameJob& job,
                           const obs::TraceCtx& trace) {
  const auto t0 = Clock::now();
  const std::size_t nsc = job.channels.size();
  const std::size_t b = job.channels.front().rows();
  const std::size_t nt = job.channels.front().cols();
  const std::size_t effective = clusters(job);
  const std::uint64_t frame =
      frame_seq_.fetch_add(1, std::memory_order_relaxed);

  const std::vector<RowRange> plan = plan_shards(b, effective);
  std::vector<std::size_t> row_offsets(plan.size());
  std::size_t k = 0;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    row_offsets[s] = k;
    k += compressed_rows(plan[s], nt);
  }

  Result out;
  std::shared_ptr<MergedFrame> merged =
      acquire_merged(nsc, k, nt, job.ys.size());

  // Up to two fan-outs (first attempt + one retry after a shard fault),
  // then graceful degradation to a merged-monolithic bypass — the ticket
  // NEVER hangs on a dead or stalled cluster.
  bool prepped = false;
  bool stalled = false;
  for (int attempt = 0; attempt < 2 && !prepped && !stalled; ++attempt) {
    auto pj = std::make_shared<PrepJob>();
    pj->job = &job;
    pj->merged = merged.get();
    pj->trace = trace;
    pj->plan = plan;
    pj->row_offsets = row_offsets;
    pj->nt = nt;
    pj->nv = job.vectors_per_channel;
    pj->nsc = nsc;
    pj->frame = frame;
    pj->remaining = plan.size();

    // Fan the frame out to its clusters' mailboxes, then wait for all of
    // them — the only barrier in the system, and it is per-frame: two
    // threads submitting different frames interleave freely on the fabric.
    for (std::size_t s = 0; s < plan.size(); ++s) {
      Shard& sh = *shards_[s];
      {
        std::lock_guard lock(sh.mu);
        parallel::guard_detail::note_lock();
        sh.mailbox.push_back(pj);
        // Counters at enqueue time (busy_seconds follows when the work
        // runs): deterministic for stats() calls after submit returned.
        ++sh.frames;
        sh.partials += nsc;
        sh.rows_processed += static_cast<std::uint64_t>(plan[s].count) * nsc;
      }
      sh.cv.notify_one();
    }
    std::unique_lock lock(pj->mu);
    parallel::guard_detail::note_lock();
    if (stall_budget_us_ == 0) {
      pj->cv.wait(lock, [&] { return pj->remaining == 0; });
    } else if (!pj->cv.wait_for(
                   lock, std::chrono::microseconds(stall_budget_us_),
                   [&] { return pj->remaining == 0; })) {
      // A cluster blew the stall budget.  Cancel the fan-out — a driver
      // reaching it later skips it — and wait only for the drivers already
      // reading the job, whose compute is bounded.  Afterwards nothing
      // touches the caller's job or the merged buffer.
      pj->canceled.store(true);
      pj->cv.wait(lock, [&] { return pj->running.load() == 0; });
      stalled = true;
    }
    if (!stalled && !pj->failed) {
      prepped = true;
    } else if (!stalled && attempt == 0) {
      // Every cluster responded but at least one faulted: one full re-fan
      // overwrites every row, so a transient fault heals here without the
      // caller ever noticing.
      ++out.retries;
    }
  }

  if (!prepped) {
    // Retry exhausted or fan-out stalled: BYPASS the fabric for this
    // frame.  Rebuild the merged buffers as the raw B-antenna frame
    // (identity merge — channels and ys copied verbatim) and let the
    // runtime detect it monolithically; that is the K == B degenerate
    // merge, bit-identical to detection on the original job.  Degraded
    // throughput for this frame, but never a lost ticket.
    merged.reset();  // quiescent: back to the freelist, reshaped below
    merged = acquire_merged(nsc, b, nt, job.ys.size());
    for (std::size_t f = 0; f < nsc; ++f) {
      std::memcpy(merged->channels[f].data(), job.channels[f].data(),
                  b * nt * sizeof(linalg::cplx));
    }
    for (std::size_t i = 0; i < job.ys.size(); ++i) {
      merged->zs[i] = job.ys[i];
    }
    out.bypassed = true;
  }

  const auto merged_at = Clock::now();
  if (obs::want_span(trace)) {
    // Whole-stage span on the SUBMITTER's track (fan-out through merge
    // wait); the per-cluster spans it covers live on the shard tracks.
    obs::record_span(obs::Stage::kShardPartialQr, obs::to_ns(t0),
                     obs::to_ns(merged_at), trace,
                     static_cast<std::uint32_t>(effective));
  }
  out.stage_us =
      std::chrono::duration<double, std::micro>(merged_at - t0).count();
  out.merged = std::move(merged);
  return out;
}

std::vector<api::ShardStats> Fabric::shard_stats() const {
  std::vector<api::ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    api::ShardStats ss;
    ss.shard_id = sh->id;
    ss.threads = sh->pool.size();
    std::lock_guard lock(sh->mu);
    parallel::guard_detail::note_lock();
    ss.frames = sh->frames;
    ss.partials = sh->partials;
    ss.rows_processed = sh->rows_processed;
    ss.faults = sh->faults;
    ss.busy_seconds = sh->busy_seconds;
    out.push_back(ss);
  }
  return out;
}

}  // namespace flexcore::shard
