// Blocking thread pool used to emulate pools of processing elements.
//
// FlexCore's detection is "nearly embarrassingly parallel": each selected
// sphere-decoder path is an independent task.  On GPUs/FPGAs the paper maps
// one path to one processing element; on this CPU reproduction a ThreadPool
// plays the role of the PE pool, and the benchmarks measure how wall-clock
// scales with the number of paths exactly as the paper's Fig. 11 does.
//
// The pool supports the fork-join `parallel_for` pattern, and — new for the
// multi-cell runtime — MULTIPLE INDEPENDENT task grids in flight at once:
// each run_job call carries its own job-scoped claim/completion counters
// (no global barrier), so several external threads (e.g. api::Runtime
// dispatchers decoding different cells' frames) can each submit a grid and
// the workers interleave chunks from all of them.  Each submitter blocks
// only on ITS job's completion.  Dispatch is a raw function pointer +
// context invoked once per CHUNK of iterations — no std::function is
// constructed or copied anywhere on the hot path, and a steady-state
// run_job performs no heap allocation (job state lives on the submitter's
// stack; the active-job list reuses its capacity).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace flexcore::parallel {

/// Number of worker threads to use by default (>= 1).
std::size_t default_thread_count();

/// Fixed-size thread pool supporting concurrent fork-join jobs.
class ThreadPool {
 public:
  /// Creates `num_threads` workers, default_thread_count() for 0 (the
  /// caller participates: with num_threads == 1 no extra thread is spawned
  /// and parallel_for runs inline, which makes single-threaded baselines
  /// exact).  Workers keep the CPU affinity the process gave them.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return num_threads_; }

  /// Raw job shape: process iterations [begin, end) on behalf of `worker`.
  /// `worker` is a stable index in [0, size()); a submitting thread always
  /// participates in its own job as worker 0, spawned threads are
  /// 1..size()-1.  Within ONE job no two concurrent chunks share a worker
  /// index; chunks of DIFFERENT concurrent jobs may (two submitters are
  /// each worker 0 of their own job), so per-worker scratch must not be
  /// shared across jobs that can overlap.
  using RawJob = void (*)(void* ctx, std::size_t worker, std::size_t begin,
                          std::size_t end);

  /// Core dispatch: chunks [0, n) dynamically across the workers and blocks
  /// until every iteration of THIS job finished.  One indirect call per
  /// chunk.  May be called from multiple threads concurrently — each call
  /// is an independent job and only waits for itself.  Must not be called
  /// re-entrantly from inside a job body.  A chunk of 0 picks a heuristic
  /// (~8 chunks per worker); with one thread the whole range runs inline as
  /// a single chunk on worker 0.
  void run_job(RawJob job, void* ctx, std::size_t n, std::size_t chunk);

  /// Runs fn(i) for every i in [0, n); blocks until all iterations finish.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn, std::size_t chunk = 0) {
    using Fn = std::remove_reference_t<F>;
    run_job(
        [](void* ctx, std::size_t, std::size_t begin, std::size_t end) {
          Fn& f = *static_cast<Fn*>(ctx);
          for (std::size_t i = begin; i < end; ++i) f(i);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))), n,
        chunk);
  }

  /// Runs fn(worker, i) for every i in [0, n).  The worker index lets tasks
  /// address per-worker scratch (e.g. detect::WorkspaceBank) without
  /// synchronization: no two concurrent iterations of the SAME job share a
  /// worker index (see RawJob for the cross-job caveat).
  template <typename F>
  void parallel_for_worker(std::size_t n, F&& fn, std::size_t chunk = 0) {
    using Fn = std::remove_reference_t<F>;
    run_job(
        [](void* ctx, std::size_t worker, std::size_t begin, std::size_t end) {
          Fn& f = *static_cast<Fn*>(ctx);
          for (std::size_t i = begin; i < end; ++i) f(worker, i);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))), n,
        chunk);
  }

  /// Runs fn(worker, begin, end) once per chunk — the cheapest shape for
  /// tiny per-index bodies (one call amortized over the whole chunk).
  /// Chunks may be coalesced (a single-thread pool delivers one chunk).
  template <typename F>
  void parallel_for_chunks(std::size_t n, F&& fn, std::size_t chunk = 0) {
    using Fn = std::remove_reference_t<F>;
    run_job(
        [](void* ctx, std::size_t worker, std::size_t begin, std::size_t end) {
          (*static_cast<Fn*>(ctx))(worker, begin, end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))), n,
        chunk);
  }

 private:
  /// One in-flight job.  Lives on the submitting thread's stack for the
  /// duration of its run_job call; the submitter only returns (and the
  /// frame unwinds) once `completed == n` and no worker is inside
  /// run_chunks for it (`workers == 0`), so the raw pointers in `active_`
  /// never dangle.
  struct JobState {
    JobState(RawJob f, void* c, std::size_t total, std::size_t chunk_size)
        : fn(f), ctx(c), n(total), chunk(chunk_size) {}
    RawJob fn;
    void* ctx;
    std::size_t n;
    std::size_t chunk;
    std::atomic<std::size_t> next{0};       ///< next unclaimed iteration
    std::atomic<std::size_t> completed{0};  ///< iterations finished
    int workers = 0;  ///< threads inside run_chunks (guarded by mu_)
  };

  void worker_loop(std::size_t worker);
  void run_chunks(JobState& job, std::size_t worker);

  std::size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for jobs
  std::condition_variable done_cv_;  ///< submitters wait for completion
  bool shutdown_ = false;
  /// Jobs that may still have unclaimed chunks, in submission order.
  /// Exhausted entries are pruned by whoever scans the list.
  std::vector<JobState*> active_;
};

}  // namespace flexcore::parallel
