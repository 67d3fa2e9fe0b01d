#include "parallel/thread_pool.h"

#include <algorithm>

#include "parallel/hot_path.h"
#include "parallel/hot_path_guard.h"

namespace flexcore::parallel {

std::size_t default_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(num_threads > 0 ? num_threads : default_thread_count()) {
  active_.reserve(16);  // steady-state run_job must not allocate
  workers_.reserve(num_threads_ - 1);
  for (std::size_t i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    guard_detail::note_lock();
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

FLEXCORE_HOT_PATH
void ThreadPool::run_chunks(JobState& job, std::size_t worker) {
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) return;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    job.fn(job.ctx, worker, begin, end);
    // acq_rel: the submitter's acquire load of `completed` must see every
    // side effect of the chunk bodies.
    job.completed.fetch_add(end - begin, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::unique_lock lock(mu_);
  guard_detail::note_lock();
  for (;;) {
    // Scan the active list: prune fully-claimed jobs, grab the first one
    // with unclaimed chunks.  Several jobs can be live at once; workers
    // drain them in submission order, submitters each wait on their own.
    JobState* job = nullptr;
    for (auto it = active_.begin(); it != active_.end();) {
      if ((*it)->next.load(std::memory_order_relaxed) >= (*it)->n) {
        it = active_.erase(it);
      } else {
        job = *it;
        break;
      }
    }
    if (job == nullptr) {
      if (shutdown_) return;
      work_cv_.wait(lock);
      guard_detail::note_lock();  // cv wait re-acquired mu_
      continue;
    }

    ++job->workers;  // pins the submitter's stack frame (see JobState)
    lock.unlock();
    run_chunks(*job, worker);
    lock.lock();
    guard_detail::note_lock();
    --job->workers;
    if (job->workers == 0 &&
        job->completed.load(std::memory_order_acquire) >= job->n) {
      done_cv_.notify_all();  // all submitters re-check their own job
    }
  }
}

FLEXCORE_HOT_PATH
void ThreadPool::run_job(RawJob job, void* ctx, std::size_t n,
                         std::size_t chunk) {
  if (n == 0) return;
  if (chunk == 0) {
    // Aim for ~8 chunks per thread to balance load vs scheduling overhead.
    chunk = std::max<std::size_t>(1, n / (num_threads_ * 8));
  }
  if (num_threads_ == 1) {
    // Inline short-circuit: a single-threaded pool runs the job on the
    // calling thread with ZERO lock traffic — the invariant the
    // hot_path_guard tests pin down.
    job(ctx, 0, 0, n);
    return;
  }

  JobState state(job, ctx, n, chunk);
  {
    std::lock_guard lock(mu_);
    guard_detail::note_lock();
    // flexcore-lint: allow-next-line(HP001) capacity reserved in constructor
    active_.push_back(&state);
  }
  work_cv_.notify_all();
  run_chunks(state, /*worker=*/0);  // caller participates in its own job

  std::unique_lock lock(mu_);
  guard_detail::note_lock();
  // `workers == 0` (not just completion) before unwinding: a worker that
  // claimed nothing may still be inside run_chunks touching the counters.
  done_cv_.wait(lock, [&] {
    return state.workers == 0 &&
           state.completed.load(std::memory_order_acquire) >= state.n;
  });
  active_.erase(std::remove(active_.begin(), active_.end(), &state),
                active_.end());
}

}  // namespace flexcore::parallel
