// Tests for the fork-join thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "parallel/thread_pool.h"

namespace fp = flexcore::parallel;

TEST(ThreadPool, DefaultThreadCountPositive) {
  EXPECT_GE(fp::default_thread_count(), 1u);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  fp::ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    fp::ThreadPool pool(threads);
    const std::size_t n = 10007;  // prime, exercises ragged chunking
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPool, ZeroIterationsIsNoOp) {
  fp::ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  fp::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(97, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 97u);
}

TEST(ThreadPool, ExplicitChunkSizeHonoursAllIndices) {
  fp::ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(
      n, [&](std::size_t i) { hits[i].fetch_add(1); }, /*chunk=*/7);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, WorkerIndexInRangeAndExclusive) {
  // parallel_for_worker must hand every iteration a worker index in
  // [0, size()) and never run two concurrent iterations under the same
  // index — the contract per-worker workspaces rely on.
  for (std::size_t threads : {1u, 2u, 4u}) {
    fp::ThreadPool pool(threads);
    const std::size_t n = 5000;
    std::vector<std::atomic<int>> in_flight(threads);
    std::vector<std::atomic<int>> hits(n);
    std::atomic<bool> overlap{false};
    pool.parallel_for_worker(n, [&](std::size_t w, std::size_t i) {
      ASSERT_LT(w, threads);
      if (in_flight[w].fetch_add(1, std::memory_order_acq_rel) != 0) {
        overlap.store(true, std::memory_order_relaxed);
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
      in_flight[w].fetch_sub(1, std::memory_order_acq_rel);
    });
    EXPECT_FALSE(overlap.load()) << "threads=" << threads;
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ChunkOverloadCoversRangeOncePerIndex) {
  for (std::size_t threads : {1u, 3u}) {
    fp::ThreadPool pool(threads);
    const std::size_t n = 1003;  // ragged vs chunk size
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> calls{0};
    pool.parallel_for_chunks(
        n,
        [&](std::size_t w, std::size_t begin, std::size_t end) {
          ASSERT_LT(w, threads);
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          calls.fetch_add(1, std::memory_order_relaxed);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        /*chunk=*/64);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
    if (threads > 1) {
      // One call per chunk, not per index.
      EXPECT_LE(calls.load(), (n + 63) / 64);
    }
  }
}

TEST(ThreadPool, ConcurrentJobsFromMultipleSubmitters) {
  // The multi-cell runtime shape: several external threads each submit
  // independent task grids to ONE pool.  Every job must see all its own
  // iterations exactly once, regardless of how workers interleave chunks
  // of different jobs.
  for (std::size_t threads : {1u, 2u, 4u}) {
    fp::ThreadPool pool(threads);
    constexpr std::size_t kSubmitters = 4;
    constexpr std::size_t kRounds = 25;
    const std::size_t n = 1237;  // prime, ragged chunks
    std::vector<std::atomic<std::size_t>> sums(kSubmitters);
    std::vector<std::thread> submitters;
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (std::size_t round = 0; round < kRounds; ++round) {
          std::vector<std::atomic<int>> hits(n);
          pool.parallel_for(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          });
          // run_job returned: the grid must be complete, immediately.
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(hits[i].load(), 1)
                << "submitter " << s << " round " << round << " i " << i;
          }
          sums[s].fetch_add(n, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : submitters) t.join();
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      EXPECT_EQ(sums[s].load(), kRounds * n) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, ConcurrentWorkerIndexExclusivePerJob) {
  // Worker indices are exclusive WITHIN one job even when jobs overlap:
  // two submitters may both be worker 0 of their own grids, but inside a
  // single job no index runs two iterations at once.
  fp::ThreadPool pool(3);
  constexpr std::size_t kSubmitters = 3;
  std::atomic<bool> overlap{false};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> in_flight(pool.size());
        pool.parallel_for_worker(801, [&](std::size_t w, std::size_t) {
          ASSERT_LT(w, pool.size());
          if (in_flight[w].fetch_add(1, std::memory_order_acq_rel) != 0) {
            overlap.store(true, std::memory_order_relaxed);
          }
          in_flight[w].fetch_sub(1, std::memory_order_acq_rel);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_FALSE(overlap.load());
}

#ifdef __linux__
namespace {

/// CPUs this process is allowed to run on (pinning outside the allowed set
/// is rejected by the kernel, so the test must pick from here).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

}  // namespace

TEST(ThreadPool, AffinityPinsSpawnedWorkersOnly) {
  const std::vector<int> cpus = allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  const int target = cpus.front();

  fp::PoolOptions opts;
  opts.threads = 3;
  opts.pin_cpus = {target};
  fp::ThreadPool pool(opts);
  EXPECT_EQ(pool.size(), 3u);
  // Both spawned workers pinned (the caller / worker 0 never is).
  EXPECT_EQ(pool.pinned_workers(), 2u);

  // Every iteration that runs on a SPAWNED worker must be on the target
  // cpu; worker 0 (this thread) is wherever the scheduler left it.
  std::atomic<int> off_target{0};
  std::atomic<int> spawned_seen{0};
  // A round where worker 0 races through every chunk proves nothing; retry
  // until a spawned worker participated (usually round one).  The budget is
  // wall-clock, not a round count: a round takes microseconds, and the
  // pinned workers can wait longer than fifty of them for their cpu while
  // the submitter or another process holds it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (spawned_seen.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    pool.parallel_for_worker(10000, [&](std::size_t w, std::size_t) {
      if (w == 0) return;
      spawned_seen.fetch_add(1, std::memory_order_relaxed);
      if (sched_getcpu() != target) {
        off_target.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(off_target.load(), 0);
  // On a single-cpu machine the submitting thread can legitimately starve
  // the pinned workers of chunks (everyone shares the one core), so only
  // demand participation when there is real parallelism to be had.
  if (cpus.size() > 1) {
    EXPECT_GT(spawned_seen.load(), 0) << "spawned workers never ran";
  }

  // The pool still covers every index under pinning.
  std::vector<std::atomic<int>> hits(1003);
  pool.parallel_for(1003, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, AffinityRoundRobinAcrossCpuList) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "needs >= 2 allowed cpus";

  fp::PoolOptions opts;
  opts.threads = 5;  // spawned workers 1..4 over two cpus
  opts.pin_cpus = {cpus[0], cpus[1]};
  fp::ThreadPool pool(opts);
  EXPECT_EQ(pool.pinned_workers(), 4u);

  // An out-of-range id is best-effort-skipped, not fatal.
  fp::PoolOptions bad;
  bad.threads = 2;
  bad.pin_cpus = {CPU_SETSIZE + 7};
  fp::ThreadPool tolerant(bad);
  EXPECT_EQ(tolerant.pinned_workers(), 0u);
  std::atomic<int> ran{0};
  tolerant.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PinCurrentThreadRoundTrips) {
  const std::vector<int> cpus = allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  std::atomic<bool> ok{false};
  // Pin a scratch thread, not the test runner's.
  std::thread t([&] {
    if (!fp::pin_current_thread(cpus.back())) return;
    ok.store(sched_getcpu() == cpus.back());
  });
  t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_FALSE(fp::pin_current_thread(-1)) << "invalid ids report failure";
}
#endif  // __linux__

TEST(ThreadPool, NoPinningByDefault) {
  // The plain constructor and empty pin_cpus never pin anything.
  fp::ThreadPool plain(4);
  EXPECT_EQ(plain.pinned_workers(), 0u);
  fp::PoolOptions opts;
  opts.threads = 4;
  fp::ThreadPool unpinned(opts);
  EXPECT_EQ(unpinned.pinned_workers(), 0u);
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  fp::ThreadPool pool(4);
  const std::size_t n = 100000;
  std::vector<double> data(n);
  std::iota(data.begin(), data.end(), 0.0);
  std::atomic<long long> sum{0};
  pool.parallel_for(n, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(data[i]), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}
