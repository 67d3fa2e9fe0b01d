// Tests for the fork-join thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "parallel/thread_pool.h"

namespace fp = flexcore::parallel;

TEST(ThreadPool, DefaultThreadCountPositive) {
  EXPECT_GE(fp::default_thread_count(), 1u);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  fp::ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  EXPECT_TRUE(
      std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
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
