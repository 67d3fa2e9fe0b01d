// Runtime hot-path guard — the dynamic half of the hot-path contract.
//
// parallel/hot_path.h annotates hot regions for the static lint pass; this
// header verifies the same invariants at runtime: a HotPathScope armed
// around a steady-state region counts every heap allocation and every
// instrumented lock acquisition that happens while it is live, so tests
// can assert the region really is allocation-free and (per task) lock-free
// instead of trusting the annotation.
//
//   parallel::HotPathScope guard("detect_frame steady state");
//   pipe.detect_frame(job, &result);            // warm buffers, reused
//   const auto d = guard.delta();
//   EXPECT_EQ(d.allocations, 0u);
//   EXPECT_EQ(d.lock_acquisitions, 0u);
//
// Two scopes:
//   * Scope::kThread (default) — counts only this thread's events.  Use it
//     with single-threaded pools / run_one() poll mode, where the whole
//     hot path executes on the calling thread.
//   * Scope::kProcess — counts events on EVERY thread while the scope is
//     live.  Use it when workers/dispatchers do the hot work.  The caller
//     owns quiescing unrelated threads (test binaries do).
//
// Allocation events come from operator new/delete interposition compiled
// into the library (parallel/hot_path_guard.cpp) in every build — a
// relaxed-atomic counter bump per allocation, unmeasurable next to the
// allocation itself — so the scope's counts always mean what they say.
// Lock events come from the explicit guard_detail::note_lock() calls at
// every ThreadPool / Runtime / shard-fabric lock-acquisition site.
//
// The counters answer "how many", not "is it contended": the invariant the
// repo enforces is that lock acquisitions on the dispatch path are O(1)
// per frame (submission/wakeup control plane) and exactly ZERO per path
// task — kernels and grid bodies never touch a mutex.
#pragma once

#include <cstddef>
#include <cstdint>

#include "parallel/hot_path.h"

namespace flexcore::parallel {

/// Event counts observed by a HotPathScope (see delta()).
struct HotPathStats {
  std::uint64_t allocations = 0;       ///< operator new calls
  std::uint64_t deallocations = 0;     ///< operator delete calls
  std::uint64_t alloc_bytes = 0;       ///< bytes requested from operator new
  std::uint64_t lock_acquisitions = 0; ///< instrumented mutex acquisitions
};

namespace guard_detail {
// Hooks called by the interposed allocator and the instrumented lock
// sites.  Cheap when no scope is armed: one thread-local flag test and one
// relaxed atomic load.
void note_alloc(std::size_t bytes) noexcept;
void note_dealloc() noexcept;
void note_lock() noexcept;
}  // namespace guard_detail

/// RAII region over which hot-path events are counted.  Scopes may nest;
/// each sees every event inside its own lifetime.  Construction and
/// destruction themselves allocate nothing.
class HotPathScope {
 public:
  enum class Scope {
    kThread,   ///< count this thread's events only
    kProcess,  ///< count every thread's events while live
  };

  explicit HotPathScope(const char* label = "",
                        Scope scope = Scope::kThread) noexcept;
  ~HotPathScope();

  HotPathScope(const HotPathScope&) = delete;
  HotPathScope& operator=(const HotPathScope&) = delete;

  /// Events observed since this scope was constructed.
  HotPathStats delta() const noexcept;

  const char* label() const noexcept { return label_; }
  Scope scope() const noexcept { return scope_; }

  /// True when the CALLING thread is inside any kThread scope (or any
  /// kProcess scope is live anywhere).
  static bool armed_on_this_thread() noexcept;

 private:
  const char* label_;
  Scope scope_;
  HotPathStats start_;
};

}  // namespace flexcore::parallel
