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
// into the library (parallel/hot_path_guard.cpp) in every build type —
// a relaxed-atomic counter bump per allocation, unmeasurable next to the
// allocation itself.  Builds can opt out with -DFLEXCORE_NO_ALLOC_GUARD
// (hot_path_guard_enabled() then reports false and tests skip their
// allocation assertions).  Lock events come from the explicit
// guard_detail::note_lock() calls at every ThreadPool / Runtime /
// shard-fabric lock-acquisition site and from the GuardedMutex wrapper.
//
// The counters answer "how many", not "is it contended": the invariant the
// repo enforces is that lock acquisitions on the dispatch path are O(1)
// per frame (submission/wakeup control plane) and exactly ZERO per path
// task — kernels and grid bodies never touch a mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "parallel/hot_path.h"

namespace flexcore::parallel {

/// Event counts observed by a HotPathScope (see delta()).
struct HotPathStats {
  std::uint64_t allocations = 0;       ///< operator new calls
  std::uint64_t deallocations = 0;     ///< operator delete calls
  std::uint64_t alloc_bytes = 0;       ///< bytes requested from operator new
  std::uint64_t lock_acquisitions = 0; ///< instrumented mutex acquisitions
};

/// True when the allocator interposition is compiled into this binary
/// (i.e. the library was built without FLEXCORE_NO_ALLOC_GUARD).  Lock
/// counting is always available.
bool hot_path_guard_enabled() noexcept;

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

  // Debug escape hatch: with FLEXCORE_HOT_PATH_ABORT=1 in the environment
  // at first use, an allocation observed while any scope is armed aborts
  // with a diagnostic instead of merely counting — turning a violated
  // invariant into a stack trace at the offending call site.  Off by
  // default; tests assert via delta().

 private:
  const char* label_;
  Scope scope_;
  HotPathStats start_;
};

/// A std::mutex wrapper whose acquisitions are visible to HotPathScope.
/// Meets Lockable, so it drops into std::lock_guard / std::unique_lock /
/// std::condition_variable_any unchanged.  Prefer it for NEW control-plane
/// state; existing std::mutex sites instead call
/// guard_detail::note_lock() right after acquiring (the
/// condition_variable-heavy loops keep their plain std::mutex waits).
class GuardedMutex {
 public:
  void lock() {
    mu_.lock();
    guard_detail::note_lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    guard_detail::note_lock();
    return true;
  }
  void unlock() { mu_.unlock(); }

  /// The wrapped mutex, for condition_variable wait sites that need the
  /// raw type (note_lock() manually after re-acquisition where it
  /// matters).
  std::mutex& inner() noexcept { return mu_; }

 private:
  std::mutex mu_;
};

}  // namespace flexcore::parallel
