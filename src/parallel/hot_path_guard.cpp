// HotPathScope counters and the operator new/delete interposition.
//
// The replacement operators live in THIS translation unit, inside the
// static library: any binary that pulls in this object (everything using
// ThreadPool does — the pool's lock sites call note_lock() defined here)
// gets the counting allocator.  The replacements route through
// malloc/aligned_alloc and count through note_alloc — a relaxed atomic /
// thread-local bump, unmeasurable next to the allocation itself.  The
// nothrow forms are replaced too: libstdc++'s stable_sort temporary buffer
// allocates through operator new(size, nothrow), and leaving it on the
// default allocator while delete routes to free() is an alloc/dealloc
// family mismatch under ASan.

#include "parallel/hot_path_guard.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace flexcore::parallel {

namespace {

/// Per-thread event counts plus the per-thread arming depth.
struct ThreadCounters {
  std::uint64_t allocations = 0;
  std::uint64_t deallocations = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t lock_acquisitions = 0;
  int armed_depth = 0;  ///< live kThread scopes on this thread
};

thread_local ThreadCounters t_counters;

/// Process-wide counters, touched only while a kProcess scope is live.
/// Relaxed: counts are read after the scope's
/// region quiesced, not used for synchronization.
std::atomic<int> g_process_armed{0};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_deallocations{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_lock_acquisitions{0};

HotPathStats thread_snapshot() noexcept {
  return {t_counters.allocations, t_counters.deallocations,
          t_counters.alloc_bytes, t_counters.lock_acquisitions};
}

HotPathStats process_snapshot() noexcept {
  return {g_allocations.load(std::memory_order_relaxed),
          g_deallocations.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed),
          g_lock_acquisitions.load(std::memory_order_relaxed)};
}

}  // namespace

namespace guard_detail {

void note_alloc(std::size_t bytes) noexcept {
  const bool thread_armed = t_counters.armed_depth > 0;
  const bool process_armed =
      g_process_armed.load(std::memory_order_relaxed) > 0;
  if (!thread_armed && !process_armed) return;
  if (thread_armed) {
    ++t_counters.allocations;
    t_counters.alloc_bytes += bytes;
  }
  if (process_armed) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void note_dealloc() noexcept {
  if (t_counters.armed_depth > 0) ++t_counters.deallocations;
  if (g_process_armed.load(std::memory_order_relaxed) > 0) {
    g_deallocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void note_lock() noexcept {
  if (t_counters.armed_depth > 0) ++t_counters.lock_acquisitions;
  if (g_process_armed.load(std::memory_order_relaxed) > 0) {
    g_lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace guard_detail

HotPathScope::HotPathScope(const char* label, Scope scope) noexcept
    : label_(label), scope_(scope) {
  if (scope_ == Scope::kThread) {
    ++t_counters.armed_depth;
    start_ = thread_snapshot();
  } else {
    g_process_armed.fetch_add(1, std::memory_order_relaxed);
    start_ = process_snapshot();
  }
}

HotPathScope::~HotPathScope() {
  if (scope_ == Scope::kThread) {
    --t_counters.armed_depth;
  } else {
    g_process_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

HotPathStats HotPathScope::delta() const noexcept {
  const HotPathStats now =
      scope_ == Scope::kThread ? thread_snapshot() : process_snapshot();
  return {now.allocations - start_.allocations,
          now.deallocations - start_.deallocations,
          now.alloc_bytes - start_.alloc_bytes,
          now.lock_acquisitions - start_.lock_acquisitions};
}

bool HotPathScope::armed_on_this_thread() noexcept {
  return t_counters.armed_depth > 0 ||
         g_process_armed.load(std::memory_order_relaxed) > 0;
}

}  // namespace flexcore::parallel

// ------------------------------------------------- allocator interposition

namespace {
namespace fpg = flexcore::parallel::guard_detail;
}  // namespace

void* operator new(std::size_t sz) {
  fpg::note_alloc(sz);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  if (void* p = ::operator new(sz, al, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  fpg::note_alloc(sz);
  return std::malloc(sz ? sz : 1);
}
void* operator new[](std::size_t sz, const std::nothrow_t& t) noexcept {
  return ::operator new(sz, t);
}
void* operator new(std::size_t sz, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  fpg::note_alloc(sz);
  // aligned_alloc wants a multiple of the alignment.  A size within a - 1
  // of SIZE_MAX has none: rounding it up would wrap to 0, so refuse it.
  const std::size_t a = static_cast<std::size_t>(al);
  if (sz > SIZE_MAX - (a - 1)) return nullptr;
  const std::size_t rounded = (sz + a - 1) / a * a;
  return std::aligned_alloc(a, rounded ? rounded : a);
}
void* operator new[](std::size_t sz, std::align_val_t al,
                     const std::nothrow_t& t) noexcept {
  return ::operator new(sz, al, t);
}

void operator delete(void* p) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete[](p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  fpg::note_dealloc();
  std::free(p);
}
