#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace flexcore::obs {

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kSubmit: return "submit";
    case Stage::kQueueWait: return "queue-wait";
    case Stage::kShardPartialQr: return "shard-partial-qr";
    case Stage::kPreprocess: return "preprocess";
    case Stage::kPathGrid: return "path-grid";
    case Stage::kReconstruct: return "reconstruct";
    case Stage::kComplete: return "complete";
    case Stage::kControl: return "control";
  }
  return "?";
}

const char* to_string(ControlReason reason) {
  switch (reason) {
    case ControlReason::kInit: return "init";
    case ControlReason::kSnr: return "snr";
    case ControlReason::kError: return "error";
    case ControlReason::kLoadDegrade: return "load-degrade";
    case ControlReason::kLoadRestore: return "load-restore";
    case ControlReason::kOther: return "other";
  }
  return "?";
}

ControlReason control_reason_from(const char* reason) {
  if (reason == nullptr) return ControlReason::kOther;
  if (std::strcmp(reason, "init") == 0) return ControlReason::kInit;
  if (std::strcmp(reason, "snr") == 0) return ControlReason::kSnr;
  if (std::strcmp(reason, "error") == 0) return ControlReason::kError;
  if (std::strcmp(reason, "load-degrade") == 0) {
    return ControlReason::kLoadDegrade;
  }
  if (std::strcmp(reason, "load-restore") == 0) {
    return ControlReason::kLoadRestore;
  }
  return ControlReason::kOther;
}

namespace {

using SteadyClock = std::chrono::steady_clock;

// ------------------------------------------------------------------ globals
// Counters and knobs are process-global relaxed atomics: the hot path only
// ever fetch_adds or loads them.

std::array<std::atomic<std::uint64_t>, kCounterCount>& counters() {
  static std::array<std::atomic<std::uint64_t>, kCounterCount> c{};
  return c;
}

std::atomic<std::uint32_t> g_sample_every{0};
std::atomic<std::uint64_t> g_frame_seq{0};
std::atomic<std::size_t> g_ring_capacity{1024};

SteadyClock::time_point epoch() {
  static const SteadyClock::time_point e = SteadyClock::now();
  return e;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n && p < (std::size_t{1} << 30)) p <<= 1;
  return p;
}

// ---------------------------------------------------------------- span ring
// One ring per recording thread.  The owner is the only writer; drains may
// read concurrently from any thread.  Each slot carries a seqlock-style
// generation word: the writer marks the slot odd (in progress), stores the
// payload, then publishes 2*pos+2 with release order — a reader that sees
// matching generations before and after its payload loads got a coherent
// span, anything else is discarded.  All payload fields are relaxed
// atomics, so a torn read is merely rejected, never undefined behaviour.

struct alignas(64) Slot {
  std::atomic<std::uint64_t> gen{0};  ///< 2*pos+2 when slot holds span #pos
  std::atomic<std::uint64_t> t0{0};
  std::atomic<std::uint64_t> t1{0};
  std::atomic<std::uint64_t> meta{0};  ///< aux:32 | cell:16 | flags:8 | stage:8
  std::atomic<std::uint64_t> frame{0};
};

constexpr std::uint64_t kFlagInstant = 1;

std::uint64_t pack_meta(Stage stage, std::uint32_t cell, std::uint32_t aux,
                        bool instant) {
  const std::uint64_t flags = instant ? kFlagInstant : 0;
  return (static_cast<std::uint64_t>(aux) << 32) |
         (static_cast<std::uint64_t>(cell & 0xffffu) << 16) | (flags << 8) |
         static_cast<std::uint64_t>(stage);
}

struct ThreadRing {
  explicit ThreadRing(std::size_t capacity)
      : slots(new Slot[capacity]), mask(capacity - 1), cap(capacity) {}

  // Owner-thread write path: wait-free, allocation-free.
  void record(Stage stage, std::uint64_t t0_ns, std::uint64_t t1_ns,
              const TraceCtx& ctx, std::uint32_t aux, bool instant) {
    const std::uint64_t pos = head.load(std::memory_order_relaxed);
    Slot& s = slots[pos & mask];
    s.gen.store(2 * pos + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.t0.store(t0_ns, std::memory_order_relaxed);
    s.t1.store(t1_ns, std::memory_order_relaxed);
    s.meta.store(pack_meta(stage, ctx.cell, aux, instant),
                 std::memory_order_relaxed);
    s.frame.store(ctx.id, std::memory_order_relaxed);
    s.gen.store(2 * pos + 2, std::memory_order_release);
    head.store(pos + 1, std::memory_order_release);
  }

  // Drain-side read of span #pos; false when the slot was overwritten or
  // is mid-write.
  bool read(std::uint64_t pos, std::size_t track, SpanRecord* out) const {
    const Slot& s = slots[pos & mask];
    const std::uint64_t g1 = s.gen.load(std::memory_order_acquire);
    if (g1 != 2 * pos + 2) return false;
    out->t0_ns = s.t0.load(std::memory_order_relaxed);
    out->t1_ns = s.t1.load(std::memory_order_relaxed);
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    out->frame_id = s.frame.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.gen.load(std::memory_order_relaxed) != g1) return false;
    out->stage = static_cast<Stage>(meta & 0xff);
    out->instant = ((meta >> 8) & 0xff & kFlagInstant) != 0;
    out->cell = static_cast<std::uint32_t>((meta >> 16) & 0xffff);
    out->aux = static_cast<std::uint32_t>(meta >> 32);
    out->track = track;
    return true;
  }

  std::unique_ptr<Slot[]> slots;
  std::size_t mask;
  std::size_t cap;
  std::atomic<std::uint64_t> head{0};  ///< next span sequence to write
  char track_name[48] = {};            ///< guarded by the registry mutex
};

// Registry of every ring ever created.  Leaked on purpose: recording
// threads may still be alive during static destruction, and the rings of
// exited threads keep their history for post-mortem export.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

struct TlsState {
  ThreadRing* ring = nullptr;
  char pending_name[48] = {};
};

thread_local TlsState t_tls;

ThreadRing* register_ring(TlsState& tls) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  const std::size_t cap =
      round_up_pow2(std::max<std::size_t>(
          2, g_ring_capacity.load(std::memory_order_relaxed)));
  reg.rings.push_back(std::make_unique<ThreadRing>(cap));
  ThreadRing* ring = reg.rings.back().get();
  if (tls.pending_name[0] != '\0') {
    std::snprintf(ring->track_name, sizeof ring->track_name, "%s",
                  tls.pending_name);
  } else {
    std::snprintf(ring->track_name, sizeof ring->track_name, "thread%zu",
                  reg.rings.size() - 1);
  }
  tls.ring = ring;
  return ring;
}

// Environment bootstrap, once per process before main-line use: the hot
// path never touches getenv.
std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<std::uint64_t>(parsed) : def;
}

[[maybe_unused]] const bool g_env_initialized = [] {
  if (kEnabled) {
    const char* trace = std::getenv("FLEXCORE_OBS_TRACE");
    const bool on =
        trace != nullptr && *trace != '\0' && std::strcmp(trace, "0") != 0;
    if (on) {
      g_sample_every.store(
          static_cast<std::uint32_t>(env_u64("FLEXCORE_OBS_SAMPLE", 1)),
          std::memory_order_relaxed);
    }
    g_ring_capacity.store(
        static_cast<std::size_t>(env_u64("FLEXCORE_OBS_RING", 1024)),
        std::memory_order_relaxed);
  }
  return true;
}();

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - epoch())
          .count());
}

std::uint64_t to_ns(std::chrono::steady_clock::time_point tp) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch());
  return d.count() > 0 ? static_cast<std::uint64_t>(d.count()) : 0;
}

bool tracing_enabled() {
  if constexpr (!kEnabled) return false;
  return g_sample_every.load(std::memory_order_relaxed) != 0;
}

namespace detail {

void counter_add_impl(Counter counter, std::uint64_t n) {
  counters()[static_cast<std::size_t>(counter)].fetch_add(
      n, std::memory_order_relaxed);
}

void record_span_impl(Stage stage, std::uint64_t t0_ns, std::uint64_t t1_ns,
                      const TraceCtx& ctx, std::uint32_t aux, bool instant) {
  TlsState& tls = t_tls;
  ThreadRing* ring = tls.ring;
  if (ring == nullptr) ring = register_ring(tls);  // cold: lock + alloc
  ring->record(stage, t0_ns, t1_ns, ctx, aux, instant);
}

TraceCtx begin_frame_impl(std::uint32_t cell) {
  TraceCtx ctx;
  ctx.decided = true;
  ctx.cell = cell;
  const std::uint32_t every = g_sample_every.load(std::memory_order_relaxed);
  if (every != 0) {
    const std::uint64_t n = g_frame_seq.fetch_add(1, std::memory_order_relaxed);
    ctx.id = n + 1;
    ctx.sampled = (n % every) == 0;
  }
  return ctx;
}

}  // namespace detail

void configure(const ObsConfig& cfg) {
  g_sample_every.store(cfg.sample_every, std::memory_order_relaxed);
  g_ring_capacity.store(std::max<std::size_t>(2, cfg.ring_capacity),
                        std::memory_order_relaxed);
}

void set_thread_track(const char* name) {
  if (!kEnabled || name == nullptr) return;
  TlsState& tls = t_tls;
  std::snprintf(tls.pending_name, sizeof tls.pending_name, "%s", name);
  if (tls.ring != nullptr) {
    // Renames are control-plane: serialize against drains via the registry.
    Registry& reg = registry();
    std::lock_guard lock(reg.mu);
    std::snprintf(tls.ring->track_name, sizeof tls.ring->track_name, "%s",
                  name);
  }
}

TraceSnapshot drain_spans() {
  TraceSnapshot snap;
  if (!kEnabled) return snap;
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  snap.tracks.reserve(reg.rings.size());
  for (std::size_t i = 0; i < reg.rings.size(); ++i) {
    const ThreadRing& ring = *reg.rings[i];
    snap.tracks.emplace_back(ring.track_name);
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t start = head > ring.cap ? head - ring.cap : 0;
    for (std::uint64_t pos = start; pos < head; ++pos) {
      SpanRecord rec;
      if (ring.read(pos, i, &rec)) snap.spans.push_back(rec);
    }
  }
  std::stable_sort(snap.spans.begin(), snap.spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.t0_ns < b.t0_ns;
                   });
  return snap;
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters[i] = counters()[i].load(std::memory_order_relaxed);
  }
  if (kEnabled) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mu);
    for (const auto& ring : reg.rings) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      snap.spans_recorded += head;
      snap.spans_retained += std::min<std::uint64_t>(head, ring->cap);
    }
  }
  return snap;
}

void reset_for_test(const ObsConfig& cfg) {
  configure(cfg);
  for (auto& c : counters()) c.store(0, std::memory_order_relaxed);
  g_frame_seq.store(0, std::memory_order_relaxed);
  if (!kEnabled) return;
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  const std::size_t cap = round_up_pow2(std::max<std::size_t>(
      2, g_ring_capacity.load(std::memory_order_relaxed)));
  for (auto& ring : reg.rings) {
    // Caller quiesced the writers (contract), so reshaping is safe.
    if (ring->cap != cap) {
      ring->slots.reset(new Slot[cap]);
      ring->mask = cap - 1;
      ring->cap = cap;
    } else {
      for (std::size_t i = 0; i < cap; ++i) {
        ring->slots[i].gen.store(0, std::memory_order_relaxed);
      }
    }
    ring->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace flexcore::obs
