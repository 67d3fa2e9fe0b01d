// Flight-recorder observability: per-thread span rings + event counters.
//
// The paper's claim is a latency/throughput/accuracy trade-off navigated at
// runtime; this subsystem makes that navigation visible without perturbing
// it.  Two primitives, both safe on the hot path:
//
//   * Spans — fixed-capacity per-thread ring buffers of (stage, cell,
//     frame, t0, t1) records with steady-clock nanosecond timestamps.
//     Recording is wait-free for the owning thread (each thread writes only
//     its own ring; slots are seqlock-validated so a concurrent drain never
//     reads a torn span) and allocation-free after the thread's first
//     record (ring registration is the one cold-path lock + allocation —
//     warm it up before entering a hot_path_guard scope).
//   * Counters — process-global monotonic relaxed atomics for the library
//     events no runtime object counts: preprocessing reuse hits/misses, SIC
//     fallbacks and i16 boundary rescans.  Frame outcomes, shard retries
//     and bypasses, control decisions and injected faults are counted once,
//     by their owners (api::RuntimeStats and its ShardStats,
//     control::FeedbackLoop::decisions(), fault::Injector::injected()).
//
// Gating, coarse to fine:
//   * FLEXCORE_OBS (compile time): 0 = everything compiles out (the inline
//     wrappers below become empty); any other value compiles counters and
//     spans in.  Default 2; set via -DFLEXCORE_OBS=<n> (CMake option).
//   * Runtime sampling: spans are recorded only for frames whose TraceCtx
//     was sampled by begin_frame() — every sample_every-th frame, 0 (the
//     default) disabling span recording entirely.  Counters are always on
//     when obs is compiled in.
//   * Environment: FLEXCORE_OBS_TRACE=1 enables tracing at process start
//     (FLEXCORE_OBS_SAMPLE=<n> sets the sampling period, default 1;
//     FLEXCORE_OBS_RING=<n> the per-thread ring capacity) — production
//     benches turn tracing on without a recompile.
//
// Frames are correlated across threads by obs::TraceCtx, decided ONCE in
// Runtime::submit, before its shard stage (see FrameJob::trace), so the
// shard fabric, the dispatcher and the pipeline all agree on whether a
// frame is sampled and which id it carries.
//
// Draining (drain_spans / metrics_snapshot) and exporting
// (obs/trace_export.h) are control-plane operations: they lock the ring
// registry and may allocate — never call them from a hot path.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef FLEXCORE_OBS
#define FLEXCORE_OBS 2
#endif

namespace flexcore::obs {

/// True when counters and spans are compiled in (FLEXCORE_OBS != 0).
inline constexpr bool kEnabled = FLEXCORE_OBS != 0;

/// Stage taxonomy of one frame's journey through the serving layers.
/// Span names in exported traces and the indices of the per-stage latency
/// histograms in api::RuntimeStats both follow this enum.
enum class Stage : std::uint8_t {
  kSubmit = 0,       ///< admission: submit() entry -> enqueued (blocking wait)
  kQueueWait,        ///< enqueued -> picked by a dispatcher / run_one
  kShardPartialQr,   ///< decentralized per-cluster partial QR + merge
  kPreprocess,       ///< per-subcarrier QR + path selection
  kPathGrid,         ///< the fused subcarrier x vector x path task grid
  kReconstruct,      ///< winner reconstruction + SIC rescue
  kComplete,         ///< whole frame: submit -> ticket completion
  kControl,          ///< control-plane decision (instant event)
};
inline constexpr std::size_t kStageCount = 8;
const char* to_string(Stage stage);

/// Monotonic process-global event counters.
enum class Counter : std::uint8_t {
  kPreprocReuseHits = 0,  ///< detect_frame reused cached preprocessing
  kPreprocReuseMisses,    ///< detect_frame re-preprocessed
  kSicFallbacks,          ///< vectors rescued by plain SIC
  kI16BoundaryRescans,    ///< i16-tier winners re-derived by an exact rescan
};
inline constexpr std::size_t kCounterCount = 4;

/// Trigger taxonomy of control-plane decisions (control::Decision::reason),
/// packed into the aux field of kControl events.
enum class ControlReason : std::uint8_t {
  kInit = 0, kSnr, kError, kLoadDegrade, kLoadRestore, kOther,
};
const char* to_string(ControlReason reason);
ControlReason control_reason_from(const char* reason);

/// Per-frame trace identity, decided once in Runtime::submit and
/// carried through the shard fabric, dispatcher and pipeline in
/// FrameJob::trace.  decided == false means "nobody sampled this frame
/// yet" — the first layer that sees it calls begin_frame().
struct TraceCtx {
  std::uint64_t id = 0;     ///< process-global frame sequence (1-based)
  std::uint32_t cell = 0;   ///< submitting cell id
  bool decided = false;     ///< begin_frame() ran for this frame
  bool sampled = false;     ///< spans of this frame are recorded
};

/// Runtime knobs (see file comment for the matching environment variables).
struct ObsConfig {
  /// Record spans for every n-th frame; 0 disables span recording.
  std::uint32_t sample_every = 0;
  /// Per-thread ring capacity in spans (rounded up to a power of two).
  /// Applies to rings created after configure(); reset_for_test() resizes
  /// existing rings.
  std::size_t ring_capacity = 1024;
};

/// One drained span.  Timestamps are steady-clock nanoseconds since the
/// process obs epoch (now_ns()'s zero).
struct SpanRecord {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint64_t frame_id = 0;
  std::uint32_t aux = 0;      ///< stage-specific (shard id, ControlReason)
  std::uint32_t cell = 0;
  std::size_t track = 0;      ///< index into TraceSnapshot::tracks
  Stage stage = Stage::kSubmit;
  bool instant = false;       ///< point event (kControl), not a duration
};

/// Everything currently retained by the rings, time-sorted, plus the
/// per-ring display names ("shard0", "dispatcher1", "thread3", ...).
struct TraceSnapshot {
  std::vector<std::string> tracks;
  std::vector<SpanRecord> spans;
};

/// Point-in-time copy of every counter (monotonic since process start or
/// the last reset_for_test()).
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::uint64_t spans_recorded = 0;  ///< spans ever written, all rings
  std::uint64_t spans_retained = 0;  ///< spans currently held by the rings
};

namespace detail {
// Out-of-line implementations; reach them through the kEnabled-gated
// inline wrappers below so FLEXCORE_OBS=0 compiles every call site away.
void counter_add_impl(Counter counter, std::uint64_t n);
void record_span_impl(Stage stage, std::uint64_t t0_ns, std::uint64_t t1_ns,
                      const TraceCtx& ctx, std::uint32_t aux, bool instant);
TraceCtx begin_frame_impl(std::uint32_t cell);
}  // namespace detail

/// Steady-clock nanoseconds since the process obs epoch.  Usable whether
/// or not obs is compiled in (benches timestamp with it either way).
std::uint64_t now_ns();

/// Converts an already-captured steady-clock time_point to the same scale
/// as now_ns() — the runtime spans reuse the timestamps it takes anyway.
std::uint64_t to_ns(std::chrono::steady_clock::time_point tp);

/// Bumps a monotonic counter (relaxed atomic; wait-free, no-op when obs is
/// compiled out).
inline void counter_add(Counter counter, std::uint64_t n = 1) {
  if constexpr (kEnabled) detail::counter_add_impl(counter, n);
  else { (void)counter; (void)n; }
}

/// True when this frame's spans should be recorded — the ONE check hot
/// paths make before touching the clock.  Constant-folds to false when obs
/// is compiled out.
inline bool want_span(const TraceCtx& ctx) {
  if constexpr (kEnabled) return ctx.sampled;
  else { (void)ctx; return false; }
}

/// Records one duration span into the calling thread's ring.  Wait-free
/// and allocation-free except for the thread's FIRST span (ring
/// registration: one lock + one allocation — keep it out of guarded
/// steady-state regions by warming up first).  Call only when
/// want_span(ctx) — the wrapper does not re-check sampling.
inline void record_span(Stage stage, std::uint64_t t0_ns, std::uint64_t t1_ns,
                        const TraceCtx& ctx, std::uint32_t aux = 0) {
  if constexpr (kEnabled) {
    detail::record_span_impl(stage, t0_ns, t1_ns, ctx, aux, false);
  } else {
    (void)stage; (void)t0_ns; (void)t1_ns; (void)ctx; (void)aux;
  }
}

/// Records one instant (point) event — control-plane decisions.
inline void record_instant(Stage stage, std::uint64_t t_ns,
                           const TraceCtx& ctx, std::uint32_t aux = 0) {
  if constexpr (kEnabled) {
    detail::record_span_impl(stage, t_ns, t_ns, ctx, aux, true);
  } else {
    (void)stage; (void)t_ns; (void)ctx; (void)aux;
  }
}

/// Decides a frame's trace identity: assigns the process-global frame id
/// and the sampling verdict (every sample_every-th frame).  Atomics only —
/// safe under the runtime lock and on hot paths.
inline TraceCtx begin_frame(std::uint32_t cell) {
  if constexpr (kEnabled) return detail::begin_frame_impl(cell);
  TraceCtx ctx;
  ctx.decided = true;
  ctx.cell = cell;
  return ctx;
}

/// True when span recording is live (obs compiled in and sample_every > 0).
bool tracing_enabled();

/// Applies runtime knobs (sampling takes effect immediately; ring capacity
/// for rings created afterwards).  Control-plane: locks.
void configure(const ObsConfig& cfg);

/// Names the calling thread's trace track ("shard0", "dispatcher1", ...).
/// Cold-path: may lock and allocate (call at thread start).  A thread that
/// never sets a name gets "thread<k>" in registration order.
void set_thread_track(const char* name);

/// Copies every retained span out of every ring, sorted by start time.
/// Concurrent writers are tolerated (torn or overwritten slots are
/// skipped); for a deterministic snapshot, quiesce recording threads
/// first.  Control-plane: locks and allocates.
TraceSnapshot drain_spans();

/// Counter snapshot (always consistent; relaxed reads).
MetricsSnapshot metrics_snapshot();

/// Test hook: zeroes every counter, empties every ring (resizing them to
/// cfg.ring_capacity), resets the frame-id/sampling sequence and applies
/// `cfg`.  Callers MUST quiesce all recording threads first — resizing a
/// ring under a live writer is a race.  Control-plane only.
void reset_for_test(const ObsConfig& cfg = {});

}  // namespace flexcore::obs
