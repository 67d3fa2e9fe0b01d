// Session facade for uplink detection: owns the constellation, the thread
// pool and a registry-constructed detector, and drives the per-channel
// lifecycle the paper's receiver runs per subcarrier —
//
//   set_channel (QR + pre-processing)  →  batched detect  →  optional LLRs
//
// so OFDM / Monte-Carlo drivers stop hand-rolling it:
//
//   api::PipelineConfig pcfg;
//   pcfg.detector = "flexcore-128";
//   pcfg.qam_order = 64;
//   api::UplinkPipeline pipe(pcfg);
//   pipe.set_channel(h, noise_var);
//   detect::BatchResult batch = pipe.detect(ys);   // thread-pool task grid
//
// The pipeline attaches its pool to the detector, so detect() routes
// through the path-parallel detect_batch overrides where they exist and
// the sequential loop otherwise.
//
// For whole OFDM frames the per-channel lifecycle is superseded by frame
// jobs: detect_frame(FrameJob) preprocesses every subcarrier channel in
// parallel and then runs ONE flat subcarrier x vector x path task grid
// over the pool — the paper's §4 "all of a subframe's work at once" shape —
// with per-worker scratch arenas so steady-state tasks allocate nothing:
//
//   api::FrameJob job;
//   job.channels = trace.per_subcarrier;          // one CMat per subcarrier
//   job.ys = ys;                                  // subcarrier-major vectors
//   job.vectors_per_channel = n_ofdm_symbols;
//   job.noise_var = nv;
//   api::FrameResult fr = pipe.detect_frame(job); // one grid, whole frame
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/detector_registry.h"
#include "core/flexcore_detector.h"
#include "detect/detector.h"
#include "detect/path_grid.h"
#include "detect/workspace.h"
#include "modulation/constellation.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace flexcore::api {

struct PipelineConfig {
  /// Registry spec for the detector ("flexcore-64", "fcsd-L2", ...).
  std::string detector = "flexcore-64";
  int qam_order = 64;
  /// Worker threads for the batch task grid (0 = all hardware threads).
  /// Ignored when `shared_pool` is set.
  std::size_t threads = 0;
  /// Non-owning: when set, the pipeline runs its grids on this pool instead
  /// of owning one — api::Runtime uses this to share ONE PE pool across all
  /// cells.  The pool must outlive the pipeline.  Concurrent detect calls
  /// on the SAME pipeline remain unsupported; distinct pipelines may share
  /// a pool and run concurrently (the pool multiplexes their grids).
  parallel::ThreadPool* shared_pool = nullptr;
  /// Detector tuning forwarded to api::make_detector.  Its `constellation`
  /// field is ignored — the pipeline owns the constellation.
  DetectorConfig tuning;
};

/// One frame's worth of detection work: every data subcarrier's channel
/// plus all received vectors of the frame's OFDM symbols.
///
/// Lifetime contract: both spans are BORROWED — they must stay valid until
/// detect_frame returns (nothing is retained afterwards).  `ys` is
/// subcarrier-major: ys[f * vectors_per_channel + t] is OFDM symbol t of
/// subcarrier f, and ys.size() must equal
/// channels.size() * vectors_per_channel.  All channels must share the same
/// dimensions.
struct FrameJob {
  std::span<const linalg::CMat> channels;
  std::span<const linalg::CVec> ys;
  std::size_t vectors_per_channel = 0;
  double noise_var = 1.0;
  /// When true, reuses the per-subcarrier preprocessing (QR + path
  /// selection) installed by the PREVIOUS detect_frame call — the paper's
  /// static-channel coherence interval, where consecutive frames share
  /// channels.  The caller asserts `channels` is unchanged since that
  /// call; only detection runs.  Ignored (full preprocessing) when the
  /// previous frame had a different subcarrier count or antenna geometry,
  /// or none ran yet.
  /// The per-subcarrier loop cannot amortize this: set_channel overwrites
  /// the single-channel state on every subcarrier.
  bool reuse_preprocessing = false;
  /// Flight-recorder identity of this frame (obs/obs.h), decided once in
  /// Runtime::submit (before its shard stage) so the shard fabric and the
  /// pipeline agree on the sampling verdict and frame id.  Callers
  /// driving detect_frame directly may leave it default-initialized
  /// (undecided frames record no spans) or stamp it with obs::begin_frame
  /// themselves.
  obs::TraceCtx trace;
};

/// Output of one UplinkPipeline::detect_frame call.  `results` follows the
/// FrameJob::ys layout; per-vector symbols and metrics are bit-identical to
/// the sequential set_channel + detect lifecycle over the same data.
struct FrameResult {
  std::vector<detect::DetectionResult> results;
  detect::DetectionStats stats;        ///< sum of per-vector stats
  std::size_t sic_fallbacks = 0;       ///< vectors rescued by plain SIC
  std::size_t tasks = 0;               ///< sum over subcarriers of nv*paths
  std::size_t channels_installed = 0;  ///< channels preprocessed this call
                                       ///< (0 on a reuse_preprocessing hit)
  double sum_active_paths = 0.0;       ///< sum of per-subcarrier path counts
  double preprocess_seconds = 0.0;     ///< parallel QR + path selection
  double detect_seconds = 0.0;         ///< the frame task grid
  /// Winner reconstruction + SIC rescue, separated from detect_seconds on
  /// the fused typed path (0 on the generic per-subcarrier fallback, whose
  /// batch timing folds reconstruction into detect_seconds).
  double reconstruct_seconds = 0.0;
};

/// Thrown on NaN/Inf channel or payload entries (validate_frame_job's
/// kFull scan).  A corrupt frame is an AIR-INTERFACE fault, not a caller
/// bug: api::Runtime catches it on the dispatch path and completes the
/// ticket as TicketStatus::kQuarantined instead of kFailed.
class NonFiniteError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown by detect_frame when per-subcarrier preprocessing fails
/// numerically (non-finite or rank-deficient QR).  The pipeline invalidates
/// its preprocessing caches FIRST, so the next frame re-preprocesses from
/// scratch — a quarantined frame never poisons its successor.  Also
/// quarantined by api::Runtime.  A detector refusing the channel's shape
/// (a std::logic_error, e.g. more streams than the path kernels' 32)
/// propagates unchanged instead: a failed frame, not a numeric fault.
class NumericError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Validation depth of validate_frame_job.
enum class FrameCheck {
  kShape,  ///< structural checks only (sizes, antenna geometry)
  kFull,   ///< kShape plus a non-finite scan of every channel/ys entry
};

/// Validates a FrameJob's shape without running it; throws
/// std::invalid_argument on degenerate jobs:
///   * ys.size() != channels.size() * vectors_per_channel (mismatched
///     per-subcarrier batch sizes),
///   * channels that do not share dimensions (subcarriers disagreeing on
///     the receive-antenna count B get a message naming the antennas —
///     one frame is received on ONE physical array),
///   * empty channel matrices (zero rows or columns),
///   * under-determined channels (B < Nt — detection QR needs rows >= cols;
///     rejected here, at the submit call site, instead of failing deep in a
///     dispatcher thread),
///   * received vectors whose length differs from the channel row count.
/// Zero subcarriers and zero vectors_per_channel are NOT errors: the former
/// yields an empty FrameResult, the latter a preprocessing-only call.
/// With FrameCheck::kFull (the default) every channel and received-vector
/// entry is additionally scanned for NaN/Inf; the first offender throws
/// NonFiniteError with its exact (subcarrier, row, col) / (vector, index)
/// coordinates.  detect_frame always runs the full check (its
/// never-poisons-the-next-frame guarantee depends on it);
/// api::Runtime::submit runs the depth configured by
/// RuntimeConfig::admission_scan — chaos/fault-injection harnesses disable
/// the submit-side scan so corrupt frames exercise the dispatch-side
/// quarantine instead of throwing at the call site.
void validate_frame_job(const FrameJob& job,
                        FrameCheck check = FrameCheck::kFull);

/// Folds one subcarrier's BatchResult into a FrameResult at vector offset
/// `offset` (results are moved out of `batch`; counters and timing
/// accumulate).  Shared by UplinkPipeline's generic frame fallback and the
/// raw-detector frame emulation in sim::UplinkPacketLink.
void fold_batch_into_frame(detect::BatchResult& batch, std::size_t offset,
                           FrameResult* out);

class UplinkPipeline {
 public:
  explicit UplinkPipeline(const PipelineConfig& cfg);

  /// Installs a new channel (runs the detector's per-channel
  /// pre-processing).  Must be called before detect()/detect_soft().
  void set_channel(const linalg::CMat& h, double noise_var);

  /// Batched detection of vectors sharing the installed channel, through
  /// the pipeline's thread pool.  Throws std::logic_error before the first
  /// set_channel, and std::invalid_argument — before any work runs — when
  /// a vector's length differs from the channel's antenna count.
  detect::BatchResult detect(std::span<const linalg::CVec> ys);

  /// Convenience single-vector path (same contract as Detector::detect).
  /// Counts toward the session lifecycle counters like detect(), and
  /// checks the channel and the vector's length like it.
  detect::DetectionResult detect_one(const linalg::CVec& y);

  /// Frame-level detection: preprocesses every subcarrier channel in
  /// parallel (QR + path selection, cached in per-subcarrier detector
  /// clones that are reused across frames), then runs one flat
  /// subcarrier x vector x path grid over the pool with per-worker
  /// workspaces — zero heap allocations per steady-state path task.
  /// Results are bit-identical to looping set_channel + detect over the
  /// same data.  Independent of set_channel (the single-channel state is
  /// untouched); counts channels/vectors toward the session counters.
  /// Path-parallel detectors (flexcore / a-flexcore / fcsd families) run
  /// the fused grid; other detectors fall back to per-subcarrier
  /// detect_batch after the parallel preprocessing.
  FrameResult detect_frame(const FrameJob& job);

  /// Buffer-reusing overload: writes into `*out`, whose buffers are resized
  /// but never shrunk — reusing the same FrameResult across frames of equal
  /// shape (with reuse_preprocessing set) makes the whole call perform ZERO
  /// heap allocations in steady state, verified by
  /// tests/hot_path_guard_test.cpp.  Previous contents of `*out` are
  /// overwritten.  The by-value overload delegates here.
  void detect_frame(const FrameJob& job, FrameResult* out);

  /// Swaps the session's detector for `detector_spec` (same constellation
  /// and pool), atomically from the caller's perspective: the new detector
  /// is fully constructed before any state changes, so a throwing spec
  /// leaves the pipeline exactly as it was (strong guarantee).  Resets the
  /// per-channel state (set_channel must run again) and the frame-job
  /// caches (the next detect_frame re-preprocesses even under
  /// reuse_preprocessing).  Lifecycle counters survive — it is the same
  /// session, reconfigured.  The overload taking a DetectorConfig also
  /// replaces the tuning (its constellation field is ignored, as at
  /// construction).  Not thread-safe against concurrent detect calls: the
  /// caller serializes, as with everything else on a pipeline —
  /// api::Runtime::reconfigure is the FIFO-safe wrapper.
  void reconfigure(const std::string& detector_spec);
  void reconfigure(const std::string& detector_spec,
                   const DetectorConfig& tuning);

  /// Installs an already-constructed detector (the non-throwing tail of
  /// reconfigure): `det` MUST have been built against constellation() with
  /// the given spec/tuning — api::Runtime pre-builds swaps off the
  /// dispatch path and adopts them here at the FIFO boundary.
  void adopt_detector(std::unique_ptr<detect::Detector> det,
                      const std::string& detector_spec,
                      const DetectorConfig& tuning);

  /// List-based max-log LLRs per vector (the soft-output extension).
  /// Only available when the configured detector supports soft output
  /// (currently the flexcore/a-flexcore families); throws
  /// std::logic_error otherwise — check supports_soft() first.  Checks the
  /// channel and the vectors' lengths like detect().
  std::vector<core::SoftOutput> detect_soft(std::span<const linalg::CVec> ys);
  bool supports_soft() const noexcept { return flex_ != nullptr; }

  detect::Detector& detector() noexcept { return *det_; }
  const detect::Detector& detector() const noexcept { return *det_; }
  const modulation::Constellation& constellation() const noexcept {
    return constellation_;
  }
  parallel::ThreadPool& pool() noexcept { return *pool_; }
  /// True when the pipeline runs on a caller-provided pool
  /// (PipelineConfig::shared_pool) rather than one it owns.
  bool uses_shared_pool() const noexcept { return owned_pool_ == nullptr; }
  const PipelineConfig& config() const noexcept { return cfg_; }

  /// Lifecycle counters aggregated across the session.
  std::size_t channel_installs() const noexcept { return channel_installs_; }
  std::size_t vectors_detected() const noexcept { return vectors_detected_; }
  const detect::DetectionStats& total_stats() const noexcept {
    return total_stats_;
  }

 private:
  /// Throws std::logic_error before the first set_channel, and
  /// std::invalid_argument naming the first vector of `ys` whose length is
  /// not the installed channel's antenna count.
  void require_channel(const char* where,
                       std::span<const linalg::CVec> ys) const;
  void ensure_frame_detectors(std::size_t count);
  template <typename D>
  bool try_typed_frame(const FrameJob& job, FrameResult* out);
  void generic_frame(const FrameJob& job, FrameResult* out);

  PipelineConfig cfg_;
  modulation::Constellation constellation_;
  std::unique_ptr<parallel::ThreadPool> owned_pool_;  // null iff shared
  parallel::ThreadPool* pool_;                        // never null
  std::unique_ptr<detect::Detector> det_;
  core::FlexCoreDetector* flex_ = nullptr;  // non-null iff soft-capable
  bool channel_set_ = false;
  std::size_t channel_rows_ = 0;  // antennas of the installed channel
  std::size_t channel_installs_ = 0;
  std::size_t vectors_detected_ = 0;
  detect::DetectionStats total_stats_;

  // Frame-job state, reused across detect_frame calls: per-subcarrier
  // detector clones (each caches its channel's QR + path selection), the
  // flat grid buffers and the per-worker scratch arenas.
  std::vector<std::unique_ptr<detect::Detector>> frame_dets_;
  std::size_t frame_ready_channels_ = 0;  // clones with installed channels
  std::size_t frame_ready_rows_ = 0;      // geometry those installs used —
  std::size_t frame_ready_cols_ = 0;      // reuse only on an exact match
  detect::FrameGridOutput frame_grid_;
  detect::WorkspaceBank workspaces_;
  std::vector<std::size_t> frame_fell_;  // SIC fallbacks per reconstruct group
  std::vector<std::exception_ptr> frame_errors_;  // set_channel failures
  // Per-call scratch of try_typed_frame, hoisted so steady-state frames
  // reuse its capacity: the typed clone pointers (stored type-erased; the
  // template reads them back as the D* it stored) and per-subcarrier path
  // counts.
  std::vector<const void*> frame_typed_;
  std::vector<std::size_t> frame_paths_;
};

}  // namespace flexcore::api
