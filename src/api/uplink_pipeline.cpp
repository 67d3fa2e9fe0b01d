#include "api/uplink_pipeline.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "parallel/hot_path.h"

namespace flexcore::api {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool non_finite(const linalg::cplx& z) {
  return !std::isfinite(z.real()) || !std::isfinite(z.imag());
}

/// Cold failure tail of detect_frame's preprocessing stage, hoisted out of
/// the FLEXCORE_HOT_PATH function so its message construction never counts
/// against the hot-path contract.  A logic error — the detector refusing
/// the channel's shape, e.g. more streams than the path kernels support —
/// propagates unchanged; anything else failed numerically.
[[noreturn]] void throw_preprocess_failure(std::size_t f,
                                           const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::logic_error&) {
    throw;
  } catch (...) {
    throw NumericError(
        "detect_frame: preprocessing failed at subcarrier " +
        std::to_string(f) +
        " (non-finite or rank-deficient channel); caches invalidated");
  }
}

}  // namespace

void fold_batch_into_frame(detect::BatchResult& batch, std::size_t offset,
                           FrameResult* out) {
  for (std::size_t t = 0; t < batch.results.size(); ++t) {
    out->results[offset + t] = std::move(batch.results[t]);
  }
  out->stats += batch.stats;
  out->sic_fallbacks += batch.sic_fallbacks;
  out->tasks += batch.tasks;
  out->detect_seconds += batch.elapsed_seconds;
}

void validate_frame_job(const FrameJob& job, FrameCheck check) {
  detect::check_noise_var("FrameJob", job.noise_var);
  const std::size_t nsc = job.channels.size();
  const std::size_t nv = job.vectors_per_channel;
  if (job.ys.size() != nsc * nv) {
    throw std::invalid_argument(
        "FrameJob: ys.size() = " + std::to_string(job.ys.size()) +
        " != channels.size() * vectors_per_channel = " +
        std::to_string(nsc) + " * " + std::to_string(nv) + " = " +
        std::to_string(nsc * nv));
  }
  if (nsc == 0) return;
  const linalg::CMat& front = job.channels.front();
  if (front.rows() == 0 || front.cols() == 0) {
    throw std::invalid_argument(
        "FrameJob: channel of subcarrier 0 is empty (" +
        std::to_string(front.rows()) + "x" + std::to_string(front.cols()) +
        ")");
  }
  // B >= Nt up front: an under-determined channel would otherwise fail deep
  // inside the detector's QR ("qr: requires rows >= cols"), asynchronously
  // on a dispatcher thread when submitted through api::Runtime.
  if (front.rows() < front.cols()) {
    throw std::invalid_argument(
        "FrameJob: " + std::to_string(front.rows()) + " receive antennas < " +
        std::to_string(front.cols()) +
        " streams (detection needs B >= Nt)");
  }
  for (std::size_t f = 0; f < nsc; ++f) {
    const linalg::CMat& h = job.channels[f];
    if (h.rows() != front.rows()) {
      // Name the antenna count specifically: every subcarrier of one frame
      // is received on the SAME physical array, and the sharded runtime's
      // antenna-cluster plan is computed once per frame from B.
      throw std::invalid_argument(
          "FrameJob: subcarrier " + std::to_string(f) + " has " +
          std::to_string(h.rows()) + " receive antennas, subcarrier 0 has " +
          std::to_string(front.rows()) +
          " (all subcarriers share one antenna array)");
    }
    if (!h.same_shape(front)) {
      throw std::invalid_argument(
          "FrameJob: channel of subcarrier " + std::to_string(f) + " is " +
          std::to_string(h.rows()) + "x" + std::to_string(h.cols()) +
          ", subcarrier 0 is " + std::to_string(front.rows()) + "x" +
          std::to_string(front.cols()) + " (channels must share dimensions)");
    }
  }
  for (std::size_t i = 0; i < job.ys.size(); ++i) {
    if (job.ys[i].size() != front.rows()) {
      // ys is subcarrier-major: name the offending (subcarrier, symbol)
      // so degenerate jobs point straight at the bad vector.
      throw std::invalid_argument(
          "FrameJob: ys[" + std::to_string(i) + "] (subcarrier " +
          std::to_string(i / nv) + ", symbol " + std::to_string(i % nv) +
          ") has length " + std::to_string(job.ys[i].size()) +
          " != channel rows " + std::to_string(front.rows()));
    }
  }
  if (check != FrameCheck::kFull) return;
  // Non-finite scan: a NaN/Inf entry anywhere would otherwise sail through
  // QR (NaN comparisons are false at every tolerance gate) and surface as
  // garbage symbols.  The first offender is named with its exact
  // coordinates so a corrupt fronthaul points at the bad antenna/stream.
  for (std::size_t f = 0; f < nsc; ++f) {
    const linalg::CMat& h = job.channels[f];
    const linalg::cplx* d = h.data();
    const std::size_t n = h.rows() * h.cols();
    for (std::size_t e = 0; e < n; ++e) {
      if (non_finite(d[e])) {
        throw NonFiniteError(
            "FrameJob: channel of subcarrier " + std::to_string(f) +
            " has a non-finite entry at (" + std::to_string(e / h.cols()) +
            ", " + std::to_string(e % h.cols()) + ")");
      }
    }
  }
  for (std::size_t i = 0; i < job.ys.size(); ++i) {
    const linalg::CVec& y = job.ys[i];
    for (std::size_t e = 0; e < y.size(); ++e) {
      if (non_finite(y[e])) {
        throw NonFiniteError(
            "FrameJob: ys[" + std::to_string(i) + "] (subcarrier " +
            std::to_string(i / nv) + ", symbol " + std::to_string(i % nv) +
            ") has a non-finite entry at index " + std::to_string(e));
      }
    }
  }
}

UplinkPipeline::UplinkPipeline(const PipelineConfig& cfg)
    : cfg_(cfg), constellation_(cfg.qam_order) {
  if (cfg.shared_pool != nullptr) {
    pool_ = cfg.shared_pool;
  } else {
    owned_pool_ = std::make_unique<parallel::ThreadPool>(
        cfg.threads > 0 ? cfg.threads : parallel::default_thread_count());
    pool_ = owned_pool_.get();
  }
  DetectorConfig dcfg = cfg_.tuning;
  dcfg.constellation = &constellation_;
  det_ = make_detector(cfg.detector, dcfg);
  det_->set_thread_pool(pool_);
  flex_ = dynamic_cast<core::FlexCoreDetector*>(det_.get());
}

void UplinkPipeline::require_channel(const char* where,
                                     std::span<const linalg::CVec> ys) const {
  if (!channel_set_) {
    throw std::logic_error(std::string("UplinkPipeline::") + where +
                           ": set_channel has not been called");
  }
  for (std::size_t v = 0; v < ys.size(); ++v) {
    if (ys[v].size() != channel_rows_) {
      throw std::invalid_argument(
          std::string("UplinkPipeline::") + where + ": vector " +
          std::to_string(v) + " has length " + std::to_string(ys[v].size()) +
          ", the installed channel has " + std::to_string(channel_rows_) +
          " receive antennas");
    }
  }
}

void UplinkPipeline::set_channel(const linalg::CMat& h, double noise_var) {
  det_->set_channel(h, noise_var);
  channel_set_ = true;
  channel_rows_ = h.rows();
  ++channel_installs_;
}

detect::BatchResult UplinkPipeline::detect(
    std::span<const linalg::CVec> ys) {
  require_channel("detect", ys);
  detect::BatchResult out;
  det_->detect_batch(ys, &out);
  vectors_detected_ += ys.size();
  total_stats_ += out.stats;
  return out;
}

detect::DetectionResult UplinkPipeline::detect_one(const linalg::CVec& y) {
  require_channel("detect_one", {&y, 1});
  detect::DetectionResult res = det_->detect(y);
  ++vectors_detected_;
  total_stats_ += res.stats;
  return res;
}

void UplinkPipeline::reconfigure(const std::string& detector_spec) {
  reconfigure(detector_spec, cfg_.tuning);
}

void UplinkPipeline::reconfigure(const std::string& detector_spec,
                                 const DetectorConfig& tuning) {
  DetectorConfig dcfg = tuning;
  dcfg.constellation = &constellation_;
  // Build first, mutate second: a bad spec/tuning throws here and the
  // session keeps its old detector untouched.
  adopt_detector(make_detector(detector_spec, dcfg), detector_spec, tuning);
}

void UplinkPipeline::adopt_detector(std::unique_ptr<detect::Detector> det,
                                    const std::string& detector_spec,
                                    const DetectorConfig& tuning) {
  det->set_thread_pool(pool_);
  det_ = std::move(det);
  flex_ = dynamic_cast<core::FlexCoreDetector*>(det_.get());
  cfg_.detector = detector_spec;
  cfg_.tuning = tuning;
  channel_set_ = false;
  frame_dets_.clear();
  frame_ready_channels_ = 0;
  frame_ready_rows_ = 0;
  frame_ready_cols_ = 0;
}

void UplinkPipeline::ensure_frame_detectors(std::size_t count) {
  while (frame_dets_.size() < count) {
    DetectorConfig dcfg = cfg_.tuning;
    dcfg.constellation = &constellation_;
    frame_dets_.push_back(make_detector(cfg_.detector, dcfg));
    frame_dets_.back()->set_thread_pool(pool_);
  }
}

/// Fused grid for the path-parallel detector families (the clones are
/// detect::PathParallelDetectors).
FLEXCORE_HOT_PATH
void UplinkPipeline::path_frame(const FrameJob& job, FrameResult* out) {
  using detect::PathParallelDetector;
  const std::size_t nsc = job.channels.size();
  const std::size_t nv = job.vectors_per_channel;
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  frame_path_dets_.resize(nsc);
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  frame_paths_.resize(nsc);
  for (std::size_t f = 0; f < nsc; ++f) {
    // Clones are homogeneous (same registry spec): detect_frame's one cast
    // of the first decided the family of all.
    const auto* d = static_cast<const PathParallelDetector*>(frame_dets_[f].get());
    frame_path_dets_[f] = d;
    frame_paths_[f] = d->parallel_tasks();
  }
  const std::size_t nt = job.channels.front().cols();

  const bool spans = obs::want_span(job.trace);
  const std::uint64_t grid_t0 = spans ? obs::now_ns() : 0;
  detect::run_frame_grid<PathParallelDetector>(
      frame_path_dets_, frame_paths_, job.ys, nv, nt, *pool_, &frame_grid_);
  if (spans) {
    obs::record_span(obs::Stage::kPathGrid, grid_t0, obs::now_ns(),
                     job.trace);
  }
  out->tasks = frame_grid_.tasks;
  out->detect_seconds = frame_grid_.elapsed_seconds;

  // Winner reconstruction: lane-batched exact walks over groups of one
  // subcarrier's vectors, SIC fallback where every path was deactivated —
  // same policy as detect_batch.  Timed separately from the grid
  // (FrameResult::reconstruct_seconds feeds the runtime's per-stage
  // latency breakdown).
  const auto rec_t0 = std::chrono::steady_clock::now();
  const std::uint64_t rec_t0_ns = spans ? obs::now_ns() : 0;
  out->sic_fallbacks += detect::reconstruct_grid<PathParallelDetector>(
      frame_path_dets_, nv, frame_grid_, *pool_, workspaces_, &frame_fell_,
      out->results);
  for (std::size_t u = 0; u < nsc * nv; ++u) {
    out->stats += out->results[u].stats;
  }
  out->reconstruct_seconds = seconds_since(rec_t0);
  if (spans) {
    obs::record_span(obs::Stage::kReconstruct, rec_t0_ns, obs::now_ns(),
                     job.trace);
  }
}

/// Fallback for the sequential detectors: per-subcarrier batches behind
/// the parallel preprocessing.
void UplinkPipeline::generic_frame(const FrameJob& job, FrameResult* out) {
  const bool spans = obs::want_span(job.trace);
  const std::uint64_t t0_ns = spans ? obs::now_ns() : 0;
  const std::size_t nv = job.vectors_per_channel;
  detect::BatchResult batch;
  for (std::size_t f = 0; f < job.channels.size(); ++f) {
    frame_dets_[f]->detect_batch(job.ys.subspan(f * nv, nv), &batch);
    fold_batch_into_frame(batch, f * nv, out);
  }
  // Reconstruction is folded into the batch timing here, so the generic
  // path reports the whole detection as one path-grid span.
  if (spans) {
    obs::record_span(obs::Stage::kPathGrid, t0_ns, obs::now_ns(), job.trace);
  }
}

FrameResult UplinkPipeline::detect_frame(const FrameJob& job) {
  FrameResult out;
  detect_frame(job, &out);
  return out;
}

FLEXCORE_HOT_PATH
void UplinkPipeline::detect_frame(const FrameJob& job, FrameResult* out_ptr) {
  const std::size_t nsc = job.channels.size();
  const std::size_t nv = job.vectors_per_channel;
  validate_frame_job(job);

  FrameResult& out = *out_ptr;
  // Reset scalars but keep the result buffers: resized, never shrunk, so a
  // reused FrameResult of equal shape costs no allocation.
  out.stats = detect::DetectionStats{};
  out.sic_fallbacks = 0;
  out.tasks = 0;
  out.channels_installed = 0;
  out.sum_active_paths = 0.0;
  out.preprocess_seconds = 0.0;
  out.detect_seconds = 0.0;
  out.reconstruct_seconds = 0.0;
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  out.results.resize(job.ys.size());
  if (nsc == 0) return;

  // Per-subcarrier preprocessing (QR + path selection), one task per
  // subcarrier: independent detector clones, so no synchronization.
  // Within a static-channel coherence interval the caller can assert the
  // channels are unchanged and skip it entirely.
  ensure_frame_detectors(nsc);
  // Reuse demands the SAME workload as the cached installs — count,
  // antenna geometry AND noise variance.  A same-count frame with different
  // dimensions would walk mismatched QR state, and path selection depends
  // on the noise variance, so either re-preprocesses instead.  The noise
  // variance is compared bitwise (+0 and -0 differ).
  const bool reuse_hit =
      job.reuse_preprocessing && frame_ready_channels_ == nsc &&
      frame_ready_rows_ == job.channels.front().rows() &&
      frame_ready_cols_ == job.channels.front().cols() &&
      std::bit_cast<std::uint64_t>(frame_ready_noise_var_) ==
          std::bit_cast<std::uint64_t>(job.noise_var);
  obs::counter_add(reuse_hit ? obs::Counter::kPreprocReuseHits
                             : obs::Counter::kPreprocReuseMisses);
  if (!reuse_hit) {
    const std::uint64_t pre_t0_ns =
        obs::want_span(job.trace) ? obs::now_ns() : 0;
    const auto t0 = std::chrono::steady_clock::now();
    // An exception must NOT escape a pool task (a throw on a spawned
    // worker is std::terminate), so each task parks its own set_channel
    // failure and the lowest failing subcarrier is reported.  The channel
    // was already scanned for NaN/Inf by validate_frame_job, so a numeric
    // failure here is a finite-but-degenerate case (rank-deficient H) that
    // only QR can detect.
    // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
    frame_errors_.assign(nsc, nullptr);
    pool_->parallel_for(nsc, [&](std::size_t f) {
      try {
        frame_dets_[f]->set_channel(job.channels[f], job.noise_var);
      } catch (...) {
        frame_errors_[f] = std::current_exception();
      }
    });
    for (std::size_t f = 0; f < nsc; ++f) {
      if (!frame_errors_[f]) continue;
      // The failing clone keeps its previous channel; clean subcarriers
      // installed fine but the FRAME is unusable.  Drop the reuse cache so
      // no later frame can walk the mixed state, then fail this one.
      frame_ready_channels_ = 0;
      frame_ready_rows_ = 0;
      frame_ready_cols_ = 0;
      throw_preprocess_failure(f, frame_errors_[f]);
    }
    out.preprocess_seconds = seconds_since(t0);
    if (obs::want_span(job.trace)) {
      obs::record_span(obs::Stage::kPreprocess, pre_t0_ns, obs::now_ns(),
                       job.trace);
    }
    out.channels_installed = nsc;
    channel_installs_ += nsc;
    frame_ready_channels_ = nsc;
    frame_ready_rows_ = job.channels.front().rows();
    frame_ready_cols_ = job.channels.front().cols();
    frame_ready_noise_var_ = job.noise_var;
  }
  for (std::size_t f = 0; f < nsc; ++f) {
    out.sum_active_paths += static_cast<double>(frame_dets_[f]->parallel_tasks());
  }

  if (nv > 0) {
    if (dynamic_cast<const detect::PathParallelDetector*>(
            frame_dets_.front().get()) != nullptr) {
      path_frame(job, &out);
    } else {
      generic_frame(job, &out);
    }
  }

  if (out.sic_fallbacks > 0) {
    obs::counter_add(obs::Counter::kSicFallbacks, out.sic_fallbacks);
  }
  vectors_detected_ += job.ys.size();
  total_stats_ += out.stats;
}

std::vector<core::SoftOutput> UplinkPipeline::detect_soft(
    std::span<const linalg::CVec> ys) {
  require_channel("detect_soft", ys);
  if (flex_ == nullptr) {
    throw std::logic_error("UplinkPipeline::detect_soft: detector \"" +
                           cfg_.detector + "\" has no soft output");
  }
  std::vector<core::SoftOutput> out;
  out.reserve(ys.size());
  for (const linalg::CVec& y : ys) {
    out.push_back(flex_->detect_soft(y));
    ++vectors_detected_;
    total_stats_ += out.back().hard.stats;
  }
  return out;
}

}  // namespace flexcore::api
