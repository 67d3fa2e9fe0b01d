#include "replay.h"

#include <chrono>
#include <span>
#include <stdexcept>

#include "api/detector_registry.h"
#include "api/uplink_pipeline.h"
#include "core/preprocessing.h"
#include "detect/path_kernels.h"
#include "detect/workspace.h"
#include "linalg/qr.h"
#include "shard/partial_qr.h"

namespace servebench {

namespace fa = flexcore::api;
namespace fs = flexcore::sim;
namespace core = flexcore::core;
namespace detect = flexcore::detect;
namespace linalg = flexcore::linalg;
namespace shard = flexcore::shard;

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

std::vector<std::uint64_t> pipeline_hashes(
    const Workload& wl, std::size_t c, const std::vector<fs::SynthFrame>& pool,
    std::size_t threads) {
  fa::PipelineConfig pcfg;
  pcfg.detector = wl.detectors[c];
  pcfg.qam_order = wl.qam;
  pcfg.threads = threads;
  fa::UplinkPipeline pipe(pcfg);
  std::vector<std::uint64_t> out(pool.size());
  fa::FrameResult res;
  for (std::size_t s = 0; s < pool.size(); ++s) {
    if (wl.reconfig_every > 0 && s > 0 && s % wl.reconfig_every == 0) {
      pipe.reconfigure(wl.spec_at(c, s));
    }
    fa::FrameJob job = fs::frame_job_of(pool[s], wl.noise_var());
    job.reuse_preprocessing = wl.static_channel && s > 0;
    pipe.detect_frame(job, &res);
    out[s] = decision_hash(res.results);
  }
  return out;
}

LayerReplay::LayerReplay(const Workload& wl,
                         const flexcore::modulation::Constellation& qam,
                         flexcore::parallel::ThreadPool& pool)
    : wl_(wl), qam_(qam), pool_(pool) {}

LayerReplay::Detectors& LayerReplay::detectors(const std::string& spec) {
  auto it = dets_.find(spec);
  if (it != dets_.end()) return it->second;
  fa::DetectorConfig cfg;
  cfg.constellation = &qam_;
  Detectors dets;
  for (std::size_t f = 0; f < wl_.subcarriers; ++f) {
    dets.push_back(fa::make_detector_as<core::FlexCoreDetector>(spec, cfg));
  }
  return dets_.emplace(spec, std::move(dets)).first->second;
}

void LayerReplay::shard_stage(const fs::SynthFrame& frame,
                              LayerSamples* samples) {
  const std::size_t nt = wl_.users;
  const std::size_t nv = wl_.symbols;
  // Monolithic workloads replay the stage with two clusters (timing only).
  const std::vector<shard::RowRange> plan =
      shard::plan_shards(wl_.antennas, wl_.shards > 1 ? wl_.shards : 2);
  if (plan.size() > 2) {
    throw std::logic_error("LayerReplay: more than two antenna clusters");
  }
  const std::size_t k = shard::merged_rows(plan, nt);
  s_.resize(frame.channels.size());
  z_.resize(frame.ys.size());
  for (linalg::CVec& z : z_) z.resize(k);
  std::vector<shard::PartialQr> partials(plan.size());
  const auto frame_t0 = Clock::now();
  for (std::size_t f = 0; f < frame.channels.size(); ++f) {
    std::size_t row_off = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const shard::RowRange range = plan[i];
      const std::size_t k_c = shard::compressed_rows(range, nt);
      auto t0 = Clock::now();
      partials[i] = shard::compute_partial(
          frame.channels[f].row_range(range.begin, range.count));
      const double qr_us = us_since(t0);
      t0 = Clock::now();
      for (std::size_t t = 0; t < nv; ++t) {
        const linalg::CVec& y = frame.ys[f * nv + t];
        shard::rotate_partial(
            partials[i],
            std::span<const linalg::cplx>(y.data() + range.begin, range.count),
            std::span<linalg::cplx>(z_[f * nv + t].data() + row_off, k_c));
      }
      const double rot_us = us_since(t0);
      row_off += k_c;
      if (samples != nullptr) {
        samples->partial_qr_us.push_back(qr_us);
        samples->rotate_us.push_back(rot_us / static_cast<double>(nv));
        samples->shard_busy_us[i] += qr_us + rot_us;
      }
    }
    s_[f] = shard::stack_partials(partials);
  }
  if (samples != nullptr) samples->shard_frame_us.push_back(us_since(frame_t0));
}

void LayerReplay::run_grid(Detectors& dets,
                           const std::vector<linalg::CMat>& channels,
                           const std::vector<linalg::CVec>& ys,
                           LayerSamples* samples, std::size_t tier) {
  const std::size_t nsc = channels.size();
  typed_.resize(nsc);
  paths_.resize(nsc);
  for (std::size_t f = 0; f < nsc; ++f) {
    dets[f]->set_channel(channels[f], wl_.noise_var());
    typed_[f] = dets[f].get();
    paths_[f] = dets[f]->parallel_tasks();
  }
  detect::run_frame_grid<core::FlexCoreDetector>(
      std::span<const core::FlexCoreDetector* const>(typed_.data(), nsc),
      paths_, ys, wl_.symbols, wl_.users, pool_, &grid_);
  if (samples != nullptr) {
    samples->grid_us[tier].push_back(grid_.elapsed_seconds * 1e6);
    samples->ns_per_path[tier].push_back(grid_.elapsed_seconds * 1e9 /
                                         static_cast<double>(grid_.tasks));
  }
}

std::uint64_t LayerReplay::replay(const fs::SynthFrame& frame,
                                  const std::string& spec,
                                  LayerSamples* samples) {
  const bool sharded = wl_.shards > 1;
  if (sharded || samples != nullptr) shard_stage(frame, samples);
  const std::vector<linalg::CMat>& channels = sharded ? s_ : frame.channels;
  const std::vector<linalg::CVec>& ys = sharded ? z_ : frame.ys;
  const std::size_t tier = tier_of(spec);
  Detectors& dets = detectors(spec);

  if (samples != nullptr) {
    // The detection-side preprocessing, one public call at a time (what
    // FlexCoreDetector::set_channel runs per subcarrier).
    const core::FlexCoreDetector& proto = *dets.front();
    const core::FlexCoreConfig& fcfg = proto.config();
    core::PreprocessingConfig pcfg;
    pcfg.num_paths = fcfg.num_pes;
    pcfg.pe_model = fcfg.pe_model;
    pcfg.candidate_list_cap = fcfg.candidate_list_cap;
    pcfg.batch_expand = fcfg.batch_expand;
    const bool exact = fcfg.ordering == core::OrderingMode::kExactSort;
    detect::PathPlan plan64;
    detect::PathPlanI16 plan16;
    for (const linalg::CMat& h : channels) {
      auto t0 = Clock::now();
      const linalg::QrResult qr = linalg::sorted_qr_wubben(h);
      samples->sorted_qr_us.push_back(us_since(t0));
      t0 = Clock::now();
      const core::PreprocessingResult pre =
          core::find_most_promising_paths(qr.R, wl_.noise_var(), qam_, pcfg);
      samples->path_select_us.push_back(us_since(t0));
      t0 = Clock::now();
      if (tier == 1) {
        plan16.compile_flexcore(qr.R, pre.paths, qam_, proto.lut(), exact,
                                fcfg.invalid_policy);
      } else {
        plan64.compile_flexcore(qr.R, pre.paths, qam_, proto.lut(), exact,
                                fcfg.invalid_policy);
      }
      samples->plan_compile_us.push_back(us_since(t0));
    }
  }

  run_grid(dets, channels, ys, samples, tier);
  const std::size_t units = ys.size();
  std::vector<detect::DetectionResult> results(units);
  detect::Workspace ws;
  for (std::size_t u = 0; u < units; ++u) {
    typed_[u / wl_.symbols]->reconstruct_winner(
        grid_.ybar(u), grid_.best_path[u], grid_.best_metric[u], ws,
        &results[u]);
  }
  const std::uint64_t hash = decision_hash(results);
  if (samples != nullptr) {
    run_grid(detectors(spec_in_tier(spec, 1 - tier)), channels, ys, samples,
             1 - tier);
  }
  return hash;
}

}  // namespace servebench
