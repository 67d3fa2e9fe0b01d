// Synchronous replays of served frames, the benchmark's references:
//
//  * pipeline_hashes — a cell's frame sequence through
//    api::UplinkPipeline::detect_frame, scripted reconfigs included (what
//    api::Runtime promises to be bit-identical to);
//  * LayerReplay     — one frame through the public layer calls one at a
//    time (shard partial QR + rotation, sorted QR, path selection, plan
//    compilation, the frame grid, winner reconstruction), timing each
//    call.  It is the reference for the sharded workload and the source of
//    the replayed per-layer metrics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/flexcore_detector.h"
#include "detect/path_grid.h"
#include "modulation/constellation.h"
#include "parallel/thread_pool.h"
#include "sim/frame_synth.h"
#include "workload.h"

namespace servebench {

/// Decision hash of pool frame i of cell `c` for i in [0, pool_frames),
/// replaying the cell's sequence (and its reconfig script) synchronously.
std::vector<std::uint64_t> pipeline_hashes(
    const Workload& wl, std::size_t c,
    const std::vector<flexcore::sim::SynthFrame>& pool, std::size_t threads);

/// Per-call timings gathered by LayerReplay (microseconds unless named).
struct LayerSamples {
  std::vector<double> partial_qr_us;   ///< shard::compute_partial per call
  std::vector<double> rotate_us;       ///< shard::rotate_partial per call
  std::vector<double> shard_frame_us;  ///< all partials + rotations, per frame
  std::array<double, 2> shard_busy_us{};  ///< per-cluster totals (C <= 2)
  std::vector<double> sorted_qr_us;    ///< linalg::sorted_qr_wubben
  std::vector<double> path_select_us;  ///< core::find_most_promising_paths
  std::vector<double> plan_compile_us; ///< PathPlan[I16]::compile_flexcore
  /// detect::run_frame_grid per frame, by tier (0 = fp64, 1 = i16).
  std::array<std::vector<double>, 2> grid_us;
  std::array<std::vector<double>, 2> ns_per_path;
};

class LayerReplay {
 public:
  LayerReplay(const Workload& wl,
              const flexcore::modulation::Constellation& qam,
              flexcore::parallel::ThreadPool& pool);

  /// Replays `frame` under `spec` and returns its decision hash.  With
  /// `samples`, every layer call is timed, the shard stage is replayed
  /// even on monolithic workloads (two clusters), and the grid also runs
  /// in the other tier.
  std::uint64_t replay(const flexcore::sim::SynthFrame& frame,
                       const std::string& spec, LayerSamples* samples);

 private:
  using Detectors = std::vector<std::unique_ptr<flexcore::core::FlexCoreDetector>>;
  Detectors& detectors(const std::string& spec);
  /// Shard stage: the merged (S, z) of every subcarrier into s_ / z_.
  void shard_stage(const flexcore::sim::SynthFrame& frame,
                   LayerSamples* samples);
  /// Installs the channels on `dets` and runs the frame grid into grid_.
  void run_grid(Detectors& dets,
                const std::vector<flexcore::linalg::CMat>& channels,
                const std::vector<flexcore::linalg::CVec>& ys,
                LayerSamples* samples, std::size_t tier);

  const Workload& wl_;
  const flexcore::modulation::Constellation& qam_;
  flexcore::parallel::ThreadPool& pool_;
  std::map<std::string, Detectors> dets_;
  std::vector<flexcore::linalg::CMat> s_;  ///< merged channels (sharded)
  std::vector<flexcore::linalg::CVec> z_;  ///< merged vectors (sharded)
  std::vector<const flexcore::core::FlexCoreDetector*> typed_;
  std::vector<std::size_t> paths_;
  flexcore::detect::FrameGridOutput grid_;
};

}  // namespace servebench
