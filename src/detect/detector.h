// Common interface of all MIMO detectors in this library.
//
// A detector consumes one received vector y (one OFDM subcarrier of one
// MIMO-OFDM symbol) and produces hard symbol decisions for all Nt transmit
// streams.  Channel-dependent work (QR decompositions, FlexCore
// pre-processing, filter matrices) happens once in set_channel and is reused
// for every y until the channel changes — mirroring the paper's split
// between per-channel pre-processing and per-vector detection.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "detect/workspace.h"
#include "linalg/matrix.h"
#include "modulation/constellation.h"

namespace flexcore::parallel {
class ThreadPool;
}  // namespace flexcore::parallel

namespace flexcore::detect {

using linalg::CMat;
using linalg::CVec;
using linalg::cplx;
using modulation::Constellation;

/// Instrumentation counters filled in by detectors.  `real_mults` uses the
/// accounting of the paper's Table 2 (one complex multiply = 4 real
/// multiplies); `flops` additionally counts additions (complex multiply =
/// 6 flops, complex add = 2 flops) for the Table 1 reproduction.
struct DetectionStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t real_mults = 0;
  std::uint64_t flops = 0;
  std::uint64_t paths_evaluated = 0;

  DetectionStats& operator+=(const DetectionStats& o) {
    nodes_visited += o.nodes_visited;
    real_mults += o.real_mults;
    flops += o.flops;
    paths_evaluated += o.paths_evaluated;
    return *this;
  }
};

/// Hard detection output.
struct DetectionResult {
  /// Detected symbol index per transmit antenna, in the ORIGINAL antenna
  /// order (any internal column sorting is undone before returning).
  std::vector<int> symbols;
  /// Euclidean distance ||y - H s_hat||^2 of the selected hypothesis in the
  /// detector's internal (QR-rotated) coordinates.
  double metric = 0.0;
  DetectionStats stats;
};

/// Output of one Detector::detect_batch call.
///
/// Batch API contract:
///  * `results` holds one DetectionResult per input vector, in input order,
///    identical (symbols and metric) to what per-vector detect() returns.
///    Both run the detector's one detect_into per vector, and a reused
///    BatchResult's entries are overwritten whole.
///  * `stats` is the sum of the per-vector stats, identical to per-vector
///    detect()'s.  Path-parallel detectors (FlexCore, FCSD) report the
///    closed-form cost of walking every path in full
///    (detect::PathPlan::walk_stats), the paper's Table 2 accounting.
///  * `sic_fallbacks` counts vectors for which every path was deactivated
///    (FlexCore's out-of-constellation policy) and the detector fell back
///    to plain SIC slicing — the raw task grid punts this policy to
///    detect_batch.  0 for every other detector.
///  * `tasks` is the units of parallel work (vectors * paths for the
///    pooled path grid, plain vector count for the sequential loop).
///  * `elapsed_seconds` is the wall-clock of the detection kernel (for grid
///    overrides: rotation + path grid + min-reduction, the paper's Fig. 11
///    timing; winner reconstruction is excluded).
struct BatchResult {
  std::vector<DetectionResult> results;
  DetectionStats stats;
  std::size_t sic_fallbacks = 0;
  std::size_t tasks = 0;
  double elapsed_seconds = 0.0;
};

/// Throws std::invalid_argument naming `noise_var`, prefixed by `where`,
/// unless it is finite and >= 0.  The path search ranks paths by error
/// probabilities computed from the noise variance and the MMSE filter
/// regularizes with it, so a NaN, infinite or negative value would install
/// garbage without any error; zero is a legitimate (noiseless) estimate.
/// The throw is out of line, so callers on the hot path stay lint-clean.
void check_noise_var(const char* where, double noise_var);

/// rx[i][x] = R(i,i) * c.point(x) for every level i and symbol x: the
/// scaled constellation the sequential tree detectors (K-best, adaptive
/// K-best, trellis, ML sphere decoder) slice each level against.
std::vector<CVec> diagonal_points(const CMat& r, const Constellation& c);

/// Abstract MIMO detector.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Installs a new channel.  `noise_var` is the per-receive-antenna complex
  /// noise variance (Es = 1 constellations assumed).  Every detector checks
  /// it first (check_noise_var), so a refused value leaves the installed
  /// channel untouched.
  void set_channel(const CMat& h, double noise_var) {
    check_noise_var("Detector::set_channel", noise_var);
    install_channel(h, noise_var);
  }

  /// Detects one received vector (detect_into on a fresh workspace).
  /// Requires a prior set_channel call.
  DetectionResult detect(const CVec& y) const;

  /// Detects a batch of received vectors sharing the installed channel.
  /// This is the primary entry point for callers.  The base implementation
  /// is the one sequential loop: detect_into per vector, one workspace
  /// threaded through the batch.  Path-parallel detectors (FlexCore, FCSD;
  /// detect::PathParallelDetector) override it to fan the flat vector x
  /// path task grid across the attached thread pool (see set_thread_pool),
  /// and run this loop without one.  See BatchResult for the output
  /// contract.
  virtual void detect_batch(std::span<const CVec> ys, BatchResult* out) const;

  /// Attaches a (non-owning) thread pool for detect_batch overrides to fan
  /// work across; pass nullptr to detach.  Sequential detectors ignore it.
  /// api::UplinkPipeline wires its own pool in automatically.
  virtual void set_thread_pool(parallel::ThreadPool* pool);

  /// Short identifier used in benchmark tables ("flexcore-64", "fcsd-L2",
  /// ...).  api::make_detector accepts exactly these spellings.
  virtual std::string name() const = 0;

  /// Number of parallel tasks (processing elements at minimum latency) this
  /// detector spreads one vector's detection across.  1 for sequential
  /// detectors.
  virtual std::size_t parallel_tasks() const { return 1; }

 private:
  /// The detector's own channel install behind set_channel, with
  /// `noise_var` already checked.
  virtual void install_channel(const CMat& h, double noise_var) = 0;

  /// The detector's own detection of one vector behind detect and the
  /// sequential detect_batch: scratch in `ws` (contents unspecified
  /// between calls), result into `*res`, every field of which it must
  /// write — the batch loop reuses its results across calls.  Returns
  /// true when a fallback fired (FlexCore's plain-SIC rescue).
  virtual bool detect_into(const CVec& y, Workspace& ws,
                           DetectionResult* res) const = 0;
};

}  // namespace flexcore::detect
