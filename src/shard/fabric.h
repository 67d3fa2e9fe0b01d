// Shard fabric: decentralized per-antenna-cluster preprocessing (Li et
// al., RaPro), the stage api::Runtime::submit runs in front of admission
// when RuntimeConfig::shards > 1.  The B antenna rows split into C
// contiguous clusters (shard::plan_shards); each cluster's driver thread
// runs the partial QR of its rows and the rotation of its slice of every
// received vector, for every subcarrier, on its own ThreadPool, and the
// partials stack into the merged (S, z) the detector consumes
// (shard/partial_qr.h: exact, not approximate).  The admitted job
// borrows fabric-owned merged buffers, so the caller's spans are released
// when submit() returns.  A failing shard is retried once, then the frame
// is bypassed (identity merge); a stalled one is cancelled after
// RuntimeConfig::shard_stall_budget_us.  With C > 1 the merged job is not
// bit-identical to the raw one (rotations reorder sums) but is to
// detection on the (S, z) the public shard:: calls build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "api/runtime.h"
#include "shard/partial_qr.h"

namespace flexcore::shard {

/// One frame's merged buffers: per-subcarrier stacked channels S (K x Nt)
/// and the stacked rotated vectors z, laid out like FrameJob::ys.
struct MergedFrame {
  std::vector<linalg::CMat> channels;
  std::vector<linalg::CVec> zs;
};

class Fabric {
 public:
  /// Reads shards, threads_per_shard, shard_stall_budget_us and
  /// shard_fault_probe; spawns one driver per shard.
  explicit Fabric(const api::RuntimeConfig& cfg);
  /// Joins the drivers.  Every MergedFrame handed out must be released
  /// first (they return to this fabric's freelist).
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Clusters the frame would use: min(shards, antenna rows), 0 for an
  /// empty frame.  The stage only runs for >= 2.
  std::size_t clusters(const api::FrameJob& job) const noexcept;

  /// One frame's trip through the stage.
  struct Result {
    /// The merged (S, z) the admitted job borrows; returns to the
    /// freelist when the last owner drops it.
    std::shared_ptr<const MergedFrame> merged;
    double stage_us = 0.0;      ///< fan-out -> merge, wall time
    std::uint32_t retries = 0;  ///< fan-outs re-run after a shard fault
    bool bypassed = false;      ///< identity merge (failed/stalled fabric)
  };

  /// Partial QR + rotation of every subcarrier across the clusters, merged
  /// into fabric-owned buffers.  Pre: the job is validated and
  /// clusters(job) >= 2.  No driver reads `job` after this returns.
  Result run(const api::FrameJob& job, const obs::TraceCtx& trace);

  /// Per-cluster counters (RuntimeStats::shards).
  std::vector<api::ShardStats> shard_stats() const;

 private:
  struct PrepJob;
  struct Shard;

  std::shared_ptr<MergedFrame> acquire_merged(std::size_t nsc, std::size_t k,
                                              std::size_t nt,
                                              std::size_t n_vectors);
  void shard_loop(std::size_t shard_id);
  /// This shard's slice of one frame: partial QR + rotation for every
  /// subcarrier, fanned over the shard's own pool.  Returns false when any
  /// subcarrier's partial failed numerically (non-finite / degenerate
  /// channel rows) — exceptions never cross the pool boundary; the caller
  /// marks the attempt failed and run() retries or bypasses.
  bool run_prep(std::size_t shard_id, const PrepJob& pj);

  std::uint64_t stall_budget_us_ = 0;
  api::ShardFaultProbe fault_probe_;  ///< chaos hook (empty in production)
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Sharded-path frame sequence handed to the probe.
  std::atomic<std::uint64_t> frame_seq_{0};

  std::mutex freelist_mu_;
  std::vector<std::unique_ptr<MergedFrame>> freelist_;
};

}  // namespace flexcore::shard
