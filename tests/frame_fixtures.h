// Shared fixtures for the frame-level, shard and runtime test suites: the
// synthetic frame builders live in the library (src/sim/frame_synth.h, the
// same workload the benches measure); this header only aliases them into
// the test namespace and adds the merged-channel reference of the shard
// fabric and the gtest bit-identity assertion the frame contract is stated
// in.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "detect/detector.h"
#include "shard/partial_qr.h"
#include "sim/frame_synth.h"

namespace flexcore::testing {

using Frame = sim::SynthFrame;

inline Frame make_frame(const modulation::Constellation& c, std::size_t nsc,
                        std::size_t nv, std::size_t nr, std::size_t nt,
                        double noise_var, std::uint64_t seed) {
  return sim::synth_frame(c, nsc, nv, nr, nt, noise_var, seed);
}

inline api::FrameJob job_of(const Frame& fr, double noise_var) {
  return sim::frame_job_of(fr, noise_var);
}

/// The merged (S, z) pair of one channel and one received vector under
/// `plan`, built with the public shard:: calls: compute_partial,
/// rotate_partial and stack_partials, the same primitives the shard
/// fabric (shard/fabric.h) spreads across per-shard thread pools.
struct MergedChannel {
  linalg::CMat s;  ///< stacked compressed channel, K x Nt
  linalg::CVec z;  ///< stacked rotated receive vector, K entries
};
inline MergedChannel merge_channel(linalg::CMatView h,
                                   std::span<const linalg::cplx> y,
                                   std::span<const shard::RowRange> plan) {
  if (y.size() != h.rows()) {
    throw std::invalid_argument("merge_channel: y size != H rows");
  }
  const std::size_t nt = h.cols();
  std::vector<shard::PartialQr> partials;
  MergedChannel out;
  out.z = linalg::CVec(shard::merged_rows(plan, nt));
  std::size_t zrow = 0;
  for (const shard::RowRange& range : plan) {
    const linalg::CMatView rows(h.data() + range.begin * nt, range.count, nt);
    partials.push_back(shard::compute_partial(rows));
    const std::size_t k_c = shard::compressed_rows(range, nt);
    shard::rotate_partial(partials.back(), y.subspan(range.begin, range.count),
                          std::span<linalg::cplx>(out.z.data() + zrow, k_c));
    zrow += k_c;
  }
  out.s = shard::stack_partials(partials);
  return out;
}

/// The frame a runtime with `shards` antenna clusters admits: the merged
/// (S, z) of every subcarrier (detection on it is bit-identical to the
/// runtime's).
inline Frame merged_frame(const Frame& fr, std::size_t shards) {
  Frame out = fr;
  const auto plan = shard::plan_shards(fr.channels.front().rows(), shards);
  for (std::size_t f = 0; f < fr.channels.size(); ++f) {
    for (std::size_t t = 0; t < fr.nv; ++t) {
      MergedChannel m =
          merge_channel(fr.channels[f], fr.ys[f * fr.nv + t], plan);
      out.channels[f] = std::move(m.s);
      out.ys[f * fr.nv + t] = std::move(m.z);
    }
  }
  return out;
}

/// The frame contract's equality: same symbols AND bit-identical metrics.
inline void expect_bit_identical(
    const std::vector<detect::DetectionResult>& got,
    const std::vector<detect::DetectionResult>& want, const char* what = "") {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_EQ(got[v].symbols, want[v].symbols) << what << " vector " << v;
    EXPECT_DOUBLE_EQ(got[v].metric, want[v].metric)
        << what << " vector " << v;
  }
}

}  // namespace flexcore::testing
