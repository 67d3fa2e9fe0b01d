// Shared fixtures for the frame-level and runtime test suites: the
// synthetic frame builders live in the library (src/sim/frame_synth.h, the
// same workload the benches measure); this header only aliases them into
// the test namespace and adds the merged-frame reference of the shard
// fabric and the gtest bit-identity assertion the frame contract is stated
// in.
#pragma once

#include <gtest/gtest.h>

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

/// The frame a runtime with `shards` antenna clusters admits: the merged
/// (S, z) of every subcarrier, built with the public shard:: calls (the
/// same primitives the shard fabric runs, so detection on it is
/// bit-identical to the runtime's).
inline Frame merged_frame(const Frame& fr, std::size_t shards) {
  Frame out = fr;
  const auto plan = shard::plan_shards(fr.channels.front().rows(), shards);
  for (std::size_t f = 0; f < fr.channels.size(); ++f) {
    for (std::size_t t = 0; t < fr.nv; ++t) {
      shard::MergedChannel m =
          shard::merge_channel(fr.channels[f], fr.ys[f * fr.nv + t], plan);
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
