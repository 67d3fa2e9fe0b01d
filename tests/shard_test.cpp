// Tests for the decentralized baseband layer: shard::plan_shards /
// shard::compute_partial / the partial-QR feedforward merge, and the shard
// fabric in front of api::Runtime (RuntimeConfig::shards) — merge
// equivalence against the monolithic QR (property-tested over random
// channels for all three detector families), the single-cluster
// pass-through, rank-deficient clusters, and the per-shard RuntimeStats
// counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "channel/rng.h"
#include "frame_fixtures.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "reference_linalg.h"
#include "reference_qr.h"
#include "shard/partial_qr.h"

namespace fa = flexcore::api;
namespace fd = flexcore::detect;
namespace ch = flexcore::channel;
namespace sh = flexcore::shard;
namespace la = flexcore::linalg;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::linalg::cplx;
using flexcore::modulation::Constellation;
using flexcore::testing::expect_bit_identical;
using flexcore::testing::Frame;
using flexcore::testing::job_of;
using flexcore::testing::make_frame;
using flexcore::testing::merge_channel;
using flexcore::testing::MergedChannel;

namespace {

/// Documented merge tolerance: the stack preserves the Gram exactly in
/// exact arithmetic; in floating point the two factorization orders differ
/// by rounding accumulated over at most B=16 rows — comfortably inside
/// 1e-8 for unit-variance Rayleigh entries.
constexpr double kMergeTol = 1e-8;

double max_abs(const CMat& a, const CMat& b) {
  return flexcore::testref::max_abs_diff(a, b);
}

double max_abs(const CVec& a, const CVec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

CVec random_cvec(std::size_t n, ch::Rng& rng) {
  CVec v(n);
  for (auto& z : v) z = rng.cgaussian();
  return v;
}

}  // namespace

// ------------------------------------------------------------- plan_shards

TEST(PlanShards, BalancedContiguousAndClamped) {
  // 10 rows over 4 shards: sizes {3,3,2,2}, contiguous, covering [0,10).
  const auto plan = sh::plan_shards(10, 4);
  ASSERT_EQ(plan.size(), 4u);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    EXPECT_EQ(plan[s].begin, begin);
    EXPECT_GE(plan[s].count, 2u);
    EXPECT_LE(plan[s].count, 3u);
    begin += plan[s].count;
  }
  EXPECT_EQ(begin, 10u);
  EXPECT_EQ(plan[0].count + plan[1].count + plan[2].count + plan[3].count,
            10u);
  // Sizes differ by at most one and are non-increasing (extras lead).
  EXPECT_GE(plan.front().count, plan.back().count);

  // More shards than rows: clamp to one row per cluster.
  const auto thin = sh::plan_shards(3, 8);
  ASSERT_EQ(thin.size(), 3u);
  for (const auto& r : thin) EXPECT_EQ(r.count, 1u);

  // One shard spans everything.
  const auto mono = sh::plan_shards(7, 1);
  ASSERT_EQ(mono.size(), 1u);
  EXPECT_EQ(mono[0].begin, 0u);
  EXPECT_EQ(mono[0].count, 7u);

  EXPECT_THROW(sh::plan_shards(0, 2), std::invalid_argument);
  EXPECT_THROW(sh::plan_shards(4, 0), std::invalid_argument);
}

// --------------------------------------------------- C=1 bit-identity core

TEST(PartialQr, SingleClusterIsBitIdenticalToPlainQr) {
  ch::Rng rng(901);
  const CMat h = ch::rayleigh_iid(8, 4, rng);
  const CVec y = random_cvec(8, rng);

  // One cluster spanning all rows IS qr_mgs (tolerant path, full rank).
  const la::QrResult want = la::qr_mgs(h);
  const sh::PartialQr partial = sh::compute_partial(h.row_range(0, 8));
  EXPECT_EQ(max_abs(partial.q, want.Q), 0.0) << "C=1 Q must be bit-identical";
  EXPECT_EQ(max_abs(partial.r, want.R), 0.0) << "C=1 R must be bit-identical";

  const auto plan = sh::plan_shards(8, 1);
  const MergedChannel merged = merge_channel(h, y, plan);
  EXPECT_EQ(max_abs(merged.s, want.R), 0.0);
  CVec ybar(4);
  flexcore::testref::hermitian_mul_scalar(want.Q, y, ybar);
  EXPECT_EQ(max_abs(merged.z, ybar), 0.0) << "C=1 ybar must be bit-identical";
}

// ------------------------------------------- merge equivalence (property)

namespace {

/// One random instance: random Rayleigh H (b x nt) + random y, merged
/// under a c-cluster plan; checks Gram preservation and that both sorted
/// QR families derive the same ordering / R / rotated receive vector from
/// the stack as from H.
void check_merge_equivalence(std::size_t nt, std::size_t b, std::size_t c,
                             std::uint64_t seed) {
  SCOPED_TRACE("nt=" + std::to_string(nt) + " b=" + std::to_string(b) +
               " c=" + std::to_string(c) + " seed=" + std::to_string(seed));
  ch::Rng rng(seed);
  const CMat h = ch::rayleigh_iid(b, nt, rng);
  const CVec y = random_cvec(b, rng);
  const auto plan = sh::plan_shards(b, c);
  const MergedChannel merged = merge_channel(h, y, plan);

  ASSERT_EQ(merged.s.cols(), nt);
  ASSERT_EQ(merged.s.rows(), sh::merged_rows(plan, nt));
  ASSERT_LE(merged.s.rows(), b);

  // (1) Exact invariants of the feedforward merge: S^H S = H^H H and
  // S^H z = H^H y.
  EXPECT_LE(max_abs(merged.s.hermitian() * merged.s, h.hermitian() * h),
            kMergeTol);
  CVec shz(nt), hhy(nt);
  la::hermitian_mul_into(merged.s, merged.z, shz);
  la::hermitian_mul_into(h, y, hhy);
  EXPECT_LE(max_abs(shz, hhy), kMergeTol);

  // (2) Wübben SQRD: ordering is Gram-determined, so the stack yields the
  // same permutation, the same R, and the same rotated ybar.
  const la::QrResult wh = la::sorted_qr_wubben(h);
  const la::QrResult ws = la::sorted_qr_wubben(merged.s);
  EXPECT_EQ(ws.perm, wh.perm) << "SQRD ordering must survive the merge";
  EXPECT_LE(max_abs(ws.R, wh.R), kMergeTol);
  CVec ybar_h(nt), ybar_s(nt);
  la::hermitian_mul_into(wh.Q, y, ybar_h);
  la::hermitian_mul_into(ws.Q, merged.z, ybar_s);
  EXPECT_LE(max_abs(ybar_s, ybar_h), kMergeTol)
      << "detector-side ybar must survive the merge";

  // (3) FCSD ordering: also Gram-determined (noise amplification comes
  // from the Gram inverse).
  const std::size_t full_levels = nt >= 4 ? 2 : 1;
  const la::QrResult fh = la::fcsd_sorted_qr(h, full_levels);
  const la::QrResult fs = la::fcsd_sorted_qr(merged.s, full_levels);
  EXPECT_EQ(fs.perm, fh.perm) << "FCSD ordering must survive the merge";
  EXPECT_LE(max_abs(fs.R, fh.R), kMergeTol);
  la::hermitian_mul_into(fh.Q, y, ybar_h);
  la::hermitian_mul_into(fs.Q, merged.z, ybar_s);
  EXPECT_LE(max_abs(ybar_s, ybar_h), kMergeTol);
}

}  // namespace

TEST(PartialQr, MergeEquivalencePropertyOverRandomChannels) {
  // Antenna counts 2..16, cluster counts 1..4, thin clusters (rows < Nt,
  // pass-through), square channels, tall channels — three random seeds
  // each.
  const struct {
    std::size_t nt, b, c;
  } cases[] = {
      {2, 2, 2},   // thin clusters: pure pass-through
      {2, 5, 2},   {3, 7, 2},  {4, 8, 2},  {4, 8, 3},
      {4, 12, 4},  {5, 11, 3}, {8, 16, 2}, {8, 16, 4},
      {12, 16, 3},  // ragged: 6/5/5 rows, mixed compress/pass-through
      {16, 16, 2},  // square: both clusters thin
      {16, 16, 1},  // degenerate plan: single cluster
  };
  for (const auto& cs : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      check_merge_equivalence(cs.nt, cs.b, cs.c, 1000 * cs.nt + 10 * cs.b +
                                                     cs.c + seed * 7919);
    }
  }
}

TEST(PartialQr, RankDeficientClusterMergesExactly) {
  // A cluster whose antenna-row submatrix is singular (duplicated rows)
  // while the FULL channel keeps full column rank: qr_mgs would throw on
  // the submatrix; the tolerant partial QR zeroes the dead direction and
  // the merge invariants still hold exactly.
  ch::Rng rng(77);
  CMat h = ch::rayleigh_iid(8, 4, rng);
  for (std::size_t c = 0; c < 4; ++c) {
    h(1, c) = h(0, c);  // rows 0,1 identical -> cluster [0,4) is rank 3
    h(2, c) = h(0, c) * cplx{2.0, 0.0};
  }
  const CVec y = random_cvec(8, rng);

  EXPECT_THROW(la::qr_mgs(h.row_range(0, 4)), std::runtime_error);
  const sh::PartialQr partial = sh::compute_partial(h.row_range(0, 4));
  // H_c = Q_c R_c still holds with the zeroed direction.
  const CMat recon = partial.q * partial.r;
  EXPECT_LE(max_abs(recon, h.row_range(0, 4).materialize()), 1e-12);

  const auto plan = sh::plan_shards(8, 2);
  const MergedChannel merged = merge_channel(h, y, plan);
  EXPECT_LE(max_abs(merged.s.hermitian() * merged.s, h.hermitian() * h),
            kMergeTol);
  const la::QrResult wh = la::sorted_qr_wubben(h);
  const la::QrResult ws = la::sorted_qr_wubben(merged.s);
  EXPECT_EQ(ws.perm, wh.perm);
  EXPECT_LE(max_abs(ws.R, wh.R), kMergeTol);
}

// --------------------------------- detector families on merged channels

TEST(PartialQr, DetectorFamiliesMatchOnMergedChannel) {
  // End to end per family: detection on (S, z) must produce the same
  // symbols as on (H, y), with metrics within the merge tolerance.
  const char* specs[] = {"flexcore-16", "a-flexcore-12", "fcsd-L1"};
  const double noise_var = ch::noise_var_for_snr_db(14.0);
  ch::Rng rng(555);
  const Constellation qam(16);
  const CMat h = ch::rayleigh_iid(12, 4, rng);
  const auto plan = sh::plan_shards(12, 3);

  // A batch of transmissions over h.
  constexpr std::size_t kVecs = 6;
  std::vector<CVec> ys, zs;
  CVec s(4);
  for (std::size_t t = 0; t < kVecs; ++t) {
    for (std::size_t u = 0; u < 4; ++u) {
      s[u] = qam.point(
          static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(16))));
    }
    ys.push_back(ch::transmit(h, s, noise_var, rng));
  }
  CMat merged_h;
  for (std::size_t t = 0; t < kVecs; ++t) {
    MergedChannel m = merge_channel(h, ys[t], plan);
    merged_h = std::move(m.s);  // identical every iteration (same H)
    zs.push_back(std::move(m.z));
  }

  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    fa::PipelineConfig cfg;
    cfg.detector = spec;
    cfg.qam_order = 16;
    cfg.threads = 1;
    fa::UplinkPipeline mono(cfg), sharded(cfg);
    mono.set_channel(h, noise_var);
    sharded.set_channel(merged_h, noise_var);
    const fd::BatchResult rm = mono.detect(ys);
    const fd::BatchResult rs = sharded.detect(zs);
    ASSERT_EQ(rm.results.size(), rs.results.size());
    for (std::size_t t = 0; t < rm.results.size(); ++t) {
      EXPECT_EQ(rs.results[t].symbols, rm.results[t].symbols)
          << "vector " << t;
      EXPECT_NEAR(rs.results[t].metric, rm.results[t].metric, 1e-6)
          << "vector " << t;
    }
  }
}

// ----------------------------------------------------- validation guards

TEST(FrameJobValidation, RejectsUnderDeterminedAndMismatchedAntennas) {
  const Constellation qam(16);
  const double nv = 0.05;

  // B < Nt: rejected at validation with a message naming the geometry,
  // not deep inside QR on a dispatcher thread.
  Frame thin = make_frame(qam, 2, 2, 4, 4, nv, 31);
  for (auto& c : thin.channels) c = CMat(3, 4);
  for (auto& y : thin.ys) y.resize(3);
  try {
    fa::validate_frame_job(job_of(thin, nv));
    FAIL() << "B < Nt must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("receive antennas"),
              std::string::npos)
        << e.what();
  }

  // Subcarriers disagreeing on the antenna count: named as such.
  Frame ragged = make_frame(qam, 2, 2, 6, 4, nv, 32);
  ragged.channels[1] = CMat(5, 4);
  try {
    fa::validate_frame_job(job_of(ragged, nv));
    FAIL() << "mismatched antenna counts must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("antenna"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------- sharded Runtime

namespace {

std::vector<fd::DetectionResult> sync_reference(const std::string& spec,
                                                int qam, const Frame& fr,
                                                double noise_var) {
  fa::PipelineConfig cfg;
  cfg.detector = spec;
  cfg.qam_order = qam;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  return pipe.detect_frame(job_of(fr, noise_var)).results;
}

}  // namespace

TEST(ShardFabric, SingleClusterFramesPassThroughBitIdentical) {
  // shards = 1 builds no fabric at all; with shards = 4, frames with ONE
  // antenna row leave a single cluster and skip the stage.  Either way the
  // caller's job is admitted verbatim — results bit-identical to the
  // synchronous reference, and the fabric's counters stay untouched.
  const double nv = ch::noise_var_for_snr_db(12.0);
  const Constellation qam(16);
  const Frame fr = make_frame(qam, 4, 3, 1, 1, nv, 300);

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    fa::RuntimeConfig rcfg;
    rcfg.shards = shards;
    rcfg.threads_per_shard = 1;
    rcfg.threads = 2;
    rcfg.dispatchers = 1;
    fa::Runtime rt(rcfg);
    fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
    fa::FrameTicket t = rt.submit(cell, job_of(fr, nv));
    ASSERT_EQ(t.wait(), fa::TicketStatus::kDone);
    expect_bit_identical(t.try_get()->results,
                         sync_reference("flexcore-8", 16, fr, nv), "pass");

    const fa::RuntimeStats rs = rt.stats();
    EXPECT_EQ(rs.shards.size(), shards == 1 ? 0u : shards);
    for (const fa::ShardStats& ss : rs.shards) {
      EXPECT_EQ(ss.frames, 0u) << "a single cluster never reaches the fabric";
    }
    EXPECT_EQ(rs.stage(flexcore::obs::Stage::kShardPartialQr).count(), 0u);
  }
}

TEST(ShardFabric, MultiShardMatchesMonolithicSymbolsAndCounters) {
  // C in {2, 4} against the monolithic runtime on the same frames: same
  // detected symbols, metrics within the merge tolerance, and per-shard
  // counters consistent with the tickets.
  const double nv = ch::noise_var_for_snr_db(14.0);
  constexpr std::size_t kFrames = 4;
  constexpr std::size_t kSc = 5;   // subcarriers
  constexpr std::size_t kB = 12;   // receive antennas
  constexpr std::size_t kNt = 4;

  for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));

    fa::RuntimeConfig mono_cfg;
    mono_cfg.threads = 2;
    mono_cfg.dispatchers = 1;
    fa::Runtime mono(mono_cfg);
    fa::Cell& mono_cell =
        mono.open_cell({.detector = "flexcore-16", .qam_order = 16});

    fa::RuntimeConfig scfg = mono_cfg;
    scfg.shards = shards;
    scfg.threads_per_shard = 2;
    fa::Runtime rt(scfg);
    fa::Cell& cell = rt.open_cell({.detector = "flexcore-16", .qam_order = 16});

    std::vector<Frame> frames;
    std::vector<fa::FrameTicket> mono_t, shard_t;
    for (std::size_t i = 0; i < kFrames; ++i) {
      frames.push_back(
          make_frame(cell.constellation(), kSc, 3, kB, kNt, nv, 400 + i));
    }
    for (std::size_t i = 0; i < kFrames; ++i) {
      mono_t.push_back(mono.submit(mono_cell, job_of(frames[i], nv)));
      shard_t.push_back(rt.submit(cell, job_of(frames[i], nv)));
    }
    mono.drain();
    rt.drain();

    for (std::size_t i = 0; i < kFrames; ++i) {
      ASSERT_EQ(mono_t[i].wait(), fa::TicketStatus::kDone);
      ASSERT_EQ(shard_t[i].wait(), fa::TicketStatus::kDone);
      const auto& rm = mono_t[i].try_get()->results;
      const auto& rs = shard_t[i].try_get()->results;
      ASSERT_EQ(rm.size(), rs.size());
      for (std::size_t v = 0; v < rm.size(); ++v) {
        EXPECT_EQ(rs[v].symbols, rm[v].symbols)
            << "frame " << i << " vector " << v;
        EXPECT_NEAR(rs[v].metric, rm[v].metric, 1e-6)
            << "frame " << i << " vector " << v;
      }
    }

    // Per-shard counters: every shard saw every sharded frame once, all
    // subcarriers; the clusters partition the B antenna rows.
    const fa::RuntimeStats rs = rt.stats();
    ASSERT_EQ(rs.shards.size(), shards);
    std::uint64_t rows_total = 0;
    for (const fa::ShardStats& ss : rs.shards) {
      EXPECT_EQ(ss.frames, kFrames) << "shard " << ss.shard_id;
      EXPECT_EQ(ss.partials, kFrames * kSc) << "shard " << ss.shard_id;
      EXPECT_EQ(ss.threads, 2u);
      rows_total += ss.rows_processed;
    }
    EXPECT_EQ(rows_total, kFrames * kSc * kB)
        << "clusters must partition the antenna rows exactly";
    EXPECT_EQ(rs.frames_in, kFrames);
    EXPECT_EQ(rs.frames_out, kFrames);
  }
}

TEST(ShardFabric, PollModeAndDeadlinesComposeWithShardStage) {
  // dispatchers == 0: the shard stage runs in submit, detection is pumped
  // by run_one(); a generous deadline survives the shard-stage deduction.
  fa::RuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.threads_per_shard = 1;
  rcfg.threads = 1;
  rcfg.dispatchers = 0;
  rcfg.queue_capacity = 4;
  rcfg.policy = fa::QueuePolicy::kDeadlineExpire;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const double nv = 0.05;
  const Frame fr = make_frame(cell.constellation(), 3, 2, 8, 4, nv, 510);

  fa::FrameTicket ok =
      rt.submit(cell, job_of(fr, nv), /*deadline_us=*/60'000'000);
  ASSERT_TRUE(rt.run_one());
  EXPECT_FALSE(rt.run_one());
  EXPECT_EQ(ok.wait(), fa::TicketStatus::kDone);

  const fa::RuntimeStats rs = rt.stats();
  ASSERT_EQ(rs.shards.size(), 2u);
  EXPECT_EQ(rs.shards[0].frames, 1u);
  EXPECT_EQ(rs.shards[1].frames, 1u);
  EXPECT_EQ(rs.frames_out, 1u);
}

TEST(ShardFabric, ValidatesJobsBeforeTheShardStage) {
  fa::RuntimeConfig rcfg;
  rcfg.shards = 2;
  rcfg.dispatchers = 0;
  fa::Runtime rt(rcfg);
  fa::Cell& cell = rt.open_cell({.detector = "flexcore-8", .qam_order = 16});
  const Frame fr = make_frame(cell.constellation(), 2, 2, 6, 4, 0.05, 520);

  fa::FrameJob bad = job_of(fr, 0.05);
  bad.vectors_per_channel = 3;
  EXPECT_THROW(rt.submit(cell, bad), std::invalid_argument);
  const fa::RuntimeStats rs = rt.stats();
  EXPECT_EQ(rs.frames_in, 0u);
  for (const fa::ShardStats& ss : rs.shards) {
    EXPECT_EQ(ss.frames, 0u) << "rejected jobs must not touch the fabric";
  }
}
