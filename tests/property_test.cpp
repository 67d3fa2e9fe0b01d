// Property-based sweeps: randomized invariants checked across many seeds
// and parameters (TEST_P / INSTANTIATE_TEST_SUITE_P style, per the project
// testing conventions).
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "api/detector_registry.h"
#include "channel/channel.h"
#include "channel/trace.h"
#include "coding/convolutional.h"
#include "core/flexcore_detector.h"
#include "core/preprocessing.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "perfmodel/fixed_point.h"
#include "reference_linalg.h"
#include "reference_ml.h"
#include "reference_walk.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fl = flexcore::linalg;
namespace pm = flexcore::perfmodel;
namespace ref = flexcore::testref;
using flexcore::modulation::Constellation;

// ------------------------------------------------------------ linalg sweeps

class QrPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QrPropertySweep, AllDecompositionsReconstruct) {
  ch::Rng rng(GetParam());
  const std::size_t nt = 2 + GetParam() % 11;  // 2..12
  const fl::CMat h = ch::rayleigh_iid(nt + GetParam() % 3, nt, rng);

  struct Variant {
    const char* name;
    fl::QrResult qr;
  };
  const Variant variants[] = {
      {"mgs", fl::qr_mgs(h)},
      {"wubben", fl::sorted_qr_wubben(h)},
      {"fcsd", fl::fcsd_sorted_qr(h, 1 + GetParam() % nt)},
  };
  for (const auto& v : variants) {
    // Q orthonormal.
    EXPECT_LT(ref::max_abs_diff(v.qr.Q.hermitian() * v.qr.Q,
                                fl::CMat::identity(nt)),
              1e-9)
        << v.name;
    // Reconstruction of the permuted channel.
    fl::CMat hp(h.rows(), nt);
    for (std::size_t j = 0; j < nt; ++j) hp.set_col(j, h.col(v.qr.perm[j]));
    EXPECT_LT(ref::max_abs_diff(v.qr.Q * v.qr.R, hp), 1e-9) << v.name;
    // Permutation validity.
    std::set<std::size_t> seen(v.qr.perm.begin(), v.qr.perm.end());
    EXPECT_EQ(seen.size(), nt) << v.name;
    // Unitary invariance of singular values.
    const fl::RVec sh = ref::singular_values(h);
    const fl::RVec sr = ref::singular_values(v.qr.R);
    for (std::size_t i = 0; i < nt; ++i) {
      EXPECT_NEAR(sh[i], sr[i], 1e-7) << v.name;
    }
  }
}

TEST_P(QrPropertySweep, InverseSolvesRandomSystems) {
  ch::Rng rng(GetParam() * 7 + 1);
  const std::size_t n = 1 + GetParam() % 12;
  const fl::CMat a = ch::rayleigh_iid(n, n, rng);
  fl::CVec b(n);
  for (fl::cplx& z : b) z = rng.cgaussian(1.0);
  const fl::CVec x = fl::inverse(a) * b;
  const fl::CVec ax = a * x;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(ax[i] - b[i]), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QrPropertySweep,
                         ::testing::Range<std::uint64_t>(0, 16));

// ----------------------------------------------- position-vector bijection

class BijectionSweep : public ::testing::TestWithParam<std::uint64_t> {};

// The exact sort is an ablation no plan compiles: these sweeps run it on
// the scalar reference walk over the detector's QR and path set.

TEST_P(BijectionSweep, AllPositionVectorsWithExactOrderingAreML) {
  // For any channel and observation, the |Q|^Nt position vectors map
  // bijectively onto tree leaves, so exhaustive FlexCore == exhaustive ML.
  Constellation c(4);
  ch::Rng rng(GetParam() * 13 + 5);
  const std::size_t nt = 2 + GetParam() % 2;  // 2..3
  const fl::CMat h = ch::rayleigh_iid(nt, nt, rng);
  const double nv = 0.15;

  fa::DetectorConfig acfg{.constellation = &c};
  acfg.flexcore.num_pes = 1;
  while (static_cast<double>(acfg.flexcore.num_pes) <
         std::pow(4.0, static_cast<double>(nt))) {
    acfg.flexcore.num_pes *= 4;
  }
  acfg.flexcore.candidate_list_cap = 1u << 20;
  const auto det =
      fa::make_detector_as<fc::FlexCoreDetector>("flexcore", acfg);
  det->set_channel(h, nv);

  fl::CVec s(nt);
  for (std::size_t u = 0; u < nt; ++u) {
    s[u] = c.point(static_cast<int>(rng.uniform_int(4)));
  }
  const fl::CVec y = ch::transmit(h, s, nv, rng);
  const auto flex = ref::FlexCoreReference(*det, fc::OrderingMode::kExactSort)
                        .detect(det->rotate(y));
  const auto ml = ref::exhaustive_ml(c, h, y);
  EXPECT_EQ(flex.symbols, ml.symbols);
  EXPECT_NEAR(flex.metric, ml.metric, 1e-9);
}

TEST_P(BijectionSweep, PreprocessingCoversDistinctLeavesExactly) {
  // With exact ordering every selected position vector resolves to a
  // distinct symbol vector (ties have measure zero).
  Constellation c(16);
  ch::Rng rng(GetParam() * 31 + 2);
  const fl::CMat h = ch::rayleigh_iid(4, 4, rng);
  fa::DetectorConfig acfg{.constellation = &c};
  acfg.flexcore.num_pes = 32;
  const auto det =
      fa::make_detector_as<fc::FlexCoreDetector>("flexcore", acfg);
  det->set_channel(h, 0.05);
  fl::CVec s(4, c.point(0));
  const fl::CVec y = ch::transmit(h, s, 0.05, rng);
  const fl::CVec ybar = det->rotate(y);
  const ref::FlexCoreReference exact(*det, fc::OrderingMode::kExactSort);

  std::set<std::vector<int>> leaves;
  for (std::size_t p = 0; p < det->active_paths(); ++p) {
    // Exact ordering never deactivates for k <= |Q|.
    const ref::PathEval ev = exact.evaluate_path(ybar, p);
    ASSERT_TRUE(ev.valid && std::isfinite(ev.metric));
    EXPECT_TRUE(leaves.insert(ev.symbols).second)
        << "two position vectors resolved to the same leaf";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BijectionSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

// --------------------------------------------------------------- model sums

class ModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelSweep, PathProbabilitiesFormSubDistribution) {
  // Sum over any path subset is < 1, and the full-budget sum approaches
  // 1 - prod_l Pe(l)^|Q| from below.
  Constellation c(16);
  ch::Rng rng(GetParam() + 100);
  const fl::CMat h = ch::rayleigh_iid(6, 6, rng);
  const auto qr = fl::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 256;
  const double nv = 0.02 + 0.2 * rng.uniform();
  const auto res = fc::find_most_promising_paths(qr.R, nv, c, cfg);
  EXPECT_GT(res.pc_sum, 0.0);
  EXPECT_LT(res.pc_sum, 1.0);
  for (const auto& rp : res.paths) {
    EXPECT_GT(rp.pc, 0.0);
    EXPECT_LE(rp.pc, res.paths.front().pc);
  }
}

TEST_P(ModelSweep, DedupRuleNeverProducesDuplicates) {
  Constellation c(64);
  ch::Rng rng(GetParam() + 200);
  const fl::CMat h = ch::rayleigh_iid(8, 8, rng);
  const auto qr = fl::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 64 + GetParam() * 16;
  const auto res = fc::find_most_promising_paths(qr.R, 0.05, c, cfg);
  std::set<fc::PositionVector> seen;
  for (const auto& rp : res.paths) {
    EXPECT_TRUE(seen.insert(rp.p).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

// -------------------------------------------------------------- LUT sweeps

class LutSweep : public ::testing::TestWithParam<int> {};

TEST_P(LutSweep, KOneAlwaysEqualsSlice) {
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  ch::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int t = 0; t < 500; ++t) {
    // Any point, including far outside the constellation.
    const fl::cplx z{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    const int k1 = lut.kth_symbol(z, 1);
    if (k1 >= 0) {
      EXPECT_EQ(k1, c.slice(z));
    } else {
      // Deactivation at k=1 only happens when the slicer center itself is
      // off-grid (point beyond the outermost row/column).
      const int ci = c.unbounded_axis_index(z.real());
      const int cq = c.unbounded_axis_index(z.imag());
      EXPECT_FALSE(c.axes_in_range(ci, cq));
    }
  }
}

TEST_P(LutSweep, SkipPolicyEnumeratesEverySymbolForInteriorPoints) {
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  const fl::cplx z{0.1 * c.scale(), -0.2 * c.scale()};  // central
  std::set<int> seen;
  for (int k = 1; k <= c.order(); ++k) {
    const int sym = lut.kth_symbol(z, k, fc::InvalidEntryPolicy::kSkipToValid);
    if (sym >= 0) seen.insert(sym);
  }
  // A central point sees (nearly) the whole constellation; allow the tail
  // entries beyond the LUT's |Q| window to be missed.
  EXPECT_GE(static_cast<int>(seen.size()), c.order() * 3 / 4);
}

INSTANTIATE_TEST_SUITE_P(Orders, LutSweep, ::testing::Values(4, 16, 64, 256));

// ------------------------------------------------------------ coding sweeps

class ViterbiSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViterbiSweep, SingleBitErrorAnywhereIsAlwaysCorrected) {
  ch::Rng rng(GetParam() + 300);
  flexcore::coding::BitVec info(64);
  for (auto& b : info) b = rng.bit();
  const auto coded = flexcore::coding::conv_encode(info);
  // Flip one bit at a pseudo-random position per seed, all positions
  // covered across the sweep via stride sampling.
  for (std::size_t pos = GetParam(); pos < coded.size(); pos += 8) {
    auto corrupted = coded;
    corrupted[pos] ^= 1;
    EXPECT_EQ(flexcore::coding::viterbi_decode(corrupted), info)
        << "pos=" << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, ViterbiSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

// --------------------------------------------------------- fixed point sweep

class FixedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FixedSweep, QuantizationErrorBounded) {
  using F = pm::Fixed<16, 11>;
  std::mt19937_64 gen(GetParam());
  std::uniform_real_distribution<double> u(-15.0, 15.0);
  for (int t = 0; t < 200; ++t) {
    const double v = u(gen);
    EXPECT_NEAR(F::from_double(v).to_double(), v, 0.5 / F::kScale + 1e-12);
  }
}

TEST_P(FixedSweep, ComplexProductErrorBounded) {
  using FC = pm::FixedComplex<16, 11>;
  std::mt19937_64 gen(GetParam() + 50);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  for (int t = 0; t < 200; ++t) {
    const fl::cplx a{u(gen), u(gen)}, b{u(gen), u(gen)};
    const fl::cplx got = (FC::from_cplx(a) * FC::from_cplx(b)).to_cplx();
    const fl::cplx want = a * b;
    EXPECT_LT(std::abs(got - want), 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedSweep,
                         ::testing::Range<std::uint64_t>(0, 6));

// -------------------------------------------------------- channel stationarity

class ChannelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelSweep, TraceEnergyIndependentOfConfigKnobs) {
  ch::TraceConfig cfg;
  cfg.nr = 4 + GetParam() % 4;
  cfg.nt = 4;
  cfg.num_taps = 1 + GetParam() % 8;
  cfg.rx_correlation = 0.1 * static_cast<double>(GetParam() % 8);
  ch::TraceGenerator gen(cfg, GetParam() + 400);
  double power = 0.0;
  std::size_t count = 0;
  for (int p = 0; p < 25; ++p) {
    const auto trace = gen.next();
    for (const auto& h : trace.per_subcarrier) {
      power += ref::frobenius_norm(h) * ref::frobenius_norm(h);
      count += h.rows() * h.cols();
    }
  }
  EXPECT_NEAR(power / static_cast<double>(count), 1.0, 0.15)
      << "taps=" << cfg.num_taps << " rho=" << cfg.rx_correlation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelSweep,
                         ::testing::Range<std::uint64_t>(0, 8));
