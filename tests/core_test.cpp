// Tests for FlexCore's pre-processing, ordering LUT and detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/detector_registry.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "core/ordering_lut.h"
#include "core/preprocessing.h"
#include "detect/fcsd.h"
#include "detect/sic.h"
#include "linalg/qr.h"
#include "modulation/error_rates.h"
#include "parallel/hot_path_guard.h"
#include "shard/partial_qr.h"
#include "reference_lut.h"
#include "reference_ml.h"
#include "reference_preprocessing.h"
#include "reference_walk.h"

namespace fa = flexcore::api;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace ch = flexcore::channel;
namespace fm = flexcore::modulation;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::linalg::cplx;
using fm::Constellation;

namespace {

CMat random_channel(std::size_t nr, std::size_t nt, std::uint64_t seed) {
  ch::Rng rng(seed);
  return ch::rayleigh_iid(nr, nt, rng);
}

std::string key_of(const fc::PositionVector& p) {
  std::string k;
  for (int v : p) {
    k += std::to_string(v);
    k += ',';
  }
  return k;
}

}  // namespace

// ----------------------------------------------------------- preprocessing

TEST(Preprocessing, FirstPathIsAllOnes) {
  Constellation c(16);
  const CMat h = random_channel(8, 8, 1);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 32;
  const auto res = fc::find_most_promising_paths(qr.R, 0.1, c, cfg);
  ASSERT_FALSE(res.paths.empty());
  for (int v : res.paths.front().p) EXPECT_EQ(v, 1);
}

TEST(Preprocessing, PathsAreUniqueAndDescending) {
  Constellation c(64);
  const CMat h = random_channel(12, 12, 2);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 256;
  const auto res = fc::find_most_promising_paths(qr.R, 0.2, c, cfg);
  EXPECT_EQ(res.paths.size(), 256u);

  std::set<std::string> seen;
  double prev = 2.0;
  for (const auto& rp : res.paths) {
    EXPECT_TRUE(seen.insert(key_of(rp.p)).second) << "duplicate "
        << key_of(rp.p);
    EXPECT_LE(rp.pc, prev + 1e-15) << "not descending";
    prev = rp.pc;
    for (int v : rp.p) {
      EXPECT_GE(v, 1);
      EXPECT_LE(v, 64);
    }
  }
}

TEST(Preprocessing, PcValuesMatchModel) {
  Constellation c(16);
  const CMat h = random_channel(4, 4, 3);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 64;
  const auto res = fc::find_most_promising_paths(qr.R, 0.15, c, cfg);
  for (const auto& rp : res.paths) {
    double pc = 1.0;
    for (std::size_t l = 0; l < rp.p.size(); ++l) {
      pc *= (1.0 - res.pe[l]) * std::pow(res.pe[l], rp.p[l] - 1);
    }
    EXPECT_NEAR(rp.pc, pc, 1e-12 + 1e-9 * pc);
  }
}

class PreprocessingExhaustive
    : public ::testing::TestWithParam<fm::PeModel> {};

TEST_P(PreprocessingExhaustive, MatchesExhaustiveRanking) {
  Constellation c(4);
  const CMat h = random_channel(3, 3, 4);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 20;
  cfg.pe_model = GetParam();
  cfg.candidate_list_cap = 100000;  // unbounded frontier -> exact best-first
  const auto res = fc::find_most_promising_paths(qr.R, 0.3, c, cfg);
  const auto want = flexcore::testref::rank_paths_exhaustive(res.pe, 4, 3, 20);
  ASSERT_EQ(res.paths.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(res.paths[i].pc, want[i].pc, 1e-12)
        << "rank " << i << ": got " << key_of(res.paths[i].p) << " want "
        << key_of(want[i].p);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPeModels, PreprocessingExhaustive,
                         ::testing::Values(fm::PeModel::kPaperErfc,
                                           fm::PeModel::kExactSer));

TEST(Preprocessing, TrimmedFrontierCloseToExact) {
  // The paper's bounded candidate list (|L| <= N_PE) is a heuristic; verify
  // it stays close to the unbounded best-first search.
  Constellation c(16);
  const CMat h = random_channel(8, 8, 5);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);

  fc::PreprocessingConfig paper;
  paper.num_paths = 64;
  fc::PreprocessingConfig exact = paper;
  exact.candidate_list_cap = 1000000;

  const auto rp = fc::find_most_promising_paths(qr.R, 0.2, c, paper);
  const auto re = fc::find_most_promising_paths(qr.R, 0.2, c, exact);

  std::set<std::string> sp, se;
  for (const auto& x : rp.paths) sp.insert(key_of(x.p));
  for (const auto& x : re.paths) se.insert(key_of(x.p));
  std::size_t common = 0;
  for (const auto& k : sp) common += se.count(k);
  EXPECT_GE(common, 58u) << "bounded list diverged from exact best-first";
  EXPECT_GE(rp.pc_sum, 0.95 * re.pc_sum);
}

TEST(Preprocessing, StopThresholdLimitsPaths) {
  Constellation c(16);
  const CMat h = random_channel(8, 8, 6);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  // Clean channel: very few paths reach 95% cumulative probability.
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 64;
  cfg.stop_threshold = 0.95;
  const auto clean = fc::find_most_promising_paths(qr.R, 1e-4, c, cfg);
  EXPECT_LT(clean.paths.size(), 8u);
  EXPECT_GE(clean.pc_sum, 0.95);

  const auto noisy = fc::find_most_promising_paths(qr.R, 0.5, c, cfg);
  EXPECT_GT(noisy.paths.size(), clean.paths.size());
}

TEST(Preprocessing, MultiplicationBudgetRespected) {
  // Worst case from §3.1.1: N_PE * Nt multiplications (+ Nt-1 for the root).
  Constellation c(64);
  const CMat h = random_channel(12, 12, 7);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  for (std::size_t npe : {32u, 128u, 512u}) {
    fc::PreprocessingConfig cfg;
    cfg.num_paths = npe;
    const auto res = fc::find_most_promising_paths(qr.R, 0.2, c, cfg);
    EXPECT_LE(res.real_mults, npe * 12 + 11) << "npe=" << npe;
    EXPECT_GT(res.real_mults, 0u);
  }
}

TEST(Preprocessing, SmallConstellationExhaustsAllPaths) {
  Constellation c(4);
  const CMat h = random_channel(2, 2, 8);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 1000;  // > 4^2 = 16 total paths
  const auto res = fc::find_most_promising_paths(qr.R, 0.3, c, cfg);
  EXPECT_EQ(res.paths.size(), 16u);
  EXPECT_NEAR(res.pc_sum, res.paths.size() ? res.pc_sum : 0.0, 0.0);
  // All 16 position vectors must be covered.
  std::set<std::string> seen;
  for (const auto& rp : res.paths) seen.insert(key_of(rp.p));
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Preprocessing, BatchedExpansionMatchesSequentialClosely) {
  // §3.1.1: parallel expansion is loss-free while N_PE / batch >= 10.
  Constellation c(64);
  const CMat h = random_channel(12, 12, 9);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  fc::PreprocessingConfig seq;
  seq.num_paths = 128;
  fc::PreprocessingConfig par = seq;
  par.batch_expand = 12;  // 128 / 12 > 10

  const auto rs = fc::find_most_promising_paths(qr.R, 0.25, c, seq);
  const auto rp = fc::find_most_promising_paths(qr.R, 0.25, c, par);
  std::set<std::string> ss, sp;
  for (const auto& x : rs.paths) ss.insert(key_of(x.p));
  for (const auto& x : rp.paths) sp.insert(key_of(x.p));
  std::size_t common = 0;
  for (const auto& k : ss) common += sp.count(k);
  EXPECT_GE(common, 115u);  // ~90% overlap
  EXPECT_GE(rp.pc_sum, 0.95 * rs.pc_sum);
}

TEST(Preprocessing, ZeroPathsThrows) {
  Constellation c(4);
  const CMat h = random_channel(2, 2, 10);
  const auto qr = flexcore::linalg::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = 0;
  EXPECT_THROW(fc::find_most_promising_paths(qr.R, 0.1, c, cfg),
               std::invalid_argument);
}

namespace {

/// Bitwise equality of two search results, every field.
void expect_same_search(const fc::PreprocessingResult& got,
                        const fc::PreprocessingResult& want,
                        const std::string& what) {
  ASSERT_EQ(got.paths.size(), want.paths.size()) << what;
  for (std::size_t i = 0; i < want.paths.size(); ++i) {
    ASSERT_EQ(got.paths[i].p, want.paths[i].p) << what << " path " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.paths[i].pc),
              std::bit_cast<std::uint64_t>(want.paths[i].pc))
        << what << " path " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.pc_sum),
            std::bit_cast<std::uint64_t>(want.pc_sum))
      << what;
  EXPECT_EQ(got.real_mults, want.real_mults) << what;
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded) << what;
  EXPECT_EQ(got.pe, want.pe) << what;
}

}  // namespace

namespace {

/// One random configuration of the search comparisons, in both overloads'
/// forms: Pe values drawn directly, and a channel's R with its noise.
struct SearchCase {
  std::string what;
  int q = 4;
  fc::PreprocessingConfig cfg;
  std::vector<double> pe;
  CMat r;
  double nv = 0.0;
  std::vector<double> pe_r;  ///< the model's Pe(l) for (r, nv)
};

/// 240 configurations: Nt 1-32, |Q| 4-256, 1-300 paths, half of them with
/// the a-FlexCore stop, caps below and above the path count, batch_expand
/// 1-8.  Half the Pe vectors repeat one Pe on every level (a quarter of
/// those a near-certain error), so pc ties are common and the positions
/// tie-break decides.
std::vector<SearchCase> random_search_cases() {
  std::mt19937_64 gen(20261017);
  const auto uniform = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(gen);
  };
  const int orders[] = {4, 16, 64, 256};
  std::vector<SearchCase> cases;
  for (int iter = 0; iter < 240; ++iter) {
    SearchCase sc;
    const std::size_t nt = uniform(1, 32);
    sc.q = orders[uniform(0, 3)];
    fc::PreprocessingConfig& cfg = sc.cfg;
    cfg.num_paths = uniform(1, 300);
    cfg.stop_threshold = uniform(0, 1) == 0 ? 0.95 : 1.0;
    const std::size_t cap_kind = uniform(0, 2);
    if (cap_kind == 1) {
      cfg.candidate_list_cap = uniform(1, cfg.num_paths);
    } else if (cap_kind == 2) {
      cfg.candidate_list_cap = uniform(cfg.num_paths, 4 * cfg.num_paths);
    }
    cfg.batch_expand = uniform(1, 8);
    sc.what = "iter " + std::to_string(iter) + " nt " + std::to_string(nt) +
              " q " + std::to_string(sc.q) + " paths " +
              std::to_string(cfg.num_paths) + " cap " +
              std::to_string(cfg.candidate_list_cap) + " batch " +
              std::to_string(cfg.batch_expand);

    sc.pe.resize(nt);
    std::uniform_real_distribution<double> pe_dist(1e-6, 0.9);
    const std::size_t shape = uniform(0, 7);
    if (shape == 0) {
      std::fill(sc.pe.begin(), sc.pe.end(), 1.0 - 1e-9);
    } else if (shape < 4) {
      std::fill(sc.pe.begin(), sc.pe.end(), pe_dist(gen));
    } else {
      for (double& x : sc.pe) x = pe_dist(gen);
    }

    const Constellation c(sc.q);
    sc.r = flexcore::linalg::sorted_qr_wubben(
               random_channel(nt, nt, 1000 + static_cast<std::uint64_t>(iter)))
               .R;
    sc.nv = std::uniform_real_distribution<double>(0.01, 1.0)(gen);
    sc.pe_r.resize(nt);
    for (std::size_t l = 0; l < nt; ++l) {
      sc.pe_r[l] = fm::level_error_probability(cfg.pe_model, c,
                                               std::abs(sc.r(l, l)), sc.nv);
    }
    cases.push_back(std::move(sc));
  }
  return cases;
}

/// Ranks at the byte boundary: a top level that is almost surely wrong
/// runs its rank up to 256 within the first 300 sequential paths.
std::vector<std::pair<fc::PreprocessingConfig, std::vector<double>>>
byte_boundary_cases() {
  std::vector<std::pair<fc::PreprocessingConfig, std::vector<double>>> cases;
  for (std::size_t nt : {1u, 2u}) {
    for (std::size_t batch : {1u, 8u}) {
      fc::PreprocessingConfig cfg;
      cfg.num_paths = 300;
      cfg.batch_expand = batch;
      std::vector<double> pe(nt, 1e-3);
      pe.back() = 1.0 - 1e-9;
      cases.emplace_back(cfg, pe);
    }
  }
  return cases;
}

}  // namespace

TEST(Preprocessing, FlatSearchMatchesMultisetReference) {
  // The flat frontier against the multiset search it replaced (with the
  // same pruning rule), through both public overloads and through one
  // warm workspace and result that every case reuses (shapes and path
  // counts change under it).
  for (const auto& [cfg, pe] : byte_boundary_cases()) {
    const auto want = flexcore::testref::multiset_path_search(pe, 256, cfg,
                                                              /*prune=*/true);
    const auto got = fc::find_most_promising_paths(pe, 256, cfg);
    const std::string what = "byte boundary nt " + std::to_string(pe.size());
    expect_same_search(got, want, what);
    int top = 0;
    for (const auto& rp : got.paths) {
      top = std::max(top, *std::max_element(rp.p.begin(), rp.p.end()));
    }
    if (cfg.batch_expand == 1) {
      EXPECT_EQ(top, 256) << what;
    }
  }

  fc::PathSearchWorkspace ws;
  fc::PreprocessingResult warm;
  for (const SearchCase& sc : random_search_cases()) {
    // pe-vector overload (the control plane's seam).
    const auto want_pe = flexcore::testref::multiset_path_search(
        sc.pe, sc.q, sc.cfg, /*prune=*/true);
    expect_same_search(fc::find_most_promising_paths(sc.pe, sc.q, sc.cfg),
                       want_pe, sc.what + " (pe overload)");

    // R overload, by value and into the warm workspace.
    const Constellation c(sc.q);
    const auto want_r = flexcore::testref::multiset_path_search(
        sc.pe_r, sc.q, sc.cfg, /*prune=*/true);
    expect_same_search(fc::find_most_promising_paths(sc.r, sc.nv, c, sc.cfg),
                       want_r, sc.what + " (R overload)");
    fc::find_most_promising_paths_into(sc.r, sc.nv, c, sc.cfg, ws, &warm);
    expect_same_search(warm, want_r, sc.what + " (R overload, warm)");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Preprocessing, PruningEmitsWhatTheFullSearchEmits) {
  // The pruning rule is exact: the search that creates every child emits
  // the same paths, pc values, pc_sum and node count as the one that skips
  // the children it could never emit, on every configuration above; only
  // the multiplications differ, and pruning never adds any.
  const auto check = [](const std::vector<double>& pe, int q,
                        const fc::PreprocessingConfig& cfg,
                        const std::string& what) {
    const auto full = flexcore::testref::multiset_path_search(pe, q, cfg,
                                                              /*prune=*/false);
    const auto pruned = flexcore::testref::multiset_path_search(
        pe, q, cfg, /*prune=*/true);
    ASSERT_EQ(pruned.paths.size(), full.paths.size()) << what;
    for (std::size_t i = 0; i < full.paths.size(); ++i) {
      ASSERT_EQ(pruned.paths[i].p, full.paths[i].p) << what << " path " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(pruned.paths[i].pc),
                std::bit_cast<std::uint64_t>(full.paths[i].pc))
          << what << " path " << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pruned.pc_sum),
              std::bit_cast<std::uint64_t>(full.pc_sum))
        << what;
    EXPECT_EQ(pruned.nodes_expanded, full.nodes_expanded) << what;
    EXPECT_LE(pruned.real_mults, full.real_mults) << what;
  };
  for (const auto& [cfg, pe] : byte_boundary_cases()) {
    check(pe, 256, cfg, "byte boundary nt " + std::to_string(pe.size()));
  }
  for (const SearchCase& sc : random_search_cases()) {
    check(sc.pe, sc.q, sc.cfg, sc.what + " (pe)");
    check(sc.pe_r, sc.q, sc.cfg, sc.what + " (R)");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Preprocessing, ServedShapesMatchReferenceWarm) {
  // The two served shapes, alternating through one warm workspace and
  // result: massive-64x8-sharded's merged 16x8 R (two 32-antenna clusters'
  // partial QRs stacked, then sorted-QR'd; 16-QAM, 32 paths, -2 dB) and
  // coherent-12x12's 12x12 R (64-QAM, 64 paths, 18 dB).  Each search is
  // bitwise the reference's, and a warm one allocates nothing.
  struct Shape {
    const char* name;
    Constellation c;
    std::size_t paths;
    double nv;
    std::vector<CMat> rs;
  };
  Shape massive{"massive", Constellation(16), 32,
                ch::noise_var_for_snr_db(-2.0), {}};
  Shape coherent{"coherent", Constellation(64), 64,
                 ch::noise_var_for_snr_db(18.0), {}};
  ch::Rng rng(27);
  const auto plan = flexcore::shard::plan_shards(64, 2);
  for (int i = 0; i < 6; ++i) {
    const CMat h = ch::rayleigh_iid(64, 8, rng);
    std::vector<flexcore::shard::PartialQr> partials;
    for (const flexcore::shard::RowRange& range : plan) {
      partials.push_back(flexcore::shard::compute_partial(
          flexcore::linalg::CMatView(h.data() + range.begin * 8, range.count,
                                     8)));
    }
    const CMat s = flexcore::shard::stack_partials(partials);
    ASSERT_EQ(s.rows(), 16u);
    massive.rs.push_back(flexcore::linalg::sorted_qr_wubben(s).R);
    coherent.rs.push_back(
        flexcore::linalg::sorted_qr_wubben(ch::rayleigh_iid(12, 12, rng)).R);
  }

  fc::PathSearchWorkspace ws;
  fc::PreprocessingResult warm;
  for (std::size_t i = 0; i < massive.rs.size(); ++i) {
    for (const Shape* sh : {&massive, &coherent}) {
      fc::PreprocessingConfig cfg;
      cfg.num_paths = sh->paths;
      const CMat& r = sh->rs[i];
      fc::find_most_promising_paths_into(r, sh->nv, sh->c, cfg, ws, &warm);
      std::vector<double> pe(r.cols());
      for (std::size_t l = 0; l < pe.size(); ++l) {
        pe[l] = fm::level_error_probability(cfg.pe_model, sh->c,
                                            std::abs(r(l, l)), sh->nv);
      }
      const auto want = flexcore::testref::multiset_path_search(
          pe, sh->c.order(), cfg, /*prune=*/true);
      expect_same_search(warm, want,
                         std::string(sh->name) + " " + std::to_string(i));
      EXPECT_EQ(warm.paths.size(), sh->paths) << sh->name;
    }
  }

  for (const Shape* sh : {&massive, &coherent}) {
    fc::PreprocessingConfig cfg;
    cfg.num_paths = sh->paths;
    fc::find_most_promising_paths_into(sh->rs.front(), sh->nv, sh->c, cfg, ws,
                                       &warm);
    flexcore::parallel::HotPathScope guard(
        "warm path search", flexcore::parallel::HotPathScope::Scope::kThread);
    fc::find_most_promising_paths_into(sh->rs.back(), sh->nv, sh->c, cfg, ws,
                                       &warm);
    EXPECT_EQ(guard.delta().allocations, 0u) << sh->name;
  }
}

TEST(Preprocessing, ConstellationOrderOutsideByteRangeThrows) {
  fc::PreprocessingConfig cfg;
  const std::vector<double> pe(4, 0.1);
  EXPECT_THROW(fc::find_most_promising_paths(pe, 0, cfg),
               std::invalid_argument);
  EXPECT_THROW(fc::find_most_promising_paths(pe, 257, cfg),
               std::invalid_argument);
  EXPECT_NO_THROW(fc::find_most_promising_paths(pe, 256, cfg));
}

TEST(Preprocessing, PeOutsideUnitIntervalThrows) {
  // The pruning rule orders a node's children by Pe, which holds only for
  // probabilities: a negative, above-one or NaN Pe(l) is refused.
  fc::PreprocessingConfig cfg;
  for (double bad : {-0.1, 1.5, std::nan("")}) {
    std::vector<double> pe(4, 0.1);
    pe[2] = bad;
    EXPECT_THROW(fc::find_most_promising_paths(pe, 16, cfg),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_NO_THROW(fc::find_most_promising_paths({0.0, 1.0, 0.5}, 16, cfg));
}

// ------------------------------------------------------------ ordering LUT

class OrderingLutTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderingLutTest, FirstEntryIsTheSlicerCenter) {
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  ASSERT_FALSE(lut.base_order().empty());
  EXPECT_EQ(lut.base_order()[0].di, 0);
  EXPECT_EQ(lut.base_order()[0].dq, 0);
}

TEST_P(OrderingLutTest, KOneMatchesSliceInsideGrid) {
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  ch::Rng rng(11);
  for (int t = 0; t < 300; ++t) {
    // Stay strictly inside the constellation hull so the slicer square
    // center is a real symbol.
    const double span = c.pam_level(c.side() - 1);
    const cplx z{rng.uniform(-span, span), rng.uniform(-span, span)};
    EXPECT_EQ(lut.kth_symbol(z, 1), c.slice(z));
  }
}

TEST_P(OrderingLutTest, ValidEntriesAreDistinct) {
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  ch::Rng rng(12);
  for (int t = 0; t < 50; ++t) {
    const double span = c.pam_level(c.side() - 1) * 1.4;  // partly outside
    const cplx z{rng.uniform(-span, span), rng.uniform(-span, span)};
    std::set<int> seen;
    for (int k = 1; k <= c.order(); ++k) {
      const int sym = lut.kth_symbol(z, k);
      if (sym >= 0) {
        EXPECT_TRUE(seen.insert(sym).second)
            << "k=" << k << " duplicated symbol " << sym;
      }
    }
  }
}

TEST_P(OrderingLutTest, SkipPolicyAlwaysYieldsValidDistinctSymbols) {
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  ch::Rng rng(13);
  for (int t = 0; t < 50; ++t) {
    const double span = c.pam_level(c.side() - 1) * 2.0;
    const cplx z{rng.uniform(-span, span), rng.uniform(-span, span)};
    std::set<int> seen;
    int k = 1;
    for (; k <= c.order(); ++k) {
      const int sym = lut.kth_symbol(z, k,
                                     fc::InvalidEntryPolicy::kSkipToValid);
      if (sym < 0) break;  // ran out of in-range entries
      EXPECT_TRUE(seen.insert(sym).second);
    }
    EXPECT_GE(static_cast<int>(seen.size()), 1);
  }
}

TEST_P(OrderingLutTest, ApproximatesExactOrderNearTheCenter) {
  // Sample residuals within the slicer square of an interior symbol, where
  // every LUT entry addresses a real symbol — a pure ordering comparison.
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  ch::Rng rng(14);
  const cplx center = c.point(c.index_from_axes(c.side() / 2, c.side() / 2));
  const double h = c.scale();
  int agree1 = 0, agree_top4 = 0, total = 0;
  for (int t = 0; t < 400; ++t) {
    const cplx z = center + cplx{rng.uniform(-h, h), rng.uniform(-h, h)};
    ++total;
    agree1 += (lut.kth_symbol(z, 1) == c.kth_nearest_exact(z, 1));
    // Top-4 set agreement (order within the set may differ slightly).
    std::set<int> lut4, exact4;
    for (int k = 1; k <= 4; ++k) {
      lut4.insert(lut.kth_symbol(z, k));
      exact4.insert(c.kth_nearest_exact(z, k));
    }
    agree_top4 += (lut4 == exact4);
  }
  EXPECT_EQ(agree1, total);  // k=1 is exact by construction
  // A single modal order per triangle is an approximation (paper §3.2); we
  // measured ~66% exact top-4 set agreement uniformly across all 8 octants.
  // Guard against regressions well below that level.
  EXPECT_GE(agree_top4, total * 55 / 100)
      << "top-4 sets diverged more than expected";
}

TEST_P(OrderingLutTest, PositionalAgreementUniformAcrossOctants) {
  // If the dihedral symmetry transform were wrong, agreement would collapse
  // in the reflected octants while staying high in the canonical one.
  Constellation c(GetParam());
  fc::OrderingLut lut(c);
  ch::Rng rng(15);
  const double h = c.scale();
  const cplx center = c.point(c.index_from_axes(c.side() / 2, c.side() / 2));
  std::vector<int> per_octant(8, 0);
  const int per_oct_trials = 250;
  for (int oct = 0; oct < 8; ++oct) {
    for (int t = 0; t < per_oct_trials; ++t) {
      double a = h * std::sqrt(rng.uniform());
      double b = a * rng.uniform();  // (a, b) uniform in triangle t1
      double u = a, v = b;
      if (oct & 4) std::swap(u, v);
      if (oct & 1) u = -u;
      if (oct & 2) v = -v;
      const cplx z = center + cplx{u, v};
      int agree = 0;
      for (int k = 1; k <= 8; ++k) {
        agree += lut.kth_symbol(z, k) == c.kth_nearest_exact(z, k);
      }
      per_octant[static_cast<std::size_t>(oct)] += agree;
    }
  }
  // All octants within a narrow band of each other.
  const auto [mn, mx] = std::minmax_element(per_octant.begin(),
                                            per_octant.end());
  EXPECT_GT(*mn, 0);
  EXPECT_LT(static_cast<double>(*mx - *mn),
            0.15 * static_cast<double>(8 * per_oct_trials))
      << "octant asymmetry suggests a broken symmetry transform";
  for (int oct = 0; oct < 8; ++oct) {
    EXPECT_GE(per_octant[static_cast<std::size_t>(oct)],
              per_oct_trials * 8 * 60 / 100)
        << "octant " << oct;
  }
}

TEST_P(OrderingLutTest, MonteCarloAndCentroidOrdersAgreeOnHead) {
  // Tail positions of the modal order are noisy near-ties; the entries that
  // dominate detection quality are the head of the order.  Both derivations
  // must agree there.
  Constellation c(GetParam());
  fc::OrderingLut centroid(c);
  const auto& a = centroid.base_order();
  const auto b = flexcore::testref::monte_carlo_lut_order(c, 4000, 77);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].di, 0);
  EXPECT_EQ(b[0].di, 0);
  int same_head = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    same_head += (a[i].di == b[i].di && a[i].dq == b[i].dq);
  }
  EXPECT_GE(same_head, 4) << "head-of-order disagreement";
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderingLutTest, ::testing::Values(16, 64));

TEST(OrderingLut, DeactivatesOutsideConstellation) {
  Constellation c(16);
  fc::OrderingLut lut(c);
  // Effective point far beyond the corner: the slicer square center is off
  // the grid, so some early entries must be invalid.
  const double far = c.pam_level(c.side() - 1) + 3 * c.min_distance();
  const cplx z{far, far};
  int invalid = 0;
  for (int k = 1; k <= c.order(); ++k) {
    if (lut.kth_symbol(z, k) < 0) ++invalid;
  }
  EXPECT_GT(invalid, 0);
}

// --------------------------------------------------------------- detector

TEST(FlexCore, SinglePathEqualsSic) {
  // FlexCore's best path is [1,1,...,1]; walking it with the LUT's k=1
  // (= slicing) is exactly ordered ZF-SIC.
  Constellation c(16);
  ch::Rng rng(21);
  const auto flex = fa::make_detector("flexcore-1", {.constellation = &c});
  const auto sic = fa::make_detector("zf-sic", {.constellation = &c});
  const double nv = ch::noise_var_for_snr_db(4.2);
  for (int t = 0; t < 40; ++t) {
    const CMat h = random_channel(6, 6, 1000 + static_cast<unsigned>(t));
    CVec s(6);
    std::vector<int> tx(6);
    for (int u = 0; u < 6; ++u) {
      tx[static_cast<std::size_t>(u)] =
          static_cast<int>(rng.uniform_int(16));
      s[static_cast<std::size_t>(u)] = c.point(tx[static_cast<std::size_t>(u)]);
    }
    const CVec y = ch::transmit(h, s, nv, rng);
    flex->set_channel(h, nv);
    sic->set_channel(h, nv);
    EXPECT_EQ(flex->detect(y).symbols, sic->detect(y).symbols);
  }
}

TEST(FlexCore, AllPathsWithExactOrderingIsML) {
  // Position vectors biject onto tree leaves, so selecting all |Q|^Nt paths
  // with exact per-level ordering makes FlexCore an exhaustive ML detector.
  // The exact sort is an ablation no plan compiles: it runs on the scalar
  // reference walk over the detector's QR and path set.
  Constellation c(4);
  ch::Rng rng(22);
  fa::DetectorConfig acfg{.constellation = &c};
  acfg.flexcore.num_pes = 64;  // 4^3
  acfg.flexcore.candidate_list_cap = 100000;
  const auto flex =
      fa::make_detector_as<fc::FlexCoreDetector>("flexcore", acfg);
  const double nv = ch::noise_var_for_snr_db(1.2);
  for (int t = 0; t < 25; ++t) {
    const CMat h = random_channel(3, 3, 2000 + static_cast<unsigned>(t));
    CVec s(3);
    for (int u = 0; u < 3; ++u) {
      s[static_cast<std::size_t>(u)] =
          c.point(static_cast<int>(rng.uniform_int(4)));
    }
    const CVec y = ch::transmit(h, s, nv, rng);
    flex->set_channel(h, nv);
    EXPECT_EQ(flex->preprocessing().paths.size(), 64u);
    const flexcore::testref::FlexCoreReference exact(
        *flex, fc::OrderingMode::kExactSort);
    const auto got = exact.detect(flex->rotate(y));
    const auto want = flexcore::testref::exhaustive_ml(c, h, y);
    EXPECT_EQ(got.symbols, want.symbols);
    EXPECT_NEAR(got.metric, want.metric, 1e-9);
  }
}

TEST(FlexCore, RecoversNoiseless) {
  Constellation c(64);
  ch::Rng rng(23);
  const auto flex = fa::make_detector("flexcore-8", {.constellation = &c});
  for (int t = 0; t < 15; ++t) {
    const CMat h = random_channel(8, 8, 3000 + static_cast<unsigned>(t));
    CVec s(8);
    std::vector<int> tx(8);
    for (int u = 0; u < 8; ++u) {
      tx[static_cast<std::size_t>(u)] = static_cast<int>(rng.uniform_int(64));
      s[static_cast<std::size_t>(u)] = c.point(tx[static_cast<std::size_t>(u)]);
    }
    const CVec y = ch::transmit(h, s, 0.0, rng);
    flex->set_channel(h, 1e-6);
    EXPECT_EQ(flex->detect(y).symbols, tx);
  }
}

TEST(FlexCore, MorePesNeverHurtStatistically) {
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(4.0);
  auto run = [&](std::size_t pes) {
    ch::Rng rng(24);
    fa::DetectorConfig acfg{.constellation = &c};
    acfg.flexcore.num_pes = pes;
    const auto flex = fa::make_detector("flexcore", acfg);
    std::size_t errors = 0;
    for (int t = 0; t < 150; ++t) {
      const CMat h = random_channel(8, 8, 4000 + static_cast<unsigned>(t));
      CVec s(8);
      std::vector<int> tx(8);
      for (int u = 0; u < 8; ++u) {
        tx[static_cast<std::size_t>(u)] = static_cast<int>(rng.uniform_int(16));
        s[static_cast<std::size_t>(u)] =
            c.point(tx[static_cast<std::size_t>(u)]);
      }
      const CVec y = ch::transmit(h, s, nv, rng);
      flex->set_channel(h, nv);
      const auto res = flex->detect(y);
      for (int u = 0; u < 8; ++u) {
        errors += res.symbols[static_cast<std::size_t>(u)] !=
                  tx[static_cast<std::size_t>(u)];
      }
    }
    return errors;
  };
  const auto e1 = run(1);
  const auto e16 = run(16);
  const auto e64 = run(64);
  EXPECT_LT(e16, e1);
  EXPECT_LE(e64, e16);
}

TEST(FlexCore, BeatsFcsdAtEqualBudgetInOperatingRegime) {
  // Fig. 9's headline claim at its operating regime: 64-QAM on correlated
  // channels with a <= 3 dB user spread (the paper's scheduling rule) at an
  // SNR near the PER_ML = 0.01 operating point.  At the FCSD's only
  // affordable budget (|Q|^1 = 64 paths; the next step is 4096) FlexCore's
  // channel-aware allocation wins, and FlexCore-128 — a budget the FCSD
  // cannot express — improves further toward ML.
  Constellation c(64);
  const double nv = ch::noise_var_for_snr_db(17.0);

  auto run = [&](fd::Detector& det) {
    ch::Rng rng(25);
    std::size_t err = 0;
    for (int t = 0; t < 300; ++t) {
      ch::Rng hrng(5000 + static_cast<unsigned>(t));
      const auto gains = ch::bounded_user_gains(8, 3.0, hrng);
      const CMat h = ch::kronecker_channel(8, 8, 0.4, gains, hrng);
      CVec s(8);
      std::vector<int> tx(8);
      for (int u = 0; u < 8; ++u) {
        tx[static_cast<std::size_t>(u)] = static_cast<int>(rng.uniform_int(64));
        s[static_cast<std::size_t>(u)] =
            c.point(tx[static_cast<std::size_t>(u)]);
      }
      const CVec y = ch::transmit(h, s, nv, rng);
      det.set_channel(h, nv);
      const auto res = det.detect(y);
      for (int u = 0; u < 8; ++u) {
        err += res.symbols[static_cast<std::size_t>(u)] !=
               tx[static_cast<std::size_t>(u)];
      }
    }
    return err;
  };

  const auto flex64 = fa::make_detector("flexcore-64", {.constellation = &c});
  const auto flex128 =
      fa::make_detector("flexcore-128", {.constellation = &c});
  const auto fcsd =
      fa::make_detector("fcsd-L1", {.constellation = &c});  // 64 paths

  const std::size_t e_flex64 = run(*flex64);
  const std::size_t e_flex128 = run(*flex128);
  const std::size_t e_fcsd = run(*fcsd);

  EXPECT_LT(e_flex64, e_fcsd) << "flex64=" << e_flex64 << " fcsd64=" << e_fcsd;
  EXPECT_LE(e_flex128, e_flex64);
  EXPECT_LT(e_flex128, e_fcsd);
}

TEST(FlexCore, RefusedChannelKeepsThePreviousOne) {
  // 33 streams exceed the path kernels' 32-level cap: set_channel must
  // refuse before touching any state, so detection keeps running on the
  // previously installed channel.
  Constellation c(16);
  const CMat h = random_channel(8, 8, 36);
  ch::Rng rng(37);
  const CVec y = ch::transmit(h, CVec(8, c.point(2)), 0.05, rng);
  for (const char* spec : {"flexcore-16", "fcsd-L1"}) {
    const auto det = fa::make_detector(spec, {.constellation = &c});
    det->set_channel(h, 0.05);
    const auto before = det->detect(y);
    EXPECT_THROW(det->set_channel(random_channel(33, 33, 38), 0.05),
                 std::invalid_argument)
        << spec;
    const auto after = det->detect(y);
    EXPECT_EQ(after.symbols, before.symbols) << spec;
    EXPECT_EQ(after.metric, before.metric) << spec;
  }

  // A rank-deficient channel gets past the shape check and is refused by
  // the sorted QR part-way through the factorization, at a different
  // noise variance: hard decisions AND soft output (whose LLRs scale by
  // 1 / noise_var) must still come from the installed channel.
  CMat singular = random_channel(8, 8, 39);
  for (std::size_t i = 0; i < 8; ++i) singular(i, 5) = singular(i, 2);
  const auto flex = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-16", {.constellation = &c});
  flex->set_channel(h, 0.05);
  const auto before = flex->detect(y);
  const auto soft_before = flex->detect_soft(y);
  EXPECT_THROW(flex->set_channel(singular, 0.5), std::runtime_error);
  const auto after = flex->detect(y);
  EXPECT_EQ(after.symbols, before.symbols);
  EXPECT_EQ(after.metric, before.metric);
  const auto soft_after = flex->detect_soft(y);
  ASSERT_EQ(soft_after.llrs.size(), soft_before.llrs.size());
  std::size_t llrs = 0;
  for (std::size_t a = 0; a < soft_before.llrs.size(); ++a) {
    ASSERT_EQ(soft_after.llrs[a].size(), soft_before.llrs[a].size());
    for (std::size_t b = 0; b < soft_before.llrs[a].size(); ++b, ++llrs) {
      EXPECT_EQ(soft_after.llrs[a][b], soft_before.llrs[a][b])
          << "antenna " << a << " bit " << b;
    }
  }
  EXPECT_EQ(llrs, 32u);
}

TEST(FlexCore, AdaptiveUsesFewerPesOnCleanChannels) {
  Constellation c(16);
  const auto flex = fa::make_detector_as<fc::FlexCoreDetector>(
      "a-flexcore-64", {.constellation = &c});

  const CMat h = random_channel(8, 8, 28);
  flex->set_channel(h, 1e-5);  // nearly noiseless
  const std::size_t clean_paths = flex->active_paths();
  EXPECT_LE(clean_paths, 4u);
  EXPECT_GE(flex->preprocessing().pc_sum, 0.95);

  flex->set_channel(h, 0.6);  // very noisy
  EXPECT_GT(flex->active_paths(), clean_paths);
  EXPECT_LE(flex->active_paths(), 64u);
}

TEST(FlexCore, AdaptiveMatchesPlainWhenBudgetExhausted) {
  // On a bad channel a-FlexCore saturates at num_pes and behaves like the
  // plain detector.
  Constellation c(64);
  const auto plain =
      fa::make_detector("flexcore-16", {.constellation = &c});
  fa::DetectorConfig ad_cfg{.constellation = &c};
  ad_cfg.flexcore.adaptive_threshold = 0.9999;  // unreachable when noisy
  const auto adaptive = fa::make_detector_as<fc::FlexCoreDetector>(
      "a-flexcore-16", ad_cfg);
  const CMat h = random_channel(8, 8, 29);
  plain->set_channel(h, 0.8);
  adaptive->set_channel(h, 0.8);
  EXPECT_EQ(adaptive->active_paths(), plain->parallel_tasks());

  ch::Rng rng(30);
  CVec s(8);
  for (int u = 0; u < 8; ++u) s[static_cast<std::size_t>(u)] = c.point(10);
  const CVec y = ch::transmit(h, s, 0.8, rng);
  EXPECT_EQ(adaptive->detect(y).symbols, plain->detect(y).symbols);
}

TEST(FlexCore, StatsAccumulateAcrossPaths) {
  Constellation c(16);
  const auto flex = fa::make_detector("flexcore-8", {.constellation = &c});
  const CMat h = random_channel(6, 6, 31);
  flex->set_channel(h, 0.05);
  ch::Rng rng(32);
  CVec s(6, c.point(0));
  const CVec y = ch::transmit(h, s, 0.05, rng);
  const auto res = flex->detect(y);
  // Closed form, Table 2 accounting: every one of the 8 paths is charged a
  // full walk (the block grid keeps computing dead lanes) — 2*Nt*(Nt+1)
  // real multiplications and 4*Nt*(Nt-1) + 11*Nt flops per path.
  EXPECT_EQ(res.stats.paths_evaluated, 8u);
  EXPECT_EQ(res.stats.nodes_visited, 8u * 6u);
  EXPECT_EQ(res.stats.real_mults, 8u * 2u * 6u * 7u);
  EXPECT_EQ(res.stats.flops, 8u * (4u * 6u * 5u + 11u * 6u));
}

TEST(FlexCore, NameReflectsConfiguration) {
  Constellation c(16);
  const fa::DetectorConfig acfg{.constellation = &c};
  EXPECT_EQ(fa::make_detector("flexcore-12", acfg)->name(), "flexcore-12");
  EXPECT_EQ(fa::make_detector("a-flexcore-12", acfg)->name(),
            "a-flexcore-12");
}

TEST(FlexCore, ZeroPesThrows) {
  Constellation c(16);
  EXPECT_THROW(fa::make_detector("flexcore-0", {.constellation = &c}),
               std::invalid_argument);
}

TEST(FlexCore, SoftOutputSignsMatchHardDecision) {
  Constellation c(16);
  const auto flex = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &c});
  ch::Rng rng(33);
  const CMat h = random_channel(6, 6, 34);
  const double nv = 0.02;
  flex->set_channel(h, nv);
  CVec s(6);
  std::vector<int> tx(6);
  for (int u = 0; u < 6; ++u) {
    tx[static_cast<std::size_t>(u)] = static_cast<int>(rng.uniform_int(16));
    s[static_cast<std::size_t>(u)] = c.point(tx[static_cast<std::size_t>(u)]);
  }
  const CVec y = ch::transmit(h, s, nv, rng);
  const auto soft = flex->detect_soft(y);
  EXPECT_EQ(soft.hard.symbols.size(), 6u);
  for (std::size_t a = 0; a < 6; ++a) {
    std::vector<std::uint8_t> bits;
    c.unmap_bits(soft.hard.symbols[a], bits);
    for (std::size_t b = 0; b < bits.size(); ++b) {
      const double llr = soft.llrs[a][b];
      if (bits[b] == 0) {
        EXPECT_GE(llr, 0.0) << "a=" << a << " b=" << b;
      } else {
        EXPECT_LE(llr, 0.0) << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST(FlexCore, LutOrderingErrorRateCloseToExactSort) {
  // What matters is not decision-by-decision equality (the approximate
  // order legitimately picks different — similar-quality — candidates) but
  // that the error *rate* stays close to the exact-sort upper bound.  The
  // exact sort (with skip-to-valid) walks the detector's QR and path set on
  // the scalar reference walk.
  Constellation c(16);
  const double nv = ch::noise_var_for_snr_db(5.2);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-16", {.constellation = &c});

  ch::Rng rng(35);
  std::size_t lut_err = 0, exact_err = 0;
  for (int t = 0; t < 300; ++t) {
    const CMat h = random_channel(6, 6, 6000 + static_cast<unsigned>(t));
    CVec s(6);
    std::vector<int> tx(6);
    for (int u = 0; u < 6; ++u) {
      tx[static_cast<std::size_t>(u)] = static_cast<int>(rng.uniform_int(16));
      s[static_cast<std::size_t>(u)] = c.point(tx[static_cast<std::size_t>(u)]);
    }
    const CVec y = ch::transmit(h, s, nv, rng);
    det->set_channel(h, nv);
    const auto rl = det->detect(y).symbols;
    const auto re = flexcore::testref::FlexCoreReference(
                        *det, fc::OrderingMode::kExactSort,
                        fc::InvalidEntryPolicy::kSkipToValid)
                        .detect(det->rotate(y))
                        .symbols;
    for (int u = 0; u < 6; ++u) {
      const auto ui = static_cast<std::size_t>(u);
      lut_err += rl[ui] != tx[ui];
      exact_err += re[ui] != tx[ui];
    }
  }
  // LUT must stay within 40% relative of exact-sort (paper: "negligible").
  EXPECT_LE(static_cast<double>(lut_err),
            1.4 * static_cast<double>(exact_err) + 10.0)
      << "lut_err=" << lut_err << " exact_err=" << exact_err;
}
