// Tests for the api subsystem: the detector registry (string-driven
// construction, name round-trips, error paths), the batch-detection
// contract (default sequential loop vs the thread-pool grid overrides) and
// the UplinkPipeline facade.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/detector_registry.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "detect/path_detector.h"
#include "frame_fixtures.h"
#include "parallel/thread_pool.h"
#include "reference_walk.h"

namespace fa = flexcore::api;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace ch = flexcore::channel;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::modulation::Constellation;

namespace {

std::vector<CVec> random_batch(const Constellation& c, const CMat& h,
                               std::size_t n, double nv, ch::Rng& rng) {
  std::vector<CVec> ys;
  ys.reserve(n);
  CVec s(h.cols());
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t u = 0; u < h.cols(); ++u) {
      s[u] = c.point(static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(c.order()))));
    }
    ys.push_back(ch::transmit(h, s, nv, rng));
  }
  return ys;
}

/// Per-vector DetectionStats equality (the grid and the sequential loop
/// both report the closed-form cost of the whole path set).
void expect_same_stats(const fd::DetectionStats& got,
                       const fd::DetectionStats& want,
                       const std::string& what) {
  EXPECT_EQ(got.nodes_visited, want.nodes_visited) << what;
  EXPECT_EQ(got.real_mults, want.real_mults) << what;
  EXPECT_EQ(got.flops, want.flops) << what;
  EXPECT_EQ(got.paths_evaluated, want.paths_evaluated) << what;
}

}  // namespace

// ---------------------------------------------------------------- registry

TEST(Registry, EveryCanonicalNameRoundTrips) {
  Constellation c(64);
  const fa::DetectorConfig cfg{.constellation = &c};
  const auto names = fa::list_specs();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "zf", "mmse", "zf-sic", "trellis50", "ml-sd",
                       "fcsd-L1", "kbest-8", "akbest-16", "flexcore-64",
                       "a-flexcore-64", "flexcore-64:i16"}));
  for (const std::string& name : names) {
    const auto det = fa::make_detector(name, cfg);
    ASSERT_NE(det, nullptr) << name;
    EXPECT_EQ(det->name(), name) << "spec must round-trip through name()";
  }
  // Bare families, tier suffixes and aliases: the name() each spec
  // reports.
  const std::pair<const char*, const char*> accepted[] = {
      {"flexcore", "flexcore-64"},
      {"flexcore:i16", "flexcore-64:i16"},
      {"a-flexcore-8:i16", "a-flexcore-8:i16"},
      {"fcsd", "fcsd-L1"},
      {"fcsd:i16", "fcsd-L1:i16"},
      {"fcsd-L0", "fcsd-L0"},
      {"kbest", "kbest-8"},
      {"akbest", "akbest-16"},
      {"ml", "ml-sd"},
      {"sic", "zf-sic"},
      {"trellis", "trellis50"}};
  for (const auto& [spec, name] : accepted) {
    EXPECT_EQ(fa::make_detector(spec, cfg)->name(), name) << spec;
  }
}

TEST(Registry, ParametricSpecsRoundTrip) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  for (const char* spec : {"flexcore-7", "flexcore-128", "a-flexcore-24",
                           "fcsd-L2", "kbest-3", "kbest-64", "akbest-40"}) {
    EXPECT_EQ(fa::make_detector(spec, cfg)->name(), spec);
  }
}

TEST(Registry, BareFlexcoreUsesConfigValues) {
  Constellation c(16);
  fa::DetectorConfig cfg{.constellation = &c};
  cfg.flexcore.num_pes = 48;
  EXPECT_EQ(fa::make_detector("flexcore", cfg)->name(), "flexcore-48");
  // The spec family always decides adaptive vs plain, regardless of the
  // base config's threshold.
  cfg.flexcore.adaptive_threshold = 0.9;
  EXPECT_EQ(fa::make_detector("flexcore", cfg)->name(), "flexcore-48");
  EXPECT_EQ(fa::make_detector("a-flexcore", cfg)->name(), "a-flexcore-48");
}

TEST(Registry, UnknownNameThrowsListingFamilies) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  // The unknown-spec message names the spec and lists every pattern, in
  // list_specs() order; malformed numbers and misplaced tiers get it too.
  const std::string known =
      "\"; known: zf, mmse, zf-sic (alias: sic), trellis50 (alias: trellis), "
      "ml-sd (alias: ml; options: cfg.ml_sphere), fcsd-L<L>[:i16] (bare = "
      "L1), kbest-<K> (bare = K8), akbest-<budget> (bare = 16; Pe model: "
      "cfg.flexcore.pe_model), flexcore[-<PEs>][:i16] (base config: "
      "cfg.flexcore), a-flexcore[-<PEs>][:i16] (threshold: "
      "cfg.flexcore.adaptive_threshold, else 0.95), <path-parallel "
      "spec>:i16 (int16 quantized block kernels, LUT-compiled slicing)";
  const auto message_of = [&](const std::string& spec) -> std::string {
    try {
      fa::make_detector(spec, cfg);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const char* bad :
       {"zf:i16", "kbest-8:i16", "flexcore-16:fp64", "flexcore-16:i16:i16",
        "fcsd-L", "fcsd-Lx", "flexcore-", "FLEXCORE-8", "", "no-such-detector",
        "flexcoreX", "flexcore-12x", "kbest-"}) {
    EXPECT_EQ(message_of(bad),
              "api::make_detector: no detector \"" + std::string(bad) + known)
        << bad;
  }
  // A known family with an invalid parameter throws its own message.
  EXPECT_EQ(message_of("kbest-0"), "api::make_detector: kbest needs K >= 1");
  EXPECT_EQ(message_of("akbest-0"),
            "api::make_detector: akbest needs a budget >= 1");
  EXPECT_EQ(message_of("flexcore-0"), "FlexCoreDetector: num_pes must be >= 1");
}

TEST(Registry, NullConstellationThrows) {
  EXPECT_THROW(fa::make_detector("zf", fa::DetectorConfig{}),
               std::invalid_argument);
}

TEST(Registry, MakeDetectorAsChecksType) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  const auto flex =
      fa::make_detector_as<fc::FlexCoreDetector>("flexcore-8", cfg);
  EXPECT_EQ(flex->config().num_pes, 8u);
  EXPECT_THROW(fa::make_detector_as<fc::FlexCoreDetector>("zf", cfg),
               std::invalid_argument);
}

// ------------------------------------------------------------ detect_batch

TEST(Batch, DefaultLoopMatchesPerVectorDetect) {
  // Every sequential detector of the registry runs the base class's one
  // loop over its detect_into.  Two channels' batches land in ONE
  // BatchResult, so a result field detect_into fails to rewrite shows up
  // in the second.
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  ch::Rng rng(7);
  const CMat h = ch::rayleigh_iid(6, 6, rng);
  const CMat h2 = ch::rayleigh_iid(6, 6, rng);
  const double nv = 0.05;
  auto batch_rng = rng;  // detection draws nothing; keep draws aligned

  std::size_t covered = 0;
  for (const std::string& spec : fa::list_specs()) {
    const auto det = fa::make_detector(spec, cfg);
    if (dynamic_cast<const fd::PathParallelDetector*>(det.get()) != nullptr) {
      continue;  // the pooled path grid: the Batch.*Threaded* tests
    }
    ++covered;
    fd::BatchResult out;
    for (const CMat* channel : {&h, &h2}) {
      det->set_channel(*channel, nv);
      const auto ys = random_batch(c, *channel, 12, nv, batch_rng);
      det->detect_batch(ys, &out);
      ASSERT_EQ(out.results.size(), ys.size()) << spec;
      EXPECT_EQ(out.tasks, ys.size()) << spec;
      EXPECT_EQ(out.sic_fallbacks, 0u) << spec;
      fd::DetectionStats want_stats;
      for (std::size_t v = 0; v < ys.size(); ++v) {
        const std::string what = spec + " vector " + std::to_string(v);
        const auto want = det->detect(ys[v]);
        EXPECT_EQ(out.results[v].symbols, want.symbols) << what;
        EXPECT_EQ(out.results[v].metric, want.metric) << what;
        expect_same_stats(out.results[v].stats, want.stats, what);
        want_stats += want.stats;
      }
      EXPECT_EQ(out.stats.nodes_visited, want_stats.nodes_visited) << spec;
      EXPECT_EQ(out.stats.flops, want_stats.flops) << spec;
    }
  }
  // zf, mmse, zf-sic, trellis50, ml-sd, kbest-8 and akbest-16.
  EXPECT_EQ(covered, 7u);
}

TEST(Batch, FlexCoreThreadedOverrideMatchesDefaultLoop) {
  Constellation c(64);
  ch::Rng rng(8);
  const CMat h = ch::rayleigh_iid(8, 8, rng);
  const double nv = ch::noise_var_for_snr_db(16.0);
  const auto ys = random_batch(c, h, 24, nv, rng);

  for (const char* spec : {"flexcore-32", "a-flexcore-32", "flexcore-32:i16"}) {
    const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        spec, {.constellation = &c});
    det->set_channel(h, nv);

    // Without a pool: the sequential base-class loop.
    fd::BatchResult seq;
    det->detect_batch(ys, &seq);
    EXPECT_EQ(seq.tasks, ys.size()) << spec;

    // With a pool: the vector x path task grid.
    flexcore::parallel::ThreadPool pool(3);
    det->set_thread_pool(&pool);
    fd::BatchResult grid;
    det->detect_batch(ys, &grid);
    EXPECT_EQ(grid.tasks, ys.size() * det->active_paths()) << spec;

    ASSERT_EQ(grid.results.size(), seq.results.size()) << spec;
    for (std::size_t v = 0; v < ys.size(); ++v) {
      const std::string what =
          std::string(spec) + " vector " + std::to_string(v);
      EXPECT_EQ(grid.results[v].symbols, seq.results[v].symbols) << what;
      EXPECT_EQ(grid.results[v].metric, seq.results[v].metric) << what;
      expect_same_stats(grid.results[v].stats, seq.results[v].stats, what);
      EXPECT_EQ(grid.results[v].stats.paths_evaluated, det->active_paths())
          << what;
    }
    expect_same_stats(grid.stats, seq.stats, spec);

    // Detaching the pool restores the sequential loop.
    det->set_thread_pool(nullptr);
    fd::BatchResult seq2;
    det->detect_batch(ys, &seq2);
    EXPECT_EQ(seq2.tasks, ys.size()) << spec;
  }
}

TEST(Batch, FlexCoreSicFallbackAppliedInBatch) {
  // A tiny path budget at extreme noise deactivates every PE for some
  // vectors; detect_batch must apply the same SIC fallback detect() does
  // and report the count — in the exact tier and through the reduced
  // tier's exact rescue.
  Constellation c(64);
  ch::Rng rng(9);
  const CMat h = ch::rayleigh_iid(8, 8, rng);
  const double nv = 4.0;  // brutal noise
  const auto ys = random_batch(c, h, 200, nv, rng);
  flexcore::parallel::ThreadPool pool(2);

  for (const char* spec :
       {"flexcore-2", "a-flexcore-32", "flexcore-32:i16", "flexcore-2:i16"}) {
    const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        spec, {.constellation = &c});
    det->set_channel(h, nv);
    det->set_thread_pool(&pool);
    fd::BatchResult out;
    det->detect_batch(ys, &out);
    const flexcore::testref::FlexCoreReference ref(*det);

    std::size_t fallbacks = 0;
    for (std::size_t v = 0; v < ys.size(); ++v) {
      const std::string what =
          std::string(spec) + " vector " + std::to_string(v);
      const auto want = det->detect(ys[v]);
      EXPECT_EQ(out.results[v].symbols, want.symbols) << what;
      EXPECT_EQ(out.results[v].metric, want.metric) << what;
      expect_same_stats(out.results[v].stats, want.stats, what);
      bool fell = false;
      const auto exact = ref.detect(det->rotate(ys[v]), &fell);
      EXPECT_EQ(want.symbols, exact.symbols) << what;
      EXPECT_EQ(want.metric, exact.metric) << what;
      fallbacks += fell;
    }
    EXPECT_EQ(out.sic_fallbacks, fallbacks) << spec;
    if (std::string(spec).starts_with("flexcore-2")) {
      EXPECT_GT(out.sic_fallbacks, 0u)
          << spec << ": scenario no longer exercises the fallback";
    }
  }
}

TEST(Batch, FcsdThreadedOverrideMatchesDefaultLoop) {
  Constellation c(16);
  ch::Rng rng(10);
  const CMat h = ch::rayleigh_iid(6, 6, rng);
  const double nv = 0.05;
  const auto ys = random_batch(c, h, 20, nv, rng);

  for (const char* spec : {"fcsd-L1", "fcsd-L2", "fcsd-L1:i16"}) {
    const auto det =
        fa::make_detector_as<fd::FcsdDetector>(spec, {.constellation = &c});
    det->set_channel(h, nv);

    // Without a pool: the base class's sequential loop.
    fd::BatchResult seq;
    det->detect_batch(ys, &seq);
    EXPECT_EQ(seq.tasks, ys.size()) << spec;
    EXPECT_EQ(seq.sic_fallbacks, 0u) << spec;

    flexcore::parallel::ThreadPool pool(3);
    det->set_thread_pool(&pool);
    fd::BatchResult grid;
    det->detect_batch(ys, &grid);
    EXPECT_EQ(grid.tasks, ys.size() * det->num_paths()) << spec;
    EXPECT_EQ(grid.sic_fallbacks, 0u) << spec;

    for (std::size_t v = 0; v < ys.size(); ++v) {
      const std::string what =
          std::string(spec) + " vector " + std::to_string(v);
      EXPECT_EQ(grid.results[v].symbols, seq.results[v].symbols) << what;
      EXPECT_EQ(grid.results[v].metric, seq.results[v].metric) << what;
      expect_same_stats(grid.results[v].stats, seq.results[v].stats, what);
    }
    expect_same_stats(grid.stats, seq.stats, spec);

    // Finite vectors whose every path metric overflows to +infinity: an
    // FCSD path never deactivates, so neither loop takes the SIC walk (an
    // FCSD plan compiles none); the winner keeps its metric.
    std::vector<CVec> huge = ys;
    for (CVec& y : huge) {
      for (auto& z : y) z *= 1e160;
    }
    for (flexcore::parallel::ThreadPool* p : {static_cast<flexcore::parallel::ThreadPool*>(nullptr), &pool}) {
      det->set_thread_pool(p);
      fd::BatchResult out;
      det->detect_batch(huge, &out);
      EXPECT_EQ(out.sic_fallbacks, 0u) << spec;
      for (const fd::DetectionResult& r : out.results) {
        EXPECT_TRUE(std::isinf(r.metric)) << spec;
      }
    }
  }
}

// ---------------------------------------------------------------- pipeline

TEST(Pipeline, DetectRequiresChannel) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-8";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  const std::vector<CVec> ys(3, CVec(4));
  EXPECT_THROW(pipe.detect(ys), std::logic_error);
  EXPECT_THROW(pipe.detect_one(CVec(4)), std::logic_error);
}

TEST(Pipeline, DetectRejectsWrongLengthVectors) {
  // A vector shorter or longer than the installed channel's antenna count
  // is refused before any detection work runs, naming the vector and both
  // lengths, by every single-channel entry point.
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-16";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  ch::Rng rng(41);
  const CMat h = ch::rayleigh_iid(12, 12, rng);
  pipe.set_channel(h, 0.05);
  std::vector<CVec> ys = random_batch(pipe.constellation(), h, 4, 0.05, rng);
  ys[2] = CVec(5);
  const auto expect_rejected = [](const auto& call, const std::string& what) {
    try {
      call();
      ADD_FAILURE() << what << " accepted a 5-entry vector";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
      EXPECT_NE(msg.find("length 5"), std::string::npos) << msg;
      EXPECT_NE(msg.find("12 receive antennas"), std::string::npos) << msg;
    }
  };
  expect_rejected([&] { pipe.detect(ys); }, "detect: vector 2");
  expect_rejected([&] { pipe.detect_one(ys[2]); }, "detect_one: vector 0");
  expect_rejected([&] { pipe.detect_soft(ys); }, "detect_soft: vector 2");
  ys[2] = CVec(13);
  EXPECT_THROW(pipe.detect(ys), std::invalid_argument);
  EXPECT_EQ(pipe.vectors_detected(), 0u);

  // The refusals left the session usable.
  ys.pop_back();
  ys.pop_back();
  EXPECT_EQ(pipe.detect(ys).results.size(), 2u);
}

TEST(Pipeline, DetectFrameRejectsDegenerateNoiseVar) {
  // A NaN, infinite or negative noise variance is refused before any
  // preprocessing runs, in every FrameCheck mode; the message names the
  // value.  Zero (a noiseless estimate) stays accepted.
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-32";
  cfg.qam_order = 16;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  const double nv = ch::noise_var_for_snr_db(10.0);
  const flexcore::testing::Frame fr =
      flexcore::testing::make_frame(pipe.constellation(), 4, 3, 8, 8, nv, 77);
  const fa::FrameResult good =
      pipe.detect_frame(flexcore::testing::job_of(fr, nv));

  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double value;
    const char* text;
  } bad[] = {{std::numeric_limits<double>::quiet_NaN(), "nan"},
             {-1.0, "-1"},
             {inf, "inf"},
             {-inf, "-inf"}};
  for (const auto& b : bad) {
    const fa::FrameJob job = flexcore::testing::job_of(fr, b.value);
    for (const fa::FrameCheck check :
         {fa::FrameCheck::kShape, fa::FrameCheck::kFull}) {
      EXPECT_THROW(fa::validate_frame_job(job, check), std::invalid_argument)
          << b.text;
    }
    try {
      pipe.detect_frame(job);
      ADD_FAILURE() << "detect_frame accepted noise_var " << b.text;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("noise_var = ") + b.text),
                std::string::npos)
          << msg;
    }
  }
  EXPECT_NO_THROW(fa::validate_frame_job(flexcore::testing::job_of(fr, 0.0)));
  EXPECT_EQ(pipe.detect_frame(flexcore::testing::job_of(fr, 0.0))
                .results.size(),
            fr.ys.size());

  // The refusals left the session usable and its results unchanged.
  flexcore::testing::expect_bit_identical(
      pipe.detect_frame(flexcore::testing::job_of(fr, nv)).results,
      good.results);
}

TEST(Pipeline, SetChannelRejectsDegenerateNoiseVar) {
  // The single-channel set_channel refuses what a FrameJob refuses, before
  // the detector is touched: the installed channel stays, and so do the
  // results detected on it.  Zero stays accepted.
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double value;
    const char* text;
  } bad[] = {{std::numeric_limits<double>::quiet_NaN(), "nan"},
             {-1.0, "-1"},
             {inf, "inf"},
             {-inf, "-inf"}};
  for (const char* spec : {"flexcore-32", "a-flexcore-32", "fcsd-L1",
                           "kbest-8", "akbest-16", "mmse"}) {
    fa::PipelineConfig cfg;
    cfg.detector = spec;
    cfg.qam_order = 16;
    cfg.threads = 1;
    fa::UplinkPipeline pipe(cfg);
    ch::Rng rng(78);
    const CMat h = ch::rayleigh_iid(8, 8, rng);
    const double nv = ch::noise_var_for_snr_db(10.0);
    const auto ys = random_batch(pipe.constellation(), h, 6, nv, rng);
    pipe.set_channel(h, nv);
    const fd::BatchResult before = pipe.detect(ys);

    const CMat other = ch::rayleigh_iid(8, 8, rng);
    for (const auto& b : bad) {
      try {
        pipe.set_channel(other, b.value);
        ADD_FAILURE() << spec << " set_channel accepted noise_var " << b.text;
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(std::string("set_channel: noise_var = ") + b.text),
                  std::string::npos)
            << msg;
      }
    }
    EXPECT_EQ(pipe.channel_installs(), 1u) << spec;
    flexcore::testing::expect_bit_identical(pipe.detect(ys).results,
                                            before.results, spec);
    EXPECT_NO_THROW(pipe.set_channel(other, 0.0)) << spec;
  }
}

TEST(Pipeline, BatchedDetectMatchesDetectorAndAggregates) {
  fa::PipelineConfig cfg;
  cfg.detector = "flexcore-16";
  cfg.qam_order = 16;
  cfg.threads = 2;
  fa::UplinkPipeline pipe(cfg);
  EXPECT_EQ(pipe.detector().name(), "flexcore-16");
  EXPECT_TRUE(pipe.supports_soft());

  ch::Rng rng(11);
  const Constellation& c = pipe.constellation();
  const double nv = ch::noise_var_for_snr_db(14.0);
  std::size_t vectors = 0;
  for (int channel = 0; channel < 3; ++channel) {
    const CMat h = ch::rayleigh_iid(6, 6, rng);
    pipe.set_channel(h, nv);
    const auto ys = random_batch(c, h, 10, nv, rng);
    const auto out = pipe.detect(ys);
    ASSERT_EQ(out.results.size(), ys.size());
    for (std::size_t v = 0; v < ys.size(); ++v) {
      EXPECT_EQ(out.results[v].symbols, pipe.detect_one(ys[v]).symbols);
    }
    vectors += 2 * ys.size();  // detect() batch + one detect_one() each
  }
  EXPECT_EQ(pipe.channel_installs(), 3u);
  EXPECT_EQ(pipe.vectors_detected(), vectors);
  EXPECT_GT(pipe.total_stats().paths_evaluated, 0u);
}

TEST(Pipeline, SoftOutputGatedByDetectorKind) {
  fa::PipelineConfig cfg;
  cfg.detector = "zf-sic";
  cfg.qam_order = 16;
  cfg.threads = 1;
  fa::UplinkPipeline pipe(cfg);
  EXPECT_FALSE(pipe.supports_soft());

  ch::Rng rng(12);
  const CMat h = ch::rayleigh_iid(4, 4, rng);
  pipe.set_channel(h, 0.05);
  const std::vector<CVec> ys(2, CVec(4));
  EXPECT_THROW(pipe.detect_soft(ys), std::logic_error);

  fa::PipelineConfig soft_cfg;
  soft_cfg.detector = "flexcore-8";
  soft_cfg.qam_order = 16;
  soft_cfg.threads = 1;
  fa::UplinkPipeline soft_pipe(soft_cfg);
  soft_pipe.set_channel(h, 0.05);
  const auto ys2 =
      random_batch(soft_pipe.constellation(), h, 4, 0.05, rng);
  const auto soft = soft_pipe.detect_soft(ys2);
  ASSERT_EQ(soft.size(), ys2.size());
  for (std::size_t v = 0; v < ys2.size(); ++v) {
    EXPECT_EQ(soft[v].hard.symbols, soft_pipe.detect_one(ys2[v]).symbols);
  }
}

TEST(Pipeline, UnknownDetectorSpecThrowsAtConstruction) {
  fa::PipelineConfig cfg;
  cfg.detector = "warp-drive";
  EXPECT_THROW(fa::UplinkPipeline pipe(cfg), std::invalid_argument);
}

// ------------------------------------------------- non-finite frame scan

TEST(FrameJobScan, NamesTheExactChannelCoordinateOfTheFirstOffender) {
  const Constellation qam(16);
  const double nv = 0.05;
  flexcore::testing::Frame fr =
      flexcore::testing::make_frame(qam, 4, 2, 6, 4, nv, 200);
  fr.channels[1](0, 2) =
      flexcore::linalg::cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);

  try {
    fa::validate_frame_job(flexcore::testing::job_of(fr, nv));
    FAIL() << "a NaN channel entry must be rejected by the full scan";
  } catch (const fa::NonFiniteError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("channel of subcarrier 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(0, 2)"), std::string::npos) << msg;
  }
}

TEST(FrameJobScan, NamesTheExactPayloadIndexOfTheFirstOffender) {
  const Constellation qam(16);
  const double nv = 0.05;
  // 2 vectors per channel: ys[5] is subcarrier 2, symbol 1.
  flexcore::testing::Frame fr =
      flexcore::testing::make_frame(qam, 4, 2, 6, 4, nv, 201);
  fr.ys[5][3] =
      flexcore::linalg::cplx(0.0, std::numeric_limits<double>::infinity());

  try {
    fa::validate_frame_job(flexcore::testing::job_of(fr, nv));
    FAIL() << "an Inf payload entry must be rejected by the full scan";
  } catch (const fa::NonFiniteError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ys[5]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("subcarrier 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("symbol 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("index 3"), std::string::npos) << msg;
  }
  // NonFiniteError IS an invalid_argument: legacy catch sites keep working.
  EXPECT_THROW(fa::validate_frame_job(flexcore::testing::job_of(fr, nv)),
               std::invalid_argument);
}

TEST(FrameJobScan, ShapeCheckSkipsTheEntryScanButKeepsGeometry) {
  const Constellation qam(16);
  const double nv = 0.05;
  flexcore::testing::Frame fr =
      flexcore::testing::make_frame(qam, 3, 2, 6, 4, nv, 202);
  fr.ys[0][0] =
      flexcore::linalg::cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);

  // kShape admits the non-finite entry (chaos harnesses rely on this to
  // exercise the dispatch-side quarantine)...
  EXPECT_NO_THROW(fa::validate_frame_job(flexcore::testing::job_of(fr, nv),
                                         fa::FrameCheck::kShape));
  // ...but still rejects structural breakage.
  flexcore::testing::Frame ragged =
      flexcore::testing::make_frame(qam, 3, 2, 6, 4, nv, 203);
  ragged.channels[1] = CMat(5, 4);
  EXPECT_THROW(fa::validate_frame_job(flexcore::testing::job_of(ragged, nv),
                                      fa::FrameCheck::kShape),
               std::invalid_argument);
}
