// Micro-benchmarks (google-benchmark) of the kernels on the critical path:
// QR decompositions, pre-processing, LUT lookup, single-path walk, Viterbi.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>

#include "api/detector_registry.h"
#include "channel/channel.h"
#include "coding/convolutional.h"
#include "core/flexcore_detector.h"
#include "core/ordering_lut.h"
#include "core/preprocessing.h"
#include "linalg/qr.h"
#include "reference_walk.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fl = flexcore::linalg;
using flexcore::modulation::Constellation;

namespace {

fl::CMat channel_12x12() {
  ch::Rng rng(1);
  return ch::rayleigh_iid(12, 12, rng);
}

void BM_QrMgs(benchmark::State& state) {
  const auto h = channel_12x12();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::qr_mgs(h));
  }
}
BENCHMARK(BM_QrMgs);

void BM_SortedQrWubben(benchmark::State& state) {
  const auto h = channel_12x12();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::sorted_qr_wubben(h));
  }
}
BENCHMARK(BM_SortedQrWubben);

void BM_FcsdSortedQr(benchmark::State& state) {
  const auto h = channel_12x12();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::fcsd_sorted_qr(h, 1));
  }
}
BENCHMARK(BM_FcsdSortedQr);

void BM_Preprocessing(benchmark::State& state) {
  Constellation qam(64);
  const auto h = channel_12x12();
  const auto qr = fl::sorted_qr_wubben(h);
  fc::PreprocessingConfig cfg;
  cfg.num_paths = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fc::find_most_promising_paths(qr.R, 0.02, qam, cfg));
  }
  state.SetLabel("N_PE=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Preprocessing)->Arg(32)->Arg(128)->Arg(512);

void BM_LutLookup(benchmark::State& state) {
  Constellation qam(64);
  fc::OrderingLut lut(qam);
  ch::Rng rng(2);
  const fl::cplx z{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  int k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.kth_symbol(z, 1 + (k++ % 8)));
  }
}
BENCHMARK(BM_LutLookup);

void BM_ExactKthNearest(benchmark::State& state) {
  Constellation qam(64);
  ch::Rng rng(2);
  const fl::cplx z{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  int k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qam.kth_nearest_exact(z, 1 + (k++ % 8)));
  }
}
BENCHMARK(BM_ExactKthNearest);

void BM_FlexCorePathWalk(benchmark::State& state) {
  Constellation qam(64);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-128", {.constellation = &qam});
  const auto h = channel_12x12();
  const double nv = 0.02;
  det->set_channel(h, nv);
  ch::Rng rng(3);
  fl::CVec s(12, qam.point(0));
  const auto y = ch::transmit(h, s, nv, rng);
  const auto ybar = det->rotate(y);
  const flexcore::testref::FlexCoreReference ref(*det);
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.path_metric(ybar, p));
    p = (p + 1) % det->active_paths();
  }
}
BENCHMARK(BM_FlexCorePathWalk);

// ---- the lane-parallel kernel engine (detect/path_kernels.h) ----
// BM_PathMetricScalar (the scalar reference walk of tests/reference_walk.h)
// and BM_PathMetricBlock walk the SAME full path set per iteration (all
// active paths of one rotated vector), so their ratio is the block-kernel
// speedup fig17 gates on.

struct KernelFixture {
  Constellation qam{64};
  std::unique_ptr<fc::FlexCoreDetector> det;
  fl::CVec ybar;

  explicit KernelFixture(const char* spec) {
    det = fa::make_detector_as<fc::FlexCoreDetector>(
        spec, {.constellation = &qam});
    const auto h = channel_12x12();
    const double nv = 0.02;
    det->set_channel(h, nv);
    // Random transmitted symbols: a corner-only vector would deactivate
    // most paths at the top level, flattering the early-exit scalar walk.
    ch::Rng rng(3);
    fl::CVec s(12);
    for (auto& z : s) {
      z = qam.point(static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(qam.order()))));
    }
    ybar = det->rotate(ch::transmit(h, s, nv, rng));
  }
};

void BM_PathMetricScalar(benchmark::State& state) {
  KernelFixture fx("flexcore-128");
  const std::size_t paths = fx.det->active_paths();
  const flexcore::testref::FlexCoreReference ref(*fx.det);
  for (auto _ : state) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < paths; ++p) {
      best = std::min(best, ref.path_metric(fx.ybar, p));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(paths));
}
BENCHMARK(BM_PathMetricScalar);

void BM_PathMetricBlock(benchmark::State& state) {
  KernelFixture fx(state.range(0) == 32 ? "flexcore-128:fp32"
                                        : "flexcore-128");
  const std::size_t paths = fx.det->active_paths();
  for (auto _ : state) {
    // detect::scan_paths is the exact block-scan loop the grids run.
    std::size_t best_p = 0;
    double best = 0.0;
    flexcore::detect::scan_paths(*fx.det, fx.ybar, paths, &best_p, &best);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(paths));
  state.SetLabel(state.range(0) == 32 ? "fp32" : "fp64");
}
BENCHMARK(BM_PathMetricBlock)->Arg(64)->Arg(32);

void BM_PathMetricBlockI16(benchmark::State& state) {
  KernelFixture fx("flexcore-128:i16");
  const std::size_t paths = fx.det->active_paths();
  for (auto _ : state) {
    std::size_t best_p = 0;
    double best = 0.0;
    flexcore::detect::scan_paths(*fx.det, fx.ybar, paths, &best_p, &best);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(paths));
  // Label carries the detector's compiled plan footprint (the exact plan
  // plus the int16 plan) next to fp64/fp32 below.
  state.SetLabel("i16 plan_bytes=" +
                 std::to_string(fx.det->plan_footprint_bytes()));
}
BENCHMARK(BM_PathMetricBlockI16);

void BM_PlanFootprint(benchmark::State& state) {
  // Not a timing benchmark so much as a tracked-number report: compiled
  // plan heap bytes per precision tier for the fig17 fixture (12x12,
  // 64-QAM, 128 paths).  Every tier holds the exact fp64 plan, so a
  // reduced tier reports exact + reduced (more than fp64 alone).
  const char* spec = state.range(0) == 16   ? "flexcore-128:i16"
                     : state.range(0) == 32 ? "flexcore-128:fp32"
                                            : "flexcore-128";
  KernelFixture fx(spec);
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = fx.det->plan_footprint_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["plan_bytes"] = static_cast<double>(bytes);
  state.SetLabel(state.range(0) == 16   ? "i16"
                 : state.range(0) == 32 ? "fp32"
                                        : "fp64");
}
BENCHMARK(BM_PlanFootprint)->Arg(64)->Arg(32)->Arg(16);

void BM_RotateInto(benchmark::State& state) {
  KernelFixture fx("flexcore-128");
  ch::Rng rng(5);
  fl::CVec s(12, fx.qam.point(1));
  const auto y = ch::transmit(channel_12x12(), s, 0.02, rng);
  fl::CVec out(12);
  for (auto _ : state) {
    fx.det->rotate_into(y, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RotateInto);

void BM_FlexCoreSetChannel(benchmark::State& state) {
  Constellation qam(64);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-128", {.constellation = &qam});
  const auto h = channel_12x12();
  for (auto _ : state) {
    det->set_channel(h, 0.02);
    benchmark::DoNotOptimize(det->active_paths());
  }
}
BENCHMARK(BM_FlexCoreSetChannel);

void BM_ViterbiDecode(benchmark::State& state) {
  ch::Rng rng(4);
  flexcore::coding::BitVec info(1152);
  for (auto& b : info) b = rng.bit();
  const auto coded = flexcore::coding::conv_encode(info);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flexcore::coding::viterbi_decode(coded));
  }
}
BENCHMARK(BM_ViterbiDecode);

}  // namespace

BENCHMARK_MAIN();
