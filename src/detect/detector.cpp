#include "detect/detector.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace flexcore::detect {

namespace {

[[noreturn]] void refuse_noise_var(const char* where, double noise_var) {
  char value[32];
  std::snprintf(value, sizeof value, "%g", noise_var);
  throw std::invalid_argument(std::string(where) + ": noise_var = " + value +
                              " (must be finite and >= 0)");
}

}  // namespace

void check_noise_var(const char* where, double noise_var) {
  if (!(noise_var >= 0.0) || std::isinf(noise_var)) {
    refuse_noise_var(where, noise_var);
  }
}

FLEXCORE_NO_FMA_VECTORIZE
std::vector<CVec> diagonal_points(const CMat& r, const Constellation& c) {
  const std::size_t q = static_cast<std::size_t>(c.order());
  std::vector<CVec> rx(r.cols(), CVec(q));
  for (std::size_t i = 0; i < r.cols(); ++i) {
    for (std::size_t x = 0; x < q; ++x) {
      rx[i][x] = r(i, i) * c.point(static_cast<int>(x));
    }
  }
  return rx;
}

void Detector::set_thread_pool(parallel::ThreadPool* /*pool*/) {}

DetectionResult Detector::detect(const CVec& y) const {
  Workspace ws;
  DetectionResult res;
  detect_into(y, ws, &res);
  return res;
}

void Detector::detect_batch(std::span<const CVec> ys, BatchResult* out) const {
  out->results.resize(ys.size());
  out->stats = DetectionStats{};
  out->sic_fallbacks = 0;
  out->tasks = ys.size();

  Workspace ws;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t v = 0; v < ys.size(); ++v) {
    out->sic_fallbacks += detect_into(ys[v], ws, &out->results[v]);
    out->stats += out->results[v].stats;
  }
  out->elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

}  // namespace flexcore::detect
