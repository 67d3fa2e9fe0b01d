#include "api/cell.h"

namespace flexcore::api {

namespace {

PipelineConfig pipeline_config_of(const CellConfig& cfg,
                                  parallel::ThreadPool* pool) {
  PipelineConfig pcfg;
  pcfg.detector = cfg.detector;
  pcfg.qam_order = cfg.qam_order;
  pcfg.shared_pool = pool;  // all cells multiplex the runtime's PE pool
  pcfg.tuning = cfg.tuning;
  return pcfg;
}

}  // namespace

Cell::Cell(std::size_t id, const CellConfig& cfg, parallel::ThreadPool* pool)
    : id_(id), cfg_(cfg), pipe_(pipeline_config_of(cfg_, pool)) {
  if (cfg_.name.empty()) cfg_.name = "cell" + std::to_string(id);
}

void Cell::note_outcome(Outcome outcome) {
  health_ring_[health_idx_] = outcome;
  health_idx_ = (health_idx_ + 1) % kHealthWindow;
  if (health_len_ < kHealthWindow) ++health_len_;

  std::size_t shed = 0, bad = 0;
  for (std::size_t i = 0; i < health_len_; ++i) {
    shed += health_ring_[i] == Outcome::kShed;
    bad += health_ring_[i] == Outcome::kBad;
  }
  // Verdict ladder (values mirror api::CellHealth):
  //   * a BURST of bad frames (>= 4 of the last 16) means the cell's input
  //     is broken, not merely noisy — quarantining;
  //   * any bad frame, or sustained shedding (>= 4), degrades;
  //   * a full window of clean completions restores health (the old
  //     outcomes age out of the ring — built-in hysteresis).
  int verdict = 0;  // kHealthy
  if (bad >= 4) {
    verdict = 2;  // kQuarantining
  } else if (bad >= 1 || shed >= 4) {
    verdict = 1;  // kDegraded
  }
  if (verdict == health_) return;
  health_ = verdict;
  ++health_transitions_;
}

}  // namespace flexcore::api
