// serve_bench: the serving benchmark's program.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --rate-fps <frames/s> --ser-max <ratio> [--trace-out <json>]
//
// Serves one workload (workload.h) through the public serving API —
// api::Runtime, or api::ShardedRuntime for the sharded workload — with one
// generator thread, in interleaved rounds of two loops:
//
//  * closed loop: QueuePolicy::kBlock, the generator keeps the bounded
//    admission queue full; gives capacity_vps and ser;
//  * open loop: constant inter-arrival at --rate-fps, round-robin over the
//    cells; latency runs from each frame's SCHEDULED arrival to its
//    FrameTicket::on_complete callback, so a stalled generator shows.
//
// Every loop builds its own runtime; the build plus every cell's first
// frame is one set-up sample.  --trace 1 repeats the serving runs with
// bench-side spans (written as Chrome trace-event JSON to --trace-out) and
// replays frames through the public layer calls (replay.h) for the
// per-layer metrics.  Nothing inside the library is instrumented.
//
// Correctness (exit status 1 on any failure): every completed frame equals
// its synchronous reference (api::UplinkPipeline replay, or the layer
// replay for the sharded workload), every frame completes kDone, the
// runtime's frame accounting balances, the shard fabric never retried or
// bypassed, and ser stays under --ser-max.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A human-readable summary goes to standard error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "api/runtime.h"
#include "obs/obs.h"
#include "replay.h"
#include "shard/sharded_runtime.h"
#include "workload.h"

namespace servebench {
namespace {

namespace fa = flexcore::api;
namespace fs = flexcore::sim;
namespace obs = flexcore::obs;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time the process has received so far (all threads), seconds.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate_fps = 0.0;
  double ser_max = 0.0;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(val);
    else if (key == "--trace") a.trace = std::atoi(val) != 0;
    else if (key == "--rate-fps") a.rate_fps = std::atof(val);
    else if (key == "--ser-max") a.ser_max = std::atof(val);
    else if (key == "--trace-out") a.trace_out = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (a.workload.empty() || !(a.seconds > 0.0) || !(a.rate_fps > 0.0) ||
      !(a.ser_max > 0.0)) {
    throw std::invalid_argument(
        "need --workload, --seconds > 0, --rate-fps > 0 and --ser-max > 0");
  }
  if (a.trace && a.trace_out.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-out");
  }
  return a;
}

/// One served frame: written by the generator around submit() and by the
/// completion callback (the runtime's drain() orders the callback's
/// writes before any read of the main thread).
struct FrameRec {
  std::int64_t t_sched = 0;  ///< scheduled arrival (closed loop: send time)
  std::int64_t t_sub0 = 0;   ///< submit() entered
  std::int64_t t_sub1 = 0;   ///< submit() returned
  std::int64_t t_done = 0;   ///< on_complete callback entered
  std::uint64_t seq = 0;     ///< the cell's frame sequence in its runtime
  std::uint64_t hash = 0;    ///< decision_hash of the result
  double pre_s = 0.0, det_s = 0.0, rec_s = 0.0;  ///< FrameResult timings
  std::uint32_t cell = 0;
  std::uint32_t errors = 0, symbols = 0, vectors = 0;
  std::uint32_t tasks = 0, sic_fallbacks = 0, installed = 0;
  fa::TicketStatus status = fa::TicketStatus::kPending;
};

struct Span {
  std::int64_t t0 = 0, t1 = 0;
};

enum class Loop { kSetupOnly, kClosed, kOpen };

/// What one runtime instance served.
struct Phase {
  Loop loop = Loop::kSetupOnly;
  bool traced = false;
  std::size_t rec_begin = 0;     ///< its records: set-up frames first,
  std::size_t served_begin = 0;  ///< then the phase's own frames,
  std::size_t rec_end = 0;       ///< up to here
  double setup_s = 0.0;  ///< process CPU time of the set-up
  std::int64_t t_begin = 0, t_end = 0;  ///< measurement window
  std::vector<Span> reconfigs;  ///< scripted reconfigure() calls
  std::vector<Span> probes;     ///< post-phase reconfigure() probes
  fa::RuntimeStats stats;       ///< after drain
  std::size_t backlog = 0;      ///< queue depth when the generator stopped
  std::uint64_t rescans = 0;    ///< i16 boundary rescans during the phase
  double cpu_s = 0.0;  ///< process CPU time from the loop's start to drain
};

struct Bench {
  Bench(const Workload& w, const Args& a) : wl(w), args(a), qam(w.qam) {}
  const Workload& wl;
  Args args;
  flexcore::modulation::Constellation qam;
  std::vector<std::vector<fs::SynthFrame>> pools;
  /// Records never move once created (deque growth keeps references), so
  /// callbacks hold plain references into it.
  std::deque<FrameRec> recs;
  std::size_t next_rec = 0;
  std::deque<Phase> phases;
  std::size_t threads = 1;
  std::atomic<std::uint64_t> bad_reconfigs{0};
  std::vector<double> fork_join_us;
};

std::uint64_t rescan_count() {
  return obs::metrics_snapshot().counters[static_cast<std::size_t>(
      obs::Counter::kI16BoundaryRescans)];
}

void record_result(FrameRec& r, const fs::SynthFrame& fr,
                   const fa::FrameResult& res) {
  r.hash = decision_hash(res.results);
  r.errors = static_cast<std::uint32_t>(fs::count_symbol_errors(fr, res.results));
  r.symbols = static_cast<std::uint32_t>(fr.tx.size());
  r.vectors = static_cast<std::uint32_t>(res.results.size());
  r.tasks = static_cast<std::uint32_t>(res.tasks);
  r.sic_fallbacks = static_cast<std::uint32_t>(res.sic_fallbacks);
  r.installed = static_cast<std::uint32_t>(res.channels_installed);
  r.pre_s = res.preprocess_seconds;
  r.det_s = res.detect_seconds;
  r.rec_s = res.reconstruct_seconds;
}

template <typename RT>
std::unique_ptr<RT> build_runtime(const Workload& wl, std::size_t threads) {
  fa::RuntimeConfig rcfg;
  rcfg.threads = threads;
  rcfg.dispatchers = 1;
  rcfg.queue_capacity = 16;
  rcfg.policy = fa::QueuePolicy::kBlock;
  if constexpr (std::is_same_v<RT, fa::ShardedRuntime>) {
    fa::ShardedRuntimeConfig scfg;
    scfg.shards = wl.shards;
    scfg.threads_per_shard = 1;
    scfg.runtime = rcfg;
    return std::make_unique<RT>(scfg);
  } else {
    return std::make_unique<RT>(rcfg);
  }
}

flexcore::parallel::ThreadPool& pool_of(fa::Runtime& rt) { return rt.pool(); }
flexcore::parallel::ThreadPool& pool_of(fa::ShardedRuntime& rt) {
  return rt.runtime().pool();
}

/// One runtime serving every cell of the workload.  Construction is the
/// set-up: build the runtime, open the cells, serve each cell's first
/// frame.  Its cost is counted in process CPU time (see capacity_vps).
template <typename RT>
class Server {
 public:
  Server(Bench& b, Phase& ph) : b_(b), ph_(ph) {
    const double cpu0 = process_cpu_s();
    rt_ = build_runtime<RT>(b.wl, b.threads);
    for (std::size_t c = 0; c < b.wl.cells(); ++c) {
      fa::CellConfig cc;
      cc.detector = b.wl.detectors[c];
      cc.qam_order = b.wl.qam;
      cc.reuse_preprocessing = b.wl.static_channel;
      cells_.push_back(&rt_->open_cell(cc));
    }
    seq_.assign(b.wl.cells(), 0);
    ph.rec_begin = b.next_rec;
    for (std::size_t c = 0; c < b.wl.cells(); ++c) submit(c, now_ns());
    rt_->drain();
    ph.setup_s = process_cpu_s() - cpu0;
    ph.served_begin = b.next_rec;
  }

  RT& rt() { return *rt_; }
  std::uint64_t min_seq() const {
    return *std::min_element(seq_.begin(), seq_.end());
  }

  /// Sends the cell's next pool frame (preceded by the scripted
  /// reconfiguration when its sequence number calls for one).
  void submit(std::size_t c, std::int64_t t_sched) {
    const Workload& wl = b_.wl;
    const std::uint64_t s = seq_[c]++;
    if (wl.reconfig_every > 0 && s > 0 && s % wl.reconfig_every == 0) {
      const std::int64_t t0 = now_ns();
      fa::FrameTicket t = rt_->reconfigure(
          *cells_[c], fa::CellReconfig{wl.spec_at(c, s), std::nullopt});
      ph_.reconfigs.push_back({t0, now_ns()});
      t.on_complete([&bad = b_.bad_reconfigs](fa::TicketStatus st,
                                              const fa::FrameResult*) {
        if (st != fa::TicketStatus::kDone) bad.fetch_add(1);
      });
    }
    if (b_.next_rec == b_.recs.size()) b_.recs.emplace_back();
    FrameRec& r = b_.recs[b_.next_rec++];
    const fs::SynthFrame& fr = b_.pools[c][s % wl.pool_frames];
    r.cell = static_cast<std::uint32_t>(c);
    r.seq = s;
    r.t_sched = t_sched;
    const fa::FrameJob job = fs::frame_job_of(fr, wl.noise_var());
    r.t_sub0 = now_ns();
    fa::FrameTicket t = rt_->submit(*cells_[c], job);
    r.t_sub1 = now_ns();
    t.on_complete([&r, &fr](fa::TicketStatus st, const fa::FrameResult* res) {
      r.t_done = now_ns();
      if (res != nullptr) record_result(r, fr, *res);
      r.status = st;
    });
  }

  /// Times reconfigure() calls that re-apply each cell's current spec —
  /// the control-message cost on workloads without a reconfig script.
  void probe_reconfigure(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        const std::int64_t t0 = now_ns();
        fa::FrameTicket t = rt_->reconfigure(
            *cells_[c], fa::CellReconfig{b_.wl.spec_at(c, seq_[c]), std::nullopt});
        ph_.probes.push_back({t0, now_ns()});
        if (t.wait() != fa::TicketStatus::kDone) b_.bad_reconfigs.fetch_add(1);
      }
    }
  }

 private:
  Bench& b_;
  Phase& ph_;
  std::unique_ptr<RT> rt_;
  std::vector<fa::Cell*> cells_;
  std::vector<std::uint64_t> seq_;
};

/// Sleeps, then yields, until the steady clock reaches `t` (ns).
void wait_until(std::int64_t t) {
  for (;;) {
    const std::int64_t left = t - now_ns();
    if (left <= 0) return;
    if (left > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200000));
    } else {
      std::this_thread::yield();
    }
  }
}

template <typename RT>
void closed_loop(Bench& b, Server<RT>& srv, Phase& ph, double seconds) {
  const std::size_t cells = b.wl.cells();
  const double cpu0 = process_cpu_s();
  ph.t_begin = now_ns();
  const std::int64_t stop = ph.t_begin + std::llround(seconds * 1e9);
  // Past the deadline the loop still completes one pass over every
  // cell's pool, so the ser set is the same on every run of a seed.
  for (std::size_t c = 0; now_ns() < stop || srv.min_seq() < b.wl.pool_frames;
       c = (c + 1) % cells) {
    srv.submit(c, now_ns());
  }
  ph.t_end = now_ns();
  srv.rt().drain();
  ph.cpu_s = process_cpu_s() - cpu0;
}

template <typename RT>
void open_loop(Bench& b, Server<RT>& srv, Phase& ph, double seconds) {
  const std::size_t cells = b.wl.cells();
  const double interval_ns = 1e9 / b.args.rate_fps;
  const auto frames = static_cast<std::size_t>(seconds * b.args.rate_fps);
  const std::uint64_t rescans0 = rescan_count();
  ph.t_begin = now_ns() + 1000000;
  for (std::size_t i = 0; i < frames; ++i) {
    const std::int64_t t =
        ph.t_begin + std::llround(static_cast<double>(i) * interval_ns);
    wait_until(t);
    srv.submit(i % cells, t);
  }
  ph.t_end = now_ns();
  ph.backlog = srv.rt().stats().queue_depth;
  srv.rt().drain();
  ph.rescans = rescan_count() - rescans0;
}

/// Builds a runtime, serves `loop` for `seconds`, tears it down.
template <typename RT>
void serve(Bench& b, Loop loop, double seconds, bool traced) {
  Phase& ph = b.phases.emplace_back();
  ph.loop = loop;
  ph.traced = traced;
  ph.reconfigs.reserve(b.wl.reconfig_every > 0
                           ? b.recs.size() / b.wl.reconfig_every + 64
                           : 0);
  {
    Server<RT> srv(b, ph);
    if (loop == Loop::kClosed) closed_loop(b, srv, ph, seconds);
    if (loop == Loop::kOpen) open_loop(b, srv, ph, seconds);
    ph.stats = srv.rt().stats();
    if (traced && loop == Loop::kOpen) {
      if (b.wl.reconfig_every == 0) srv.probe_reconfigure(8);
      flexcore::parallel::ThreadPool& pool = pool_of(srv.rt());
      for (int i = 0; i < 2000; ++i) {
        const std::int64_t t0 = now_ns();
        pool.parallel_for(pool.size(), [](std::size_t) {});
        b.fork_join_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
    }
  }
  ph.rec_end = b.next_rec;
}

// ------------------------------------------------------------ statistics

/// Linearly interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Values of `f` over the phase's own (non-set-up) frames.
template <typename F>
std::vector<double> served(const Bench& b, const Phase& ph, F f) {
  std::vector<double> out;
  for (std::size_t i = ph.served_begin; i < ph.rec_end; ++i) {
    out.push_back(f(b.recs[i]));
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// The benchmark was built on a 4-vCPU KVM guest whose host is shared with
// other guests.  Under their load the hypervisor stole 10-35% of the
// guest's CPU time for seconds at a time; every fork-join of a frame then
// waits for its slowest thread, and wall-clock figures of the same code
// moved 2-4x between runs.  Stolen time is not charged to the process, so
// throughput and set-up cost are counted in the CPU time it received.
// Latency has to stay wall-clock: it comes from the best half-second
// window of a run whose open loops are interleaved with its closed loops,
// and the open loops get most of the run.
constexpr double kWindowS = 0.5;
constexpr int kRounds = 6;
constexpr double kClosedShare = 0.25;

double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Detected vectors per CPU-second of the closed loops (the paper's
/// throughput per processing element).
double capacity_vps(const Bench& b, const std::vector<const Phase*>& phases) {
  double vectors = 0.0, cpu_s = 0.0;
  for (const Phase* ph : phases) {
    for (std::size_t i = ph->served_begin; i < ph->rec_end; ++i) {
      if (b.recs[i].status == fa::TicketStatus::kDone) vectors += b.recs[i].vectors;
    }
    cpu_s += ph->cpu_s;
  }
  return vectors / cpu_s;
}

/// Open-loop latency quantile q (scheduled arrival to on_complete, us):
/// per window of scheduled arrivals, the q-quantile of each cell averaged
/// over cells (cells of different tiers have disjoint latency ranges, so
/// a pooled median would sit in the gap between them); then the best
/// window of the open loops.
double latency_us(const Bench& b, const std::vector<const Phase*>& phases,
                  double q) {
  const auto window = std::llround(kWindowS * 1e9);
  const std::size_t cells = b.wl.cells();
  double best = 0.0;
  for (const Phase* ph : phases) {
    // A short trailing window folds into the one before it.
    const auto windows = static_cast<std::size_t>(
        std::max<std::int64_t>(1, (ph->t_end - ph->t_begin) / window));
    std::vector<std::vector<double>> lat(windows * cells);
    for (std::size_t i = ph->served_begin; i < ph->rec_end; ++i) {
      const FrameRec& r = b.recs[i];
      const auto w = std::min(
          windows - 1, static_cast<std::size_t>((r.t_sched - ph->t_begin) / window));
      lat[w * cells + r.cell].push_back(ns_to_us(r.t_done - r.t_sched));
    }
    for (std::size_t w = 0; w < windows; ++w) {
      double mean = 0.0;
      bool complete = true;
      for (std::size_t c = 0; c < cells; ++c) {
        complete = complete && !lat[w * cells + c].empty();
        mean += quantile(lat[w * cells + c], q) / static_cast<double>(cells);
      }
      if (complete && (best == 0.0 || mean < best)) best = mean;
    }
  }
  return best;
}

/// Peak resident set of the process so far, in KiB.
double peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

// ---------------------------------------------------------------- tracing

/// A served frame as bench-side spans.  The stage spans are rebuilt from
/// the ticket's FrameResult timings, placed back to back before the
/// completion callback (the dispatcher runs preprocess, grid, reconstruct,
/// then the callback).
struct FrameSpans {
  Span frame, submit, pre, grid, rec;
  /// Frame span minus the children it covers: queue wait, the shard stage
  /// is inside submit, plus the runtime's own per-frame overhead.
  std::int64_t self_ns() const {
    const auto len = [](const Span& s) { return s.t1 - s.t0; };
    return len(frame) - len(submit) - len(pre) - len(grid) - len(rec);
  }
};

FrameSpans frame_spans(const FrameRec& r) {
  FrameSpans s;
  s.frame = {r.t_sub0, r.t_done};
  s.submit = {r.t_sub0, r.t_sub1};
  const auto before = [&](std::int64_t end, double seconds) {
    const std::int64_t start = std::max<std::int64_t>(
        end - std::llround(seconds * 1e9), r.t_sub1);
    return Span{std::min(start, end), end};
  };
  s.rec = before(r.t_done, r.rec_s);
  s.grid = before(s.rec.t0, r.det_s);
  s.pre = before(s.grid.t0, r.pre_s);
  return s;
}

/// Writes the traced phases as Chrome trace-event JSON (the format
/// tools/trace_dump validates): a "generator" track with the submit and
/// reconfigure spans, one track per cell with each frame span and its
/// stage spans.  All spans of a frame carry its id.
bool write_trace(const Bench& b, const std::string& path) {
  struct Event {
    Span span;
    int tid;
    const char* name;
    std::size_t frame;
  };
  std::vector<Event> ev;
  constexpr int kGenerator = 1;
  constexpr int kCellBase = 10;
  for (const Phase& ph : b.phases) {
    if (!ph.traced) continue;
    for (std::size_t i = ph.rec_begin; i < ph.rec_end; ++i) {
      const FrameRec& r = b.recs[i];
      const FrameSpans s = frame_spans(r);
      const int tid = kCellBase + static_cast<int>(r.cell);
      ev.push_back({s.frame, tid, "frame", i + 1});
      ev.push_back({s.submit, kGenerator, "api.submit", i + 1});
      ev.push_back({s.pre, tid, "core.preprocess", i + 1});
      ev.push_back({s.grid, tid, "detect.grid", i + 1});
      ev.push_back({s.rec, tid, "core.reconstruct", i + 1});
    }
    for (const Span& s : ph.reconfigs) {
      ev.push_back({s, kGenerator, "api.reconfigure", 0});
    }
    for (const Span& s : ph.probes) {
      ev.push_back({s, kGenerator, "api.reconfigure", 0});
    }
  }
  std::stable_sort(ev.begin(), ev.end(), [](const Event& x, const Event& y) {
    return x.span.t0 < y.span.t0;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,"
               "\"args\":{\"name\":\"generator\"}}",
               kGenerator);
  for (std::size_t c = 0; c < b.wl.cells(); ++c) {
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"cell%zu\"}}",
                 kCellBase + static_cast<int>(c), c);
  }
  const std::int64_t origin = ev.empty() ? 0 : ev.front().span.t0;
  for (const Event& e : ev) {
    const bool child = std::strcmp(e.name, "frame") != 0 && e.frame != 0;
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d,\"args\":{\"frame\":%zu%s}}",
                 e.name, ns_to_us(e.span.t0 - origin),
                 ns_to_us(e.span.t1 - e.span.t0), e.tid, e.frame,
                 child ? ",\"parent\":\"frame\"" : "");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------ main

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int run(const Args& args) {
  const Workload& wl = find_workload(args.workload);
  if (wl.reconfig_every > 0 && wl.pool_frames % (2 * wl.reconfig_every) != 0) {
    throw std::logic_error("pool_frames must be a multiple of 2 * reconfig_every");
  }
  Bench b(wl, args);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Thread budget: pool workers + dispatcher + shard drivers + generator
  // stay within a 4-CPU machine (the shard drivers run while the
  // generator waits inside submit).
  b.threads = wl.shards > 1 ? std::clamp<std::size_t>(nproc - 2, 1, 2)
                            : std::clamp<std::size_t>(nproc - 1, 1, 3);

  b.pools = draw_pools(wl, b.qam, args.seed);
  // Pre-create the records a run normally needs so their pages are part
  // of the resident baseline, not of rss_mb.
  b.recs.resize(static_cast<std::size_t>(args.seconds * 4000.0) + 4096);
  // Input generation holds no large temporaries, so the peak so far is
  // the resident baseline.
  const double rss_base_kib = peak_rss_kib();

  const auto serve_as = [&](Loop loop, double seconds, bool traced) {
    if (wl.shards > 1) {
      serve<fa::ShardedRuntime>(b, loop, seconds, traced);
    } else {
      serve<fa::Runtime>(b, loop, seconds, traced);
    }
  };
  constexpr int kSetupOnlyRuns = 5;
  for (int i = 0; i < kSetupOnlyRuns; ++i) serve_as(Loop::kSetupOnly, 0, false);
  const double s = args.seconds;
  if (args.trace) {
    serve_as(Loop::kClosed, s / 4, false);
    serve_as(Loop::kClosed, s / 4, true);
    serve_as(Loop::kOpen, s / 2, true);
  } else {
    for (int r = 0; r < kRounds; ++r) {
      serve_as(Loop::kClosed, s * kClosedShare / kRounds, false);
      serve_as(Loop::kOpen, s * (1 - kClosedShare) / kRounds, false);
    }
  }
  const double rss_mb = (peak_rss_kib() - rss_base_kib) / 1024.0;

  // -------------------------------------------------- correctness gate
  std::vector<std::string> failures;
  const auto fail = [&](std::string why) { failures.push_back(std::move(why)); };

  flexcore::parallel::ThreadPool replay_pool(b.threads);
  LayerReplay layers(wl, b.qam, replay_pool);
  LayerSamples samples;
  std::vector<std::vector<std::uint64_t>> expected(wl.cells());
  for (std::size_t c = 0; c < wl.cells(); ++c) {
    if (wl.shards > 1) {
      // The sharded runtime is not bit-identical to a monolithic pipeline
      // (rotations reorder sums); its reference is the same public shard
      // calls run one at a time.
      for (std::size_t i = 0; i < wl.pool_frames; ++i) {
        expected[c].push_back(layers.replay(b.pools[c][i], wl.spec_at(c, i),
                                            args.trace ? &samples : nullptr));
      }
    } else {
      expected[c] = pipeline_hashes(wl, c, b.pools[c], b.threads);
    }
  }
  if (args.trace && wl.shards <= 1) {
    // Layer replay of a sample of frames: both specs of a reconfig script.
    const std::size_t step = wl.reconfig_every > 0 ? wl.reconfig_every : 2;
    for (std::size_t c = 0; c < wl.cells(); ++c) {
      for (const std::size_t i : {std::size_t{0}, std::size_t{1}, step, step + 1}) {
        if (layers.replay(b.pools[c][i], wl.spec_at(c, i), &samples) !=
            expected[c][i]) {
          fail("layer replay of cell " + std::to_string(c) + " frame " +
               std::to_string(i) + " differs from the serving run");
        }
      }
    }
  }

  std::uint64_t attempted = 0, failed = 0, mismatched = 0;
  for (const Phase& ph : b.phases) {
    for (std::size_t i = ph.rec_begin; i < ph.rec_end; ++i) {
      const FrameRec& r = b.recs[i];
      ++attempted;
      if (r.status != fa::TicketStatus::kDone) {
        ++failed;
      } else if (r.hash != expected[r.cell][r.seq % wl.pool_frames]) {
        ++mismatched;
      }
    }
    const fa::RuntimeStats& st = ph.stats;
    if (st.frames_in != st.frames_out + st.frames_dropped + st.frames_expired +
                            st.frames_failed + st.frames_quarantined ||
        st.queue_depth != 0 || st.in_flight != 0) {
      fail("runtime frame accounting does not balance");
    }
    if (st.frames_in != ph.rec_end - ph.rec_begin) {
      fail("runtime frames_in differs from frames submitted");
    }
    if (st.shard_retries != 0 || st.shard_bypasses != 0) {
      fail("shard fabric retried or bypassed a frame");
    }
  }
  if (failed > 0) fail(std::to_string(failed) + " frames did not complete kDone");
  if (mismatched > 0) {
    fail(std::to_string(mismatched) + " frames differ from their reference");
  }
  if (b.bad_reconfigs.load() > 0) fail("a reconfiguration did not complete");

  std::vector<const Phase*> closed, traced_closed, open;
  for (const Phase& ph : b.phases) {
    if (ph.loop == Loop::kClosed) (ph.traced ? traced_closed : closed).push_back(&ph);
    if (ph.loop == Loop::kOpen) open.push_back(&ph);
  }
  // ser: the first pass over every pool in the first closed loop.
  const Phase& first_closed = *closed.front();
  double errors = 0.0, symbols = 0.0;
  for (std::size_t i = first_closed.rec_begin; i < first_closed.rec_end; ++i) {
    const FrameRec& r = b.recs[i];
    if (r.seq < wl.pool_frames) {
      errors += r.errors;
      symbols += r.symbols;
    }
  }
  const double ser = symbols > 0.0 ? errors / symbols : 1.0;
  if (!(ser <= args.ser_max)) {
    fail("ser " + std::to_string(ser) + " above the workload ceiling " +
         std::to_string(args.ser_max));
  }

  // ------------------------------------------------------------ metrics
  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setups;
    for (const Phase& ph : b.phases) setups.push_back(ph.setup_s);
    metrics = {
        {"setup_s", median(setups), "s"},
        {"capacity_vps", capacity_vps(b, closed), "vectors/cpu-s"},
        {"latency_p50_us", latency_us(b, open, 0.5), "us"},
        {"ser", ser, "ratio"},
        {"rss_mb", rss_mb, "MB"},
    };
  } else {
    const Phase& op = *open.front();
    const bool sharded = wl.shards > 1;
    using flexcore::obs::Stage;
    const auto frame_self_us = [](const FrameRec& r) {
      return ns_to_us(frame_spans(r).self_ns());
    };
    const auto field = [&](auto member, double scale) {
      return served(b, op, [&](const FrameRec& r) { return r.*member * scale; });
    };
    const std::vector<double> lat = served(b, op, [](const FrameRec& r) {
      return ns_to_us(r.t_done - r.t_sched);
    });
    const double vectors = sum(field(&FrameRec::vectors, 1.0));

    std::vector<double> reconfig_us;
    for (const Span& sp : op.reconfigs.empty() ? op.probes : op.reconfigs) {
      reconfig_us.push_back(ns_to_us(sp.t1 - sp.t0));
    }
    double imbalance = 0.0;
    {
      std::vector<double> busy;
      if (sharded) {
        for (const fa::ShardStats& ss : op.stats.shards) busy.push_back(ss.busy_seconds);
      } else {
        busy.assign(samples.shard_busy_us.begin(), samples.shard_busy_us.end());
      }
      const double mean = sum(busy) / static_cast<double>(busy.size());
      imbalance = *std::max_element(busy.begin(), busy.end()) / mean;
    }
    std::vector<double> preprocess_us;
    for (const Phase& ph : b.phases) {
      for (std::size_t i = ph.rec_begin; i < ph.rec_end; ++i) {
        if (b.recs[i].installed > 0) preprocess_us.push_back(b.recs[i].pre_s * 1e6);
      }
    }
    std::vector<double> grid_us[2];
    double i16_vectors = 0.0;
    for (std::size_t i = op.served_begin; i < op.rec_end; ++i) {
      const FrameRec& r = b.recs[i];
      const std::size_t tier = tier_of(wl.spec_at(r.cell, r.seq));
      grid_us[tier].push_back(r.det_s * 1e6);
      if (tier == 1) i16_vectors += r.vectors;
    }
    for (std::size_t t = 0; t < 2; ++t) {
      if (grid_us[t].empty()) grid_us[t] = samples.grid_us[t];
    }
    const double reuse_hits = sum(served(b, op, [](const FrameRec& r) {
      return r.installed == 0 ? 1.0 : 0.0;
    }));
    const double frames = static_cast<double>(op.rec_end - op.served_begin);
    const double cap_untraced = capacity_vps(b, closed);
    const double cap_traced = capacity_vps(b, traced_closed);

    metrics = {
        {"api.submit_us", median(served(b, op, [](const FrameRec& r) {
           return ns_to_us(r.t_sub1 - r.t_sub0);
         })), "us"},
        {"api.queue_wait_us",
         op.stats.stage(Stage::kQueueWait).quantile_interp_us(0.5), "us"},
        {"api.dispatch_overhead_us",
         sum(served(b, op, frame_self_us)) / frames -
             op.stats.stage(Stage::kQueueWait).mean_us(), "us"},
        {"api.reconfigure_us", median(reconfig_us), "us"},
        {"api.latency_p90_us", quantile(lat, 0.9), "us"},
        {"api.latency_p99_us", quantile(lat, 0.99), "us"},
        {"shard.stage_us",
         sharded ? op.stats.stage(Stage::kShardPartialQr).quantile_interp_us(0.5)
                 : median(samples.shard_frame_us), "us"},
        {"shard.imbalance", imbalance, "ratio"},
        {"shard.partial_qr_us", median(samples.partial_qr_us), "us"},
        {"shard.rotate_us", median(samples.rotate_us), "us"},
        {"core.preprocess_us", median(preprocess_us), "us"},
        {"core.reuse_hit_ratio", reuse_hits / frames, "ratio"},
        {"linalg.sorted_qr_us", median(samples.sorted_qr_us), "us"},
        {"core.path_select_us", median(samples.path_select_us), "us"},
        {"detect.plan_compile_us", median(samples.plan_compile_us), "us"},
        {"detect.grid_us.fp64", median(grid_us[0]), "us"},
        {"detect.grid_us.i16", median(grid_us[1]), "us"},
        {"detect.ns_per_path.fp64", median(samples.ns_per_path[0]), "ns"},
        {"detect.ns_per_path.i16", median(samples.ns_per_path[1]), "ns"},
        {"detect.paths_per_vector", sum(field(&FrameRec::tasks, 1.0)) / vectors,
         "count"},
        {"core.reconstruct_us", median(field(&FrameRec::rec_s, 1e6)), "us"},
        {"core.sic_fallback_ratio",
         sum(field(&FrameRec::sic_fallbacks, 1.0)) / vectors, "ratio"},
        {"core.i16_rescan_ratio",
         i16_vectors > 0.0 ? static_cast<double>(op.rescans) / i16_vectors : 0.0,
         "ratio"},
        {"parallel.fork_join_us", median(b.fork_join_us), "us"},
        {"gen.late_us_p99", quantile(served(b, op, [](const FrameRec& r) {
           return ns_to_us(r.t_sub0 - r.t_sched);
         }), 0.99), "us"},
        {"gen.backlog_frames", static_cast<double>(op.backlog), "frames"},
        {"obs.trace_overhead", 1.0 - cap_traced / cap_untraced, "ratio"},
    };
    if (!write_trace(b, args.trace_out)) fail("cannot write " + args.trace_out);
  }

  // ------------------------------------------------------------- report
  std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d threads=%zu\n",
               wl.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, b.threads);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-26s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::fprintf(stderr, "  frames attempted %llu failed %llu\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const std::string& why : failures) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::run(servebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
