#include "core/preprocessing.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "parallel/hot_path.h"

namespace flexcore::core {

namespace {

FLEXCORE_HOT_PATH
void fill_level_error_probabilities(linalg::CMatView r, double noise_var,
                                    const Constellation& c,
                                    modulation::PeModel model,
                                    std::vector<double>* pe) {
  const std::size_t nt = r.cols();
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth: one Pe a level
  pe->resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    (*pe)[i] = modulation::level_error_probability(model, c, std::abs(r(i, i)),
                                                   noise_var);
  }
}

/// Entry `i` of out->paths, appended when the result is that short: a
/// parked entry keeps its position vector's capacity.
FLEXCORE_HOT_PATH
RankedPath& path_entry(PathSearchWorkspace& ws, PreprocessingResult* out,
                       std::size_t i) {
  if (i == out->paths.size()) {
    if (ws.spare.empty()) {
      // flexcore-lint: allow-next-line(HP001) warm-capacity growth: result
      out->paths.emplace_back();
    } else {
      // flexcore-lint: allow-next-line(HP001) warm-capacity growth: result
      out->paths.push_back(std::move(ws.spare.back()));
      ws.spare.pop_back();
    }
  }
  return out->paths[i];
}

/// The search of §3.1.1 over the Pe(l) already in out->pe.
FLEXCORE_HOT_PATH
void search_paths(int constellation_order, const PreprocessingConfig& cfg,
                  PathSearchWorkspace& ws, PreprocessingResult* out) {
  if (cfg.num_paths == 0) {
    throw std::invalid_argument("find_most_promising_paths: num_paths == 0");
  }
  if (constellation_order < 1 || constellation_order > 256) {
    throw std::invalid_argument(
        "find_most_promising_paths: constellation order outside 1..256");
  }
  const std::size_t nt = out->pe.size();
  const std::vector<double>& pe = out->pe;
  // Stored ranks are rank - 1, so a level saturates at byte q - 1.
  const auto top = static_cast<std::uint8_t>(constellation_order - 1);

  out->pc_sum = 0.0;
  out->real_mults = 0;
  out->nodes_expanded = 0;

  // Root probability prod_l (1 - Pe(l)): Nt-1 multiplications.
  double root_pc = 1.0;
  for (double pe_l : pe) root_pc *= (1.0 - pe_l);
  out->real_mults += nt >= 1 ? nt - 1 : 0;

  const std::size_t cap =
      cfg.candidate_list_cap == 0 ? cfg.num_paths : cfg.candidate_list_cap;
  const std::size_t batch = std::max<std::size_t>(1, cfg.batch_expand);

  // flexcore-lint: allow-next-line(HP001) warm-capacity growth: result
  out->paths.reserve(cfg.num_paths);

  // Live nodes (the list plus the round in hand) never outnumber the nodes
  // a search creates, 1 + num_paths * Nt, nor the list's capacity plus one
  // round's children; a round expands at most min(batch, num_paths) nodes.
  // So fixed arrays of `slots` entries hold the whole search.  (`listed`
  // is min(cap, num_paths * Nt) without forming a product that can wrap.)
  const std::size_t round_cap = std::min(batch, cfg.num_paths);
  const std::size_t listed =
      nt > 0 && cfg.num_paths > cap / nt ? cap : cfg.num_paths * nt;
  const std::size_t slots = listed + round_cap * nt + 1;
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.nodes.resize(slots);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.ranks.resize(slots * nt);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.free_slots.resize(slots);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.frontier.resize(slots);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.round.resize(round_cap);
  std::uint8_t* const ranks = ws.ranks.data();
  std::size_t fresh = 0;    // slots [fresh, slots) were never handed out
  std::size_t n_free = 0;   // recycled slots: free_slots[0, n_free)
  std::size_t n_front = 0;  // the list: frontier[0, n_front), best last

  const auto take_slot = [&]() -> std::uint32_t {
    return static_cast<std::uint32_t>(n_free > 0 ? ws.free_slots[--n_free]
                                                 : fresh++);
  };
  const auto release = [&](std::uint32_t slot) {
    ws.free_slots[n_free++] = slot;
  };
  // pc descending, then positions ascending (bytewise = rankwise).
  const auto better = [&](std::uint32_t a, std::uint32_t b) {
    const double pa = ws.nodes[a].pc;
    const double pb = ws.nodes[b].pc;
    if (pa != pb) return pa > pb;
    return std::memcmp(ranks + a * nt, ranks + b * nt, nt) < 0;
  };
  const auto front = ws.frontier.begin();

  const std::uint32_t root = take_slot();
  std::fill_n(ranks + root * nt, nt, std::uint8_t{0});
  ws.nodes[root] = {root_pc, static_cast<std::uint32_t>(nt)};
  ws.frontier[n_front++] = root;

  std::size_t emitted = 0;

  while (n_front > 0 && emitted < cfg.num_paths &&
         out->pc_sum < cfg.stop_threshold) {
    // Take up to `batch` best list nodes for this round (only the first
    // round_cap can be expanded).
    std::size_t n_round = 0;
    for (std::size_t b = 0; b < batch && n_front > 0; ++b) {
      const std::uint32_t best = ws.frontier[--n_front];
      if (n_round < round_cap) {
        ws.round[n_round++] = best;
      } else {
        release(best);
      }
    }

    for (std::size_t k = 0; k < n_round; ++k) {
      if (emitted >= cfg.num_paths || out->pc_sum >= cfg.stop_threshold) {
        break;
      }
      const std::uint32_t node = ws.round[k];
      const double pc = ws.nodes[node].pc;
      out->pc_sum += pc;
      ++out->nodes_expanded;

      // Children: increment element w for w in [1, last_inc]; the dedup rule
      // of §3.1.1 means larger elements are never incremented again.
      const std::uint32_t last_inc = ws.nodes[node].last_inc;
      for (std::uint32_t w = 1; w <= last_inc; ++w) {
        const std::size_t l = w - 1;
        if (ws.ranks[node * nt + l] >= top) continue;  // rank cannot exceed |Q|
        const std::uint32_t child = take_slot();
        std::copy_n(ranks + node * nt, nt, ranks + child * nt);
        ++ws.ranks[child * nt + l];
        ws.nodes[child] = {pc * pe[l], w};
        ++out->real_mults;
        // Sorted insert: every node before `at` is worse than the child.
        const auto end = front + static_cast<std::ptrdiff_t>(n_front);
        const auto at = std::lower_bound(
            front, end, child,
            [&](std::uint32_t x, std::uint32_t c) { return better(c, x); });
        std::copy_backward(at, end, end + 1);
        *at = child;
        ++n_front;
      }

      RankedPath& path = path_entry(ws, out, emitted++);
      // flexcore-lint: allow-next-line(HP001) warm-capacity growth: Nt ranks
      path.p.resize(nt);
      for (std::size_t i = 0; i < nt; ++i) {
        path.p[i] = ws.ranks[node * nt + i] + 1;
      }
      path.pc = pc;
      release(node);
    }

    // Trim the candidate list to its capacity (drop lowest pc).
    if (n_front > cap) {
      const auto excess = static_cast<std::ptrdiff_t>(n_front - cap);
      std::for_each(front, front + excess, release);
      std::copy(front + excess, front + static_cast<std::ptrdiff_t>(n_front),
                front);
      n_front = cap;
    }
  }

  // Park the entries a longer previous result left behind.
  while (out->paths.size() > emitted) {
    // flexcore-lint: allow-next-line(HP001) warm-capacity growth of the parking
    ws.spare.push_back(std::move(out->paths.back()));
    out->paths.pop_back();
  }
}

}  // namespace

FLEXCORE_HOT_PATH
void find_most_promising_paths_into(linalg::CMatView r, double noise_var,
                                    const Constellation& c,
                                    const PreprocessingConfig& cfg,
                                    PathSearchWorkspace& ws,
                                    PreprocessingResult* out) {
  fill_level_error_probabilities(r, noise_var, c, cfg.pe_model, &out->pe);
  search_paths(c.order(), cfg, ws, out);
}

PreprocessingResult find_most_promising_paths(linalg::CMatView r,
                                              double noise_var,
                                              const Constellation& c,
                                              const PreprocessingConfig& cfg) {
  PathSearchWorkspace ws;
  PreprocessingResult out;
  find_most_promising_paths_into(r, noise_var, c, cfg, ws, &out);
  return out;
}

PreprocessingResult find_most_promising_paths(const std::vector<double>& pe,
                                              int constellation_order,
                                              const PreprocessingConfig& cfg) {
  PathSearchWorkspace ws;
  PreprocessingResult out;
  out.pe = pe;
  search_paths(constellation_order, cfg, ws, &out);
  return out;
}

}  // namespace flexcore::core
