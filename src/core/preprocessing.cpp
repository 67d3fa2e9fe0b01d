#include "core/preprocessing.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
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
    // A sorted QR's diagonal is real, and |x + 0i| = hypot(x, 0) = |x|
    // exactly: the libm call is skipped, not the value changed.
    const linalg::cplx d = r(i, i);
    const double gain = d.imag() == 0.0 ? std::fabs(d.real()) : std::abs(d);
    (*pe)[i] = modulation::level_error_probability(model, c, gain, noise_var);
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

/// Sorts the levels into the walk order, Pe descending with ties to the
/// higher level, and marks the steps whose failed child ends its node.
/// Children walked in this order arrive best first: their pc never rises,
/// and on an exact pc tie the higher level's child has the smaller
/// positions.  One exception: when a later level's Pe lies just below (not
/// at) a step's Pe, the two children's pc can round to one value, and then
/// the later child can be the better one; so can any two children whose pc
/// has left the normal range (the search checks that per child).  So a
/// failure there does not end the node.  Last, masks[li] marks the steps
/// of the levels below li: the children of a node whose last_inc is li.
FLEXCORE_HOT_PATH
void fill_walk_order(const std::vector<double>& pe, PathSearchWorkspace& ws) {
  const std::size_t nt = pe.size();
  const std::size_t words = (nt + 63) / 64;
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth: one a level
  ws.walk.resize(nt);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth: one a level
  ws.masks.resize((nt + 1) * words);
  PathSearchWorkspace::Step* const walk = ws.walk.data();
  for (std::size_t l = 0; l < nt; ++l) {
    std::size_t j = l;
    for (; j > 0 && pe[walk[j - 1].level] <= pe[l]; --j) walk[j] = walk[j - 1];
    walk[j].level = static_cast<std::uint32_t>(l);
  }
  // 2^-48 leaves room for both roundings: two normal products of one pc
  // by Pe values this far apart differ.
  constexpr double kNearBelow = 1.0 - 0x1p-48;
  std::uint64_t* const masks = ws.masks.data();
  std::fill(ws.masks.begin(), ws.masks.end(), std::uint64_t{0});
  std::size_t next = 0;  // the first step whose Pe differs from step j's
  for (std::size_t j = 0; j < nt; ++j) {
    const double pe_j = pe[walk[j].level];
    next = std::max(next, j + 1);
    while (next < nt && pe[walk[next].level] == pe_j) ++next;
    walk[j].ends = next == nt || pe[walk[next].level] < pe_j * kNearBelow;
    for (std::size_t li = walk[j].level + 1; li <= nt; ++li) {
      masks[li * words + j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
}

/// The search of §3.1.1 over the Pe(l) already in out->pe.
FLEXCORE_HOT_PATH
void search_paths(int constellation_order, const PreprocessingConfig& cfg,
                  PathSearchWorkspace& ws, PreprocessingResult* out) {
  using Entry = PathSearchWorkspace::Entry;
  if (cfg.num_paths == 0) {
    throw std::invalid_argument("find_most_promising_paths: num_paths == 0");
  }
  if (constellation_order < 1 || constellation_order > 256) {
    throw std::invalid_argument(
        "find_most_promising_paths: constellation order outside 1..256");
  }
  const std::size_t nt = out->pe.size();
  const double* const pe = out->pe.data();
  // Probabilities in [0, 1] keep every pc non-negative, so no child's pc
  // exceeds its parent's or an earlier sibling's in the walk order.
  for (std::size_t l = 0; l < nt; ++l) {
    if (!(pe[l] >= 0.0 && pe[l] <= 1.0)) {
      throw std::invalid_argument(
          "find_most_promising_paths: Pe(l) outside [0, 1]");
    }
  }
  // Stored ranks are rank - 1, so a level saturates at byte q - 1.
  const auto top = static_cast<std::uint8_t>(constellation_order - 1);

  // Root probability prod_l (1 - Pe(l)): Nt-1 multiplications.
  double root_pc = 1.0;
  for (std::size_t l = 0; l < nt; ++l) root_pc *= (1.0 - pe[l]);
  std::uint64_t mults = nt >= 1 ? nt - 1 : 0;
  double pc_sum = 0.0;
  std::uint64_t expanded = 0;

  const std::size_t num_paths = cfg.num_paths;
  const double stop = cfg.stop_threshold;
  const std::size_t cap =
      cfg.candidate_list_cap == 0 ? num_paths : cfg.candidate_list_cap;
  const std::size_t batch = std::max<std::size_t>(1, cfg.batch_expand);

  // flexcore-lint: allow-next-line(HP001) warm-capacity growth: result
  out->paths.reserve(num_paths);
  fill_walk_order(out->pe, ws);

  // The list never holds more than num_paths entries (it drops the dead),
  // nor more than the cap plus one round's children; a round holds at
  // most min(batch, num_paths) nodes, and one child is in hand.  So fixed
  // arrays of `slots` entries hold the whole search.  The list's head
  // moves down the array as the best entries leave; twice its bound
  // leaves room for a move back to the front now and then.
  const std::size_t round_cap = std::min(batch, num_paths);
  const std::size_t list_max =
      cap >= num_paths ? num_paths : std::min(num_paths, cap + round_cap * nt);
  const std::size_t list_room = 2 * list_max;
  const std::size_t slots = list_max + round_cap + 1;
  const std::size_t words = (nt + 7) / 8;  // a slot's rank stride
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.ranks.resize(slots * words);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.last_inc.resize(slots);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.free_slots.resize(slots);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.list.resize(list_room);
  // flexcore-lint: allow-next-line(HP001) warm-capacity growth to the bound
  ws.round.resize(round_cap);
  std::uint64_t* const rank_words = ws.ranks.data();
  std::uint32_t* const last_inc_of = ws.last_inc.data();
  std::uint32_t* const free_slots = ws.free_slots.data();
  Entry* const list = ws.list.data();
  Entry* const round = ws.round.data();
  const PathSearchWorkspace::Step* const walk = ws.walk.data();
  const std::size_t mask_words = (nt + 63) / 64;
  const std::uint64_t* const masks = ws.masks.data();
  const auto ranks_of = [&](std::uint32_t slot) {
    return reinterpret_cast<const std::uint8_t*>(rank_words + slot * words);
  };
  std::size_t fresh = 0;   // slots [fresh, slots) were never handed out
  std::size_t n_free = 0;  // recycled slots: free_slots[0, n_free)
  std::size_t head = 0;    // the list: list[head, tail), best first
  std::size_t tail = 0;

  const auto take_slot = [&]() -> std::uint32_t {
    return static_cast<std::uint32_t>(n_free > 0 ? free_slots[--n_free]
                                                 : fresh++);
  };
  const auto release = [&](std::uint32_t slot) {
    free_slots[n_free++] = slot;
  };
  // Whether node `e` beats the child of `parent` that increments level l,
  // of probability pc: pc descending, then positions ascending (bytewise =
  // rankwise), compared without forming the child's ranks.
  const auto beats = [&](const Entry& e, double pc,
                         const std::uint8_t* parent, std::uint32_t l) {
    if (e.pc != pc) return e.pc > pc;
    const std::uint8_t* const r = ranks_of(e.slot);
    if (const int c = std::memcmp(r, parent, l)) return c < 0;
    if (r[l] != parent[l] + 1) return r[l] < parent[l] + 1;
    return std::memcmp(r + l + 1, parent + l + 1, nt - l - 1) < 0;
  };

  const std::uint32_t root = take_slot();
  std::fill_n(rank_words + root * words, words, std::uint64_t{0});
  last_inc_of[root] = static_cast<std::uint32_t>(nt);
  list[tail++] = {root_pc, root};

  std::size_t emitted = 0;

  while (tail > head && emitted < num_paths && pc_sum < stop) {
    // Take up to `batch` best list nodes for this round (only the first
    // round_cap can be expanded).
    std::size_t n_round = 0;
    for (std::size_t b = 0; b < batch && tail > head; ++b) {
      const Entry best = list[head++];
      if (n_round < round_cap) {
        round[n_round++] = best;
      } else {
        release(best.slot);
      }
    }

    for (std::size_t k = 0; k < n_round; ++k) {
      if (emitted >= num_paths || pc_sum >= stop) break;
      const Entry node = round[k];
      pc_sum += node.pc;
      ++expanded;
      // Paths the search can still emit after this one.
      const std::size_t remaining = num_paths - emitted - 1;
      const std::uint8_t* const node_ranks = ranks_of(node.slot);

      // Children: increment element w for w in [1, last_inc]; the dedup rule
      // of §3.1.1 means larger elements are never incremented again.  They
      // come in walk order, best first; the last path creates none.
      const std::uint64_t* const eligible =
          masks + last_inc_of[node.slot] * mask_words;
      bool ended = remaining == 0;
      for (std::size_t mw = 0; mw < mask_words && !ended; ++mw) {
        for (std::uint64_t m = eligible[mw]; m != 0; m &= m - 1) {
          const PathSearchWorkspace::Step step =
              walk[mw * 64 + static_cast<std::size_t>(std::countr_zero(m))];
          const std::uint32_t l = step.level;
          if (node_ranks[l] >= top) continue;  // rank cannot exceed |Q|
          const double pc = node.pc * pe[l];
          ++mults;

          // Live nodes that beat the child: the rest of the round (best
          // first), then the list's best.  `remaining` of them bury it.
          std::size_t ahead = 0;
          for (std::size_t i = k + 1;
               i < n_round && beats(round[i], pc, node_ranks, l); ++i) {
            ++ahead;
          }
          const std::size_t listed = tail - head;
          if (ahead >= remaining ||
              (listed + ahead >= remaining &&
               beats(list[head + remaining - ahead - 1], pc, node_ranks, l))) {
            if (step.ends && pc >= std::numeric_limits<double>::min()) {
              ended = true;
              break;
            }
            continue;
          }

          if (listed >= remaining) {
            // Once the child is in, entries past the best remaining - 1
            // have `remaining` entries ahead of them: dead, and all worse
            // than the child.
            for (std::size_t i = head + remaining - 1; i < tail; ++i) {
              release(list[i].slot);
            }
            tail = head + remaining - 1;
          } else if (tail == list_room) {
            std::copy(list + head, list + tail, list);
            tail -= head;
            head = 0;
          }
          // Sorted insert, from the worst end: most children land there.
          std::size_t at = tail;
          for (; at > head && !beats(list[at - 1], pc, node_ranks, l); --at) {
            list[at] = list[at - 1];
          }
          const std::uint32_t child = take_slot();
          list[at] = {pc, child};
          ++tail;
          // The child's ranks: the parent's, plus one at level l (the byte
          // stays below 255, so the word add carries nothing).
          const std::uint64_t* const from = rank_words + node.slot * words;
          std::uint64_t* const to = rank_words + child * words;
          const std::size_t bump_word = l / 8;
          const std::size_t bump_byte =
              std::endian::native == std::endian::little ? l % 8 : 7 - l % 8;
          const std::uint64_t bump = std::uint64_t{1} << (8 * bump_byte);
          for (std::size_t w = 0; w < words; ++w) {
            to[w] = from[w] + (w == bump_word ? bump : 0);
          }
          last_inc_of[child] = l + 1;
        }
      }

      RankedPath& path = path_entry(ws, out, emitted++);
      // flexcore-lint: allow-next-line(HP001) warm-capacity growth: Nt ranks
      path.p.resize(nt);
      int* const p = path.p.data();
      for (std::size_t i = 0; i < nt; ++i) p[i] = node_ranks[i] + 1;
      path.pc = node.pc;
      release(node.slot);
    }

    // Trim the candidate list to its capacity (drop lowest pc).
    if (tail - head > cap) {
      for (std::size_t i = head + cap; i < tail; ++i) release(list[i].slot);
      tail = head + cap;
    }
  }
  out->pc_sum = pc_sum;
  out->real_mults = mults;
  out->nodes_expanded = expanded;

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
