// Multiset path search: the bit-identity reference of the library's flat
// §3.1.1 search (core/preprocessing.cpp).
//
// This is the search as first written: a std::multiset frontier ordered
// by pc descending, then position vectors ascending, whose every node owns
// its position vector.  With `prune` it also skips every child the search
// can never emit: after the node being expanded, R = num_paths - emitted
// paths remain, and a child that R or more live nodes beat (the frontier
// plus the nodes this round popped but has not yet expanded) cannot be
// one of them.  It walks a node's children in Pe order (descending, ties
// to the higher level), and a failed child ends the node unless a later
// level's Pe sits just below its own or its pc is no longer normal.  The
// library prunes its list too; this reference keeps every node it creates
// until the capacity trim.  The pruned reference must equal the library in
// every field, bit for bit, and the unpruned one must emit the same paths,
// pc values, pc_sum and node count (tests/core_test.cpp).
//
// Below it, the exhaustive ranking both searches approximate: every
// position vector, sorted by Pc.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/preprocessing.h"

namespace flexcore::testref {

inline core::PreprocessingResult multiset_path_search(
    const std::vector<double>& pe, int constellation_order,
    const core::PreprocessingConfig& cfg, bool prune) {
  using core::PositionVector;
  using core::RankedPath;
  struct Node {
    PositionVector p;
    double pc;
    int last_inc;  // 1-based element whose increment created this node
  };
  struct NodeGreater {
    bool operator()(const Node& a, const Node& b) const {
      if (a.pc != b.pc) return a.pc > b.pc;
      return a.p < b.p;
    }
  };
  if (cfg.num_paths == 0) {
    throw std::invalid_argument("multiset_path_search: num_paths == 0");
  }
  const std::size_t nt = pe.size();
  const int q = constellation_order;

  // Children in Pe order: levels listed high to low, then stably sorted by
  // Pe descending.  Unpruned, the order does not matter.
  std::vector<int> levels;
  for (int w = static_cast<int>(nt); w >= 1; --w) levels.push_back(w);
  std::stable_sort(levels.begin(), levels.end(), [&](int a, int b) {
    return pe[static_cast<std::size_t>(a - 1)] >
           pe[static_cast<std::size_t>(b - 1)];
  });
  // Whether a failed child at level w may end its node: its pc is normal
  // and no later level's Pe lies in [Pe(w) (1 - 2^-48), Pe(w)).
  const auto failure_ends_node = [&](std::size_t at, double pc) {
    const double pe_w = pe[static_cast<std::size_t>(levels[at] - 1)];
    for (std::size_t m = at + 1; m < levels.size(); ++m) {
      const double pe_m = pe[static_cast<std::size_t>(levels[m] - 1)];
      if (pe_m != pe_w && pe_m >= pe_w * (1.0 - 0x1p-48)) return false;
    }
    return pc >= std::numeric_limits<double>::min();
  };

  core::PreprocessingResult out;
  out.pe = pe;

  double root_pc = 1.0;
  for (double pe_l : out.pe) root_pc *= (1.0 - pe_l);
  out.real_mults += nt >= 1 ? nt - 1 : 0;

  const std::size_t cap =
      cfg.candidate_list_cap == 0 ? cfg.num_paths : cfg.candidate_list_cap;
  const std::size_t batch = std::max<std::size_t>(1, cfg.batch_expand);

  std::multiset<Node, NodeGreater> frontier;
  frontier.insert(Node{PositionVector(nt, 1), root_pc, static_cast<int>(nt)});

  while (!frontier.empty() && out.paths.size() < cfg.num_paths &&
         out.pc_sum < cfg.stop_threshold) {
    std::vector<Node> round;
    for (std::size_t b = 0; b < batch && !frontier.empty(); ++b) {
      auto it = frontier.begin();
      round.push_back(*it);
      frontier.erase(it);
    }

    for (std::size_t k = 0; k < round.size(); ++k) {
      if (out.paths.size() >= cfg.num_paths ||
          out.pc_sum >= cfg.stop_threshold) {
        break;
      }
      Node& node = round[k];
      out.pc_sum += node.pc;
      ++out.nodes_expanded;
      const std::size_t budget = cfg.num_paths - out.paths.size() - 1;
      for (std::size_t at = 0; at < levels.size(); ++at) {
        const int w = levels[at];
        if (w > node.last_inc) continue;
        if (prune && budget == 0) break;
        int& entry = node.p[static_cast<std::size_t>(w - 1)];
        if (entry >= q) continue;
        ++entry;
        Node child{node.p, node.pc * out.pe[static_cast<std::size_t>(w - 1)],
                   w};
        --entry;
        ++out.real_mults;
        if (prune) {
          // Live nodes that beat the child, counted up to the budget.
          const NodeGreater better;
          std::size_t ahead = 0;
          for (std::size_t i = k + 1; i < round.size(); ++i) {
            if (better(round[i], child)) ++ahead;
          }
          for (auto it = frontier.begin();
               it != frontier.end() && ahead < budget && better(*it, child);
               ++it) {
            ++ahead;
          }
          if (ahead >= budget) {
            if (failure_ends_node(at, child.pc)) break;
            continue;
          }
        }
        frontier.insert(std::move(child));
      }
      out.paths.push_back(RankedPath{node.p, node.pc});
    }

    while (frontier.size() > cap) {
      frontier.erase(std::prev(frontier.end()));
    }
  }
  return out;
}

/// Enumerates *all* |Q|^Nt position vectors, ranks them by Pc (ties by
/// position vector ascending) and returns the top `num_paths`.
/// Exponential; only for tiny problems.
inline std::vector<core::RankedPath> rank_paths_exhaustive(
    const std::vector<double>& pe, int constellation_order, std::size_t nt,
    std::size_t num_paths) {
  using core::RankedPath;
  const std::uint64_t q = static_cast<std::uint64_t>(constellation_order);
  if (static_cast<double>(nt) * std::log2(static_cast<double>(q)) > 24) {
    throw std::invalid_argument(
        "rank_paths_exhaustive: search space too large");
  }
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < nt; ++i) total *= q;

  std::vector<RankedPath> all;
  all.reserve(total);
  for (std::uint64_t code = 0; code < total; ++code) {
    core::PositionVector p(nt);
    std::uint64_t v = code;
    double pc = 1.0;
    for (std::size_t i = 0; i < nt; ++i) {
      const int k = static_cast<int>(v % q) + 1;
      v /= q;
      p[i] = k;
      pc *= (1.0 - pe[i]) * std::pow(pe[i], k - 1);
    }
    all.push_back(RankedPath{std::move(p), pc});
  }
  std::sort(all.begin(), all.end(),
            [](const RankedPath& a, const RankedPath& b) {
              if (a.pc != b.pc) return a.pc > b.pc;
              return a.p < b.p;
            });
  if (all.size() > num_paths) all.resize(num_paths);
  return all;
}

}  // namespace flexcore::testref
