// Multiset path search: the bit-identity reference of the library's flat
// §3.1.1 search (core/preprocessing.cpp).
//
// This is the search as first written: a std::multiset frontier ordered
// by pc descending, then position vectors ascending, whose every node owns
// its position vector.  The library runs the same rounds over packed node
// slots in a reusable workspace; both must emit the same paths with the
// same pc values, pc_sum and Table 2 counters, bit for bit
// (tests/core_test.cpp).
//
// Below it, the exhaustive ranking both searches approximate: every
// position vector, sorted by Pc.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/preprocessing.h"

namespace flexcore::testref {

inline core::PreprocessingResult multiset_path_search(
    const std::vector<double>& pe, int constellation_order,
    const core::PreprocessingConfig& cfg) {
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

    for (Node& node : round) {
      if (out.paths.size() >= cfg.num_paths ||
          out.pc_sum >= cfg.stop_threshold) {
        break;
      }
      out.pc_sum += node.pc;
      ++out.nodes_expanded;
      for (int w = 1; w <= node.last_inc; ++w) {
        int& entry = node.p[static_cast<std::size_t>(w - 1)];
        if (entry >= q) continue;
        ++entry;
        const double child_pc =
            node.pc * out.pe[static_cast<std::size_t>(w - 1)];
        ++out.real_mults;
        frontier.insert(Node{node.p, child_pc, w});
        --entry;
      }
      out.paths.push_back(RankedPath{std::move(node.p), node.pc});
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
