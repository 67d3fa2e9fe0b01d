// FlexCore pre-processing: find the N_PE most promising sphere-decoder paths.
//
// This implements §3.1 of the paper.  A tree path is identified by a
// *position vector* p: p(l) = k means "at tree level l, take the k-th
// closest constellation point to the effective received point".  Because
// the identification is relative to the (future) received signal, path
// ranking can happen a priori, from the channel (R) and noise power alone.
//
// The ranking model (Eqs. 2-4, Appendix):
//   Pc(p)    ~ prod_l Pl(p(l))
//   Pl(k)    = (1 - Pe(l)) * Pe(l)^(k-1)          (geometric in k)
//   Pe(l)    = per-level first-point error probability (see PeModel)
//
// The N_PE best position vectors are found with a best-first search over
// the pre-processing tree (Fig. 5): the root is [1,1,...,1]; the w-th child
// of a node increments p(w); a node created by incrementing element l only
// expands children w <= l (this makes every position vector reachable
// exactly once); a bounded candidate list L of size N_PE holds the frontier.
//
// Children the search could never emit are not created.  After the node
// being expanded, at most R = num_paths - emitted paths remain; a child
// that R or more live nodes beat (the list, plus the nodes this round
// popped but has not yet expanded) can never be one of them: pops are
// best-first, and a trim that drops a better node drops the child too.
// The levels are walked in one order per search, Pe(l) descending with
// ties to the higher level (the positions tie-break), so a node's children
// arrive best first and the first one that fails ends the node.  The same
// argument lets the list drop every entry R or more nodes beat, so it
// never holds more than R.  Emitted paths, their pc and pc_sum are those
// of the search that creates every child (tests/core_test.cpp checks it).
//
// The frontier is flat: each node is packed into a slot of a
// PathSearchWorkspace — its ranks as bytes (rank - 1, so 256-QAM fits)
// and the level whose increment created it — and the candidate list is an
// array of (pc, slot) entries sorted best first (highest pc, ties to the
// lexicographically smallest positions) from a head that moves down the
// array as the best leave.  A round pops the `batch` best entries off the
// head, inserts their children from the worst end and trims the worst;
// expanded and dropped slots are recycled, and the arrays are sized once
// per call to the most slots a search can hold live.  With a warm
// workspace and result (FlexCoreDetector keeps both) the search allocates
// nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "modulation/constellation.h"
#include "modulation/error_rates.h"

namespace flexcore::core {

using modulation::Constellation;

/// A position vector: entry i (0-based array index, tree level i+1) is the
/// 1-based closeness rank of the constellation point chosen at that level.
using PositionVector = std::vector<int>;

/// One ranked tree path.
struct RankedPath {
  PositionVector p;
  double pc = 0.0;  ///< model probability that this path holds the solution
};

/// Pre-processing options.
struct PreprocessingConfig {
  /// Number of paths to emit (N_PE, the available processing elements).
  std::size_t num_paths = 64;
  /// Early-stop once the cumulative Pc of the emitted set reaches this
  /// value (a-FlexCore uses 0.95; 1.0 disables the criterion since the
  /// total probability over all paths is < 1).
  double stop_threshold = 1.0;
  /// Analytic model for Pe(l).  kExactSer is the calibrated model the
  /// paper's Fig. 14 validates; see DESIGN.md "Eq. 4 prefactor".
  modulation::PeModel pe_model = modulation::PeModel::kExactSer;
  /// Candidate-list capacity; 0 = num_paths (the paper's rule).  Larger
  /// values trade memory for an exactly-optimal frontier (ablation).
  std::size_t candidate_list_cap = 0;
  /// Nodes expanded per round.  1 = the paper's sequential traversal;
  /// larger values model the parallel expansion of §3.1.1, which the paper
  /// reports is loss-free while num_paths / batch_expand >= 10.
  std::size_t batch_expand = 1;
};

/// Pre-processing output.
struct PreprocessingResult {
  /// Selected paths in emission order (non-increasing pc for batch_expand=1).
  std::vector<RankedPath> paths;
  /// Sum of pc over `paths`.
  double pc_sum = 0.0;
  /// Per-level error probabilities Pe(l), array index = level-1.
  std::vector<double> pe;
  /// Real multiplications spent (Table 2 accounting: Nt-1 for the root,
  /// then one per child probability the search forms — the children it
  /// creates plus each failed check that ends a node).
  std::uint64_t real_mults = 0;
  /// Number of tree nodes expanded.
  std::uint64_t nodes_expanded = 0;
};

/// Scratch of the §3.1.1 search, kept between calls so that a warm search
/// allocates nothing.  Contents are private to find_most_promising_paths;
/// callers only keep the object alive.
struct PathSearchWorkspace {
  /// A node in the list or a round: its pc and slot.
  struct Entry {
    double pc = 0.0;
    std::uint32_t slot = 0;
  };
  /// Slot s's ranks minus one, at byte [s * stride, s * stride + Nt) of a
  /// stride of whole words (the padding stays zero).
  std::vector<std::uint64_t> ranks;
  /// Slot s's 1-based level whose increment created it.
  std::vector<std::uint32_t> last_inc;
  std::vector<std::uint32_t> free_slots;  ///< recycled slots, a stack
  std::vector<Entry> list;                ///< best first, from a moving head
  std::vector<Entry> round;               ///< the nodes one round expands
  /// One step of the walk order (Pe descending, ties to the higher level):
  /// its 0-based level, and whether a child that fails there ends its node.
  struct Step {
    std::uint32_t level = 0;
    bool ends = false;
  };
  std::vector<Step> walk;
  /// masks[li * words + w]: bit j of word w marks step j as a level below
  /// li, words = ceil(Nt / 64).
  std::vector<std::uint64_t> masks;
  /// Path entries (with their position vectors' capacity) parked when a
  /// result came out shorter than the one before it.
  std::vector<RankedPath> spare;
};

/// Runs the pre-processing tree search of §3.1.1: the per-level error
/// probabilities Pe(l) from the diagonal of R, then the path search over
/// them.  Takes a row-range view so the sharded preprocessing can rank
/// paths off a merged R that lives inside a stacked partial-QR buffer, no
/// copy.
PreprocessingResult find_most_promising_paths(linalg::CMatView r,
                                              double noise_var,
                                              const Constellation& c,
                                              const PreprocessingConfig& cfg);

/// The same search into `out`, reusing its storage and the scratch in `ws`:
/// allocation-free once both are warm for the configuration.
void find_most_promising_paths_into(linalg::CMatView r, double noise_var,
                                    const Constellation& c,
                                    const PreprocessingConfig& cfg,
                                    PathSearchWorkspace& ws,
                                    PreprocessingResult* out);

/// Same search over caller-supplied per-level probabilities Pe(l) (array
/// index = level-1) — the seam the control plane's path-count solver uses
/// to invert the model at a *nominal* SNR, with no channel realization in
/// hand.  `cfg.pe_model` is ignored (the pe values are taken as given).
/// Throws std::invalid_argument unless 1 <= constellation_order <= 256
/// (the frontier stores ranks as bytes; every Constellation qualifies)
/// and every Pe(l) lies in [0, 1] (both overloads check it).
PreprocessingResult find_most_promising_paths(const std::vector<double>& pe,
                                              int constellation_order,
                                              const PreprocessingConfig& cfg);

}  // namespace flexcore::core
