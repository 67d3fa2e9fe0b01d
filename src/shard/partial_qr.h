// Decentralized per-antenna-cluster preprocessing: partial QR + merge.
//
// Following "Decentralized Baseband Processing for Massive MU-MIMO
// Systems" (Li et al.) and the RaPro prototype, the B receive antennas are
// partitioned into C contiguous clusters.  Cluster c sees only its
// antenna-row submatrix H_c (a linalg::CMatView — no copy) and its slice
// y_c of each received vector, and compresses them locally:
//
//   H_c = Q_c R_c            (thin, rank-tolerant plain QR)
//   ybar_c = Q_c^H y_c       (k_c = min(rows_c, Nt) entries)
//
// The feedforward merge just STACKS the partials:
//
//   S = [R_1; ...; R_C]      (K x Nt, K = sum k_c <= B)
//   z = [ybar_1; ...; ybar_C]
//
// and hands (S, z) to the unchanged detection stack.  This is exact, not
// approximate: S^H S = sum R_c^H R_c = sum H_c^H H_c = H^H H and
// S^H z = H^H y, so every Gram-determined quantity — sorted-QR column
// orderings (Wübben, FCSD), the final R factor, the rotated ybar the tree
// search consumes, ZF/MMSE filters — is identical to the monolithic values
// in exact arithmetic, and within floating-point tolerance in practice
// (property-tested in tests/shard_test.cpp).  The noise statistics survive
// too: Q_c^H n_c stays white with the same per-entry variance.
//
// Why it scales: each cluster's QR is O(rows_c * Nt^2) on its own memory
// (and, in the shard fabric, its own thread pool / CPU set), and the
// detection-side preprocessing then factorizes the K x Nt stack instead of
// the B x Nt channel — for B >> C * Nt the serial part shrinks by B / K.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/qr.h"

namespace flexcore::shard {

/// One cluster's contiguous antenna-row range [begin, begin + count).
struct RowRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Partitions `rows` antenna rows into at most `shards` contiguous,
/// balanced clusters (sizes differ by at most one, every cluster gets at
/// least one row — fewer clusters than requested when rows < shards).
/// Throws std::invalid_argument when shards == 0 or rows == 0.
std::vector<RowRange> plan_shards(std::size_t rows, std::size_t shards);

/// Rows cluster c contributes to the merged stack: its QR compresses to
/// Nt rows when it has at least Nt antennas, otherwise its rows pass
/// through unrotated.  Static in the plan — identical for every subcarrier
/// — so merged buffers have one shape per frame.
inline std::size_t compressed_rows(const RowRange& range, std::size_t nt) {
  return range.count < nt ? range.count : nt;
}

/// One cluster's local preprocessing output for one subcarrier channel.
struct PartialQr {
  /// Q_c of the thin rank-tolerant QR; EMPTY when the cluster passed its
  /// rows through uncompressed (fewer rows than Nt: identity rotation).
  linalg::CMat q;
  /// The cluster's contribution to the merged stack: R_c (Nt x Nt, upper
  /// triangular, possibly with zero rows when the submatrix was
  /// rank-deficient) when compressed, the raw H_c rows otherwise.
  linalg::CMat r;
};

/// Local preprocessing of one cluster's antenna-row submatrix.  Plain
/// (UNSORTED) QR on purpose: column ordering is a Gram-determined global
/// decision, and the merge preserves the Gram exactly, so the detection
/// stack re-derives the same ordering from the stack that it would have
/// derived from H — each detector family applies its own.
PartialQr compute_partial(linalg::CMatView h_rows);

/// compute_partial into `out`, reusing its matrices' storage: with a warm
/// PartialQr (the fabric keeps one per shard-pool worker) the call makes
/// no allocation.  On a throw `out` is unspecified.
void compute_partial_into(linalg::CMatView h_rows, PartialQr* out);

/// ybar_c = Q_c^H y_c into `out` (compressed_rows entries); pass-through
/// clusters copy their slice.  `y_rows` is the cluster's row slice of the
/// full received vector.
void rotate_partial(const PartialQr& partial, std::span<const linalg::cplx> y_rows,
                    std::span<linalg::cplx> out);

/// Total merged rows K = sum over clusters of compressed_rows.
std::size_t merged_rows(std::span<const RowRange> plan, std::size_t nt);

/// Stacks the per-cluster R blocks into the merged channel S (K x Nt).
/// Partials must be ordered like the plan that produced them.
linalg::CMat stack_partials(std::span<const PartialQr> partials);

}  // namespace flexcore::shard
