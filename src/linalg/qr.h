// QR decompositions used by sphere-decoder-based MIMO detection.
//
// Three variants are provided:
//  * qr_mgs           : plain (unsorted) thin QR, H = Q R, and its
//                       rank-tolerant form for the shard partials.
//  * sorted_qr_wubben : SQRD column ordering of Wübben et al. [13], the
//                       standard ordering for SIC and FlexCore.
//  * fcsd_sorted_qr   : the FCSD ordering of Barbero & Thompson [4], which
//                       places the streams with the largest noise
//                       amplification on the fully-expanded (top) tree
//                       levels.
//
// Column permutations are reported so callers can map detected symbols back
// to the original transmit-antenna order.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "linalg/matrix.h"

namespace flexcore::linalg {

/// Result of a (possibly column-sorted) QR decomposition.
///
/// The factorization satisfies  H(:, perm) = Q * R, i.e. column j of the
/// permuted channel is the channel of the symbol detected at tree level j+1
/// (levels are processed from Nt down to 1, so perm.back() is detected
/// first).  For the plain decompositions perm is the identity.
struct QrResult {
  CMat Q;                         ///< Nr x Nt, orthonormal columns.
  CMat R;                         ///< Nt x Nt, upper triangular.
  std::vector<std::size_t> perm;  ///< permuted-col -> original-col map.
};

/// Thin QR via modified Gram-Schmidt.  Requires rows >= cols and full
/// column rank; throws std::runtime_error on rank deficiency.
///
/// All decompositions here take a CMatView, so they run equally on a whole
/// channel matrix or on an antenna-row submatrix of it
/// (CMat::row_range) — the per-cluster preprocessing of the sharded
/// baseband layer factorizes each cluster's rows in place, no copies of H.
///
/// qr_mgs, qr_mgs_tolerant_into and sorted_qr_wubben share one MGS core
/// that works in the output Q's own storage, a lane kernel compiled per ISA
/// (linalg/kernel_isa.h) whose every copy is bit-identical to a
/// column-at-a-time MGS.  Their `_into` forms write into caller storage
/// and reuse its capacity, so a warm output of any shape makes them
/// allocation-free; the by-value forms wrap them.  `h` must not
/// view the output's storage.  A throw leaves the output unspecified, so
/// callers that must keep their factors on failure factor into scratch and
/// swap on success (FlexCoreDetector::set_channel).
QrResult qr_mgs(CMatView h);
void qr_mgs_into(CMatView h, QrResult* out);

/// qr_mgs without the full-rank requirement, into bare Q and R (the
/// permutation is the identity): a (numerically) rank-deficient pivot
/// yields a zero Q column and a zero R row instead of throwing, so H = Q R
/// still holds exactly and R^H R == H^H H is preserved.  This is the
/// per-cluster factorization of src/shard/ — a cluster's antenna-row
/// submatrix may be singular even when the full channel is not, and the
/// partial-QR merge stays exact either way.  For full-column-rank input it
/// is bit-identical to qr_mgs (same code path).
void qr_mgs_tolerant_into(CMatView h, CMat* q, CMat* r);

/// Sorted QR decomposition (SQRD) of Wübben et al.: at each Gram-Schmidt
/// step pick the not-yet-processed column of minimum residual norm.  The
/// resulting R tends to have ascending diagonal magnitudes, so detection
/// (which walks levels Nt..1) sees the most reliable streams first.
QrResult sorted_qr_wubben(CMatView h);
void sorted_qr_wubben_into(CMatView h, QrResult* out);

/// FCSD ordering of Barbero & Thompson: the `full_levels` streams with the
/// *largest* post-detection noise amplification are assigned to the top
/// (fully-expanded) tree levels; the remaining levels use the V-BLAST
/// best-first rule (smallest noise amplification detected first).
QrResult fcsd_sorted_qr(CMatView h, std::size_t full_levels);

/// Applies a permutation produced by a sorted QR to recover symbols in the
/// original antenna order: out[perm[i]] = detected[i].
template <typename T>
std::vector<T> unpermute(const std::vector<T>& detected,
                         const std::vector<std::size_t>& perm) {
  std::vector<T> out(detected.size());
  for (std::size_t i = 0; i < detected.size(); ++i) out[perm[i]] = detected[i];
  return out;
}

/// Buffer-reusing variant for the per-vector hot path: writes into `out`
/// (resized, warm capacity reused — zero allocations in steady state).
/// `detected` must not view `out`.
template <typename T>
void unpermute_into(std::type_identity_t<std::span<const T>> detected,
                    const std::vector<std::size_t>& perm,
                    std::vector<T>* out) {
  out->resize(detected.size());
  for (std::size_t i = 0; i < detected.size(); ++i) {
    (*out)[perm[i]] = detected[i];
  }
}

}  // namespace flexcore::linalg
