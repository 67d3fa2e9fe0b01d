// 802.11a/g-style two-permutation block interleaver.
//
// Interleaving operates on one OFDM symbol's worth of coded bits per spatial
// stream (N_cbps bits).  The first permutation spreads adjacent coded bits
// across non-adjacent subcarriers; the second alternates them between more-
// and less-significant modulation bits (802.11-2012 §18.3.5.7).
#pragma once

#include <cstddef>
#include <vector>

#include "coding/convolutional.h"

namespace flexcore::coding {

/// Block interleaver for N_cbps coded bits with N_bpsc bits per subcarrier.
class Interleaver {
 public:
  /// `n_cbps` must be a multiple of 16 (the 802.11 row count) and of
  /// `n_bpsc`; throws std::invalid_argument otherwise.
  Interleaver(std::size_t n_cbps, std::size_t n_bpsc);

  std::size_t block_size() const noexcept { return n_cbps_; }

  /// Interleaves a stream block by block (length must be a multiple of
  /// block_size()); deinterleave_stream applies the inverse permutation.
  BitVec interleave_stream(const BitVec& in) const;
  BitVec deinterleave_stream(const BitVec& in) const;

  /// Deinterleaves a stream of soft values with the same permutation.
  std::vector<double> deinterleave_stream(const std::vector<double>& in) const;

  /// The forward permutation: output position of input bit k.
  const std::vector<std::size_t>& permutation() const noexcept { return fwd_; }

 private:
  std::size_t n_cbps_;
  std::vector<std::size_t> fwd_;  // fwd_[k] = output index of input bit k
  std::vector<std::size_t> inv_;
};

}  // namespace flexcore::coding
