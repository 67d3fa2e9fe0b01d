#include "coding/interleaver.h"

#include <algorithm>
#include <stdexcept>

namespace flexcore::coding {

Interleaver::Interleaver(std::size_t n_cbps, std::size_t n_bpsc)
    : n_cbps_(n_cbps) {
  if (n_cbps == 0 || n_cbps % 16 != 0 || n_bpsc == 0 || n_cbps % n_bpsc != 0) {
    throw std::invalid_argument(
        "Interleaver: n_cbps must be a nonzero multiple of 16 and of n_bpsc");
  }
  const std::size_t s = std::max<std::size_t>(n_bpsc / 2, 1);
  fwd_.resize(n_cbps);
  inv_.resize(n_cbps);
  for (std::size_t k = 0; k < n_cbps; ++k) {
    // First permutation (802.11-2012 Eq. 18-18).
    const std::size_t i = (n_cbps / 16) * (k % 16) + k / 16;
    // Second permutation (Eq. 18-19).
    const std::size_t j =
        s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
    fwd_[k] = j;
    inv_[j] = k;
  }
}

BitVec Interleaver::interleave_stream(const BitVec& in) const {
  if (in.size() % n_cbps_ != 0) {
    throw std::invalid_argument(
        "interleave_stream: length not a block multiple");
  }
  BitVec out(in.size());
  for (std::size_t base = 0; base < in.size(); base += n_cbps_) {
    for (std::size_t k = 0; k < n_cbps_; ++k) {
      out[base + fwd_[k]] = in[base + k];
    }
  }
  return out;
}

BitVec Interleaver::deinterleave_stream(const BitVec& in) const {
  if (in.size() % n_cbps_ != 0) {
    throw std::invalid_argument(
        "deinterleave_stream: length not a block multiple");
  }
  BitVec out(in.size());
  for (std::size_t base = 0; base < in.size(); base += n_cbps_) {
    for (std::size_t k = 0; k < n_cbps_; ++k) {
      out[base + inv_[k]] = in[base + k];
    }
  }
  return out;
}

std::vector<double> Interleaver::deinterleave_stream(
    const std::vector<double>& in) const {
  if (in.size() % n_cbps_ != 0) {
    throw std::invalid_argument(
        "deinterleave_stream: length not a block multiple");
  }
  std::vector<double> out(in.size());
  for (std::size_t base = 0; base < in.size(); base += n_cbps_) {
    for (std::size_t k = 0; k < n_cbps_; ++k) {
      out[base + inv_[k]] = in[base + k];
    }
  }
  return out;
}

}  // namespace flexcore::coding
