// Dense row-major complex matrix for small MIMO dimensions.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <span>

#include "linalg/types.h"

namespace flexcore::linalg {

class CMatView;

/// Dense complex matrix (row-major).
///
/// Designed for the small, dense problems of MIMO baseband processing
/// (channel matrices up to ~16x16).  All operations are bounds-asserted in
/// debug builds; none allocate except where a new matrix is returned or
/// assign() grows the storage past its capacity.
class CMat {
 public:
  CMat() = default;

  /// rows x cols matrix, zero-initialized.
  CMat(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

  /// Identity matrix of size n.
  static CMat identity(std::size_t n);

  /// Reshapes to rows x cols with every entry `value`, reusing the
  /// storage: no allocation once it has held rows * cols entries.
  void assign(std::size_t rows, std::size_t cols, cplx value) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, value);
  }
  /// Copies the shape and entries of `m`, which must not view this
  /// matrix, reusing the storage like the overload above.  Defined after
  /// CMatView below.
  void assign(CMatView m);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  cplx& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  cplx operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw storage access (row-major), for tight inner loops.
  const cplx* data() const noexcept { return data_.data(); }
  cplx* data() noexcept { return data_.data(); }

  /// Non-owning view of rows [row_begin, row_begin + row_count) — the
  /// antenna-row submatrix the sharded baseband layer hands each cluster.
  /// No copy: rows are full-width and contiguous in the row-major storage.
  /// Defined after CMatView below.
  CMatView row_range(std::size_t row_begin, std::size_t row_count) const;

  /// Extract column c as a vector.
  CVec col(std::size_t c) const;
  /// Overwrite column c.
  void set_col(std::size_t c, const CVec& v);
  /// Swap columns a and b in place.
  void swap_cols(std::size_t a, std::size_t b);

  /// Conjugate (Hermitian) transpose.
  CMat hermitian() const;

  CMat operator*(const CMat& o) const;
  CVec operator*(const CVec& v) const;

  bool same_shape(const CMat& o) const noexcept {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  CVec data_;
};

/// Non-owning, read-only view of a contiguous row range of a CMat — the
/// "antenna-row submatrix" currency of the decentralized baseband layer
/// (src/shard/): shard c sees rows [begin, begin + count) of H with zero
/// copies, because CMat is row-major with full-width rows.  A whole CMat
/// converts implicitly, so every view-taking routine (QR, Gram
/// accumulation, preprocessing) keeps accepting plain matrices at call
/// sites unchanged.  The viewed matrix must outlive the view.
class CMatView {
 public:
  CMatView() = default;
  /* implicit */ CMatView(const CMat& m)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}
  CMatView(const cplx* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  cplx operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw row-major storage of the viewed rows (contiguous).
  const cplx* data() const noexcept { return data_; }

  /// Extract column c as a vector (copies — columns are strided).
  CVec col(std::size_t c) const {
    assert(c < cols_);
    CVec out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
    return out;
  }

  /// Materialize the view as an owning matrix (the working copy QR makes).
  CMat materialize() const;

 private:
  const cplx* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

inline CMatView CMat::row_range(std::size_t row_begin,
                                std::size_t row_count) const {
  assert(row_begin + row_count <= rows_);
  return CMatView(data() + row_begin * cols_, row_count, cols_);
}

inline void CMat::assign(CMatView m) {
  rows_ = m.rows();
  cols_ = m.cols();
  data_.assign(m.data(), m.data() + rows_ * cols_);
}

inline CMat CMatView::materialize() const {
  CMat out(rows_, cols_);
  for (std::size_t i = 0; i < rows_ * cols_; ++i) out.data()[i] = data_[i];
  return out;
}

/// gram += h^H h, accumulated row by row — the decentralized Gram update:
/// each antenna row of H contributes an independent rank-1 term, so
/// per-cluster partial Grams over disjoint row ranges sum to the full
/// H^H H.  `gram` must be cols x cols (zero it first for a fresh Gram).
void accumulate_gram(CMatView h, CMat* gram);

/// out = m^H v without materializing the Hermitian transpose or any
/// temporary (out.size() must equal m.cols(), v.size() m.rows()).  This is
/// the rotation kernel (ybar = Q^H y) of the zero-allocation detection
/// grids; the span-in/span-out shape also serves the shard layer, which
/// rotates the row slice of y that its antenna cluster observed.  A lane
/// kernel (output columns in lanes, one copy per ISA, linalg/kernel_isa.h)
/// that sums each entry's rows in ascending order, so every entry is
/// bitwise `out[i] += std::conj(m(j, i)) * v[j]` over j from +0 — for every
/// input on which std::complex takes the naive product (all finite
/// operands whose products stay finite; tests/reference_qr.h keeps that
/// loop as the reference).
void hermitian_mul_into(CMatView m, std::span<const cplx> v,
                        std::span<cplx> out);

}  // namespace flexcore::linalg
