// Q-format fixed-point arithmetic mirroring the FPGA's 16-bit datapath.
//
// The paper's FPGA engines use 16-bit fixed-point words (§5.3, Table 3).
// This header provides a small saturating Q-format type so tests can verify
// that FlexCore's path metrics survive 16-bit quantization — the sanity
// check behind trusting the cost model's use of the paper's 16-bit numbers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <complex>

#include "linalg/types.h"

namespace flexcore::perfmodel {

/// The ONE 16-bit Q-format shared by the Fixed<> reference model below, the
/// fixed-point ablation bench, and the quantized kernel tier
/// (detect::PathPlanI16): Q4.11 — 1 sign bit, 4 integer bits, 11 fractional
/// bits, matching the paper's FPGA word width (§5.3, Table 3).  The kernel
/// tier derives its own per-plan scale factors from the channel (it has to:
/// R entries are not bounded by the constellation), but its storage width
/// and saturation bounds come from here and its fractional resolution is
/// capped at kFracBits, so the model, the bench gate, and the shipped
/// kernel can never quietly use different number formats.
struct I16Format {
  static constexpr int kTotalBits = 16;
  static constexpr int kFracBits = 11;
  static constexpr std::int32_t kScale = 1 << kFracBits;
  static constexpr std::int32_t kMax = (1 << (kTotalBits - 1)) - 1;
  static constexpr std::int32_t kMin = -(1 << (kTotalBits - 1));
};

/// Signed fixed-point value with `kFracBits` fractional bits stored in
/// `kTotalBits` bits, saturating on overflow.
template <int kTotalBits = I16Format::kTotalBits,
          int kFracBits = I16Format::kFracBits>
class Fixed {
  static_assert(kTotalBits > kFracBits + 1, "need at least one integer bit");

 public:
  static constexpr std::int32_t kScale = 1 << kFracBits;
  static constexpr std::int32_t kMax = (1 << (kTotalBits - 1)) - 1;
  static constexpr std::int32_t kMin = -(1 << (kTotalBits - 1));

  constexpr Fixed() = default;

  static constexpr Fixed from_double(double v) {
    Fixed f;
    const double scaled = v * kScale;
    const double clamped =
        std::clamp(scaled, static_cast<double>(kMin),
                   static_cast<double>(kMax));
    f.raw_ = static_cast<std::int32_t>(clamped >= 0 ? clamped + 0.5
                                                    : clamped - 0.5);
    return f;
  }
  static constexpr Fixed from_raw(std::int32_t raw) {
    Fixed f;
    f.raw_ = saturate(raw);
    return f;
  }

  constexpr double to_double() const {
    return static_cast<double>(raw_) / kScale;
  }
  constexpr std::int32_t raw() const { return raw_; }

  friend constexpr Fixed operator+(Fixed a, Fixed b) {
    return from_raw(a.raw_ + b.raw_);
  }
  friend constexpr Fixed operator-(Fixed a, Fixed b) {
    return from_raw(a.raw_ - b.raw_);
  }
  friend constexpr Fixed operator*(Fixed a, Fixed b) {
    const std::int64_t p = static_cast<std::int64_t>(a.raw_) * b.raw_;
    return from_raw(static_cast<std::int32_t>(
        std::clamp<std::int64_t>(p >> kFracBits, kMin, kMax)));
  }
  friend constexpr bool operator<(Fixed a, Fixed b) { return a.raw_ < b.raw_; }
  friend constexpr bool operator==(Fixed a, Fixed b) {
    return a.raw_ == b.raw_;
  }

 private:
  static constexpr std::int32_t saturate(std::int64_t v) {
    return static_cast<std::int32_t>(std::clamp<std::int64_t>(v, kMin, kMax));
  }
  std::int32_t raw_ = 0;
};

/// Complex fixed-point sample.
template <int kTotalBits = 16, int kFracBits = 11>
struct FixedComplex {
  using F = Fixed<kTotalBits, kFracBits>;
  F re, im;

  static FixedComplex from_cplx(linalg::cplx z) {
    return {F::from_double(z.real()), F::from_double(z.imag())};
  }
  linalg::cplx to_cplx() const { return {re.to_double(), im.to_double()}; }

  friend FixedComplex operator+(FixedComplex a, FixedComplex b) {
    return {a.re + b.re, a.im + b.im};
  }
  friend FixedComplex operator-(FixedComplex a, FixedComplex b) {
    return {a.re - b.re, a.im - b.im};
  }
  friend FixedComplex operator*(FixedComplex a, FixedComplex b) {
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
  }
  /// |z|^2 as fixed point (the l2-norm unit of Fig. 7).
  F abs2() const { return re * re + im * im; }
};

}  // namespace flexcore::perfmodel
