#include "detect/path_kernels.h"

#include "parallel/hot_path.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <complex>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "perfmodel/fixed_point.h"

namespace flexcore::detect {

void require_kernel_streams(const char* who, std::size_t nt) {
  if (nt == 0 || nt > PathPlan::kMaxLevels) {
    throw std::invalid_argument(std::string(who) + ": " +
                                std::to_string(nt) +
                                " streams, outside the path kernels' "
                                "1..32-stream limit");
  }
}

template <typename T>
void PathPlanT<T>::compile_channel(const linalg::CMat& r,
                                   const modulation::Constellation& c,
                                   bool with_diag_inverse) {
  const std::size_t nt = r.cols();
  require_kernel_streams("PathPlan", nt);
  nt_ = nt;
  q_ = c.order();
  side_ = c.side();
  scale_ = c.scale();
  inv_scale_ = c.inv_scale();
  c_ = &c;

  r_.resize(nt * nt);
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) r_.set(i * nt + j, r(i, j));
  }

  // rx[i][x] = R(i,i) * point(x), the same double product the scalar
  // detectors tabulate — computed here so the plan is self-contained, and
  // bit-identical because it is the identical operation on identical
  // values (guarded by tests/kernel_test.cpp).
  const std::size_t q = static_cast<std::size_t>(q_);
  rx_.resize(nt * q);
  for (std::size_t i = 0; i < nt; ++i) {
    const linalg::cplx rii = r(i, i);
    for (std::size_t x = 0; x < q; ++x) {
      rx_.set(i * q + x, rii * c.point(static_cast<int>(x)));
    }
  }

  pt_.assign(c.points());

  if (with_diag_inverse) {
    rdi_.resize(nt);
    for (std::size_t i = 0; i < nt; ++i) {
      // flexcore-lint: allow-next-line(HP005) plan-compile time, not per-path
      rdi_.set(i, linalg::cplx{1.0, 0.0} / r(i, i));
    }
  } else {
    rdi_.clear();
  }
}

template <typename T>
void PathPlanT<T>::compile_flexcore(const linalg::CMat& r,
                                    std::span<const core::RankedPath> paths,
                                    const modulation::Constellation& c,
                                    const core::OrderingLut& lut,
                                    bool exact_ordering,
                                    core::InvalidEntryPolicy policy) {
  compile_channel(r, c, /*with_diag_inverse=*/true);
  num_paths_ = paths.size();
  lut_ = &lut;
  policy_ = policy;
  full_levels_ = 0;
  powq_.clear();
  mode_ = exact_ordering ? Mode::kExactRank
          : policy == core::InvalidEntryPolicy::kDeactivate
              ? Mode::kLutRank
              : Mode::kGenericRank;

  // Selector table, path-major-blocked.  Tail lanes of the last block get
  // rank 1; their metrics are computed and discarded, never emitted.
  const std::size_t nb = linalg::simd_blocks(num_paths_);
  ranks_.assign(nb * nt_ * kLanes, 1);
  for (std::size_t p = 0; p < num_paths_; ++p) {
    const core::PositionVector& pv = paths[p].p;
    assert(pv.size() == nt_);
    const std::size_t b = p / kLanes;
    const std::size_t l = p % kLanes;
    for (std::size_t i = 0; i < nt_; ++i) {
      ranks_[(b * nt_ + i) * kLanes + l] = pv[i];
    }
  }

  // Rank-1 uniformity flags: a most-promising path set is rank 1 at almost
  // every (path, level), and the LUT's first entry is the slicer center
  // itself (offset (0,0), invariant under all 8 transforms).  Where a whole
  // block agrees, the kernel skips the residual/triangle math and the table
  // gather entirely — only when the base order really starts at the center,
  // which compile verifies rather than assumes.
  all_rank_one_.assign(nb * nt_, 0);
  const auto& base0 = lut.base_order().front();
  if (mode_ == Mode::kLutRank && base0.di == 0 && base0.dq == 0) {
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t i = 0; i < nt_; ++i) {
        const std::int32_t* lane = ranks_.data() + (b * nt_ + i) * kLanes;
        bool all_one = true;
        for (std::size_t l = 0; l < kLanes; ++l) all_one &= lane[l] == 1;
        all_rank_one_[b * nt_ + i] = all_one;
      }
    }
  }

  // Expand the canonical triangle order under all 8 dihedral transforms so
  // the per-lane lookup needs no reflection logic — the same swap-then-flip
  // sequence OrderingLut::kth_symbol applies per entry.
  if (mode_ == Mode::kLutRank) {
    const auto& base = lut.base_order();
    const std::size_t q = base.size();
    lut_di_.resize(8 * q);
    lut_dq_.resize(8 * q);
    for (int t = 0; t < 8; ++t) {
      const bool swap_axes = (t & 4) != 0;
      const bool flip_u = (t & 2) != 0;
      const bool flip_v = (t & 1) != 0;
      for (std::size_t k = 0; k < q; ++k) {
        int di = base[k].di;
        int dq = base[k].dq;
        if (swap_axes) std::swap(di, dq);
        if (flip_u) di = -di;
        if (flip_v) dq = -dq;
        lut_di_[static_cast<std::size_t>(t) * q + k] =
            static_cast<std::int8_t>(di);
        lut_dq_[static_cast<std::size_t>(t) * q + k] =
            static_cast<std::int8_t>(dq);
      }
    }
  }
}

template <typename T>
void PathPlanT<T>::compile_fcsd(const linalg::CMat& r, std::size_t full_levels,
                                const modulation::Constellation& c) {
  if (full_levels > r.cols()) {
    throw std::invalid_argument("PathPlan: fcsd full_levels > Nt");
  }
  compile_channel(r, c, /*with_diag_inverse=*/false);
  mode_ = Mode::kFcsd;
  full_levels_ = full_levels;
  lut_ = nullptr;
  ranks_.clear();
  powq_.resize(full_levels);
  num_paths_ = 1;
  for (std::size_t d = 0; d < full_levels; ++d) {
    powq_[d] = num_paths_;
    num_paths_ *= static_cast<std::size_t>(q_);
  }
}

namespace {

/// Round to nearest, ties away from zero — std::lround's rule — as
/// branch-light, auto-vectorizable arithmetic (no libm call).  Matches
/// lround bit-for-bit on every value the detectors can produce: the 1e9
/// clamp only engages for effective points astronomically far outside any
/// constellation, where both implementations land on an out-of-range axis
/// index and the entry deactivates either way.
inline int round_half_away(double a) noexcept {
  // !(a < 1e9) also catches NaN (a rank-deficient channel propagates NaN
  // through 1/R(i,i)): it folds to the upper clamp — defined behavior,
  // lands outside any constellation, and the entry deactivates, where
  // casting NaN to int would be UB.
  const double c = !(a < 1e9) ? 1e9 : (a < -1e9 ? -1e9 : a);
  const int t = static_cast<int>(c);  // trunc toward zero
  const double f = c - static_cast<double>(t);
  return t + (f >= 0.5 ? 1 : 0) - (f <= -0.5 ? 1 : 0);
}

// The lane-block register type of the kernel.  GCC/Clang vector extensions
// pin the codegen: element-wise IEEE ops on kLanes-wide values, lowered to
// whatever SIMD width the target has — no auto-vectorizer guesswork (the
// loop vectorizer likes to fuse the j-recurrence across iterations, which
// costs a storm of cross-lane shuffles).  Element-wise semantics are
// identical to the scalar formulas, so bit-identity is untouched.  The
// fallback struct keeps other compilers correct, just slower.
#if defined(__GNUC__) || defined(__clang__)
template <typename T, std::size_t N>
struct LaneVecOf {
  typedef T type __attribute__((vector_size(sizeof(T) * N)));
};
#else
template <typename T, std::size_t N>
struct LaneVecFallback {
  T v[N];
  T operator[](std::size_t i) const { return v[i]; }
  T& operator[](std::size_t i) { return v[i]; }
  friend LaneVecFallback operator*(const LaneVecFallback& a,
                                   const LaneVecFallback& b) {
    LaneVecFallback r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend LaneVecFallback operator+(const LaneVecFallback& a,
                                   const LaneVecFallback& b) {
    LaneVecFallback r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend LaneVecFallback operator-(const LaneVecFallback& a,
                                   const LaneVecFallback& b) {
    LaneVecFallback r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  LaneVecFallback& operator-=(const LaneVecFallback& o) {
    for (std::size_t i = 0; i < N; ++i) v[i] -= o.v[i];
    return *this;
  }
};
template <typename T, std::size_t N>
struct LaneVecOf {
  using type = LaneVecFallback<T, N>;
};
#endif

/// Broadcast a scalar across all lanes.
template <typename V, typename T>
inline V splat(T s) noexcept {
  V v{};
  for (std::size_t i = 0; i < sizeof(V) / sizeof(T); ++i) v[i] = s;
  return v;
}

}  // namespace

template <typename T>
template <std::size_t N, bool kSic>
FLEXCORE_HOT_PATH
void PathPlanT<T>::walk(const linalg::cplx* ybar, std::size_t path0,
                        double out[N], int* symbols) const {
  const std::size_t nt = nt_;
  const std::size_t q = static_cast<std::size_t>(q_);
  const std::size_t block = path0 / kLanes;

  // Lane-parallel walk state: lane = path, the complex arithmetic written
  // split over LaneVec registers (element-wise, branch-free).
  using VecT = typename LaneVecOf<T, N>::type;
  VecT br, bi;
  VecT er{}, ei{};
  VecT acc{};
  VecT sre[kMaxLevels], sim[kMaxLevels];
  std::int32_t xs[N];
  std::uint8_t dead[N] = {};

  const std::int32_t* sel_base =
      mode_ == Mode::kFcsd
          ? nullptr
          : ranks_.data() + block * nt * kLanes + path0 % kLanes;

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;

    // b = ybar[i] - sum_{j>i} R(i,j) * s[j]  (Eq. 5 numerator), all lanes.
    br = splat<VecT>(static_cast<T>(ybar[i].real()));
    bi = splat<VecT>(static_cast<T>(ybar[i].imag()));
    const T* rrow_re = r_.re.data() + i * nt;
    const T* rrow_im = r_.im.data() + i * nt;
    for (std::size_t j = i + 1; j < nt; ++j) {
      const VecT rr = splat<VecT>(rrow_re[j]);
      const VecT rj = splat<VecT>(rrow_im[j]);
      br -= rr * sre[j] - rj * sim[j];
      bi -= rr * sim[j] + rj * sre[j];
    }

    // Per-lane symbol decision (the data-dependent gather step).
    if (mode_ == Mode::kFcsd) {
      if (ii < full_levels_) {
        // Enumerated level: base-|Q| digit ii of the path index.
        const std::size_t pw = powq_[ii];
        for (std::size_t l = 0; l < N; ++l) {
          xs[l] = static_cast<std::int32_t>(((path0 + l) / pw) % q);
        }
      } else {
        // Greedy extension: nearest point to b / R(i,i) — the complex
        // division stays std::complex (the scalar walk's exact library
        // semantics), the slice is the same round-and-clamp inlined.
        // flexcore-lint: allow-next-line(HP005) scalar-exact library division
        const std::complex<T> rd{rrow_re[i], rrow_im[i]};
        for (std::size_t l = 0; l < N; ++l) {
          // flexcore-lint: allow-next-line(HP005) scalar-exact library division
          const std::complex<T> bq = std::complex<T>{br[l], bi[l]} / rd;
          const double qr = static_cast<double>(bq.real());
          const double qi = static_cast<double>(bq.imag());
          const int ir = std::clamp(
              round_half_away((qr * inv_scale_ + (side_ - 1)) / 2.0), 0,
              side_ - 1);
          const int iq = std::clamp(
              round_half_away((qi * inv_scale_ + (side_ - 1)) / 2.0), 0,
              side_ - 1);
          xs[l] = ir * side_ + iq;
        }
      }
    } else {
      // eff = b * (1/R(i,i)): the naive complex product, as std::complex
      // multiplication evaluates for finite values.
      const VecT rdr = splat<VecT>(rdi_.re[i]);
      const VecT rdj = splat<VecT>(rdi_.im[i]);
      er = br * rdr - bi * rdj;
      ei = br * rdj + bi * rdr;
      const std::int32_t* sel = sel_base + i * kLanes;
      if (kSic || mode_ == Mode::kLutRank) {
        // Branch-light split lookup, phased: (A) the slicer prescaling per
        // lane (the glue stays double and uses the constellation's shared
        // inv_scale(), so the fp64 tier reproduces OrderingLut::kth_symbol
        // and Constellation::slice exactly), then either the rank-1 fast
        // path (rounded slicer center + bounds check, no residual/triangle
        // work — most block-levels of a most-promising path set, and every
        // level of the SIC walk, which clamps instead of deactivating) or
        // the general path (B: center rounding + triangle classification,
        // C: per-lane table gathers and bounds checks).
        double ar[N], aq[N];
        for (std::size_t l = 0; l < N; ++l) {
          ar[l] = (static_cast<double>(er[l]) * inv_scale_ + (side_ - 1)) / 2.0;
          aq[l] = (static_cast<double>(ei[l]) * inv_scale_ + (side_ - 1)) / 2.0;
        }
        if (kSic || all_rank_one_[block * nt + i]) {
          for (std::size_t l = 0; l < N; ++l) {
            const std::int32_t cil = round_half_away(ar[l]);
            const std::int32_t cql = round_half_away(aq[l]);
            if constexpr (kSic) {
              xs[l] = std::clamp(cil, 0, side_ - 1) * side_ +
                      std::clamp(cql, 0, side_ - 1);
            } else {
              const bool valid = !dead[l] && cil >= 0 && cil < side_ &&
                                 cql >= 0 && cql < side_;
              xs[l] = valid ? cil * side_ + cql : 0;
              dead[l] = valid ? 0 : 1;
            }
          }
        } else {
          std::int32_t ci[N], cq[N], tri[N];
          for (std::size_t l = 0; l < N; ++l) {
            const int cil = round_half_away(ar[l]);
            const int cql = round_half_away(aq[l]);
            const double u = static_cast<double>(er[l]) -
                             (2.0 * cil - (side_ - 1)) * scale_;
            const double v = static_cast<double>(ei[l]) -
                             (2.0 * cql - (side_ - 1)) * scale_;
            const double au = std::fabs(u);
            const double av = std::fabs(v);
            ci[l] = cil;
            cq[l] = cql;
            tri[l] = (av > au ? 4 : 0) | (u < 0.0 ? 2 : 0) | (v < 0.0 ? 1 : 0);
          }
          for (std::size_t l = 0; l < N; ++l) {
            if (dead[l]) {
              xs[l] = 0;  // lane already deactivated; keep the walk defined
              continue;
            }
            const std::int32_t k = sel[l];
            int x = -1;
            if (k >= 1 && k <= q_) {
              const std::size_t e =
                  static_cast<std::size_t>(tri[l]) * q +
                  static_cast<std::size_t>(k - 1);
              const int ai = ci[l] + lut_di_[e];
              const int aq2 = cq[l] + lut_dq_[e];
              if (ai >= 0 && ai < side_ && aq2 >= 0 && aq2 < side_) {
                x = ai * side_ + aq2;
              }
            }
            if (x < 0) {
              dead[l] = 1;
              xs[l] = 0;
            } else {
              xs[l] = x;
            }
          }
        }
      } else {
        // Ablation modes: per-lane calls into the reference lookups.
        for (std::size_t l = 0; l < N; ++l) {
          if (dead[l]) {
            xs[l] = 0;
            continue;
          }
          const linalg::cplx eff{static_cast<double>(er[l]),
                                 static_cast<double>(ei[l])};
          const int x = mode_ == Mode::kGenericRank
                            ? lut_->kth_symbol(eff, sel[l], policy_)
                            : c_->kth_nearest_exact(eff, sel[l]);
          if (x < 0) {
            dead[l] = 1;
            xs[l] = 0;
          } else {
            xs[l] = x;
          }
        }
      }
    }
    if constexpr (N == 1) symbols[i] = xs[0];

    // Decided point + partial Euclidean distance, all lanes.
    const T* rx_re_row = rx_.re.data() + i * q;
    const T* rx_im_row = rx_.im.data() + i * q;
    for (std::size_t l = 0; l < N; ++l) {
      const std::int32_t x = xs[l];
      sre[i][l] = pt_.re[static_cast<std::size_t>(x)];
      sim[i][l] = pt_.im[static_cast<std::size_t>(x)];
      const T dr = br[l] - rx_re_row[static_cast<std::size_t>(x)];
      const T dj = bi[l] - rx_im_row[static_cast<std::size_t>(x)];
      acc[l] += dr * dr + dj * dj;
    }
  }

  for (std::size_t l = 0; l < N; ++l) {
    out[l] = dead[l] ? std::numeric_limits<double>::infinity()
                     : static_cast<double>(acc[l]);
  }
}

template <typename T>
FLEXCORE_HOT_PATH
void PathPlanT<T>::path_metric_block(std::span<const linalg::cplx> ybar,
                                     std::size_t first_path,
                                     std::size_t n_paths, double* out) const {
  assert(compiled() && ybar.size() == nt_);
  assert(first_path + n_paths <= num_paths_);
  double tmp[kLanes];
  std::size_t written = 0;
  while (written < n_paths) {
    const std::size_t p = first_path + written;
    const std::size_t lane0 = p % kLanes;
    walk<kLanes, false>(ybar.data(), p - lane0, tmp, nullptr);
    const std::size_t take = std::min(n_paths - written, kLanes - lane0);
    for (std::size_t k = 0; k < take; ++k) out[written + k] = tmp[lane0 + k];
    written += take;
  }
}

template <typename T>
FLEXCORE_HOT_PATH
double PathPlanT<T>::walk_path(std::span<const linalg::cplx> ybar,
                               std::size_t path,
                               std::span<int> symbols) const {
  assert(compiled() && ybar.size() == nt_ && symbols.size() == nt_);
  assert(path < num_paths_);
  double m;
  walk<1, false>(ybar.data(), path, &m, symbols.data());
  return m;
}

template <typename T>
FLEXCORE_HOT_PATH
double PathPlanT<T>::walk_sic(std::span<const linalg::cplx> ybar,
                              std::span<int> symbols) const {
  assert(mode_ != Mode::kFcsd && ybar.size() == nt_ && symbols.size() == nt_);
  double m;
  walk<1, true>(ybar.data(), 0, &m, symbols.data());
  return m;
}

template <typename T>
DetectionStats PathPlanT<T>::walk_stats(std::size_t n_paths) const noexcept {
  // Table 2 accounting per full walk: 4 real multiplies (8 flops) per
  // cancelled term, nt(nt-1)/2 terms.  Per level, FlexCore adds the PED
  // constant multiply (4 mults, 11 flops; the FPGA folds the 1/R(i,i)
  // divide into a multiply by R(i,i), so `eff` costs nothing extra); FCSD
  // adds 2 mults / 5 flops, plus 4 mults / 8 flops for the complex divide
  // of every greedily sliced level.
  const std::uint64_t nt = nt_;
  const std::uint64_t terms = nt * (nt == 0 ? 0 : nt - 1) / 2;
  std::uint64_t mults = 4 * terms;
  std::uint64_t flops = 8 * terms;
  if (mode_ == Mode::kFcsd) {
    const std::uint64_t greedy = nt - full_levels_;
    mults += 2 * nt + 4 * greedy;
    flops += 5 * nt + 8 * greedy;
  } else {
    mults += 4 * nt;
    flops += 11 * nt;
  }
  const std::uint64_t n = n_paths;
  DetectionStats s;
  s.nodes_visited = n * nt;
  s.real_mults = n * mults;
  s.flops = n * flops;
  s.paths_evaluated = n;
  return s;
}

template <typename T>
std::size_t PathPlanT<T>::footprint_bytes() const noexcept {
  const auto split = [](const linalg::SplitVec<T>& v) {
    return (v.re.size() + v.im.size()) * sizeof(T);
  };
  return split(r_) + split(rdi_) + split(rx_) + split(pt_) +
         ranks_.size() * sizeof(std::int32_t) + all_rank_one_.size() +
         lut_di_.size() + lut_dq_.size() + powq_.size() * sizeof(std::size_t);
}

template class PathPlanT<double>;
template class PathPlanT<float>;

// ---------------------------------------------------------------------------
// PathPlanI16 — the quantized tier.
//
// Number format (all scales are powers of two, chosen per plan at compile):
//   * P (point_bits):  constellation points stored as round(pt * 2^P),
//     the largest P with (side-1)*scale * 2^P <= I16Format::kMax.
//   * F (frac_bits):   R rows, rx tables and the cancellation value b are
//     at scale 2^F.  F = min(fit, overflow, I16Format::kFracBits) where
//     `fit` keeps every stored channel component inside int16 and
//     `overflow` guarantees (2*Nt + 4) * vmax*2^F * pmax*2^P < 2^31 — the
//     worst-case |b| accumulation (ybar is saturated to 4 product
//     magnitudes, each of the <= Nt-1 cancellation terms contributes at
//     most 2) — so the int32 j-loop can NEVER wrap, by construction, not
//     by runtime checks.
//   * G_i (rdi_bits):  per-level scale of the quantized 1/R(i,i); the
//     effective point e = b * (1/R(i,i)) is an int32 at 2^(F + G_i),
//     bounded by 2*kMax^2 < 2^31 because both factors are int16-clamped.
//
// The per-(plan, level) slicer LUT maps eff_raw (at 2^(F+G_i)) straight to
// an unclamped axis index: bucket = (eff_raw >> shift) + 128 clamped to
// [0, 255], where shift is the smallest value covering +-(side + kPamPad) *
// scale in the middle 254 buckets.  Buckets 0 and 255 absorb the whole
// out-of-coverage tail and always hold the kSlicerInvalid sentinel, as do
// all 256 buckets of a level whose 1/R(i,i) is non-finite (rank-deficient
// channel — the fp tiers' NaN clamp deactivates those lanes; the sentinel
// does the same here).
// ---------------------------------------------------------------------------

namespace {

constexpr std::int32_t kI16Max = perfmodel::I16Format::kMax;
constexpr std::int32_t kI16Min = perfmodel::I16Format::kMin;

/// Round-to-nearest int16 store with NaN-safe saturation (NaN folds to the
/// upper clamp, like round_half_away's 1e9 rule).
inline std::int16_t quantize_i16(double v) noexcept {
  const double hi = static_cast<double>(kI16Max);
  const double lo = static_cast<double>(kI16Min);
  const double c = !(v < hi) ? hi : (v < lo ? lo : v);
  return static_cast<std::int16_t>(
      static_cast<std::int32_t>(c >= 0.0 ? c + 0.5 : c - 0.5));
}

/// Round-to-nearest int32 with symmetric saturation at +-cap (cap < 2^31).
/// NaN folds to +cap: an undecodable ybar component saturates instead of
/// invoking UB on the float->int cast.
inline std::int32_t quantize_i32(double raw, double cap) noexcept {
  const double c = !(raw < cap) ? cap : (raw < -cap ? -cap : raw);
  return static_cast<std::int32_t>(c >= 0.0 ? c + 0.5 : c - 0.5);
}

/// (re, im) int16 pair packed into one int32: re in the low 16 bits, im in
/// the high 16 (two's-complement bit patterns, routed through unsigned so
/// no shift ever overflows a signed value).
inline std::int32_t pack_i16_pair(std::int16_t re, std::int16_t im) noexcept {
  const std::uint32_t u =
      static_cast<std::uint32_t>(static_cast<std::uint16_t>(re)) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(im)) << 16);
  return static_cast<std::int32_t>(u);
}

/// The compiled-plan state the dispatched kernel reads: raw pointers only,
/// filled per path_metric_block call (the plan is immutable while grids
/// run, so the pointers stay valid across the whole scan).
struct I16KernelState {
  std::size_t nt = 0, q = 0, full_levels = 0;
  int side = 0, pbits = 0, fbits = 0;
  int pt_half = 0;  // lround(scale * 2^P): PAM half-step at the point scale
  int mode = 0;  // PathPlanI16::Mode, as int: 0 lut / 1 generic / 2 exact / 3 fcsd
  double metric_unscale = 0.0;
  const std::int16_t* r_re = nullptr;
  const std::int16_t* r_im = nullptr;
  const std::int32_t* rx_pack = nullptr;
  const std::int32_t* pt_pack = nullptr;
  const std::int16_t* rdi_re = nullptr;
  const std::int16_t* rdi_im = nullptr;
  const std::int32_t* rh_re = nullptr;  // R(i,i)*scale at 2^F (affine rx)
  const std::int32_t* rh_im = nullptr;
  const int* gbits = nullptr;
  const int* slicer_shift = nullptr;
  const std::int32_t* slice_ar = nullptr;
  const std::int32_t* slice_ai = nullptr;
  const std::int32_t* slice_off = nullptr;
  const std::int32_t* slice_s = nullptr;
  const std::uint8_t* slice_live = nullptr;
  const std::int8_t* slicer = nullptr;
  const std::int32_t* pam = nullptr;
  int pam_span = 0;
  const std::int16_t* ranks = nullptr;
  const std::uint32_t* fix_mask = nullptr;
  const std::int8_t* lut_di = nullptr;
  const std::int8_t* lut_dq = nullptr;
  const std::size_t* powq = nullptr;
  const core::OrderingLut* lut = nullptr;
  const modulation::Constellation* cst = nullptr;
  core::InvalidEntryPolicy policy = core::InvalidEntryPolicy::kDeactivate;
};

// Runtime-dispatched kernel: the library ships portable (baseline-ISA)
// binaries, but an integer kernel lives or dies by pmulld/AVX2 — so on
// x86-64 the kernel body is compiled once per ISA tier (baseline, SSE4.1,
// AVX2, AVX-512F) and one startup __builtin_cpu_supports decision selects
// the widest supported copy through a plain function pointer.  (Explicit
// dispatch rather than attribute((target_clones)): the ifunc machinery was
// observed picking a narrow clone on some loaders, and a function pointer
// is inspectable.)  Every copy computes bit-identical results — the
// datapath is pure integer — so dispatch cannot change detection output.
// Sanitized builds compile only the baseline copy: same code, fully
// instrumented (the UBSan job covers the saturating int arithmetic).
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FLEXCORE_I16_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FLEXCORE_I16_SANITIZED 1
#endif
#ifndef FLEXCORE_I16_SANITIZED
#define FLEXCORE_I16_SANITIZED 0
#endif

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && \
    !FLEXCORE_I16_SANITIZED
#define FLEXCORE_I16_MULTIVERSION 1
#else
#define FLEXCORE_I16_MULTIVERSION 0
#endif

#if defined(__GNUC__) || defined(__clang__)
// The body must inline into each per-ISA wrapper so it is lowered with that
// wrapper's vector width (an out-of-line copy would be baseline-lowered and
// defeat the dispatch).
#define FLEXCORE_I16_FORCE_INLINE inline __attribute__((always_inline))
#else
#define FLEXCORE_I16_FORCE_INLINE inline
#endif

#if FLEXCORE_I16_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("sse4.1")
#define FLEXCORE_I16_NS i16_sse41
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_I16_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
#define FLEXCORE_I16_NS i16_avx2
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_I16_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define FLEXCORE_I16_NS i16_avx512
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_I16_NS
#pragma GCC pop_options
#endif  // FLEXCORE_I16_MULTIVERSION

// The baseline-ISA copy always exists: it is the only copy on non-x86 /
// non-GNU / sanitized builds, the fallback on ancient x86-64, and the
// reference the cross-ISA equivalence test pins via FLEXCORE_I16_ISA.
#define FLEXCORE_I16_NS i16_base
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_I16_NS

using I16EvalFn = void (*)(const I16KernelState&, const std::int32_t*,
                           const std::int32_t*, std::size_t, double*);

/// The selected kernel copy (solo 16-lane block / fused adjacent pair).
struct I16Kernels {
  I16EvalFn one;
  I16EvalFn pair;
};

/// Runs once (static init): widest ISA the CPU supports wins.  The
/// FLEXCORE_I16_ISA environment knob ("base", "sse41", "avx2", "avx512")
/// pins a specific copy — every copy computes bit-identical results, so
/// the knob exists for benchmarking and for the cross-ISA equivalence
/// tests, not correctness.
I16Kernels pick_i16_kernels() {
#if FLEXCORE_I16_MULTIVERSION
  __builtin_cpu_init();
  if (const char* pin = std::getenv("FLEXCORE_I16_ISA")) {
    if (std::strcmp(pin, "base") == 0) {
      return {i16_base::eval_one, i16_base::eval_pair};
    }
    if (std::strcmp(pin, "sse41") == 0 && __builtin_cpu_supports("sse4.1")) {
      return {i16_sse41::eval_one, i16_sse41::eval_pair};
    }
    if (std::strcmp(pin, "avx2") == 0 && __builtin_cpu_supports("avx2")) {
      return {i16_avx2::eval_one, i16_avx2::eval_pair};
    }
    if (std::strcmp(pin, "avx512") == 0 &&
        __builtin_cpu_supports("avx512f")) {
      return {i16_avx512::eval_one, i16_avx512::eval_pair};
    }
  }
  if (__builtin_cpu_supports("avx512f")) {
    return {i16_avx512::eval_one, i16_avx512::eval_pair};
  }
  if (__builtin_cpu_supports("avx2")) {
    return {i16_avx2::eval_one, i16_avx2::eval_pair};
  }
  if (__builtin_cpu_supports("sse4.1")) {
    return {i16_sse41::eval_one, i16_sse41::eval_pair};
  }
#endif
  return {i16_base::eval_one, i16_base::eval_pair};
}

const I16Kernels g_i16_kernels = pick_i16_kernels();

}  // namespace

void PathPlanI16::compile_channel(const linalg::CMat& r,
                                  const modulation::Constellation& c,
                                  bool /*with_diag_inverse*/) {
  // (The fp tiers skip 1/R(i,i) for FCSD; the quantized tier always
  // compiles it — the greedy FCSD slice runs through the same LUT slicer.)
  const std::size_t nt = r.cols();
  require_kernel_streams("PathPlanI16", nt);
  nt_ = nt;
  q_ = c.order();
  side_ = c.side();
  scale_ = c.scale();
  inv_scale_ = c.inv_scale();
  c_ = &c;
  const std::size_t q = static_cast<std::size_t>(q_);

  using QF = perfmodel::I16Format;

  // Largest point scale 2^P that keeps every point component in int16 —
  // an upper bound only: the int32 overflow budget below decides how much
  // of it P actually gets.
  double pmax = 0.0;
  for (const linalg::cplx& p : c.points()) {
    pmax = std::max({pmax, std::fabs(p.real()), std::fabs(p.imag())});
  }
  const int p_fit = std::clamp(
      static_cast<int>(
          std::floor(std::log2(static_cast<double>(QF::kMax) / pmax))),
      1, 30);

  // Channel magnitude over everything stored at 2^F.
  double vmax = 0.0;
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = i; j < nt; ++j) {
      vmax = std::max(
          {vmax, std::fabs(r(i, j).real()), std::fabs(r(i, j).imag())});
    }
    for (std::size_t x = 0; x < q; ++x) {
      const linalg::cplx rx = r(i, i) * c.point(static_cast<int>(x));
      vmax = std::max({vmax, std::fabs(rx.real()), std::fabs(rx.imag())});
    }
  }
  if (!(vmax > 0.0) || !std::isfinite(vmax)) vmax = 1.0;

  // F gets first claim on the int32 headroom, P takes what is left.  Every
  // slicing decision and metric residual lives at the channel scale 2^F, so
  // one bit of F halves the decision-flip rate near cell boundaries; the
  // points only need enough bits to separate `side` levels, so P is the
  // right place to give bits back.  The budget bounds the accumulator walk
  // |ybar| + sum of cancellation products by (2 Nt + 4) * vmax * pmax *
  // 2^(F+P) <= 2^31.
  const int f_fit = static_cast<int>(
      std::floor(std::log2(static_cast<double>(QF::kMax) / vmax)));
  fbits_ = std::min(f_fit, QF::kFracBits);
  const double pbudget =
      std::ldexp(1.0, 31) /
      ((2.0 * static_cast<double>(nt) + 4.0) * vmax * pmax *
       std::ldexp(1.0, fbits_));
  pbits_ = std::clamp(
      std::min(p_fit, static_cast<int>(std::floor(std::log2(pbudget)))), 1,
      30);
  // If P hit its floor (or its int16 fit) first, pull F back under the
  // budget; otherwise this recheck is a no-op by construction.
  const double fbudget =
      std::ldexp(1.0, 31) /
      ((2.0 * static_cast<double>(nt) + 4.0) * vmax * pmax *
       std::ldexp(1.0, pbits_));
  fbits_ = std::min(fbits_, static_cast<int>(std::floor(std::log2(fbudget))));
  metric_unscale_ = std::ldexp(1.0, -2 * fbits_);
  ybar_cap_raw_ = 4.0 * vmax * pmax * std::ldexp(1.0, fbits_ + pbits_);

  // Quantized channel state.
  const double fs = std::ldexp(1.0, fbits_);
  const double ps = std::ldexp(1.0, pbits_);
  r_q_.resize(nt * nt);
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      r_q_.re[i * nt + j] = quantize_i16(r(i, j).real() * fs);
      r_q_.im[i * nt + j] = quantize_i16(r(i, j).imag() * fs);
    }
  }
  // rx rows are affine in the axis indices: rx[i][x] = R(i,i) * point(x)
  // with point = ((2 a_re - (side-1)) + j (2 a_im - (side-1))) * scale, so
  // one quantized complex step rh = R(i,i) * scale * 2^F per level
  // reproduces the whole row.  The kernel's hot mode computes the metric
  // reference straight from the sliced axis indices with this identity (no
  // per-lane row gather), and the table modes read the same values here, so
  // every mode sees identical quantized rx.  The doubled-axis offsets obey
  // (side-1) * (|rh_re| + |rh_im|) <= kMax + 2(side-1): the exact corner
  // value is part of vmax, which bounds it by kMax at 2^F, and each step
  // rounds by at most 1/2 — so rows fit int16 after a defensive clamp and
  // every kernel intermediate fits int32 untouched.
  rh_re_q_.assign(nt, 0);
  rh_im_q_.assign(nt, 0);
  rx_pack_.resize(nt * q);
  for (std::size_t i = 0; i < nt; ++i) {
    const linalg::cplx rii = r(i, i);
    rh_re_q_[i] = static_cast<std::int32_t>(std::clamp(
        std::lround(rii.real() * scale_ * fs), -long{QF::kMax}, long{QF::kMax}));
    rh_im_q_[i] = static_cast<std::int32_t>(std::clamp(
        std::lround(rii.imag() * scale_ * fs), -long{QF::kMax}, long{QF::kMax}));
    for (std::size_t x = 0; x < q; ++x) {
      const int er = 2 * (static_cast<int>(x) / side_) - (side_ - 1);
      const int eq = 2 * (static_cast<int>(x) % side_) - (side_ - 1);
      rx_pack_[i * q + x] = pack_i16_pair(
          static_cast<std::int16_t>(std::clamp<std::int32_t>(
              er * rh_re_q_[i] - eq * rh_im_q_[i], -QF::kMax, QF::kMax)),
          static_cast<std::int16_t>(std::clamp<std::int32_t>(
              er * rh_im_q_[i] + eq * rh_re_q_[i], -QF::kMax, QF::kMax)));
    }
  }
  // Quantized points are defined AFFINELY in the axis indices — the grid is
  // pam(a) = (2a - (side-1)) * scale, so one quantized half-step reproduces
  // every point: pt_q[a_re, a_im] = ((2 a_re - (side-1)) h, (2 a_im -
  // (side-1)) h).  The kernel's hot mode computes recurrence symbols
  // straight from sliced axis indices with this identity (no table gather
  // on the decision-feedback chain), and the table modes read the same
  // values here, so all modes agree bit-for-bit.  h is capped so the edge
  // level (side-1) * h stays in int16 — same bound the per-point
  // quantization obeyed.
  pt_half_q_ = static_cast<std::int32_t>(std::lround(scale_ * ps));
  pt_half_q_ = std::min<std::int32_t>(
      pt_half_q_, static_cast<std::int32_t>(QF::kMax) / (side_ - 1));
  pt_half_q_ = std::max<std::int32_t>(pt_half_q_, 1);
  pt_pack_.resize(q);
  for (std::size_t x = 0; x < q; ++x) {
    const int ai = static_cast<int>(x) / side_;
    const int aq = static_cast<int>(x) % side_;
    pt_pack_[x] = pack_i16_pair(
        static_cast<std::int16_t>((2 * ai - (side_ - 1)) * pt_half_q_),
        static_cast<std::int16_t>((2 * aq - (side_ - 1)) * pt_half_q_));
  }

  // Quantized diagonal inverses + per-level slicer / PAM tables.
  rdi_re_q_.assign(nt, 0);
  rdi_im_q_.assign(nt, 0);
  gbits_.assign(nt, 0);
  slicer_shift_.assign(nt, 0);
  slicer_.assign(nt * kSlicerBuckets, kSlicerInvalid);
  slice_ar_.assign(nt, 0);
  slice_ai_.assign(nt, 0);
  slice_off_.assign(nt, 0);
  slice_s_.assign(nt, 1);
  slice_live_.assign(nt, 0);
  pam_span_ = side_ + 2 * kPamPad + 1;
  pam_q_.assign(nt * static_cast<std::size_t>(pam_span_), 0);
  constexpr double kPamCap = 1073741824.0;  // 2^30: unreachable by eff_raw

  for (std::size_t i = 0; i < nt; ++i) {
    // flexcore-lint: allow-next-line(HP005) LUT compile time, not per-path
    const linalg::cplx inv = linalg::cplx{1.0, 0.0} / r(i, i);
    const double m = std::max(std::fabs(inv.real()), std::fabs(inv.imag()));
    const bool invertible = std::isfinite(m) && m > 0.0;
    if (invertible) {
      int g = static_cast<int>(
          std::floor(std::log2(static_cast<double>(QF::kMax) / m)));
      g = std::clamp(g, -30, 30);
      gbits_[i] = g;
      const double gs = std::ldexp(1.0, g);
      rdi_re_q_[i] = quantize_i16(inv.real() * gs);
      rdi_im_q_[i] = quantize_i16(inv.imag() * gs);
    }

    // PAM residual table at eff's scale 2^(F+G_i); saturated entries are
    // unreachable (|eff_raw| <= 2*kMax^2 but table values would be wider).
    const double es = std::ldexp(1.0, fbits_ + gbits_[i]);
    for (int a = -kPamPad; a <= side_ + kPamPad; ++a) {
      const double val = (2.0 * a - (side_ - 1)) * scale_ * es;
      const double cl = !(val < kPamCap) ? kPamCap
                        : (val < -kPamCap ? -kPamCap : val);
      pam_q_[i * static_cast<std::size_t>(pam_span_) +
             static_cast<std::size_t>(a + kPamPad)] =
          static_cast<std::int32_t>(cl >= 0.0 ? cl + 0.5 : cl - 0.5);
    }

    if (!invertible) continue;  // slicer stays all-sentinel: lanes die here

    // Compile the slicer LUT: the middle 254 buckets must cover
    // +-(side + kPamPad) * scale of effective point; buckets 0/255 are the
    // saturating catch-alls and always sentinel.
    const double cover_raw = (side_ + kPamPad) * scale_ * es;
    int sh = 0;
    const double need = cover_raw / 126.0;
    if (need > 1.0) sh = static_cast<int>(std::ceil(std::log2(need)));
    sh = std::clamp(sh, 0, 31);
    slicer_shift_[i] = sh;

    // Affine (vector) form of the same slicer, with the complex rotation
    // by 1/R(i,i) folded in so the kernel slices straight from the
    // int16-clamped b (see the header's member comment).  Per unit of
    // b16_{re,im}, the axis moves by
    //   W = (1/R(i,i)) * inv_scale / 2 / 2^F,
    // quantized as (ar, ai) = round(W * 2^s) with s picked so the larger
    // component sits in (2^12, 2^13] — relative error <= 2^-13, i.e. well
    // under half an axis step for every in-coverage lane.  A channel so
    // ill-scaled that s would fall below 1 (|W| > 2^13, meaning one b16
    // quantum jumps thousands of axis steps) is treated like the
    // rank-deficient case: the level stays slice_live_ = 0.
    {
      const double wr = inv.real() * inv_scale_ / 2.0 / fs;
      const double wi = inv.imag() * inv_scale_ / 2.0 / fs;
      const double wmax = std::max(std::fabs(wr), std::fabs(wi));
      if (wmax > 0.0 && wmax <= 8192.0) {
        int s = static_cast<int>(std::floor(std::log2(8192.0 / wmax)));
        s = std::clamp(s, 1, 27);
        const double ss = std::ldexp(1.0, s);
        slice_s_[i] = s;
        slice_ar_[i] = static_cast<std::int32_t>(std::lround(wr * ss));
        slice_ai_[i] = static_cast<std::int32_t>(std::lround(wi * ss));
        slice_off_[i] = static_cast<std::int32_t>(side_) << (s - 1);
        slice_live_[i] = 1;
      }
    }
    const double bucket = std::ldexp(1.0, sh);
    for (std::size_t t = 1; t + 1 < kSlicerBuckets; ++t) {
      // The same rounded-center rule as the fp slicer, evaluated once per
      // bucket midpoint at compile time.
      const double e_mid =
          ((static_cast<double>(t) - 128.0) + 0.5) * bucket / es;
      const int a =
          round_half_away((e_mid * inv_scale_ + (side_ - 1)) / 2.0);
      if (a > -kPamPad && a < side_ + kPamPad) {
        slicer_[i * kSlicerBuckets + t] = static_cast<std::int8_t>(a);
      }
    }
  }
}

void PathPlanI16::compile_flexcore(const linalg::CMat& r,
                                   std::span<const core::RankedPath> paths,
                                   const modulation::Constellation& c,
                                   const core::OrderingLut& lut,
                                   bool exact_ordering,
                                   core::InvalidEntryPolicy policy) {
  compile_channel(r, c, /*with_diag_inverse=*/true);
  num_paths_ = paths.size();
  lut_ = &lut;
  policy_ = policy;
  full_levels_ = 0;
  powq_.clear();
  mode_ = exact_ordering ? Mode::kExactRank
          : policy == core::InvalidEntryPolicy::kDeactivate
              ? Mode::kLutRank
              : Mode::kGenericRank;

  // Selector table, path-major-blocked at the doubled lane width; ranks
  // are <= |Q| <= 256 so int16 entries halve the table too.
  const std::size_t nb = linalg::simd_blocks_of(num_paths_, kLanes);
  ranks_.assign(nb * nt_ * kLanes, 1);
  for (std::size_t p = 0; p < num_paths_; ++p) {
    const core::PositionVector& pv = paths[p].p;
    assert(pv.size() == nt_);
    const std::size_t b = p / kLanes;
    const std::size_t l = p % kLanes;
    for (std::size_t i = 0; i < nt_; ++i) {
      ranks_[(b * nt_ + i) * kLanes + l] = static_cast<std::int16_t>(pv[i]);
    }
  }

  // Per-lane fix masks: a rank-1 lane's decision is the slicer center
  // itself only when the LUT's first entry really is the center, which
  // compile verifies rather than assumes; every other lane is flagged for
  // the scalar table path.
  fix_mask_.assign(nb * nt_, 0);
  const auto& base0 = lut.base_order().front();
  const bool center_first =
      mode_ == Mode::kLutRank && base0.di == 0 && base0.dq == 0;
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t i = 0; i < nt_; ++i) {
      const std::int16_t* lane = ranks_.data() + (b * nt_ + i) * kLanes;
      std::uint32_t m = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (!center_first || lane[l] != 1) m |= std::uint32_t{1} << l;
      }
      fix_mask_[b * nt_ + i] = m;
    }
  }
  if (mode_ == Mode::kLutRank) {
    const auto& base = lut.base_order();
    const std::size_t q = base.size();
    lut_di_.resize(8 * q);
    lut_dq_.resize(8 * q);
    for (int t = 0; t < 8; ++t) {
      const bool swap_axes = (t & 4) != 0;
      const bool flip_u = (t & 2) != 0;
      const bool flip_v = (t & 1) != 0;
      for (std::size_t k = 0; k < q; ++k) {
        int di = base[k].di;
        int dq = base[k].dq;
        if (swap_axes) std::swap(di, dq);
        if (flip_u) di = -di;
        if (flip_v) dq = -dq;
        lut_di_[static_cast<std::size_t>(t) * q + k] =
            static_cast<std::int8_t>(di);
        lut_dq_[static_cast<std::size_t>(t) * q + k] =
            static_cast<std::int8_t>(dq);
      }
    }
  }
}

void PathPlanI16::compile_fcsd(const linalg::CMat& r, std::size_t full_levels,
                               const modulation::Constellation& c) {
  if (full_levels > r.cols()) {
    throw std::invalid_argument("PathPlanI16: fcsd full_levels > Nt");
  }
  compile_channel(r, c, /*with_diag_inverse=*/true);
  mode_ = Mode::kFcsd;
  full_levels_ = full_levels;
  lut_ = nullptr;
  ranks_.clear();
  fix_mask_.clear();
  powq_.resize(full_levels);
  num_paths_ = 1;
  for (std::size_t d = 0; d < full_levels; ++d) {
    powq_[d] = num_paths_;
    num_paths_ *= static_cast<std::size_t>(q_);
  }
}

int PathPlanI16::slicer_center(std::size_t level, double eff) const {
  assert(compiled() && level < nt_);
  // Quantize eff exactly like the kernel sees it mid-walk, then run the
  // same shift + bias + clamp + table read.
  const double es = std::ldexp(1.0, fbits_ + gbits_[level]);
  const std::int32_t er = quantize_i32(eff * es, 2147221504.0 /* ~2^31 */);
  const int t = std::clamp((er >> slicer_shift_[level]) + 128, 0, 255);
  return slicer_[level * kSlicerBuckets + static_cast<std::size_t>(t)];
}

std::size_t PathPlanI16::footprint_bytes() const noexcept {
  const auto split = [](const linalg::SplitVec<std::int16_t>& v) {
    return (v.re.size() + v.im.size()) * sizeof(std::int16_t);
  };
  return split(r_q_) +
         (rx_pack_.size() + pt_pack_.size()) * sizeof(std::int32_t) +
         (rdi_re_q_.size() + rdi_im_q_.size()) * sizeof(std::int16_t) +
         (rh_re_q_.size() + rh_im_q_.size()) * sizeof(std::int32_t) +
         gbits_.size() * sizeof(int) + slicer_shift_.size() * sizeof(int) +
         (slice_ar_.size() + slice_ai_.size() + slice_off_.size() +
          slice_s_.size()) *
             sizeof(std::int32_t) +
         slice_live_.size() + slicer_.size() +
         pam_q_.size() * sizeof(std::int32_t) +
         ranks_.size() * sizeof(std::int16_t) +
         fix_mask_.size() * sizeof(std::uint32_t) + lut_di_.size() +
         lut_dq_.size() + powq_.size() * sizeof(std::size_t);
}

FLEXCORE_HOT_PATH
void PathPlanI16::path_metric_block(std::span<const linalg::cplx> ybar,
                                    std::size_t first_path,
                                    std::size_t n_paths, double* out) const {
  assert(compiled() && ybar.size() == nt_);
  assert(first_path + n_paths <= num_paths_);
  // Quantize ybar once per call onto the accumulator scale 2^(F+P),
  // saturating at the compile-time cap the overflow budget reserved for it.
  std::int32_t yr[kMaxLevels], yi[kMaxLevels];
  const double ys = std::ldexp(1.0, fbits_ + pbits_);
  for (std::size_t i = 0; i < nt_; ++i) {
    yr[i] = quantize_i32(ybar[i].real() * ys, ybar_cap_raw_);
    yi[i] = quantize_i32(ybar[i].imag() * ys, ybar_cap_raw_);
  }

  I16KernelState st;
  st.nt = nt_;
  st.q = static_cast<std::size_t>(q_);
  st.full_levels = full_levels_;
  st.side = side_;
  st.pbits = pbits_;
  st.fbits = fbits_;
  st.pt_half = pt_half_q_;
  st.mode = static_cast<int>(mode_);
  st.metric_unscale = metric_unscale_;
  st.r_re = r_q_.re.data();
  st.r_im = r_q_.im.data();
  st.rx_pack = rx_pack_.data();
  st.pt_pack = pt_pack_.data();
  st.rdi_re = rdi_re_q_.data();
  st.rdi_im = rdi_im_q_.data();
  st.rh_re = rh_re_q_.data();
  st.rh_im = rh_im_q_.data();
  st.gbits = gbits_.data();
  st.slicer_shift = slicer_shift_.data();
  st.slice_ar = slice_ar_.data();
  st.slice_ai = slice_ai_.data();
  st.slice_off = slice_off_.data();
  st.slice_s = slice_s_.data();
  st.slice_live = slice_live_.data();
  st.slicer = slicer_.data();
  st.pam = pam_q_.data();
  st.pam_span = pam_span_;
  st.ranks = ranks_.empty() ? nullptr : ranks_.data();
  st.fix_mask = fix_mask_.empty() ? nullptr : fix_mask_.data();
  st.lut_di = lut_di_.data();
  st.lut_dq = lut_dq_.data();
  st.powq = powq_.data();
  st.lut = lut_;
  st.cst = c_;
  st.policy = policy_;

  double tmp[2 * kLanes];
  std::size_t written = 0;
  while (written < n_paths) {
    const std::size_t p = first_path + written;
    const std::size_t block = p / kLanes;
    const std::size_t lane0 = p % kLanes;
    // Block-aligned runs of >= 2 blocks go through the fused-pair kernel —
    // the grid scanner feeds 32-path chunks precisely to hit this path.
    if (lane0 == 0 && n_paths - written >= 2 * kLanes) {
      g_i16_kernels.pair(st, yr, yi, block, tmp);
      for (std::size_t k = 0; k < 2 * kLanes; ++k) out[written + k] = tmp[k];
      written += 2 * kLanes;
      continue;
    }
    g_i16_kernels.one(st, yr, yi, block, tmp);
    const std::size_t take = std::min(n_paths - written, kLanes - lane0);
    for (std::size_t k = 0; k < take; ++k) out[written + k] = tmp[lane0 + k];
    written += take;
  }
}

}  // namespace flexcore::detect
