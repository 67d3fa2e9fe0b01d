#include "detect/path_kernels.h"

#include "parallel/hot_path.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

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

  // Per-lane fix masks, one byte per (block, level): bit l is set when
  // lane l must take the triangle-LUT path there.  A most-promising path
  // set is rank 1 at almost every (path, level), and the LUT's first entry
  // is the slicer center itself (offset (0,0), invariant under all 8
  // transforms), so a rank-1 lane's decision is the rounded center the
  // walk slices in the lanes — only when the base order really starts at
  // the center, which compile verifies rather than assumes.  Only the LUT
  // mode reads the masks.
  static_assert(kLanes <= 8, "one fix-mask byte per (block, level)");
  fix_.assign(nb * nt_, 0);
  const auto& base0 = lut.base_order().front();
  const bool center_first =
      mode_ == Mode::kLutRank && base0.di == 0 && base0.dq == 0;
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t i = 0; i < nt_; ++i) {
      const std::int32_t* lane = ranks_.data() + (b * nt_ + i) * kLanes;
      unsigned m = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (!center_first || lane[l] != 1) m |= 1u << l;
      }
      fix_[b * nt_ + i] = static_cast<std::uint8_t>(m);
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
  fix_.clear();
  powq_.resize(full_levels);
  num_paths_ = 1;
  for (std::size_t d = 0; d < full_levels; ++d) {
    powq_[d] = num_paths_;
    num_paths_ *= static_cast<std::size_t>(q_);
  }
}

namespace {

/// Round to nearest, ties away from zero — std::lround's rule — as
/// branch-light arithmetic (no libm call).  Matches lround bit-for-bit on
/// every value the detectors can produce: the 1e9 clamp only engages for
/// effective points astronomically far outside any constellation, where
/// both implementations land on an out-of-range axis index and the entry
/// deactivates either way.  The fp walk's lane form is fround_half_away.
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

// PathPlanT::Mode as the fp walk reads it from FpKernelState::mode.
constexpr int kFpModeLut = 0;      // FlexCore, triangle LUT, kDeactivate
constexpr int kFpModeGeneric = 1;  // FlexCore, triangle LUT, kSkipToValid
constexpr int kFpModeFcsd = 3;     // FCSD (2 is the exact-sort ablation)

constexpr std::int32_t kI16Max = perfmodel::I16Format::kMax;
constexpr std::int32_t kI16Min = perfmodel::I16Format::kMin;

/// The compiled-plan state the dispatched int16 kernel reads: raw pointers
/// only, filled per path_metric_block call (the plan is immutable while
/// grids run, so the pointers stay valid across the whole scan).
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

}  // namespace

/// The compiled-plan state the exact fp walk reads (PathPlanT::
/// fill_kernel_state), the fp analogue of I16KernelState.
template <typename T>
struct FpKernelState {
  std::size_t nt = 0, q = 0, full_levels = 0;
  int side = 0;
  int mode = kFpModeLut;
  double scale = 0.0, inv_scale = 0.0;
  const T* r_re = nullptr;  // R rows; the diagonal is R(i,i) for rx
  const T* r_im = nullptr;
  const T* rdi_re = nullptr;  // 1/R(i,i) (FlexCore plans)
  const T* rdi_im = nullptr;
  const T* rx_re = nullptr;  // R(i,i)*point tables (table modes, fp32)
  const T* rx_im = nullptr;
  const T* pt_re = nullptr;  // constellation points (table modes, fp32)
  const T* pt_im = nullptr;
  const std::int32_t* ranks = nullptr;
  const std::uint8_t* fix = nullptr;
  const std::int8_t* lut_di = nullptr;
  const std::int8_t* lut_dq = nullptr;
  const std::size_t* powq = nullptr;
  const core::OrderingLut* lut = nullptr;
  const modulation::Constellation* cst = nullptr;
  core::InvalidEntryPolicy policy = core::InvalidEntryPolicy::kDeactivate;
};

namespace {

// Runtime-dispatched kernels: the library ships portable (baseline-ISA)
// binaries, but a lane kernel lives or dies by the register width — so on
// x86-64 both kernel bodies (the int16 kernel and the exact fp walk) are
// compiled once per ISA tier (baseline, SSE4.1, AVX2, AVX-512F) and one
// startup __builtin_cpu_supports decision selects the widest supported
// copy through plain function pointers.  (Explicit dispatch rather than
// attribute((target_clones)): the ifunc machinery was observed picking a
// narrow clone on some loaders, and a function pointer is inspectable.)
// Every copy computes bit-identical results — the i16 datapath is pure
// integer, and the fp walk is element-wise IEEE arithmetic with FMA
// contraction off (CMakeLists.txt) — so dispatch cannot change detection
// output.  Sanitized builds compile only the baseline copy: same code,
// fully instrumented (the UBSan job covers the saturating int arithmetic).
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FLEXCORE_KERNEL_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FLEXCORE_KERNEL_SANITIZED 1
#endif
#ifndef FLEXCORE_KERNEL_SANITIZED
#define FLEXCORE_KERNEL_SANITIZED 0
#endif

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && \
    !FLEXCORE_KERNEL_SANITIZED
#define FLEXCORE_KERNEL_MULTIVERSION 1
#else
#define FLEXCORE_KERNEL_MULTIVERSION 0
#endif

#if defined(__GNUC__) || defined(__clang__)
// The bodies must inline into each per-ISA wrapper so they are lowered
// with that wrapper's vector width (an out-of-line copy would be
// baseline-lowered and defeat the dispatch).
#define FLEXCORE_KERNEL_FORCE_INLINE inline __attribute__((always_inline))
#else
#define FLEXCORE_KERNEL_FORCE_INLINE inline
#endif

// Each copy: one namespace (FLEXCORE_ISA_NS) holding both kernel bodies,
// lowered under one target scope whose native register width is
// FLEXCORE_ISA_VEC_BYTES (the fp walk's sub-vector width).
#if FLEXCORE_KERNEL_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("sse4.1")
#define FLEXCORE_ISA_NS isa_sse41
#define FLEXCORE_ISA_VEC_BYTES 16
#include "detect/path_kernels_i16_kernel.inc"
#include "detect/path_kernels_fp_walk.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
#define FLEXCORE_ISA_NS isa_avx2
#define FLEXCORE_ISA_VEC_BYTES 32
#include "detect/path_kernels_i16_kernel.inc"
#include "detect/path_kernels_fp_walk.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define FLEXCORE_ISA_NS isa_avx512
#define FLEXCORE_ISA_VEC_BYTES 64
#include "detect/path_kernels_i16_kernel.inc"
#include "detect/path_kernels_fp_walk.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options
#endif  // FLEXCORE_KERNEL_MULTIVERSION

// The baseline-ISA copy always exists: it is the only copy on non-x86 /
// non-GNU / sanitized builds, the fallback on ancient x86-64, the
// reference the cross-ISA tests pin via FLEXCORE_I16_ISA, and the home of
// the single-path walks (walk_path / walk_sic run it at width 1).  Its
// width is the build's own (FLEXCORE_NATIVE_ARCH raises it).
#define FLEXCORE_ISA_NS isa_base
#if defined(__AVX512F__)
#define FLEXCORE_ISA_VEC_BYTES 64
#elif defined(__AVX__)
#define FLEXCORE_ISA_VEC_BYTES 32
#else
#define FLEXCORE_ISA_VEC_BYTES 16
#endif
#include "detect/path_kernels_i16_kernel.inc"
#include "detect/path_kernels_fp_walk.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS

using I16EvalFn = void (*)(const I16KernelState&, const std::int32_t*,
                           const std::int32_t*, std::size_t, double*);
template <typename T>
using FpBlocksFn = void (*)(const FpKernelState<T>&, const linalg::cplx*,
                            std::size_t, std::size_t, double*);

/// One per-ISA copy of the path kernels: the i16 kernel (solo 16-lane
/// block / fused adjacent pair) and the exact fp walk's block loop in both
/// fp tiers.
struct KernelCopy {
  const char* isa;
  I16EvalFn i16_one;
  I16EvalFn i16_pair;
  FpBlocksFn<double> fp64;
  FpBlocksFn<float> fp32;

  template <typename T>
  FpBlocksFn<T> fp() const noexcept {
    if constexpr (std::is_same_v<T, double>) {
      return fp64;
    } else {
      return fp32;
    }
  }
};

#define FLEXCORE_KERNEL_COPY(ns, name) \
  KernelCopy { name, ns::eval_one, ns::eval_pair, ns::fp64_blocks, \
               ns::fp32_blocks }

/// Runs once (static init): the widest copy the CPU supports wins.  The
/// FLEXCORE_I16_ISA environment variable ("base", "sse41", "avx2",
/// "avx512") pins a copy of both tiers — every copy computes bit-identical
/// results, so the pin exists for benchmarking and for the cross-ISA
/// equivalence tests, not correctness.  A pin that names no copy this
/// build and CPU can run is reported once on stderr and ignored.
KernelCopy pick_kernels() {
#if FLEXCORE_KERNEL_MULTIVERSION
  __builtin_cpu_init();
  const KernelCopy copies[] = {FLEXCORE_KERNEL_COPY(isa_base, "base"),
                               FLEXCORE_KERNEL_COPY(isa_sse41, "sse41"),
                               FLEXCORE_KERNEL_COPY(isa_avx2, "avx2"),
                               FLEXCORE_KERNEL_COPY(isa_avx512, "avx512")};
  const bool runs[] = {true, __builtin_cpu_supports("sse4.1") != 0,
                       __builtin_cpu_supports("avx2") != 0,
                       __builtin_cpu_supports("avx512f") != 0};
#else
  const KernelCopy copies[] = {FLEXCORE_KERNEL_COPY(isa_base, "base")};
  const bool runs[] = {true};
#endif
  const std::size_t n = std::size(copies);
  std::size_t pick = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (runs[k]) pick = k;  // ascending width: the last runnable is widest
  }
  if (const char* pin = std::getenv("FLEXCORE_I16_ISA")) {
    std::size_t k = 0;
    while (k < n && std::strcmp(pin, copies[k].isa) != 0) ++k;
    if (k < n && runs[k]) {
      pick = k;
    } else {
      std::fprintf(stderr,
                   "flexcore: FLEXCORE_I16_ISA=%s names no kernel copy this "
                   "build and CPU can run; dispatching %s\n",
                   pin, copies[pick].isa);
    }
  }
  return copies[pick];
}

#undef FLEXCORE_KERNEL_COPY

const KernelCopy g_kernels = pick_kernels();

}  // namespace

const char* kernel_isa() noexcept { return g_kernels.isa; }

template <typename T>
void PathPlanT<T>::fill_kernel_state(FpKernelState<T>* st) const noexcept {
  static_assert(static_cast<int>(Mode::kLutRank) == kFpModeLut &&
                static_cast<int>(Mode::kGenericRank) == kFpModeGeneric &&
                static_cast<int>(Mode::kFcsd) == kFpModeFcsd);
  st->nt = nt_;
  st->q = static_cast<std::size_t>(q_);
  st->full_levels = full_levels_;
  st->side = side_;
  st->mode = static_cast<int>(mode_);
  st->scale = scale_;
  st->inv_scale = inv_scale_;
  st->r_re = r_.re.data();
  st->r_im = r_.im.data();
  st->rdi_re = rdi_.re.data();
  st->rdi_im = rdi_.im.data();
  st->rx_re = rx_.re.data();
  st->rx_im = rx_.im.data();
  st->pt_re = pt_.re.data();
  st->pt_im = pt_.im.data();
  st->ranks = ranks_.data();
  st->fix = fix_.data();
  st->lut_di = lut_di_.data();
  st->lut_dq = lut_dq_.data();
  st->powq = powq_.data();
  st->lut = lut_;
  st->cst = c_;
  st->policy = policy_;
}

template <typename T>
FLEXCORE_HOT_PATH
void PathPlanT<T>::path_metric_block(std::span<const linalg::cplx> ybar,
                                     std::size_t first_path,
                                     std::size_t n_paths, double* out) const {
  assert(compiled() && ybar.size() == nt_);
  assert(first_path + n_paths <= num_paths_);
  FpKernelState<T> st;
  fill_kernel_state(&st);
  g_kernels.fp<T>()(st, ybar.data(), first_path, n_paths, out);
}

template <typename T>
FLEXCORE_HOT_PATH
double PathPlanT<T>::walk_path(std::span<const linalg::cplx> ybar,
                               std::size_t path,
                               std::span<int> symbols) const {
  assert(compiled() && ybar.size() == nt_ && symbols.size() == nt_);
  assert(path < num_paths_);
  FpKernelState<T> st;
  fill_kernel_state(&st);
  double m;
  isa_base::fp_walk<T, 1, false>(st, ybar.data(), path, &m, symbols.data());
  return m;
}

template <typename T>
FLEXCORE_HOT_PATH
double PathPlanT<T>::walk_sic(std::span<const linalg::cplx> ybar,
                              std::span<int> symbols) const {
  assert(mode_ != Mode::kFcsd && ybar.size() == nt_ && symbols.size() == nt_);
  FpKernelState<T> st;
  fill_kernel_state(&st);
  double m;
  isa_base::fp_walk<T, 1, true>(st, ybar.data(), 0, &m, symbols.data());
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
         ranks_.size() * sizeof(std::int32_t) + fix_.size() +
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
      g_kernels.i16_pair(st, yr, yi, block, tmp);
      for (std::size_t k = 0; k < 2 * kLanes; ++k) out[written + k] = tmp[k];
      written += 2 * kLanes;
      continue;
    }
    g_kernels.i16_one(st, yr, yi, block, tmp);
    const std::size_t take = std::min(n_paths - written, kLanes - lane0);
    for (std::size_t k = 0; k < take; ++k) out[written + k] = tmp[lane0 + k];
    written += take;
  }
}

}  // namespace flexcore::detect
