#include "detect/path_kernels.h"

#include "parallel/hot_path.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/kernel_copies.h"
#include "linalg/kernel_isa.h"
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

void require_lut_ordering(const char* who, bool exact_ordering,
                          core::InvalidEntryPolicy policy) {
  if (exact_ordering || policy != core::InvalidEntryPolicy::kDeactivate) {
    throw std::invalid_argument(
        std::string(who) +
        ": the path kernels compile only the triangle LUT with deactivation "
        "(no exact-sort or skip-to-valid ablation)");
  }
}

std::size_t fcsd_num_paths(const char* who, std::size_t q,
                           std::size_t full_levels) {
  std::size_t n = 1;
  for (std::size_t d = 0; d < full_levels; ++d) {
    if (q != 0 && n > std::numeric_limits<std::size_t>::max() / q) {
      throw std::invalid_argument(
          std::string(who) + ": |Q|^L = " + std::to_string(q) + "^" +
          std::to_string(full_levels) + " paths (L = " +
          std::to_string(full_levels) + ", |Q| = " + std::to_string(q) +
          ") overflow std::size_t");
    }
    n *= q;
  }
  return n;
}

namespace {

/// Throws std::invalid_argument, in every build, unless each path holds
/// exactly `nt` ranks — checked before a plan is modified, so a refused
/// path set leaves the previous plan intact.
void require_path_lengths(const char* who,
                          std::span<const core::RankedPath> paths,
                          std::size_t nt) {
  for (std::size_t p = 0; p < paths.size(); ++p) {
    if (paths[p].p.size() != nt) {
      throw std::invalid_argument(
          std::string(who) + ": path " + std::to_string(p) + " holds " +
          std::to_string(paths[p].p.size()) + " ranks for " +
          std::to_string(nt) + " levels");
    }
  }
}

/// Throws std::invalid_argument, before a plan is modified, unless the
/// FCSD's `full_levels` fits r's levels and every R(i,i) is real: the
/// greedy levels divide b by Re R(i,i) on each axis, which is
/// std::complex's division only for a real divisor.  Every QR of the
/// library stores R(i,i) as a real number.
void require_fcsd_shape(const char* who, const linalg::CMat& r,
                        std::size_t full_levels) {
  if (full_levels > r.cols()) {
    throw std::invalid_argument(std::string(who) + ": fcsd full_levels > Nt");
  }
  for (std::size_t i = 0; i < r.cols(); ++i) {
    if (r(i, i).imag() != 0.0) {
      throw std::invalid_argument(std::string(who) + ": fcsd R(" +
                                  std::to_string(i) + "," + std::to_string(i) +
                                  ") is not real");
    }
  }
}

/// Selector code of an invalid rank (outside 1..|Q|): di = kSelInvalidDi,
/// which no real LUT offset takes (|di| <= side).
constexpr int kSelInvalidDi = -128;
constexpr std::uint16_t kSelInvalid =
    static_cast<std::uint8_t>(kSelInvalidDi);

/// The LUT mode's selector code of rank k: the base-triangle offset
/// (di, dq) of OrderingLut entry k as two's-complement bytes, di low and
/// dq high, or kSelInvalid.  Offset (0, 0) codes to 0, so a block whose
/// codes are all 0 decides at the slicer center on every lane.
std::uint16_t selector_code(const core::OrderingLut& lut, int k) {
  const auto& base = lut.base_order();
  if (k < 1 || k > static_cast<int>(base.size())) return kSelInvalid;
  const core::OrderingLut::Offset o = base[static_cast<std::size_t>(k - 1)];
  return static_cast<std::uint16_t>(
      static_cast<unsigned>(static_cast<std::uint8_t>(o.di)) |
      (static_cast<unsigned>(static_cast<std::uint8_t>(o.dq)) << 8));
}

/// The trie compile's sort keys, packed by compile_selectors in its pass
/// over the ranks: key[k] and order[k] are the k-th live path's (every
/// rank in 1..q) key, the sum of (rank - 1) * weight[level] plus the path
/// index, and its index.
struct TrieKeys {
  const std::uint64_t* weight;
  std::uint64_t* key;
  std::uint32_t* order;
  std::size_t live = 0;
};

/// Fills a FlexCore plan's selector table with `lut`'s selector codes,
/// path-major-blocked at `lanes` paths per block.  Tail lanes of the last
/// block get rank 1.  With `trie`, the same pass packs the live paths' trie
/// keys.
void compile_selectors(std::span<const core::RankedPath> paths,
                       std::size_t nt, std::size_t lanes,
                       const core::OrderingLut& lut, int q,
                       std::vector<std::uint16_t>* sel,
                       TrieKeys* trie = nullptr) {
  // The code of every rank, clamped to [0, q + 1] first: 0 and q + 1 stand
  // for every rank below and above 1..q, invalid alike.
  std::uint16_t code[256 + 2];
  for (int k = 0; k <= q + 1; ++k) code[k] = selector_code(lut, k);
  sel->assign(linalg::simd_blocks_of(paths.size(), lanes) * nt * lanes,
              code[1]);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const int* r = paths[p].p.data();
    std::uint16_t* codes = sel->data() + (p / lanes) * nt * lanes + p % lanes;
    if (trie == nullptr) {
      for (std::size_t i = 0; i < nt; ++i) {
        codes[i * lanes] = code[std::clamp(r[i], 0, q + 1)];
      }
      continue;
    }
    std::uint64_t key = p;
    unsigned widest = 0;  // rank - 1, an invalid rank wrapping past q
    for (std::size_t i = 0; i < nt; ++i) {
      const int k = std::clamp(r[i], 0, q + 1);
      codes[i * lanes] = code[k];
      const unsigned v = static_cast<unsigned>(k - 1);
      widest = std::max(widest, v);
      key += v * trie->weight[i];
    }
    trie->key[trie->live] = key;
    trie->order[trie->live] = static_cast<std::uint32_t>(p);
    trie->live += widest < static_cast<unsigned>(q);
  }
}

}  // namespace

void PathPlan::compile_channel(const linalg::CMat& r,
                               const modulation::Constellation& c,
                               bool with_diag_inverse) {
  const std::size_t nt = r.cols();
  require_kernel_streams("PathPlan", nt);
  nt_ = nt;
  q_ = c.order();
  side_ = c.side();
  scale_ = c.scale();
  inv_scale_ = c.inv_scale();

  r_.resize(nt * nt);
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) r_.set(i * nt + j, r(i, j));
  }

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

void PathPlan::compile_flexcore(const linalg::CMat& r,
                                std::span<const core::RankedPath> paths,
                                const modulation::Constellation& c,
                                const core::OrderingLut& lut,
                                bool exact_ordering,
                                core::InvalidEntryPolicy policy) {
  require_lut_ordering("PathPlan", exact_ordering, policy);
  require_path_lengths("PathPlan", paths, r.cols());
  compile_channel(r, c, /*with_diag_inverse=*/true);
  num_paths_ = paths.size();
  fcsd_ = false;
  full_levels_ = 0;
  trie_size_ = trie_leaves_ = 0;
  if (with_trie_) {
    compile_trie(paths, lut);
  } else {
    compile_selectors(paths, nt_, kLanes, lut, q_, &sel_);
  }
}

void PathPlan::compile_fcsd(const linalg::CMat& r, std::size_t full_levels,
                            const modulation::Constellation& c) {
  require_fcsd_shape("PathPlan", r, full_levels);
  const std::size_t paths = fcsd_num_paths(
      "PathPlan", static_cast<std::size_t>(c.order()), full_levels);
  compile_channel(r, c, /*with_diag_inverse=*/false);
  num_paths_ = paths;
  fcsd_ = true;
  full_levels_ = full_levels;
  sel_.clear();
  trie_size_ = trie_leaves_ = 0;
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

/// Most keys the trie compile's rank sort takes (PathPlan::compile_trie
/// sorts larger path sets with std::sort).
constexpr std::size_t kTrieRankSortMax = 128;

constexpr std::int32_t kI16Max = perfmodel::I16Format::kMax;
constexpr std::int32_t kI16Min = perfmodel::I16Format::kMin;

/// The compiled-plan state the dispatched int16 kernel reads: raw pointers
/// only, filled per path_metric_block call (the plan is immutable while
/// grids run, so the pointers stay valid across the whole scan).
struct I16KernelState {
  std::size_t nt = 0, q = 0, full_levels = 0;
  int side = 0, pbits = 0;
  int pt_half = 0;  // lround(scale * 2^P): PAM half-step at the point scale
  bool fcsd = false;  // the FCSD plan (else FlexCore's LUT mode)
  double metric_unscale = 0.0;
  const std::int16_t* r_re = nullptr;
  const std::int16_t* r_im = nullptr;
  const std::int32_t* rx_pack = nullptr;
  const std::int32_t* pt_pack = nullptr;
  const std::int16_t* rdi_re = nullptr;
  const std::int16_t* rdi_im = nullptr;
  const std::int32_t* rh_re = nullptr;  // R(i,i)*scale at 2^F (affine rx)
  const std::int32_t* rh_im = nullptr;
  const int* slicer_shift = nullptr;
  const std::int32_t* slice_ar = nullptr;
  const std::int32_t* slice_ai = nullptr;
  const std::int32_t* slice_off = nullptr;
  const std::int32_t* slice_s = nullptr;
  const std::uint8_t* slice_live = nullptr;
  const std::int32_t* tab_c = nullptr;  // table slicer, affine form
  const std::int32_t* tab_d = nullptr;
  const std::int32_t* tab_s = nullptr;
  const std::int32_t* tab_lo = nullptr;
  const std::int32_t* tab_hi = nullptr;
  const std::int64_t* pam_e = nullptr;  // PAM reference, affine form
  const std::int64_t* pam_p = nullptr;
  const std::int32_t* pam_f = nullptr;
  const std::int32_t* pam_d = nullptr;
  const std::int32_t* pam_s = nullptr;
  const std::uint8_t* pam_wide = nullptr;
  const std::uint16_t* sel = nullptr;
};

}  // namespace

/// The compiled-plan state the exact fp walk reads (PathPlan::
/// fill_kernel_state), the fp analogue of I16KernelState.
struct FpKernelState {
  std::size_t nt = 0, q = 0, full_levels = 0;
  int side = 0;
  bool fcsd = false;  // the FCSD plan (else FlexCore's LUT mode)
  double scale = 0.0, inv_scale = 0.0;
  const double* r_re = nullptr;  // R rows; the diagonal is R(i,i) for rx
  const double* r_im = nullptr;
  const double* rdi_re = nullptr;  // 1/R(i,i) (FlexCore plans)
  const double* rdi_im = nullptr;
  const std::uint16_t* sel = nullptr;  // selector codes (FlexCore plans)
  const std::uint32_t* trie_leaf = nullptr;  // the FlexCore path trie:
  const std::uint8_t* trie_from = nullptr;   // each leaf's path and depth
  std::size_t trie_leaves = 0;
};

namespace {

// Runtime-dispatched kernels: the library ships portable (baseline-ISA)
// binaries, but a lane kernel lives or dies by the register width — so on
// x86-64 both kernel bodies (the int16 kernel and the exact fp walk) are
// compiled once per ISA tier (baseline, SSE4.1, AVX2, AVX-512F), and the
// process-wide linalg::kernel_copy() selects the copy through plain
// function pointers (linalg/kernel_isa.h; the build scaffolding is in
// linalg/kernel_copies.h).  Every copy computes bit-identical results —
// the i16 datapath is pure integer, and the fp walk is element-wise IEEE
// arithmetic with FMA contraction off (CMakeLists.txt) — so dispatch
// cannot change detection output.  Sanitized builds compile only the
// baseline copy (the UBSan job covers the saturating int arithmetic).

// Each copy: one namespace (FLEXCORE_ISA_NS) holding both kernel bodies,
// lowered under one target scope whose native register width is
// FLEXCORE_ISA_VEC_BYTES (the fp walk's sub-vector width).
#if FLEXCORE_KERNEL_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("sse4.1")
#define FLEXCORE_ISA_NS isa_sse41
#define FLEXCORE_ISA_VEC_BYTES 16
#include "detect/path_kernels_fp_walk.inc"
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
#define FLEXCORE_ISA_NS isa_avx2
#define FLEXCORE_ISA_VEC_BYTES 32
#include "detect/path_kernels_fp_walk.inc"
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define FLEXCORE_ISA_NS isa_avx512
#define FLEXCORE_ISA_VEC_BYTES 64
#include "detect/path_kernels_fp_walk.inc"
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options
#endif  // FLEXCORE_KERNEL_MULTIVERSION

// The baseline-ISA copy always exists: it is the only copy on non-x86 and
// sanitized builds, the fallback on ancient x86-64 and the reference the
// cross-ISA tests pin via FLEXCORE_I16_ISA.  Its width is the build's own
// (FLEXCORE_NATIVE_ARCH raises it).
#define FLEXCORE_ISA_NS isa_base
#define FLEXCORE_ISA_VEC_BYTES FLEXCORE_KERNEL_BASE_VEC_BYTES
#include "detect/path_kernels_fp_walk.inc"
#include "detect/path_kernels_i16_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS

using I16EvalFn = void (*)(const I16KernelState&, const std::int32_t*,
                           const std::int32_t*, std::size_t, double*);
using FpBlocksFn = void (*)(const FpKernelState&, const linalg::cplx*,
                            std::size_t, std::size_t, double*);
using FpLanesFn = void (*)(const FpKernelState&, const linalg::cplx*,
                           const std::size_t*, std::size_t, double*, int*);
using FpTrieFn = void (*)(const FpKernelState&, const linalg::cplx*,
                          std::size_t, std::size_t*, double*);
using KeySortFn = void (*)(const std::int64_t*, std::size_t, std::int64_t*);

/// One per-ISA copy of the path kernels: the i16 kernel (solo 16-lane
/// block / fused adjacent pair), the exact fp walk's block loop, its
/// lane-batched path and SIC walks, the trie walk, the trie compile's key
/// sort, and the lanes one walk call fills.
struct KernelCopy {
  I16EvalFn i16_one;
  I16EvalFn i16_pair;
  FpBlocksFn fp64;
  FpLanesFn fp_paths;
  FpLanesFn fp_sic;
  FpTrieFn fp_trie;
  KeySortFn sort_keys;
  std::size_t walk_lanes;
};

#define FLEXCORE_KERNEL_COPY(ns)                                         \
  KernelCopy {                                                           \
    ns::eval_one, ns::eval_pair, ns::fp_blocks, ns::fp_lanes<false>,     \
        ns::fp_lanes<true>, ns::fp_trie, ns::fp_rank_sort, ns::kFpChain  \
  }

/// The copy linalg::kernel_copy() names (one startup choice for every lane
/// kernel of the process).
KernelCopy pick_kernels() {
#if FLEXCORE_KERNEL_MULTIVERSION
  const KernelCopy copies[] = {
      FLEXCORE_KERNEL_COPY(isa_base), FLEXCORE_KERNEL_COPY(isa_sse41),
      FLEXCORE_KERNEL_COPY(isa_avx2), FLEXCORE_KERNEL_COPY(isa_avx512)};
#else
  const KernelCopy copies[] = {FLEXCORE_KERNEL_COPY(isa_base)};
#endif
  return copies[static_cast<std::size_t>(linalg::kernel_copy())];
}

#undef FLEXCORE_KERNEL_COPY

const KernelCopy g_kernels = pick_kernels();

}  // namespace

std::size_t PathPlan::walk_lanes() noexcept { return g_kernels.walk_lanes; }

bool PathPlan::trie_wins(std::size_t n) const noexcept {
  if (fcsd_ || !with_trie_) return false;
  const std::size_t walks = (n + kTrieLanes - 1) / kTrieLanes;
  const std::size_t block_levels =
      n * linalg::simd_blocks_of(num_paths_, kLanes) * nt_;
  return kTrieNodeCost * static_cast<double>(walks * trie_size_) <
         static_cast<double>(block_levels);
}

void PathPlan::fill_kernel_state(FpKernelState* st) const noexcept {
  st->nt = nt_;
  st->q = static_cast<std::size_t>(q_);
  st->full_levels = full_levels_;
  st->side = side_;
  st->fcsd = fcsd_;
  st->scale = scale_;
  st->inv_scale = inv_scale_;
  st->r_re = r_.re.data();
  st->r_im = r_.im.data();
  st->rdi_re = rdi_.re.data();
  st->rdi_im = rdi_.im.data();
  st->sel = sel_.data();
  st->trie_leaf = trie_leaf_.data();
  st->trie_from = trie_from_.data();
  st->trie_leaves = trie_leaves_;
}

namespace {

/// The trie compile's scratch: the packed keys (twice over, the rank sort
/// writing its output beside its input) and the live paths' indices.  A
/// detector compiles on whichever thread installs its channel, so one warm
/// scratch per thread serves every plan, instead of one per plan.
struct TrieScratch {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> order;
};
thread_local TrieScratch t_trie_scratch;

}  // namespace

void PathPlan::compile_trie(std::span<const core::RankedPath> paths,
                            const core::OrderingLut& lut) {
  // Each path's sort key packs rank - 1 in a 2^field_log-bit field per
  // level, root level highest, and the path index below them.  Sorted as
  // plain integers, the keys give DFS preorder, the lowest index first
  // among equal paths.  The field fits the constellation's ranks, or the
  // widest rank the paths hold when that is too wide; wider sets sort rank
  // by rank.  A path holding a rank outside 1..|Q| is deactivated on every
  // vector, so it can never win a scan: only the live paths enter the
  // trie.  The selector table's pass packs the keys, and the nodes read
  // their codes back from it.
  const std::size_t nt = nt_;
  const std::size_t np = paths.size();
  const unsigned q = static_cast<unsigned>(q_);
  const unsigned index_bits =
      static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(np)));
  const auto field_log_of = [](unsigned widest) {
    return static_cast<unsigned>(std::countr_zero(std::bit_ceil(
        std::max(1u, static_cast<unsigned>(std::bit_width(widest))))));
  };
  unsigned field_log = field_log_of(q - 1);
  if ((nt << field_log) + index_bits > 63) {
    unsigned widest = 0;
    for (const core::RankedPath& path : paths) {
      for (const int r : path.p) {
        const unsigned v = static_cast<unsigned>(r - 1);
        if (v < q) widest = std::max(widest, v);
      }
    }
    field_log = field_log_of(widest);
  }
  const unsigned bits = 1u << field_log;
  const bool packed = nt * bits + index_bits <= 63;
  // Multipliers, not shifts by a variable count (several uops each on
  // x86-64 without BMI2); an unpacked key is never read.
  std::uint64_t weight[kMaxLevels];
  for (std::size_t i = 0; i < nt; ++i) {
    weight[i] = packed ? std::uint64_t{1} << (i * bits + index_bits) : 0;
  }

  std::vector<std::uint64_t>& key_of = t_trie_scratch.keys;
  std::vector<std::uint32_t>& order = t_trie_scratch.order;
  if (key_of.size() < 2 * np) key_of.resize(2 * np);
  if (order.size() < np) order.resize(np);
  TrieKeys packing{weight, key_of.data(), order.data()};
  compile_selectors(paths, nt, kLanes, lut, q_, &sel_, &packing);
  const std::size_t live = packing.live;
  const auto rank_at = [&](std::uint32_t p, std::size_t depth) {
    return paths[p].p[nt - 1 - depth];
  };
  std::uint64_t* keys = key_of.data();
  if (packed && live <= kTrieRankSortMax) {
    // Keys below 2^63 order alike as signed values.
    g_kernels.sort_keys(reinterpret_cast<const std::int64_t*>(keys), live,
                        reinterpret_cast<std::int64_t*>(keys + np));
    keys += np;
  } else if (packed) {
    std::sort(keys, keys + live);
  } else {
    std::sort(order.begin(), order.begin() + live,
              [&](std::uint32_t a, std::uint32_t b) {
                for (std::size_t d = 0; d < nt; ++d) {
                  if (rank_at(a, d) != rank_at(b, d)) {
                    return rank_at(a, d) < rank_at(b, d);
                  }
                }
                return a < b;
              });
  }
  // Each path adds the nodes below the depth where it departs from its
  // predecessor; a path equal to its predecessor adds none (its twin has
  // the lower index and the same metric, so it wins every tie).
  if (trie_leaf_.size() < live) {
    trie_leaf_.resize(live);
    trie_from_.resize(live);
  }
  const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
  std::size_t nodes = 0;
  std::size_t leaves = 0;
  for (std::size_t k = 0; k < live; ++k) {
    std::size_t from = 0;
    if (k > 0 && packed) {
      const std::uint64_t diff = (keys[k] ^ keys[k - 1]) >> index_bits;
      from = diff == 0 ? nt
                       : nt - 1 - ((std::bit_width(diff) - 1) >> field_log);
    } else if (k > 0) {
      const std::uint32_t a = order[k];
      const std::uint32_t b = order[k - 1];
      while (from < nt && rank_at(a, from) == rank_at(b, from)) ++from;
    }
    if (from == nt) continue;
    trie_leaf_[leaves] =
        packed ? static_cast<std::uint32_t>(keys[k] & index_mask) : order[k];
    trie_from_[leaves++] = static_cast<std::uint8_t>(from);
    nodes += nt - from;
  }
  trie_leaves_ = leaves;
  trie_size_ = nodes;
}

FLEXCORE_HOT_PATH
void PathPlan::path_metric_block(std::span<const linalg::cplx> ybar,
                                 std::size_t first_path, std::size_t n_paths,
                                 double* out) const {
  assert(compiled() && ybar.size() == nt_);
  assert(first_path + n_paths <= num_paths_);
  FpKernelState st;
  fill_kernel_state(&st);
  g_kernels.fp64(st, ybar.data(), first_path, n_paths, out);
}

FLEXCORE_HOT_PATH
void PathPlan::walk_paths(std::span<const linalg::cplx> ybars,
                          std::span<const std::size_t> paths,
                          std::span<double> metrics,
                          std::span<int> symbols) const {
  assert(compiled() && ybars.size() == paths.size() * nt_);
  assert(metrics.size() == paths.size() && symbols.size() == ybars.size());
  FpKernelState st;
  fill_kernel_state(&st);
  g_kernels.fp_paths(st, ybars.data(), paths.data(), paths.size(),
                     metrics.data(), symbols.data());
}

FLEXCORE_HOT_PATH
void PathPlan::scan_trie(std::span<const linalg::cplx> ybars,
                         std::span<std::size_t> best_path,
                         std::span<double> best_metric) const {
  assert(!fcsd_ && with_trie_);
  assert(ybars.size() == best_path.size() * nt_);
  assert(best_metric.size() == best_path.size());
  FpKernelState st;
  fill_kernel_state(&st);
  g_kernels.fp_trie(st, ybars.data(), best_path.size(), best_path.data(),
                    best_metric.data());
}

FLEXCORE_HOT_PATH
double PathPlan::walk_path(std::span<const linalg::cplx> ybar, std::size_t path,
                           std::span<int> symbols) const {
  double m;
  walk_paths(ybar, {&path, 1}, {&m, 1}, symbols);
  return m;
}

FLEXCORE_HOT_PATH
void PathPlan::walk_sic(std::span<const linalg::cplx> ybars,
                        std::span<double> metrics,
                        std::span<int> symbols) const {
  assert(!fcsd_ && ybars.size() == metrics.size() * nt_);
  assert(symbols.size() == ybars.size());
  FpKernelState st;
  fill_kernel_state(&st);
  g_kernels.fp_sic(st, ybars.data(), nullptr, metrics.size(), metrics.data(),
                   symbols.data());
}

FLEXCORE_HOT_PATH
double PathPlan::walk_sic(std::span<const linalg::cplx> ybar,
                          std::span<int> symbols) const {
  double m;
  walk_sic(ybar, {&m, 1}, symbols);
  return m;
}

DetectionStats PathPlan::walk_stats(std::size_t n_paths) const noexcept {
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
  if (fcsd_) {
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

std::size_t PathPlan::footprint_bytes() const noexcept {
  const auto split = [](const linalg::SplitVec& v) {
    return (v.re.size() + v.im.size()) * sizeof(double);
  };
  return split(r_) + split(rdi_) + sel_.size() * sizeof(std::uint16_t) +
         trie_leaf_.size() * sizeof(std::uint32_t) + trie_from_.size();
}

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
// channel — the fp walk's NaN clamp deactivates those lanes; the sentinel
// does the same here).  The table is compiled, not stored: on its
// in-coverage buckets [lo, hi] it is an exact affine form of the bucket
// (fit_table_slicer), and every other bucket is the sentinel.
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

/// The floor-affine form (x * c + d) >> s through the points (x[k], y[k]),
/// k < n, x ascending.  Closed form c = round(slope * 2^s), tried with its
/// two neighbours for s = s_max down to s_max - 3; d is the least value of
/// the interval every point admits, so a candidate is checked against all
/// points at once.  The form is monotone (c >= 0), so the ends of each run
/// of equal y suffice to pin a whole step function.  `in_range(c, d)`
/// vetoes fits whose lane arithmetic could leave int32.  Returns false when
/// nothing fits.
template <typename InRange>
bool fit_floor_affine(const std::int64_t* x, const std::int64_t* y,
                      std::size_t n, double slope, int s_max,
                      InRange in_range, std::int64_t* c_out,
                      std::int64_t* d_out, int* s_out) {
  for (int ds = 0; ds < 4; ++ds) {
    const int s = std::max(1, s_max - ds);
    const std::int64_t one = std::int64_t{1} << s;
    const std::int64_t c0 = std::llround(std::ldexp(slope, s));
    for (const std::int64_t c : {c0, c0 - 1, c0 + 1}) {
      if (c < 0) continue;
      std::int64_t dlo = std::numeric_limits<std::int64_t>::min();
      std::int64_t dhi = std::numeric_limits<std::int64_t>::max();
      for (std::size_t k = 0; k < n && dlo <= dhi; ++k) {
        dlo = std::max(dlo, y[k] * one - x[k] * c);
        dhi = std::min(dhi, (y[k] + 1) * one - 1 - x[k] * c);
      }
      if (dlo <= dhi && in_range(c, dlo)) {
        *c_out = c;
        *d_out = dlo;
        *s_out = s;
        return true;
      }
    }
  }
  return false;
}

constexpr std::int64_t kI32Limit = 2147483647;

}  // namespace

void PathPlanI16::compile_channel(const linalg::CMat& r,
                                  const modulation::Constellation& c,
                                  bool with_tables) {
  // (The fp64 plan skips 1/R(i,i) for FCSD; the quantized tier always
  // compiles it — the greedy FCSD slice runs through the same compiled
  // slicer as rank > 1 lanes.)
  const std::size_t nt = r.cols();
  require_kernel_streams("PathPlanI16", nt);
  nt_ = nt;
  q_ = c.order();
  side_ = c.side();
  scale_ = c.scale();
  inv_scale_ = c.inv_scale();
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
  r_re_q_.resize(nt * nt);
  r_im_q_.resize(nt * nt);
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      r_re_q_[i * nt + j] = quantize_i16(r(i, j).real() * fs);
      r_im_q_[i * nt + j] = quantize_i16(r(i, j).imag() * fs);
    }
  }
  // rx rows are affine in the axis indices: rx[i][x] = R(i,i) * point(x)
  // with point = ((2 a_re - (side-1)) + j (2 a_im - (side-1))) * scale, so
  // one quantized complex step rh = R(i,i) * scale * 2^F per level
  // reproduces the whole row.  The kernel's LUT mode computes the metric
  // reference straight from the sliced axis indices with this identity (no
  // per-lane row gather), and the FCSD's table holds the same values, so
  // every mode sees identical quantized rx.  The doubled-axis offsets obey
  // (side-1) * (|rh_re| + |rh_im|) <= kMax + 2(side-1): the exact corner
  // value is part of vmax, which bounds it by kMax at 2^F, and each step
  // rounds by at most 1/2 — so rows fit int16 after a defensive clamp and
  // every kernel intermediate fits int32 untouched.
  rh_re_q_.assign(nt, 0);
  rh_im_q_.assign(nt, 0);
  for (std::size_t i = 0; i < nt; ++i) {
    const linalg::cplx rii = r(i, i);
    rh_re_q_[i] = static_cast<std::int32_t>(
        std::clamp(std::lround(rii.real() * scale_ * fs), -long{QF::kMax},
                   long{QF::kMax}));
    rh_im_q_[i] = static_cast<std::int32_t>(
        std::clamp(std::lround(rii.imag() * scale_ * fs), -long{QF::kMax},
                   long{QF::kMax}));
  }
  // Quantized points are defined AFFINELY in the axis indices — the grid is
  // pam(a) = (2a - (side-1)) * scale, so one quantized half-step reproduces
  // every point: pt_q[a_re, a_im] = ((2 a_re - (side-1)) h, (2 a_im -
  // (side-1)) h).  The kernel's LUT mode computes recurrence symbols
  // straight from sliced axis indices with this identity (no table gather
  // on the decision-feedback chain), and the FCSD's table holds the same
  // values, so all modes agree bit-for-bit.  h is capped so the edge
  // level (side-1) * h stays in int16 — same bound the per-point
  // quantization obeyed.
  pt_half_q_ = static_cast<std::int32_t>(std::lround(scale_ * ps));
  pt_half_q_ = std::min<std::int32_t>(
      pt_half_q_, static_cast<std::int32_t>(QF::kMax) / (side_ - 1));
  pt_half_q_ = std::max<std::int32_t>(pt_half_q_, 1);
  rx_pack_.clear();
  pt_pack_.clear();
  if (with_tables) {
    rx_pack_.resize(nt * q);
    for (std::size_t i = 0; i < nt; ++i) {
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
    pt_pack_.resize(q);
    for (std::size_t x = 0; x < q; ++x) {
      const int ai = static_cast<int>(x) / side_;
      const int aq = static_cast<int>(x) % side_;
      pt_pack_[x] = pack_i16_pair(
          static_cast<std::int16_t>((2 * ai - (side_ - 1)) * pt_half_q_),
          static_cast<std::int16_t>((2 * aq - (side_ - 1)) * pt_half_q_));
    }
  }

  // Quantized diagonal inverses + per-level slicer / PAM tables.
  rdi_re_q_.assign(nt, 0);
  rdi_im_q_.assign(nt, 0);
  gbits_.assign(nt, 0);
  slicer_shift_.assign(nt, 0);
  slice_ar_.assign(nt, 0);
  slice_ai_.assign(nt, 0);
  slice_off_.assign(nt, 0);
  slice_s_.assign(nt, 1);
  slice_live_.assign(nt, 0);
  pam_e_.assign(nt, 0);
  pam_p_.assign(nt, 0);
  pam_f_.assign(nt, 0);
  pam_d_.assign(nt, 0);
  pam_s_.assign(nt, 1);
  pam_wide_.assign(nt, 0);
  tab_c_.assign(nt, 0);
  tab_d_.assign(nt, 0);
  tab_s_.assign(nt, 1);
  tab_lo_.assign(nt, 1);  // empty [lo, hi]: every rank > 1 lane dies
  tab_hi_.assign(nt, 0);

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

    const double es = std::ldexp(1.0, fbits_ + gbits_[i]);

    if (!invertible) continue;  // slicer stays all-sentinel: lanes die here

    // The slicer LUT's bucket width: the middle 254 buckets must cover
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
    std::int8_t tab[kSlicerBuckets];
    std::fill(std::begin(tab), std::end(tab), kSlicerInvalid);
    for (std::size_t t = 1; t + 1 < kSlicerBuckets; ++t) {
      // The same rounded-center rule as the fp slicer, evaluated once per
      // bucket midpoint at compile time.
      const double e_mid =
          ((static_cast<double>(t) - 128.0) + 0.5) * bucket / es;
      const int a =
          round_half_away((e_mid * inv_scale_ + (side_ - 1)) / 2.0);
      if (a > -kPamPad && a < side_ + kPamPad) {
        tab[t] = static_cast<std::int8_t>(a);
      }
    }

    // The table's affine form, the one the kernel reads, and whether the
    // residuals erx - pam of rank > 1 lanes need 64-bit lanes: |erx|
    // stays under 128 * 2^shift on every in-coverage bucket.
    fit_table_slicer(i, bucket / es * inv_scale_ / 2.0, tab);
    fit_pam_row(i, scale_ * es, std::ldexp(128.0, sh));
  }
}

void PathPlanI16::fit_pam_row(std::size_t level, double x, double erx_max) {
  // The PAM reference of the triangle classification at eff's scale: for
  // the in-coverage centers a = a_lo .. a_hi, U_a = round((2a - (side-1))
  // * x), which the kernel saturates to +-2^30.  Only wide levels reach
  // that, and there a lane can sit on a saturated entry: on tall channels
  // the int16 clamp of b leaves |eff_raw| near 2^30, in the bucket of a
  // center one to three steps outside the grid, and the lane's residual
  // is taken against the saturated value.  Consecutive entries step by
  // floor(2x) or one more, so U_a = e + (a - a_mid) * p + r_k with
  // k = a - a_lo and r_k = (k * f + d) >> s a floor-affine remainder —
  // lane arithmetic, no table.  Where rounding defeats the fit, the closed
  // form r_k = floor(k * frac(2x) + phi) defines the row instead (it moves
  // an entry by one unit only at a near-tie).
  constexpr double kPamCap = 1073741824.0;  // 2^30
  constexpr int kRow = 2 * kPamPad + 16;  // side <= 16 (256-QAM)
  const int a_lo = 1 - kPamPad;
  const int n = side_ + 2 * kPamPad - 1;
  const int a_mid = side_ / 2;
  assert(n <= kRow);
  std::int64_t u[kRow] = {};
  for (int k = 0; k < n; ++k) {
    const double val = (2.0 * (a_lo + k) - (side_ - 1)) * x;
    const double cl = std::clamp(val, -4.0e18, 4.0e18);
    u[k] = static_cast<std::int64_t>(cl >= 0.0 ? cl + 0.5 : cl - 0.5);
  }
  const std::int64_t p = static_cast<std::int64_t>(std::floor(2.0 * x));
  std::int64_t ks[kRow] = {}, r[kRow] = {};
  for (int k = 0; k < n; ++k) {
    ks[k] = k;
    r[k] = u[k] - u[0] - k * p;
  }
  std::int64_t f = 0, d = 0;
  int s = 24;
  const bool ok = fit_floor_affine(
      ks, r, static_cast<std::size_t>(n), 2.0 * x - static_cast<double>(p), s,
      [&](std::int64_t c, std::int64_t dd) {
        return (n - 1) * c + dd < kI32Limit;
      },
      &f, &d, &s);
  if (!ok) {
    const double m0 = (2.0 * a_lo - (side_ - 1)) * x + 0.5;
    s = 24;
    f = std::llround(std::ldexp(2.0 * x - static_cast<double>(p), s));
    d = std::llround(std::ldexp(m0 - std::floor(m0), s));
  }
  const std::int64_t e = u[0] - (a_lo - a_mid) * p;
  pam_e_[level] = e;
  pam_p_[level] = p;
  pam_f_[level] = static_cast<std::int32_t>(f);
  pam_d_[level] = static_cast<std::int32_t>(d);
  pam_s_[level] = s;
  // int32 lanes are exact when every |eff| the classification sees
  // (< 128 * 2^shift) plus the reference stays under 2^31, and the
  // form's own partial sums do; otherwise, or when an entry saturates,
  // the kernel runs the reference and residuals in 64-bit lanes.
  bool wide = false;
  for (int k = 0; k < n; ++k) {
    const std::int64_t lin = (a_lo + k - a_mid) * p;
    const std::int64_t row = e + lin + ((k * f + d) >> s);
    wide = wide || std::llabs(lin) >= kI32Limit ||
           std::llabs(e + lin) >= kI32Limit ||
           static_cast<double>(std::llabs(row)) > kPamCap ||
           erx_max + static_cast<double>(std::llabs(row)) >= 2147483648.0;
  }
  pam_wide_[level] = wide ? 1 : 0;
}

void PathPlanI16::fit_table_slicer(std::size_t level, double kappa,
                                   std::int8_t* tab) {
  // On its in-coverage buckets the table holds a = round((t - 127.5) *
  // kappa + (side-1)/2), kappa the axis steps per bucket — a step function
  // of t.  Closed form: c = kappa * 2^s and d the rounded offset, with s
  // as large as int32 allows for every t in [0, 255].  Each candidate is
  // checked against every in-coverage bucket through the interval of d it
  // admits; rounding can defeat the closed form, so a few neighbouring
  // (s, c) are tried before giving up.
  int lo = 1, hi = 0;
  const auto coverage = [&] {
    lo = 1;
    while (lo < 255 && tab[lo] == kSlicerInvalid) ++lo;
    hi = 254;
    while (hi >= lo && tab[hi] == kSlicerInvalid) --hi;
  };
  coverage();
  if (lo > hi) return;  // all sentinel: the level kills rank > 1 lanes
  const double off = 0.5 - 127.5 * kappa + 0.5 * (side_ - 1);
  const double span = 255.0 * kappa + std::fabs(off) + 2.0;
  const int s_max = std::clamp(
      static_cast<int>(std::floor(std::log2(2147483647.0 / span))), 1, 30);
  // The ends of each run of equal entries.
  std::int64_t xs[kSlicerBuckets], ys[kSlicerBuckets];
  std::size_t n = 0;
  for (int t = lo; t <= hi; ++t) {
    if (t == lo || t == hi || tab[t] != tab[t - 1] || tab[t] != tab[t + 1]) {
      xs[n] = t;
      ys[n++] = tab[t];
    }
  }
  std::int64_t c = 0, d = 0;
  int s = s_max;
  const bool ok = fit_floor_affine(
      xs, ys, n, kappa, s_max,
      [](std::int64_t cc, std::int64_t dd) {
        return cc > 0 && std::llabs(dd) < kI32Limit &&
               std::llabs(255 * cc + dd) < kI32Limit;
      },
      &c, &d, &s);
  if (!ok) {
    // No exact form (a bucket midpoint within rounding of a decision
    // boundary): the closed form at s_max defines the slicer instead (it
    // moves a center by one step only at a near-tie).
    s = s_max;
    c = std::llround(std::ldexp(kappa, s));
    d = std::llround(std::ldexp(off, s));
    for (int t = 1; t + 1 < static_cast<int>(kSlicerBuckets); ++t) {
      const std::int64_t a = (t * c + d) >> s;
      tab[t] = a > -kPamPad && a < side_ + kPamPad
                   ? static_cast<std::int8_t>(a)
                   : kSlicerInvalid;
    }
    coverage();
  }
  tab_c_[level] = static_cast<std::int32_t>(c);
  tab_d_[level] = static_cast<std::int32_t>(d);
  tab_s_[level] = s;
  tab_lo_[level] = lo;
  tab_hi_[level] = hi;
}

void PathPlanI16::compile_flexcore(const linalg::CMat& r,
                                   std::span<const core::RankedPath> paths,
                                   const modulation::Constellation& c,
                                   const core::OrderingLut& lut,
                                   bool exact_ordering,
                                   core::InvalidEntryPolicy policy) {
  require_lut_ordering("PathPlanI16", exact_ordering, policy);
  require_path_lengths("PathPlanI16", paths, r.cols());
  compile_channel(r, c, /*with_tables=*/false);
  num_paths_ = paths.size();
  fcsd_ = false;
  full_levels_ = 0;
  compile_selectors(paths, nt_, kLanes, lut, q_, &sel_);
}

void PathPlanI16::compile_fcsd(const linalg::CMat& r, std::size_t full_levels,
                               const modulation::Constellation& c) {
  require_fcsd_shape("PathPlanI16", r, full_levels);
  const std::size_t paths = fcsd_num_paths(
      "PathPlanI16", static_cast<std::size_t>(c.order()), full_levels);
  compile_channel(r, c, /*with_tables=*/true);
  num_paths_ = paths;
  fcsd_ = true;
  full_levels_ = full_levels;
  sel_.clear();
}

int PathPlanI16::slicer_center(std::size_t level, double eff) const {
  if (level >= nt_) {
    throw std::invalid_argument("PathPlanI16::slicer_center: level " +
                                std::to_string(level) + " of a " +
                                std::to_string(nt_) + "-level plan");
  }
  // Quantize eff exactly like the kernel sees it mid-walk, then run the
  // same bucket + coverage test + affine form.
  const double es = std::ldexp(1.0, fbits_ + gbits_[level]);
  const std::int32_t er = quantize_i32(eff * es, 2147221504.0 /* ~2^31 */);
  const int t = (er >> slicer_shift_[level]) + 128;
  if (t < tab_lo_[level] || t > tab_hi_[level]) return kSlicerInvalid;
  return (t * tab_c_[level] + tab_d_[level]) >> tab_s_[level];
}

std::size_t PathPlanI16::footprint_bytes() const noexcept {
  return (r_re_q_.size() + r_im_q_.size() + rdi_re_q_.size() +
          rdi_im_q_.size()) *
             sizeof(std::int16_t) +
         (rx_pack_.size() + pt_pack_.size()) * sizeof(std::int32_t) +
         (rh_re_q_.size() + rh_im_q_.size()) * sizeof(std::int32_t) +
         gbits_.size() * sizeof(int) + slicer_shift_.size() * sizeof(int) +
         (slice_ar_.size() + slice_ai_.size() + slice_off_.size() +
          slice_s_.size()) *
             sizeof(std::int32_t) +
         slice_live_.size() +
         (tab_c_.size() + tab_d_.size() + tab_s_.size() + tab_lo_.size() +
          tab_hi_.size() + pam_f_.size() + pam_d_.size() + pam_s_.size()) *
             sizeof(std::int32_t) +
         (pam_e_.size() + pam_p_.size()) * sizeof(std::int64_t) +
         pam_wide_.size() + sel_.size() * sizeof(std::uint16_t);
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
  st.pt_half = pt_half_q_;
  st.fcsd = fcsd_;
  st.metric_unscale = metric_unscale_;
  st.r_re = r_re_q_.data();
  st.r_im = r_im_q_.data();
  st.rx_pack = rx_pack_.data();
  st.pt_pack = pt_pack_.data();
  st.rdi_re = rdi_re_q_.data();
  st.rdi_im = rdi_im_q_.data();
  st.rh_re = rh_re_q_.data();
  st.rh_im = rh_im_q_.data();
  st.slicer_shift = slicer_shift_.data();
  st.slice_ar = slice_ar_.data();
  st.slice_ai = slice_ai_.data();
  st.slice_off = slice_off_.data();
  st.slice_s = slice_s_.data();
  st.slice_live = slice_live_.data();
  st.tab_c = tab_c_.data();
  st.tab_d = tab_d_.data();
  st.tab_s = tab_s_.data();
  st.tab_lo = tab_lo_.data();
  st.tab_hi = tab_hi_.data();
  st.pam_e = pam_e_.data();
  st.pam_p = pam_p_.data();
  st.pam_f = pam_f_.data();
  st.pam_d = pam_d_.data();
  st.pam_s = pam_s_.data();
  st.pam_wide = pam_wide_.data();
  st.sel = sel_.empty() ? nullptr : sel_.data();

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
