// The lane-parallel path-kernel engine: compiled PathPlans and the
// path_metric_block kernel behind the detection grids.
//
// FlexCore's premise (paper §4) is that detection decomposes into thousands
// of tiny identical per-path programs a massively parallel substrate runs
// in lockstep.  The scalar CPU port kept each path as branchy
// std::complex<double> code; this engine maps the paper's SIMT grid onto
// CPU SIMD lanes instead:
//
//  * At preprocessing time (set_channel) the detector COMPILES its path set
//    into a PathPlan: per-level symbol selectors laid out path-major-blocked
//    (blocks of kLanes paths, selectors of one level contiguous across the
//    block's lanes), a per-(block, level) fix mask of the lanes whose rank
//    is above 1, the channel state (R rows, 1/R(i,i), the R(i,i)*point
//    reconstruction table, the constellation points) split into re/im
//    structure-of-arrays, and the triangle LUT expanded into all 8 dihedral
//    transforms so the per-level lookup is table-walk + bounds check, no
//    reflection branches.
//  * path_metric_block(ybar, first, n, out) then evaluates a whole block of
//    paths per call: lane = path, the per-level interference-cancellation
//    loop written as split real/imag lane-register arithmetic.  Rank-1
//    lanes never gather: slicing, liveness and the decided point and its
//    metric reference are rebuilt in the lanes from the sliced axis
//    indices.  Only fix-mask lanes (rank > 1) and the table modes (FCSD,
//    skip-to-valid, exact sort) take per-lane lookups, on staged arrays.
//  * The walk, like the int16 kernel, is compiled once per x86-64 ISA
//    (baseline, SSE4.1, AVX2, AVX-512F), each copy at its native register
//    width, and dispatched at startup (kernel_isa() names the copy).
//
// The plan is templated on the compute scalar.  PathPlan (double) is the
// library's one exact per-path walk: the grids, winner reconstruction,
// sequential detect(), soft output, the SIC fallback and the reduced
// tiers' exact rescue all run it (walk_path / walk_sic are the same walk
// at width 1).  It is bit-identical to the scalar std::complex reference
// walk in tests/reference_walk.h — same operations in the same order on
// the same values, in every ISA copy, verified by tests/kernel_test.cpp
// (the build turns FMA contraction off, so no copy fuses a multiply-add
// the reference rounds twice).  PathPlanF (float) is the reduced-precision
// tier in the spirit of the paper's fixed-point FPGA datapath (selected by
// the ":fp32" registry spec suffix; see README "Kernel engine & precision
// tiers" for when it is safe).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/ordering_lut.h"
#include "core/preprocessing.h"
#include "detect/detector.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "modulation/constellation.h"

namespace flexcore::detect {

/// Compute tier of the path kernels (and anything else that grows a
/// reduced-precision variant).  kFloat64 is the exact tier; kFloat32
/// evaluates the path grid in single precision; kInt16 runs the quantized
/// fixed-point tier (PathPlanI16) — winner reconstruction and everything
/// outside the grid stays double in every tier.
enum class Precision {
  kFloat64,
  kFloat32,
  kInt16,
};

/// Registry spec suffix of a tier ("" for fp64, ":fp32" for fp32, ":i16"
/// for the quantized tier), the grammar api::make_detector parses and
/// Detector::name round-trips.
constexpr const char* precision_suffix(Precision p) noexcept {
  return p == Precision::kFloat32  ? ":fp32"
         : p == Precision::kInt16  ? ":i16"
                                   : "";
}

/// Documented accuracy gate of the ":i16" tier: measured 64-QAM SER of the
/// quantized grid may exceed the fp64 grid's SER by at most this, absolute,
/// on the standard sweeps (the fp32 analogue is 5e-3).  Enforced by
/// tests/kernel_test.cpp, bench/ablation_fixed_point.cpp and
/// bench/fig17_kernel_engine.cpp; the control plane's degrade ladder
/// assumes this bound when it sheds to ":i16" under load.
inline constexpr double kI16SerTolerance = 1e-2;

/// Throws std::invalid_argument naming the path kernels' 32-stream limit
/// (PathPlanT::kMaxLevels) unless 1 <= nt <= 32.  Detectors call it before
/// touching any state, so a refused channel leaves the previous one
/// installed.
void require_kernel_streams(const char* who, std::size_t nt);

/// Name of the per-ISA kernel copy this process dispatched: "base",
/// "sse41", "avx2" or "avx512".  One copy serves every tier (the exact fp
/// walk's blocks and the i16 kernel).  Picked once at startup, widest
/// supported first; the FLEXCORE_I16_ISA environment variable pins a copy,
/// and a pin this build or CPU cannot honour is reported once on stderr
/// and ignored.
const char* kernel_isa() noexcept;

/// The raw view of a compiled PathPlanT that the per-ISA walk copies read
/// (defined in path_kernels.cpp).
template <typename T>
struct FpKernelState;

/// A compiled, SoA-blocked path set for one installed channel.  Compile
/// once per set_channel (cheap next to QR + path selection), evaluate with
/// path_metric_block from any thread — the plan is immutable after
/// compilation and evaluation touches only stack scratch.
template <typename T>
class PathPlanT {
 public:
  /// Paths per block (lanes per path_metric_block call).
  static constexpr std::size_t kLanes = linalg::kSimdLanes;
  /// Tree-depth cap of every path kernel (Nt <= 32).
  static constexpr std::size_t kMaxLevels = 32;

  /// Compiles a FlexCore path set: `paths[p].p[i]` is the 1-based closeness
  /// rank at level i.  `exact_ordering` selects the exhaustive-sort
  /// ablation instead of the triangle LUT; `policy` is the detector's
  /// invalid-entry policy (kDeactivate compiles to the branch-light
  /// transformed-LUT fast path, kSkipToValid falls back to per-lane
  /// OrderingLut calls).  `lut` must outlive the plan.
  void compile_flexcore(const linalg::CMat& r,
                        std::span<const core::RankedPath> paths,
                        const modulation::Constellation& c,
                        const core::OrderingLut& lut, bool exact_ordering,
                        core::InvalidEntryPolicy policy);

  /// Compiles the FCSD path set: |Q|^full_levels paths whose base-|Q|
  /// digits enumerate the top levels (decoded on the fly — the selector
  /// table would dwarf the channel state for L = 2) and whose remaining
  /// levels extend greedily by nearest-point slicing.
  void compile_fcsd(const linalg::CMat& r, std::size_t full_levels,
                    const modulation::Constellation& c);

  void clear() { nt_ = num_paths_ = 0; }
  bool compiled() const noexcept { return nt_ != 0; }
  std::size_t num_paths() const noexcept { return num_paths_; }
  std::size_t levels() const noexcept { return nt_; }

  /// Evaluates paths [first_path, first_path + n_paths) against the rotated
  /// vector `ybar` (length levels()), writing one Euclidean metric per path
  /// to `out` (+infinity for deactivated paths).  Equals the scalar
  /// reference walk per path — bitwise for T = double.  Whole blocks are
  /// evaluated internally, so aligning first_path to kLanes avoids wasted
  /// lanes; any alignment is correct.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out) const;

  /// Walks the single path `path`: the block walk instantiated at width 1,
  /// so the returned metric is bitwise the one path_metric_block reports
  /// for it.  Writes the per-level symbol decisions (tree order) to
  /// `symbols` (length levels()); +infinity means the path was
  /// deactivated and `symbols` is then partial.
  double walk_path(std::span<const linalg::cplx> ybar, std::size_t path,
                   std::span<int> symbols) const;

  /// Plain SIC (FlexCore plans only): the same width-1 walk at rank 1 on
  /// every level, with the slice clamped into the constellation instead of
  /// deactivating the path — always valid.  FlexCore's fallback when every
  /// selected path is deactivated.
  double walk_sic(std::span<const linalg::cplx> ybar,
                  std::span<int> symbols) const;

  /// Cost of `n_paths` full walks in the paper's Table 2 accounting, with
  /// paths_evaluated = n_paths.  Closed form from the plan's shape: every
  /// walk runs all levels, because a deactivated lane keeps computing
  /// beside its block — the work the grid really does.
  DetectionStats walk_stats(std::size_t n_paths) const noexcept;

  /// Heap bytes of the compiled plan (channel state + selector tables) —
  /// the footprint the precision tiers halve step by step; reported by
  /// bench/micro_kernels.cpp.
  std::size_t footprint_bytes() const noexcept;

 private:
  enum class Mode : std::uint8_t {
    kLutRank,      ///< FlexCore, triangle LUT, kDeactivate (fast path)
    kGenericRank,  ///< FlexCore, triangle LUT, kSkipToValid (per-lane calls)
    kExactRank,    ///< FlexCore, exhaustive per-level sort (ablation)
    kFcsd,         ///< FCSD digit enumeration + greedy slicing
  };

  void compile_channel(const linalg::CMat& r,
                       const modulation::Constellation& c,
                       bool with_diag_inverse);
  /// Copies the plan's scalars and table pointers into the walk's kernel
  /// state (once per call; valid while the plan is unchanged).
  void fill_kernel_state(FpKernelState<T>* st) const noexcept;

  Mode mode_ = Mode::kLutRank;
  std::size_t nt_ = 0;         ///< levels (0 = not compiled)
  std::size_t num_paths_ = 0;  ///< paths the plan covers
  int q_ = 0;                  ///< constellation order
  int side_ = 0;               ///< sqrt(order)
  double scale_ = 0.0;         ///< constellation PAM half-step
  double inv_scale_ = 0.0;     ///< Constellation::inv_scale() (slicer)

  // Channel state, split re/im.  R rows are stored dense row-major (only
  // the upper triangle is read); rdi is 1/R(i,i); rx[i*q + x] is
  // R(i,i) * point(x); pt is the constellation point table.
  linalg::SplitVec<T> r_, rdi_, rx_, pt_;

  // FlexCore selector table, path-major-blocked:
  //   ranks_[(block * nt_ + level) * kLanes + lane]
  // is the 1-based closeness rank of path block*kLanes+lane at `level`
  // (tail lanes of the last block hold rank 1 and are never emitted).
  std::vector<std::int32_t> ranks_;
  // fix_[block * nt_ + level]: bit l set when lane l must take the
  // triangle-LUT path at that level (rank > 1, or a LUT whose first entry
  // is not the slicer center); every other lane's decision is the slicer
  // center itself (see compile_flexcore).
  std::vector<std::uint8_t> fix_;

  // Expanded triangle LUT: entry [t * q + (k-1)] is base-order entry k
  // under dihedral transform t = swap*4 | flip_u*2 | flip_v.
  std::vector<std::int8_t> lut_di_, lut_dq_;

  // FCSD digit decode: powq_[d] = |Q|^d for the enumerated levels.
  std::size_t full_levels_ = 0;
  std::vector<std::size_t> powq_;

  const modulation::Constellation* c_ = nullptr;  ///< slice / exact order
  const core::OrderingLut* lut_ = nullptr;        ///< kGenericRank fallback
  core::InvalidEntryPolicy policy_ = core::InvalidEntryPolicy::kDeactivate;
};

/// The exact tier (bit-identical to the scalar reference walk).
using PathPlan = PathPlanT<double>;
/// The reduced-precision tier (paper's fixed-point datapath analogue).
using PathPlanF = PathPlanT<float>;

extern template class PathPlanT<double>;
extern template class PathPlanT<float>;

/// The quantized tier (":i16"): the paper's 16-bit FPGA datapath (§5.3,
/// Table 3) mapped onto CPU SIMD.  Same compile/evaluate contract as
/// PathPlanT, different number format:
///
///  * Channel state is stored as int16 SoA (R rows, R(i,i)*point tables,
///    constellation points) under per-plan scale factors computed at
///    compile (set_channel) time — power-of-two scales chosen so the whole
///    interference-cancellation recurrence is overflow-free in int32 and
///    the fractional resolution never exceeds the shared Q-format
///    (perfmodel::I16Format, Q4.11).  Halving the element width halves the
///    plan footprint and doubles the lanes per SIMD register vs fp32, so
///    blocks are kLanes = 16 paths wide.
///  * The per-level walk runs in 32-bit integer lanes: b accumulates exact
///    int32 products of int16 values, the effective point is an int32
///    product against the quantized 1/R(i,i), and the Euclidean metric
///    accumulates saturating in uint32.
///  * Slicing is LUT-compiled: compile() precomputes one 256-entry int8
///    slicer table per (plan, level) covering the reachable effective-point
///    range, so the runtime rounded-center divide/compare chain collapses
///    to shift + clamp + table index (out-of-coverage buckets hold a
///    sentinel that deactivates the lane / clamps the greedy FCSD slice).
///
/// Metrics are returned as doubles (raw accumulator * 2^-2F), so the grid
/// min-reduction and winner reconstruction are unchanged.  The tier is
/// integer end-to-end, hence bit-identical across ISAs and build flags —
/// accuracy vs fp64 is bounded by kI16SerTolerance, not bit-identity.
class PathPlanI16 {
 public:
  /// Paths per block: twice the fp tier (int32 accumulator lanes).
  static constexpr std::size_t kLanes = linalg::kSimdLanesI16;
  static constexpr std::size_t kMaxLevels = PathPlan::kMaxLevels;
  /// Entries per compiled per-level slicer table.
  static constexpr std::size_t kSlicerBuckets = 256;
  /// Slicer-table sentinel: effective point outside the table's coverage
  /// (deactivates the lane in FlexCore modes; clamps in FCSD greedy mode).
  static constexpr std::int8_t kSlicerInvalid =
      std::numeric_limits<std::int8_t>::min();
  /// Extended axis-index pad kept around the constellation in the slicer /
  /// PAM residual tables (LUT offsets reach at most a couple of steps
  /// outside before the bounds check kills the lane).
  static constexpr int kPamPad = 4;

  /// Same contracts as PathPlanT::compile_flexcore / compile_fcsd.
  void compile_flexcore(const linalg::CMat& r,
                        std::span<const core::RankedPath> paths,
                        const modulation::Constellation& c,
                        const core::OrderingLut& lut, bool exact_ordering,
                        core::InvalidEntryPolicy policy);
  void compile_fcsd(const linalg::CMat& r, std::size_t full_levels,
                    const modulation::Constellation& c);

  void clear() { nt_ = num_paths_ = 0; }
  bool compiled() const noexcept { return nt_ != 0; }
  std::size_t num_paths() const noexcept { return num_paths_; }
  std::size_t levels() const noexcept { return nt_; }

  /// Same contract as PathPlanT::path_metric_block; metrics are the
  /// quantized grid's distances (double-valued, +infinity for deactivated
  /// paths), suitable for the same min-reduction.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out) const;

  /// Heap bytes of the compiled plan (the footprint the tier halves).
  std::size_t footprint_bytes() const noexcept;

  // --- quantization introspection (tests / benches) ----------------------
  /// Fractional bits of the channel scale 2^F (R rows, rx tables, b).
  /// Capped at perfmodel's shared Q-format resolution.
  int frac_bits() const noexcept { return fbits_; }
  /// Fractional bits of the constellation-point scale 2^P.
  int point_bits() const noexcept { return pbits_; }
  /// Per-level fractional bits of the quantized 1/R(i,i).
  int rdi_bits(std::size_t level) const { return gbits_[level]; }
  /// Runs the compiled slicer table of `level` on an effective-point
  /// coordinate (value domain): the unclamped axis index the kernel would
  /// pick, or kSlicerInvalid when `eff` falls outside the table coverage.
  /// Exposed so tests can check golden patterns against hand-computed
  /// slices.
  int slicer_center(std::size_t level, double eff) const;

 private:
  enum class Mode : std::uint8_t { kLutRank, kGenericRank, kExactRank, kFcsd };

  void compile_channel(const linalg::CMat& r,
                       const modulation::Constellation& c,
                       bool with_diag_inverse);

  Mode mode_ = Mode::kLutRank;
  std::size_t nt_ = 0;
  std::size_t num_paths_ = 0;
  int q_ = 0;
  int side_ = 0;
  double scale_ = 0.0;
  double inv_scale_ = 0.0;

  // Per-plan quantization state.  fbits_ (F): channel scale, R rows / rx
  // tables / the cancellation accumulator b are value * 2^F; pbits_ (P):
  // point scale; ybar is quantized per call at 2^(F+P) so the j-loop's
  // int16*int16 products land on ybar's scale with no runtime shift.
  int fbits_ = 0;
  int pbits_ = 0;
  /// Quantized PAM half-step at 2^P: pt[a_re, a_im] = ((2 a_re -
  /// (side-1)) h, ...) exactly — the kernel's hot mode rebuilds recurrence
  /// symbols from sliced axis indices with this identity instead of
  /// gathering the table (keeps the decision-feedback chain in registers).
  std::int32_t pt_half_q_ = 0;
  double metric_unscale_ = 0.0;  ///< 2^-2F: raw uint32 metric -> double
  /// Saturation bound of the per-call ybar quantization (raw units at
  /// 2^(F+P)); part of the compile-time proof that the int32 recurrence
  /// cannot overflow.
  double ybar_cap_raw_ = 0.0;

  // Quantized R rows, split re/im, int16 raw values (see class comment).
  linalg::SplitVec<std::int16_t> r_q_;

  /// Per-level quantized complex row step rh = R(i,i) * scale * 2^F: the
  /// rx table is exactly affine in the doubled axis offsets with this
  /// step, which the kernel's hot mode exploits to rebuild the metric
  /// reference from sliced axis indices instead of gathering the row.
  std::vector<std::int32_t> rh_re_q_, rh_im_q_;

  // The quantized rx[i][x] = R(i,i)*point(x) and point tables, stored ONLY
  // packed: one int32 per symbol holding the (re, im) int16 pair (re low,
  // im high), so the table modes' decided-point gather is a single read
  // per lane per table and the unpack is two vector shifts.  The hot mode
  // never reads them (it rebuilds both values from rh / pt_half_q_).
  std::vector<std::int32_t> rx_pack_, pt_pack_;

  // Quantized 1/R(i,i): raw int16 pair at per-level scale 2^gbits_[i]
  // (a non-finite inverse — rank-deficient channel — compiles to raw 0,
  // which drives every slice out of coverage and deactivates the lane,
  // mirroring the fp tiers' NaN clamp).
  std::vector<std::int16_t> rdi_re_q_, rdi_im_q_;
  std::vector<int> gbits_;

  // LUT-compiled slicer, per level: bucket = (eff_raw >> shift) + 128,
  // clamped to [0, 255]; the int8 entry is the unclamped center axis index
  // or kSlicerInvalid.  eff_raw is at scale 2^(F + gbits_[level]).
  std::vector<int> slicer_shift_;
  std::vector<std::int8_t> slicer_;  // nt_ * kSlicerBuckets

  // Affine form of the compiled slicer with the complex 1/R(i,i) rotation
  // folded in, for the lane-vector rank-1 fast path: straight from the
  // int16-clamped cancellation value b, with no eff computation and no
  // table gather,
  //   ci = (b_re * slice_ar_[i] - b_im * slice_ai_[i] + slice_off_[i])
  //        >> slice_s_[i]
  //   cq = (b_re * slice_ai_[i] + b_im * slice_ar_[i] + slice_off_[i])
  //        >> slice_s_[i]
  // — the rounded-center rule as four multiplies and two shifts per lane
  // block.  ar/ai quantize Re/Im(1/R(i,i)) * inv_scale/2 / 2^F at 2^s with
  // |ar|, |ai| <= 2^13, so |b * a| sums below 2^30 and the chain cannot
  // wrap (b is int16-clamped); slice_off_ = side * 2^(s-1) folds the
  // (side-1)/2 center offset and the round-half-up bias into the final
  // arithmetic shift.  slice_live_[i] is 0 on rank-deficient (or
  // absurdly ill-scaled) levels — the vector path's equivalent of the
  // all-sentinel table (every lane dies at that level).
  std::vector<std::int32_t> slice_ar_, slice_ai_, slice_off_, slice_s_;
  std::vector<std::uint8_t> slice_live_;

  // PAM residual tables for the triangle classification, per level at the
  // eff_raw scale, over the padded axis range [-kPamPad, side + kPamPad]:
  // pam_q_[level * pam_span_ + (a + kPamPad)] ~= pam_level(a) * 2^(F+G_i),
  // saturated to +-2^30 (saturated entries are unreachable: eff_raw itself
  // is bounded by 2*kMax^2).
  std::vector<std::int32_t> pam_q_;
  int pam_span_ = 0;

  // FlexCore selector table, path-major-blocked exactly like PathPlanT but
  // kLanes = 16 wide and int16 entries (ranks <= 256).
  std::vector<std::int16_t> ranks_;
  // fix_mask_[block * nt_ + level]: bit l set when lane l must take the
  // scalar table path at that level (rank > 1, or a LUT whose first entry
  // is not the slicer center) — PathPlanT's fix_ at twice the lane count.
  std::vector<std::uint32_t> fix_mask_;
  std::vector<std::int8_t> lut_di_, lut_dq_;

  std::size_t full_levels_ = 0;
  std::vector<std::size_t> powq_;

  const modulation::Constellation* c_ = nullptr;
  const core::OrderingLut* lut_ = nullptr;
  core::InvalidEntryPolicy policy_ = core::InvalidEntryPolicy::kDeactivate;
};

/// The compiled plans of one path-parallel detector: the exact plan
/// always (every exact walk runs on it), plus the configured reduced
/// tier's plan (the other reduced plan stays empty, so stale state can
/// never be evaluated).
class TieredPlans {
 public:
  explicit TieredPlans(Precision precision) : precision_(precision) {}

  /// Recompiles every plan the tier needs through `fn(plan)`, one call per
  /// plan (PathPlan first, then PathPlanF or PathPlanI16).
  template <typename Compile>
  void compile(Compile&& fn) {
    fn(exact_);
    fp32_.clear();
    i16_.clear();
    if (precision_ == Precision::kInt16) {
      fn(i16_);
    } else if (precision_ == Precision::kFloat32) {
      fn(fp32_);
    }
  }

  Precision precision() const noexcept { return precision_; }
  const PathPlan& exact() const noexcept { return exact_; }
  const PathPlanI16& i16() const noexcept { return i16_; }

  /// The grids' block kernel, in the configured tier.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out) const {
    if (precision_ == Precision::kInt16) {
      i16_.path_metric_block(ybar, first_path, n_paths, out);
    } else if (precision_ == Precision::kFloat32) {
      fp32_.path_metric_block(ybar, first_path, n_paths, out);
    } else {
      exact_.path_metric_block(ybar, first_path, n_paths, out);
    }
  }

  /// Heap footprint of every compiled plan: the exact plan plus, in a
  /// reduced tier, that tier's plan (reported by bench/micro_kernels).
  std::size_t footprint_bytes() const noexcept {
    return exact_.footprint_bytes() + fp32_.footprint_bytes() +
           i16_.footprint_bytes();
  }

 private:
  Precision precision_;
  PathPlan exact_;
  PathPlanF fp32_;
  PathPlanI16 i16_;
};

}  // namespace flexcore::detect
