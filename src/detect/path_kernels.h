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
//    into a PathPlan: one selector code per (path, level) laid out
//    path-major-blocked (blocks of kLanes paths, codes of one level
//    contiguous across the block's lanes) — the base-triangle LUT offset
//    of the path's rank there, or an invalid-rank sentinel — plus the
//    channel state (R rows and 1/R(i,i)) split into re/im
//    structure-of-arrays.
//  * path_metric_block(ybar, first, n, out) then evaluates whole blocks of
//    paths per call: lane = path, the per-level interference-cancellation
//    loop written as split real/imag lane-register arithmetic.  Every lane
//    decides in the registers: the rounded slicer center, the dihedral
//    transform picked from the residual by lane selects, the transformed
//    LUT offset and the bounds test that deactivates a lane, then the
//    decided point and its metric reference rebuilt from the axis indices.
//    A rank is data (a selector code), not control flow.  The FCSD decides
//    in the registers too: an enumerated level's symbol is a digit of the
//    lane's path index, a greedy level's the SIC walk's clamped slice of
//    b / R(i,i).  Only the two ordering ablations (skip-to-valid, exact
//    sort) decide per lane, on staged arrays.
//  * The walk, like the int16 kernel, is compiled once per x86-64 ISA
//    (baseline, SSE4.1, AVX2, AVX-512F), each copy at its native register
//    width, and dispatched by the process-wide startup choice that also
//    selects the Q^H y rotation's copy (linalg/kernel_isa.h; kernel_isa()
//    names it).  A call keeps four native-width chains in flight (4 x the
//    copy's doubles per call, never less than one block), so one lane's
//    decision chain overlaps the others'.
//  * walk_paths fills the same lanes with (rotated vector, path) pairs of
//    one plan instead — winner reconstruction walks a group of vectors'
//    winners in one call, since a single walk is a latency-bound chain
//    that only other lanes' walks amortize.
//  * scan_trie puts one channel's vectors in the lanes instead (up to
//    kTrieLanes = 8): the LUT mode also compiles
//    the path set into a shared-prefix trie (its leaves in DFS preorder),
//    and one walk over it evaluates every prefix the paths share once per
//    vector, where the block scan evaluates it once per path.  Each
//    (vector, path) still runs its block-walk lane's operations in order,
//    so the verdicts are bitwise scan_paths'.  The frame grid takes the
//    trie walk for a group when trie_wins() estimates it faster (massive
//    MIMO's hardened channels, whose paths share most of their prefixes);
//    everything else keeps the block scan.
//
// PathPlan (fp64) is the library's one exact per-path walk: the grids,
// winner reconstruction, sequential detect(), soft output, the SIC
// fallback and the quantized tier's exact rescue all run it (walk_path /
// walk_sic are one-lane calls of the lane-batched walk).  It is
// bit-identical to the scalar std::complex reference walk in
// tests/reference_walk.h — same operations in the same order on the same
// values, in every ISA copy and every lane of a batched walk, verified by
// tests/kernel_test.cpp (the build turns FMA contraction off, so no copy
// fuses a multiply-add the reference rounds twice).
// PathPlanI16 is the one reduced tier: the paper's 16-bit fixed-point
// FPGA datapath (selected by the ":i16" registry spec suffix; see README
// "Kernel engine & precision tiers" for when it is safe).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/ordering_lut.h"
#include "core/preprocessing.h"
#include "detect/detector.h"
#include "linalg/kernel_isa.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "modulation/constellation.h"

namespace flexcore::detect {

/// Compute tier of the path grids.  kFloat64 is the exact tier; kInt16 runs
/// the quantized fixed-point tier (PathPlanI16) — winner reconstruction and
/// everything outside the grid stays double in both.
enum class Precision {
  kFloat64,
  kInt16,
};

/// Registry spec suffix of a tier ("" for fp64, ":i16" for the quantized
/// tier), the grammar api::make_detector parses and Detector::name
/// round-trips.
constexpr const char* precision_suffix(Precision p) noexcept {
  return p == Precision::kInt16 ? ":i16" : "";
}

/// Documented accuracy gate of the ":i16" tier: measured 64-QAM SER of the
/// quantized grid may exceed the fp64 grid's SER by at most this, absolute,
/// on the standard sweeps.  Enforced by tests/kernel_test.cpp,
/// bench/ablation_fixed_point.cpp and bench/fig17_kernel_engine.cpp.
inline constexpr double kI16SerTolerance = 1e-2;

/// Throws std::invalid_argument naming the path kernels' 32-stream limit
/// (PathPlan::kMaxLevels) unless 1 <= nt <= 32.  Detectors call it before
/// touching any state, so a refused channel leaves the previous one
/// installed.
void require_kernel_streams(const char* who, std::size_t nt);

/// |Q|^L, the FCSD's path count, for a constellation of order `q` and L =
/// `full_levels` enumerated levels.  Throws std::invalid_argument naming L
/// and |Q|, prefixed by `who`, when it does not fit std::size_t (64^11 =
/// 2^66 would wrap to 0 paths).
std::size_t fcsd_num_paths(const char* who, std::size_t q,
                           std::size_t full_levels);

/// Name of the per-ISA kernel copy this process dispatched: "base",
/// "sse41", "avx2" or "avx512".  One startup choice (linalg/kernel_isa.h)
/// selects every lane kernel — the exact fp walk, the i16 kernel and the
/// Q^H y rotation; the FLEXCORE_I16_ISA environment variable pins it.
using linalg::kernel_isa;

/// The raw view of a compiled PathPlan that the per-ISA walk copies read
/// (defined in path_kernels.cpp).
struct FpKernelState;

/// A compiled, SoA-blocked path set for one installed channel.  Compile
/// once per set_channel (cheap next to QR + path selection), evaluate with
/// path_metric_block from any thread — the plan is immutable after
/// compilation and evaluation touches only stack scratch.
class PathPlan {
 public:
  /// Paths per block (lanes per path_metric_block call).
  static constexpr std::size_t kLanes = linalg::kSimdLanes;
  /// Tree-depth cap of every path kernel (Nt <= 32).
  static constexpr std::size_t kMaxLevels = 32;
  /// Vectors one trie walk holds in its lanes (a native register or more
  /// in every ISA copy).  The frame grid groups a trie channel's vectors
  /// by it.
  static constexpr std::size_t kTrieLanes = kLanes;
  /// trie_wins' weight: the time of one trie node over kTrieLanes
  /// vectors, in kLanes-path block-levels of the block scan.  The trie
  /// rows of bench/fig17_kernel_engine.cpp measure it at the serving
  /// shapes; on the 4-vCPU AVX-512 guest a node cost 1.1-1.2 block-levels
  /// at massive's 16x8 / 16-QAM and 1.4-1.8 at coherent's 12x12 / 64-QAM,
  /// where deeper cancellations and bushier roots make each node dearer.
  /// The weight is the dear end, so a channel takes the trie only where it
  /// wins at that price.
  static constexpr double kTrieNodeCost = 1.75;

  /// `with_trie` false leaves out the LUT mode's path trie (trie_wins()
  /// stays false, and scan_trie must not be called): the ":i16" tier's
  /// exact plan only ever walks single paths.
  explicit PathPlan(bool with_trie = true) : with_trie_(with_trie) {}

  /// Compiles a FlexCore path set: `paths[p].p[i]` is the 1-based closeness
  /// rank at level i.  `exact_ordering` selects the exhaustive-sort
  /// ablation instead of the triangle LUT; `policy` is the detector's
  /// invalid-entry policy (kDeactivate compiles to the in-lane LUT walk,
  /// kSkipToValid falls back to per-lane OrderingLut calls).  `lut` must
  /// outlive the plan.  Throws std::invalid_argument, before touching the
  /// plan, when a path does not hold exactly r.cols() ranks.
  void compile_flexcore(const linalg::CMat& r,
                        std::span<const core::RankedPath> paths,
                        const modulation::Constellation& c,
                        const core::OrderingLut& lut, bool exact_ordering,
                        core::InvalidEntryPolicy policy);

  /// Compiles the FCSD path set: |Q|^full_levels paths whose base-|Q|
  /// digits enumerate the top levels (decoded on the fly — the selector
  /// table would dwarf the channel state for L = 2) and whose remaining
  /// levels extend greedily by nearest-point slicing.  Throws
  /// std::invalid_argument, before touching the plan, when full_levels
  /// exceeds r.cols(), |Q|^full_levels does not fit std::size_t, or an
  /// R(i,i) has a nonzero imaginary part.
  void compile_fcsd(const linalg::CMat& r, std::size_t full_levels,
                    const modulation::Constellation& c);

  void clear() { nt_ = num_paths_ = 0; }
  bool compiled() const noexcept { return nt_ != 0; }
  std::size_t num_paths() const noexcept { return num_paths_; }
  std::size_t levels() const noexcept { return nt_; }

  /// Evaluates paths [first_path, first_path + n_paths) against the rotated
  /// vector `ybar` (length levels()), writing one Euclidean metric per path
  /// to `out` (+infinity for deactivated paths).  Bitwise equal to the
  /// scalar reference walk per path.  Whole blocks are
  /// evaluated internally, so aligning first_path to kLanes avoids wasted
  /// lanes; any alignment is correct.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out) const;

  /// Lane-batched exact walks: lane k walks path `paths[k]` of its own
  /// rotated vector ybars[k * L, (k + 1) * L) (L = levels()), writing its
  /// metric to metrics[k] (+infinity when the path is deactivated) and its
  /// per-level symbol decisions (tree order) to symbols[k * L, (k+1) * L)
  /// — partial, and 0 from the deactivating level on, for a dead lane.
  /// Lanes of one call may mix vectors and paths freely; each metric is
  /// bitwise the one path_metric_block reports for that (vector, path).
  /// Runs in the dispatched copy at native width, up to walk_lanes() lanes
  /// per internal call, so a group of winners shares the decision chains
  /// of one call.
  void walk_paths(std::span<const linalg::cplx> ybars,
                  std::span<const std::size_t> paths,
                  std::span<double> metrics, std::span<int> symbols) const;

  /// One lane of walk_paths: path `path` of `ybar`, symbols (length
  /// levels()) in tree order; returns the metric.
  double walk_path(std::span<const linalg::cplx> ybar, std::size_t path,
                   std::span<int> symbols) const;

  /// Lane-batched plain SIC (FlexCore plans only): the walk_paths walk at
  /// rank 1 on every level, with the slice clamped into the constellation
  /// instead of deactivating the lane — always valid.  FlexCore's fallback
  /// when every selected path of a vector is deactivated.  Lane k is the
  /// rotated vector ybars[k * L, (k + 1) * L); metrics has one entry per
  /// lane and symbols L per lane, as in walk_paths.
  void walk_sic(std::span<const linalg::cplx> ybars, std::span<double> metrics,
                std::span<int> symbols) const;

  /// One lane of the batched SIC walk; returns the metric.
  double walk_sic(std::span<const linalg::cplx> ybar,
                  std::span<int> symbols) const;

  /// Lanes one internal walk_paths / walk_sic call fills in the dispatched
  /// copy: four native registers of doubles (8 on the SSE copies, 16 on
  /// AVX2, 32 on AVX-512).  Winner reconstruction groups vectors by it.
  static std::size_t walk_lanes() noexcept;

  /// Nodes of the path trie the LUT mode compiles: one per distinct prefix
  /// (root level first) of the paths whose every rank is valid.  0 in the
  /// other modes, without the trie, and when every path holds an invalid
  /// rank.
  std::size_t trie_nodes() const noexcept { return trie_size_; }

  /// The trie walk's cost estimate against the block scan for a group of
  /// `n` vectors of this plan: true when ceil(n / kTrieLanes) walks of
  /// trie_nodes() nodes, each node weighted kTrieNodeCost block-levels,
  /// cost less than n scans of ceil(num_paths() / kLanes) blocks over
  /// levels() levels.  Always false outside the LUT mode and without the
  /// trie.
  bool trie_wins(std::size_t n) const noexcept;

  /// Best path and metric of each of the rotated vectors ybars[k * L,
  /// (k + 1) * L) (L = levels()) over every path of the plan, through the
  /// trie walk (LUT mode only): each vector's walks share every prefix the
  /// paths share, with up to kTrieLanes vectors in the lanes.  Each
  /// (vector, path) runs the operations of its block-walk lane in the same
  /// order, and ties go to the lowest path index, so the verdicts are
  /// bitwise scan_paths' over path_metric_block — path 0 at +infinity when
  /// every path is deactivated.
  void scan_trie(std::span<const linalg::cplx> ybars,
                 std::span<std::size_t> best_path,
                 std::span<double> best_metric) const;

  /// The paper's Table 2 cost of `n_paths` full walks, with
  /// paths_evaluated = n_paths: a closed form from the plan's shape that
  /// counts every level of every path, as one processing element per path
  /// would run it.  It is the per-path accounting, not the work the CPU
  /// grid does: a deactivated lane computes beside its block, and the trie
  /// walk evaluates a prefix the paths share once per vector.
  DetectionStats walk_stats(std::size_t n_paths) const noexcept;

  /// Heap bytes of the compiled plan (channel state + selector tables),
  /// reported by bench/micro_kernels.cpp.
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
  /// The LUT mode's path compile with the trie: fills sel_, packing the
  /// paths' rank keys in the same pass, sorts the keys and takes each
  /// leaf's divergence depth by XOR.  Allocation-free once the plan and
  /// the calling thread's scratch are warm.
  void compile_trie(std::span<const core::RankedPath> paths);
  /// Copies the plan's scalars and table pointers into the walk's kernel
  /// state (once per call; valid while the plan is unchanged).
  void fill_kernel_state(FpKernelState* st) const noexcept;

  Mode mode_ = Mode::kLutRank;
  std::size_t nt_ = 0;         ///< levels (0 = not compiled)
  std::size_t num_paths_ = 0;  ///< paths the plan covers
  int q_ = 0;                  ///< constellation order
  int side_ = 0;               ///< sqrt(order)
  double scale_ = 0.0;         ///< constellation PAM half-step
  double inv_scale_ = 0.0;     ///< Constellation::inv_scale() (slicer)

  // Channel state, split re/im.  R rows are stored dense row-major (only
  // the upper triangle is read); rdi is 1/R(i,i) (FlexCore plans).
  linalg::SplitVec r_, rdi_;

  // FlexCore selector table, path-major-blocked:
  //   sel_[(block * nt_ + level) * kLanes + lane]
  // is path block*kLanes+lane's selector code at `level` (tail lanes of the
  // last block hold rank 1's code and are never emitted).  The LUT mode stores
  // the base-triangle offset of the rank (selector_code); the ablation
  // modes store the rank itself, clamped to [0, |Q| + 1].
  std::vector<std::uint16_t> sel_;

  // The LUT mode's path trie, as its trie_leaves_ leaves in DFS preorder
  // (root level first, children by ascending rank): trie_leaf_[k] is leaf
  // k's path (the lowest index of the paths it ends) and trie_from_[k] the
  // depth where that path leaves leaf k - 1's.  Leaf k adds the nodes at
  // depths trie_from_[k] .. levels() - 1, each reading its selector code
  // from sel_; the one at trie_from_[k] is a sibling of leaf k - 1's node
  // there, every deeper one the first child of its parent.  trie_size_
  // counts the nodes.  Both arrays keep the most live paths a compile has
  // had, so a recompile allocates nothing once warm.
  bool with_trie_ = true;
  std::vector<std::uint32_t> trie_leaf_;
  std::vector<std::uint8_t> trie_from_;
  std::size_t trie_leaves_ = 0;
  std::size_t trie_size_ = 0;

  std::size_t full_levels_ = 0;  ///< the FCSD's enumerated levels

  const modulation::Constellation* c_ = nullptr;  ///< slice / exact order
  const core::OrderingLut* lut_ = nullptr;        ///< kGenericRank fallback
  core::InvalidEntryPolicy policy_ = core::InvalidEntryPolicy::kDeactivate;
};

/// The quantized tier (":i16"): the paper's 16-bit FPGA datapath (§5.3,
/// Table 3) mapped onto CPU SIMD.  Same compile/evaluate contract as
/// PathPlan, different number format:
///
///  * Channel state is stored as int16 SoA (R rows, and for the FCSD the
///    R(i,i)*point and point tables) under per-plan scale factors computed at
///    compile (set_channel) time — power-of-two scales chosen so the whole
///    interference-cancellation recurrence is overflow-free in int32 and
///    the fractional resolution never exceeds the shared Q-format
///    (perfmodel::I16Format, Q4.11).  The stored state is a quarter of the
///    fp64 plan's element width, and a register holds twice as many int32
///    lanes as doubles, so blocks are kLanes = 16 paths wide.
///  * The per-level walk runs in 32-bit integer lanes: b accumulates exact
///    int32 products of int16 values, the effective point is an int32
///    product against the quantized 1/R(i,i), and the Euclidean metric
///    accumulates saturating in uint32.
///  * Slicing is LUT-compiled: compile() evaluates one 256-bucket slicer
///    table per (plan, level) covering the reachable effective-point
///    range, so the runtime rounded-center divide/compare chain collapses
///    to shift + bucket arithmetic (out-of-coverage buckets are a sentinel
///    that deactivates the lane / clamps the greedy FCSD slice).  No plan
///    stores the table: it is compiled into an exact affine form over its
///    in-coverage buckets, which rank > 1 lanes and FCSD's greedy slice
///    read.  Rank-1 lanes slice through a second affine form with
///    1/R(i,i) folded in, and the triangle classification's PAM reference
///    is an affine form too — every LUT-rank lane decides in the
///    registers, at the copy's native int32 width.
///
/// Metrics are returned as doubles (raw accumulator * 2^-2F), so the grid
/// min-reduction and winner reconstruction are unchanged.  The tier is
/// integer end-to-end, hence bit-identical across ISAs and build flags —
/// accuracy vs fp64 is bounded by kI16SerTolerance, not bit-identity.
class PathPlanI16 {
 public:
  /// Paths per block: twice the fp64 plan's (int32 accumulator lanes).
  static constexpr std::size_t kLanes = linalg::kSimdLanesI16;
  static constexpr std::size_t kMaxLevels = PathPlan::kMaxLevels;
  /// Buckets of each level's compiled slicer.
  static constexpr std::size_t kSlicerBuckets = 256;
  /// Slicer sentinel: effective point outside the slicer's coverage
  /// (deactivates the lane in FlexCore modes; clamps in FCSD greedy mode).
  static constexpr std::int8_t kSlicerInvalid =
      std::numeric_limits<std::int8_t>::min();
  /// Extended axis-index pad kept around the constellation in the slicer
  /// coverage and the PAM reference (LUT offsets reach at most a couple of
  /// steps outside before the bounds check kills the lane).
  static constexpr int kPamPad = 4;

  /// Same contracts as PathPlan::compile_flexcore / compile_fcsd, but the
  /// tier compiles only the LUT mode: compile_flexcore also throws
  /// std::invalid_argument, before touching the plan, for the exact-sort
  /// or skip-to-valid ablation.
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

  /// Same contract as PathPlan::path_metric_block; metrics are the
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
  /// Runs the compiled slicer of `level` — the affine form rank > 1 lanes
  /// and FCSD's greedy slice read — on an effective-point coordinate
  /// (value domain): the unclamped axis index the kernel would pick, or
  /// kSlicerInvalid when `eff` falls outside the slicer's coverage.
  /// Exposed so tests can check golden patterns against hand-computed
  /// slices.  Throws std::invalid_argument unless level < levels().
  int slicer_center(std::size_t level, double eff) const;

 private:
  /// `with_tables` compiles rx_pack_ / pt_pack_, which only the FCSD reads.
  void compile_channel(const linalg::CMat& r,
                       const modulation::Constellation& c, bool with_tables);
  /// Compiles level `level`'s slicer table `tab` (kSlicerBuckets entries)
  /// into tab_c_ .. tab_hi_; `kappa` is the table's axis steps per bucket.
  void fit_table_slicer(std::size_t level, double kappa, std::int8_t* tab);
  /// Compiles level `level`'s PAM reference into pam_e_ .. pam_wide_; `x`
  /// is the PAM half-step at eff's scale, `erx_max` the largest |eff| an
  /// in-coverage lane can hold there.
  void fit_pam_row(std::size_t level, double x, double erx_max);

  bool fcsd_ = false;  ///< the FCSD plan (else FlexCore's LUT mode)
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
  /// (side-1)) h, ...) exactly — the kernel's LUT mode rebuilds recurrence
  /// symbols from sliced axis indices with this identity instead of
  /// gathering the table (keeps the decision-feedback chain in registers).
  std::int32_t pt_half_q_ = 0;
  double metric_unscale_ = 0.0;  ///< 2^-2F: raw uint32 metric -> double
  /// Saturation bound of the per-call ybar quantization (raw units at
  /// 2^(F+P)); part of the compile-time proof that the int32 recurrence
  /// cannot overflow.
  double ybar_cap_raw_ = 0.0;

  // Quantized R rows, split re/im, int16 raw values (see class comment).
  std::vector<std::int16_t> r_re_q_, r_im_q_;

  /// Per-level quantized complex row step rh = R(i,i) * scale * 2^F: the
  /// rx table is exactly affine in the doubled axis offsets with this
  /// step, which the kernel's LUT mode exploits to rebuild the metric
  /// reference from sliced axis indices instead of gathering the row.
  std::vector<std::int32_t> rh_re_q_, rh_im_q_;

  // The FCSD's quantized rx[i][x] = R(i,i)*point(x) and point tables,
  // stored ONLY packed: one int32 per symbol holding the (re, im) int16
  // pair (re low, im high), so the decided-point gather is a single read
  // per lane per table and the unpack is two vector shifts.  Empty in the
  // LUT mode, which rebuilds both values from rh / pt_half_q_.
  std::vector<std::int32_t> rx_pack_, pt_pack_;

  // Quantized 1/R(i,i): raw int16 pair at per-level scale 2^gbits_[i]
  // (a non-finite inverse — rank-deficient channel — compiles to raw 0,
  // which drives every slice out of coverage and deactivates the lane,
  // mirroring the fp walk's NaN clamp).
  std::vector<std::int16_t> rdi_re_q_, rdi_im_q_;
  std::vector<int> gbits_;

  // LUT-compiled slicer, per level: bucket = (eff_raw >> shift) + 128,
  // eff_raw at scale 2^(F + gbits_[level]); the table over the buckets
  // (the unclamped center axis index, or kSlicerInvalid) is kept only in
  // its affine form, tab_c_ .. tab_hi_ below.
  std::vector<int> slicer_shift_;

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

  // The table slicer in affine form, for rank > 1 lanes (which keep the
  // table slicer's center; rank-1 lanes keep the rotation-folded form
  // above) and FCSD's greedy slice: per level, the in-coverage buckets are
  // [tab_lo_, tab_hi_] (empty on a rank-deficient level; every other
  // bucket is the sentinel), and on them the table entry is exactly
  //   (bucket * tab_c_ + tab_d_) >> tab_s_,
  // checked against every in-coverage bucket at compile time.
  std::vector<std::int32_t> tab_c_, tab_d_, tab_s_, tab_lo_, tab_hi_;

  // PAM reference of the triangle classification, per level at the
  // eff_raw scale, as lane arithmetic instead of a table: for an
  // in-coverage center a in (-kPamPad, side + kPamPad),
  //   pam(a) = pam_e_ + (a - side/2) * pam_p_
  //            + (((a + kPamPad - 1) * pam_f_ + pam_d_) >> pam_s_)
  // ~= pam_level(a) * 2^(F+G_i), saturated to +-2^30 (see fit_pam_row).
  // pam_wide_[level] is 1 when erx - pam might not fit int32 there
  // (128 * 2^shift + max|pam| >= 2^31, or a saturated entry), and the
  // kernel then forms the reference and residuals in 64-bit lanes.  A
  // saturated entry is reachable on tall channels (see fit_pam_row), and
  // int32 lanes would classify such a lane against the unsaturated value.
  std::vector<std::int64_t> pam_e_, pam_p_;
  std::vector<std::int32_t> pam_f_, pam_d_, pam_s_;
  std::vector<std::uint8_t> pam_wide_;

  // FlexCore selector table, path-major-blocked exactly like PathPlan but
  // kLanes = 16 wide: the same selector codes.
  std::vector<std::uint16_t> sel_;

  std::size_t full_levels_ = 0;  ///< the FCSD's enumerated levels
};

/// The compiled plans of one path-parallel detector: the exact plan
/// always (every exact walk runs on it), plus the i16 plan in the ":i16"
/// tier (it stays empty in fp64, so stale state can never be evaluated).
class TieredPlans {
 public:
  explicit TieredPlans(Precision precision)
      : precision_(precision), exact_(precision == Precision::kFloat64) {}

  /// Recompiles every plan the tier needs through `fn(plan)`, one call per
  /// plan (PathPlan first, then PathPlanI16 in the ":i16" tier).
  template <typename Compile>
  void compile(Compile&& fn) {
    fn(exact_);
    i16_.clear();
    if (precision_ == Precision::kInt16) fn(i16_);
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
    } else {
      exact_.path_metric_block(ybar, first_path, n_paths, out);
    }
  }

  /// Heap footprint of every compiled plan: the exact plan plus, in the
  /// ":i16" tier, the i16 plan (reported by bench/micro_kernels).
  std::size_t footprint_bytes() const noexcept {
    return exact_.footprint_bytes() + i16_.footprint_bytes();
  }

 private:
  Precision precision_;
  PathPlan exact_;
  PathPlanI16 i16_;
};

}  // namespace flexcore::detect
