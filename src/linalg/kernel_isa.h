// The one startup choice of the per-ISA lane-kernel copy.
//
// A lane kernel lives or dies by its register width, so the library's
// lane kernels — linalg's Q^H y rotation (hermitian_mul_into) and detect's
// exact path walk and int16 kernel (detect/path_kernels.h) — are compiled
// once per x86-64 ISA tier: baseline (SSE2), SSE4.1, AVX2 and AVX-512F.
// Each kernel family keeps a table of its copies indexed by KernelIsa, and
// every table reads kernel_copy(), so one decision selects every lane
// kernel of the process.  Every copy computes bit-identical results (the
// i16 datapath is pure integer, the fp kernels are element-wise IEEE
// arithmetic with FMA contraction off, see CMakeLists.txt), so the choice
// cannot change any output.  linalg/kernel_copies.h holds the build
// scaffolding the kernel sources share.
#pragma once

#include <cstdint>

namespace flexcore::linalg {

/// The per-ISA copies of the lane kernels, narrowest first.
enum class KernelIsa : std::uint8_t { kBase, kSse41, kAvx2, kAvx512 };

/// The copy every lane kernel of this process runs.  Picked once, on first
/// use: the widest copy the build and CPU support.  The FLEXCORE_I16_ISA
/// environment variable ("base", "sse41", "avx2", "avx512") pins a copy —
/// for benchmarking and the cross-ISA equivalence tests, not correctness;
/// a pin that names no copy this build and CPU can run is reported once on
/// stderr and ignored.
KernelIsa kernel_copy() noexcept;

/// Name of kernel_copy(): "base", "sse41", "avx2" or "avx512".
const char* kernel_isa() noexcept;

}  // namespace flexcore::linalg
