// The rotation kernel out = m^H v (linalg::hermitian_mul_into), one copy
// per x86-64 ISA (linalg/hermitian_mul_kernel.inc), dispatched through the
// process-wide kernel_copy() (linalg/kernel_isa.h).
#include <cassert>
#include <cstddef>
#include <cstring>
#include <utility>

#include "linalg/kernel_copies.h"
#include "linalg/kernel_isa.h"
#include "linalg/matrix.h"
#include "parallel/hot_path.h"

namespace flexcore::linalg {

namespace {

#if FLEXCORE_KERNEL_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("sse4.1")
#define FLEXCORE_ISA_NS isa_sse41
#define FLEXCORE_ISA_VEC_BYTES 16
#include "linalg/hermitian_mul_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
#define FLEXCORE_ISA_NS isa_avx2
#define FLEXCORE_ISA_VEC_BYTES 32
#include "linalg/hermitian_mul_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define FLEXCORE_ISA_NS isa_avx512
#define FLEXCORE_ISA_VEC_BYTES 64
#include "linalg/hermitian_mul_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS
#pragma GCC pop_options
#endif  // FLEXCORE_KERNEL_MULTIVERSION

#define FLEXCORE_ISA_NS isa_base
#define FLEXCORE_ISA_VEC_BYTES FLEXCORE_KERNEL_BASE_VEC_BYTES
#include "linalg/hermitian_mul_kernel.inc"
#undef FLEXCORE_ISA_VEC_BYTES
#undef FLEXCORE_ISA_NS

using RotateFn = void (*)(const double*, std::size_t, std::size_t,
                          const double*, double*);

RotateFn pick_rotate() {
#if FLEXCORE_KERNEL_MULTIVERSION
  constexpr RotateFn copies[] = {isa_base::hermitian_mul,
                                 isa_sse41::hermitian_mul,
                                 isa_avx2::hermitian_mul,
                                 isa_avx512::hermitian_mul};
#else
  constexpr RotateFn copies[] = {isa_base::hermitian_mul};
#endif
  return copies[static_cast<std::size_t>(kernel_copy())];
}

const RotateFn g_rotate = pick_rotate();

}  // namespace

FLEXCORE_HOT_PATH
void hermitian_mul_into(CMatView m, std::span<const cplx> v,
                        std::span<cplx> out) {
  assert(out.size() == m.cols() && v.size() == m.rows());
  // std::complex<double> is array-compatible with double[2].
  g_rotate(reinterpret_cast<const double*>(m.data()), m.rows(), m.cols(),
           reinterpret_cast<const double*>(v.data()),
           reinterpret_cast<double*>(out.data()));
}

}  // namespace flexcore::linalg
