#include "linalg/kernel_isa.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "linalg/kernel_copies.h"

namespace flexcore::linalg {

namespace {

constexpr const char* kIsaNames[] = {"base", "sse41", "avx2", "avx512"};

/// Explicit dispatch rather than attribute((target_clones)): the ifunc
/// machinery was observed picking a narrow clone on some loaders, and a
/// function pointer is inspectable.
KernelIsa pick_copy() {
#if FLEXCORE_KERNEL_MULTIVERSION
  __builtin_cpu_init();
  const bool runs[] = {true, __builtin_cpu_supports("sse4.1") != 0,
                       __builtin_cpu_supports("avx2") != 0,
                       __builtin_cpu_supports("avx512f") != 0};
#else
  const bool runs[] = {true};
#endif
  const std::size_t n = std::size(runs);
  std::size_t pick = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (runs[k]) pick = k;  // ascending width: the last runnable is widest
  }
  if (const char* pin = std::getenv("FLEXCORE_I16_ISA")) {
    std::size_t k = 0;
    while (k < n && std::strcmp(pin, kIsaNames[k]) != 0) ++k;
    if (k < n && runs[k]) {
      pick = k;
    } else {
      std::fprintf(stderr,
                   "flexcore: FLEXCORE_I16_ISA=%s names no kernel copy this "
                   "build and CPU can run; dispatching %s\n",
                   pin, kIsaNames[pick]);
    }
  }
  return static_cast<KernelIsa>(pick);
}

}  // namespace

KernelIsa kernel_copy() noexcept {
  // A function-local static: the kernel tables of other translation units
  // read it during their own static initialization.
  static const KernelIsa copy = pick_copy();
  return copy;
}

const char* kernel_isa() noexcept {
  return kIsaNames[static_cast<std::size_t>(kernel_copy())];
}

}  // namespace flexcore::linalg
