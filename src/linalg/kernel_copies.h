// Build scaffolding shared by the sources that compile per-ISA lane-kernel
// copies (linalg/hermitian_mul.cpp, detect/path_kernels.cpp) and by the
// copy choice itself (linalg/kernel_isa.cpp): which copies a build
// compiles, how a kernel body is inlined into each copy, and the baseline
// copy's vector width.  Include it only there.
#pragma once

// Sanitized builds compile only the baseline copy: same code, fully
// instrumented.
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

/// 1 when the kernel sources compile the SSE4.1, AVX2 and AVX-512F copies
/// beside the baseline one (x86-64, unsanitized).
#if defined(__x86_64__) && !FLEXCORE_KERNEL_SANITIZED
#define FLEXCORE_KERNEL_MULTIVERSION 1
#else
#define FLEXCORE_KERNEL_MULTIVERSION 0
#endif

// A kernel body must inline into each per-ISA wrapper so it is lowered
// with that wrapper's vector width (an out-of-line copy would be
// baseline-lowered and defeat the dispatch).
#define FLEXCORE_KERNEL_FORCE_INLINE inline __attribute__((always_inline))

/// Native vector bytes of the baseline copy: the build's own width
/// (FLEXCORE_NATIVE_ARCH raises it).
#if defined(__AVX512F__)
#define FLEXCORE_KERNEL_BASE_VEC_BYTES 64
#elif defined(__AVX__)
#define FLEXCORE_KERNEL_BASE_VEC_BYTES 32
#else
#define FLEXCORE_KERNEL_BASE_VEC_BYTES 16
#endif
