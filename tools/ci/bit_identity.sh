#!/usr/bin/env bash
# Per-copy bit-identity suites of the lane kernels.
#
#   tools/ci/bit_identity.sh <build-dir>
#   FLEXCORE_I16_ISA=<base|sse41|avx2|avx512> tools/ci/bit_identity.sh <build-dir>
#
# The lane kernels (the exact fp64 walk, its lane-batched winner walks and
# the frame grid's trie walk, the i16 kernel, the Q^H y rotation and the
# MGS core) ship one copy per x86-64 ISA, and one startup choice picks the
# copy of all of them; FLEXCORE_I16_ISA pins it.  Run once per pin: the
# fp64 suites and the QR suites must stay bit-identical to the scalar
# references, the i16 golden hash must hold, and the detectors' batch
# loops and frame branches, which call those kernels, must match
# per-vector detection.  KernelEquivalence.DispatchHonoursIsaPin prints the
# copy that ran and fails if a pin the CPU supports was ignored.  Exits
# non-zero on the first failing suite.
set -euo pipefail

build=${1:?usage: tools/ci/bit_identity.sh <build-dir>}
echo "--- bit identity, FLEXCORE_I16_ISA=${FLEXCORE_I16_ISA:-<native dispatch>}"
"$build/kernel_test" \
  --gtest_filter='KernelEquivalence.*:KernelRescue.*:KernelI16.*:KernelWalkLanes.*:KernelRotation.*:KernelTrie.*'
"$build/linalg_test" --gtest_filter='Qr.*:SortedQr.*'
"$build/shard_test" --gtest_filter='PartialQr.*'
"$build/api_test" --gtest_filter='Batch.*'
"$build/frame_test" \
  --gtest_filter='Frame.*Matches*:Frame.SicFallbackAppliedInsideFrame'
