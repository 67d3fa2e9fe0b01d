#!/usr/bin/env bash
# Link audit: which external functions of libflexcore.a does no shipped
# binary keep?
#
#   tools/audit/unreached.sh [build-dir]      (default: build-audit/)
#
# Builds every bench and example, trace_dump (root CMakeLists.txt) and
# serve_bench (servebench/CMakeLists.txt) at -O0 with one section per
# function and --gc-sections, so a binary keeps exactly the functions it
# can reach.  -O0 matters: with optimization a callee used only inside its
# own translation unit is inlined there and looks unreached.  The strong
# text symbols of the library (`nm` type T) minus the union of the text
# symbols the binaries keep (T/t/W/w) are the unreached ones.
#
# The result is compared with tools/audit/allowlist.txt: public entry
# points kept on purpose, one demangled symbol per line followed by
# `# reason`.  Exits 1 when an unreached symbol is not on the list, or a
# listed symbol is no longer reported (so the list cannot go stale);
# exits 0 when the two agree.  micro_kernels needs google-benchmark
# (libbenchmark-dev); the audit refuses to run without it.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out=$(realpath -m "${1:-$root/build-audit}")
allowlist=$root/tools/audit/allowlist.txt
export LC_ALL=C

configure() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}
jobs=$(nproc 2>/dev/null || echo 1)

benches=$(cd "$root/bench" && ls *.cpp | sed 's/\.cpp$//')
examples=$(cd "$root/examples" && ls *.cpp | sed 's/\.cpp$//')
configure "$root" "$out/main"
# shellcheck disable=SC2086  # word splitting of the target lists is meant
cmake --build "$out/main" -j "$jobs" --target flexcore trace_dump \
  $benches $examples >/dev/null
configure "$root/servebench" "$out/serve"
cmake --build "$out/serve" -j "$jobs" --target serve_bench >/dev/null

binaries=("$out/main/trace_dump" "$out/serve/serve_bench")
for b in $benches; do binaries+=("$out/main/bench/$b"); done
for e in $examples; do binaries+=("$out/main/examples/$e"); done
for b in "${binaries[@]}"; do
  [[ -x $b ]] || { echo "unreached.sh: $b was not built" >&2; exit 2; }
done

symbols() {  # <type regex> <files...>: defined symbols (mangled), sorted
  local types=$1
  shift
  nm --defined-only "$@" |
    awk -v t="^($types)$" 'NF == 3 && $2 ~ t { print $3 }' | sort -u
}
# Compared mangled, so a constructor's complete- and base-object variants
# count twice; reported and matched against the allowlist demangled.
symbols T "$out/main/libflexcore.a" >"$out/library.txt"
symbols 'T|t|W|w' "${binaries[@]}" >"$out/reached.txt"
comm -23 "$out/library.txt" "$out/reached.txt" >"$out/unreached.mangled"
c++filt <"$out/unreached.mangled" | sort -u >"$out/unreached.txt"
sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' \
    -e 's/[[:space:]]*#.*$//' "$allowlist" | sort -u >"$out/allowed.txt"

echo "link audit: ${#binaries[@]} binaries," \
     "$(wc -l <"$out/library.txt") library symbols," \
     "$(wc -l <"$out/unreached.mangled") unreached"
status=0
unlisted=$(comm -23 "$out/unreached.txt" "$out/allowed.txt")
stale=$(comm -13 "$out/unreached.txt" "$out/allowed.txt")
if [[ -n $unlisted ]]; then
  echo "unreached by every shipped binary and not on the allowlist:"
  sed 's/^/  /' <<<"$unlisted"
  status=1
fi
if [[ -n $stale ]]; then
  echo "on the allowlist but no longer reported unreached:"
  sed 's/^/  /' <<<"$stale"
  status=1
fi
[[ $status -eq 0 ]] && echo "every unreached symbol is on the allowlist"
exit $status
