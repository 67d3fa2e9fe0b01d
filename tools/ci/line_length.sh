#!/usr/bin/env bash
# No source line over 80 columns.
#
#   tools/ci/line_length.sh [root]
#
# The one .clang-format rule a checkout without clang-format can check:
# ColumnLimit 80 over the C++ sources the format check covers (.cpp, .h
# and .inc under src, tests, bench, examples and tools).  Columns are
# characters, not bytes, as clang-format counts them, so a comment's "—"
# or "§" counts once.  Prints every longer line as file:line:text and
# exits 1 if there is one.
set -euo pipefail

root=${1:-.}
cd "$root"
long=$(find src tests bench examples tools \
         \( -name '*.cpp' -o -name '*.h' -o -name '*.inc' \) -print0 |
       LC_ALL=C.UTF-8 xargs -0 grep -nE '^.{81,}' || true)
if [[ -n "$long" ]]; then
  echo "$long"
  echo "line_length: $(wc -l <<<"$long") line(s) over 80 columns" >&2
  exit 1
fi
echo "line_length: no line over 80 columns"
