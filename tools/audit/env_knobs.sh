#!/usr/bin/env bash
# Environment audit: which environment switches does the library read?
#
#   tools/audit/env_knobs.sh
#
# The library reads its environment switches by name, as "FLEXCORE_..."
# string literals passed to getenv (directly or through obs.cpp's
# env_u64).  This lists the FLEXCORE_ names that open a string literal
# anywhere under src/ and compares them with tools/audit/env_allowlist.txt:
# one name per line followed by `# reason`.  Exits 1 when src/ names a
# switch the list does not, or the list names one src/ no longer reads
# (so the list cannot go stale); exits 0 when the two agree.  Like the
# link audit's allowlist, an entry costs a reason: a switch nothing sets
# is a configuration nobody runs.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
allowlist=$root/tools/audit/env_allowlist.txt
export LC_ALL=C

found=$(grep -rhoE '"FLEXCORE_[A-Za-z0-9_]+' "$root/src" | tr -d '"' |
        sort -u)
allowed=$(sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' \
              -e 's/[[:space:]]*#.*$//' "$allowlist" | sort -u)

echo "environment audit: $(grep -c . <<<"$found") switches read under src/"
status=0
unlisted=$(comm -23 <(echo "$found") <(echo "$allowed"))
stale=$(comm -13 <(echo "$found") <(echo "$allowed"))
if [[ -n $unlisted ]]; then
  echo "read under src/ and not on tools/audit/env_allowlist.txt:"
  sed 's/^/  /' <<<"$unlisted"
  status=1
fi
if [[ -n $stale ]]; then
  echo "on tools/audit/env_allowlist.txt but no longer read under src/:"
  sed 's/^/  /' <<<"$stale"
  status=1
fi
exit $status
