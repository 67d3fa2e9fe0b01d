#!/usr/bin/env python3
"""CI throughput gate for the flight-recorder observability subsystem.

  compare --baseline a1.json [a2.json ...] --candidate b1.json [...]
      Throughput gate between BENCH_*.json files (same bench, same
      sweep): the candidate's best geomean vectors_per_sec must not fall
      more than --max-regress below the baseline's best.  Used by CI to
      pin the overhead of tracing-enabled builds against FLEXCORE_OBS=0
      builds.  Accepting several files per side and taking the best of
      each is deliberate: single runs on shared CI runners swing far
      more than any real tracing overhead, and best-of-N only damps
      noise — it cannot hide a systematic regression.

Trace validation lives in the C++ tool: `trace_dump --validate`.

Exit code 0 on success, 1 on any failed check.
"""
import argparse
import json
import math
import sys


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def geomean_vps(path, field):
    with open(path) as f:
        doc = json.load(f)
    vals = [row[field] for row in doc.get("rows", [])
            if isinstance(row.get(field), (int, float)) and row[field] > 0]
    if not vals:
        fail(f"{path}: no positive {field!r} values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals)), len(vals)


def best_geomean(paths, field):
    runs = [geomean_vps(p, field) for p in paths]
    rows = {n for _, n in runs}
    if len(rows) != 1:
        fail(f"row count differs across {paths}: {sorted(rows)}")
    return max(g for g, _ in runs), rows.pop()


def compare(args):
    base, nb = best_geomean(args.baseline, args.field)
    cand, nc = best_geomean(args.candidate, args.field)
    if nb != nc:
        fail(f"row count mismatch: baseline {nb} vs candidate {nc}")
    ratio = cand / base
    verdict = "OK" if ratio >= 1.0 - args.max_regress else "FAIL"
    print(f"{verdict}: best geomean {args.field} baseline {base:.0f} "
          f"(of {len(args.baseline)} runs) vs candidate {cand:.0f} "
          f"(of {len(args.candidate)} runs) over {nb} rows -> "
          f"ratio {ratio:.4f} (gate {1.0 - args.max_regress:.4f})")
    if verdict == "FAIL":
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compare")
    c.add_argument("--baseline", nargs="+", required=True)
    c.add_argument("--candidate", nargs="+", required=True)
    c.add_argument("--max-regress", type=float, default=0.03)
    c.add_argument("--field", default="vectors_per_sec")
    c.set_defaults(func=compare)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
