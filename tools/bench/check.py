#!/usr/bin/env python3
"""Validators of the benches' BENCH_*.json files (stdlib only).

    tools/bench/check.py {control,sharded,soak,kernels} <BENCH_*.json>
    tools/bench/check.py compare --baseline a1.json [a2.json ...]
        --candidate b1.json [b2.json ...] [--max-regress 0.03]
        [--field vectors_per_sec]

Exits non-zero, with the failed assertion and its row, when a file does
not hold what its bench promises; prints a one-line summary otherwise.
`control` checks bench/fig16_adaptive_control's rows, `sharded`
bench/fig18_sharded_runtime's, `soak` bench/fig19_soak_chaos's and
`kernels` bench/fig17_kernel_engine's.  These checks are assert
statements, so the script refuses to run them under python -O.

`compare` is a throughput gate between runs of one bench over one sweep:
the candidate's best geomean of --field (over the rows where it is
positive) must not fall more than --max-regress below the baseline's
best, and every run on both sides must have the same row count.  CI uses
it to pin the overhead of tracing-enabled builds against FLEXCORE_OBS=0
builds.  Taking the best of several files per side is deliberate: single
runs on shared CI runners swing far more than any real tracing overhead,
and best-of-N only damps noise — it cannot hide a systematic regression.
It exits 1 with a FAIL line on stderr when a check fails.
"""
import argparse
import json
import math
import sys


def check_control(doc):
    assert doc['bench'] == 'control', doc.get('bench')
    rows = doc['rows']
    assert rows, 'no rows emitted'
    required = {'scenario', 'mode', 'target_error', 'avg_paths_per_subcarrier',
                'ser', 'reconfigs', 'converged', 'met_target', 'lat_count'}
    for row in rows:
        missing = required - row.keys()
        assert not missing, f'missing fields {missing} in {row}'
    fixed = [r for r in rows
             if r['scenario'] == 'fixed-snr' and r['mode'] == 'adaptive']
    assert len(fixed) == 1, 'fixed-snr adaptive row missing'
    assert fixed[0]['converged'] == 1, 'adaptive policy did not converge'
    assert fixed[0]['met_target'] == 1, 'adaptive policy missed the target'
    print(f'BENCH_control.json OK: {len(rows)} rows')


def check_sharded(doc):
    assert doc['bench'] == 'sharded', doc.get('bench')
    assert 'hardware_concurrency' in doc, 'missing hardware_concurrency'
    rows = doc['rows']
    assert rows, 'no rows emitted'
    required = {'cells', 'shards', 'frames_per_cell', 'antennas',
                'streams', 'vectors_per_sec', 'frames_in', 'frames_out',
                'latency_p50_us', 'latency_p99_us', 'seconds'}
    for row in rows:
        missing = required - row.keys()
        assert not missing, f'missing fields {missing} in {row}'
        expect = row['cells'] * row['frames_per_cell']
        assert row['frames_out'] == expect, \
            f"frames_out {row['frames_out']} != {expect}"
        # Per-shard counter consistency: every shard saw every frame,
        # and the per-cluster rows partition the B antenna rows.
        if row['shards'] >= 2:
            ids = [int(k[len('shard'):-len('_frames')])
                   for k in row if k.startswith('shard')
                   and k.endswith('_frames')]
            assert ids, f'no shard counters in shards={row["shards"]} row'
            frames = {row[f'shard{i}_frames'] for i in ids}
            assert frames == {expect}, \
                f'per-shard frames {frames} != {{{expect}}}'
            rows_sum = sum(row[f'shard{i}_rows'] for i in ids)
            vecs = expect * 12  # nsc=12 subcarriers per frame
            assert rows_sum == vecs * row['antennas'], \
                f'shard rows {rows_sum} do not partition B'
    mono = [r for r in rows if r['shards'] == 0]
    sharded = [r for r in rows if r['shards'] >= 2]
    assert mono and sharded, 'need monolithic and sharded rows'
    print(f'BENCH_sharded.json OK: {len(rows)} rows '
          f'({len(mono)} monolithic, {len(sharded)} sharded)')


def check_soak(doc):
    assert doc['bench'] == 'soak', doc.get('bench')
    rows = doc['rows']
    assert len(rows) >= 4, f'expected >= 4 scenarios, got {len(rows)}'
    required = {'scenario', 'rounds', 'frames_submitted', 'frames_done',
                'frames_quarantined', 'frames_failed', 'frames_dropped',
                'frames_expired', 'reconfigs', 'faults_injected',
                'injected_bad', 'injected_bad_done', 'tickets_lost',
                'fifo_violations', 'spot_checks', 'bit_mismatches',
                'shard_retries', 'shard_bypasses', 'violations', 'ok'}
    total_reconfigs = 0
    for row in rows:
        missing = required - row.keys()
        assert not missing, f'missing fields {missing} in {row}'
        assert row['ok'] == 'true', f"{row['scenario']} not ok: {row}"
        assert row['violations'] == 0, row
        assert row['tickets_lost'] == 0, row
        assert row['fifo_violations'] == 0, row
        assert row['faults_injected'] > 0, \
            f"{row['scenario']} injected no faults"
        terminal = (row['frames_done'] + row['frames_quarantined'] +
                    row['frames_failed'] + row['frames_dropped'] +
                    row['frames_expired'])
        assert terminal == row['frames_submitted'], \
            f"{row['scenario']}: {terminal} != {row['frames_submitted']}"
        total_reconfigs += row['reconfigs']
    assert total_reconfigs >= 1000, \
        f'only {total_reconfigs} reconfigurations'
    quarantined = sum(r['frames_quarantined'] for r in rows)
    bypasses = sum(r['shard_bypasses'] for r in rows)
    assert quarantined > 0, 'no scenario exercised the quarantine path'
    assert bypasses > 0, 'no scenario exercised the shard bypass ladder'
    print(f'BENCH_soak.json OK: {len(rows)} scenarios, '
          f'{total_reconfigs} reconfigs, {quarantined} quarantined, '
          f'{bypasses} bypasses')


def check_kernels(doc):
    assert doc['bench'] == 'kernels', doc.get('bench')
    rows = doc['rows']
    assert rows, 'no rows emitted'
    speed = [r for r in rows if r['kernel'] in ('scalar', 'block')]
    isas = {'base', 'sse41', 'avx2', 'avx512'}
    for row in speed:
        assert row['ns_per_path'] > 0, row
        assert 'speedup_vs_scalar' in row, row
        # Kernel efficiency: the dispatched copy, the Table 2 work of one
        # walk, and the rate achieved on it.
        assert row.get('isa') in isas, row
        assert row['flops_per_path'] > 0, row
        want = row['flops_per_path'] / row['ns_per_path']
        assert abs(row['gflops'] - want) <= 1e-3 * want, row
    # Every MIMO size must carry both block tiers + the scalar reference.
    for mimo in (4, 8, 12, 16):
        tiers = {(r['kernel'], r['precision']) for r in speed
                 if r['mimo'] == mimo and r['detector'] == 'flexcore-128'}
        need = {('scalar', 'fp64'), ('block', 'fp64'),
                ('block', 'i16')}
        assert need <= tiers, f'mimo {mimo}: missing {need - tiers}'
    # Report-only rows at the serving benchmark's shapes: coherent's
    # flexcore-64 at 12x12 / 64-QAM and massive's flexcore-32 at 8
    # streams / 16-QAM, all three kernels (each speed row carries isa).
    for det, mimo, qam in (('flexcore-64', 12, 64),
                           ('flexcore-32', 8, 16)):
        tiers = {(r['kernel'], r['precision']) for r in speed
                 if r['detector'] == det and r['mimo'] == mimo
                 and r['qam'] == qam}
        assert need <= tiers, f'{det} {mimo}/{qam}: missing {need - tiers}'
    # Report-only MGS kernel rows at the fresh-channel shapes: the
    # dispatched copy against the column reference.
    mgs = {(r['form'], r['rows'], r['cols']): r for r in rows
           if r['kernel'] == 'mgs'}
    need_mgs = {('tolerant', 32, 8), ('sorted', 16, 8),
                ('sorted', 12, 12)}
    assert need_mgs <= mgs.keys(), \
        f'mgs rows missing: {need_mgs - mgs.keys()}'
    for row in mgs.values():
        assert row.get('isa') in isas, row
        assert row['ns_per_factorization'] > 0, row
        assert row['reference_ns_per_factorization'] > 0, row
        want = (row['reference_ns_per_factorization']
                / row['ns_per_factorization'])
        assert abs(row['speedup_vs_reference'] - want) <= 1e-3 * want, row
    # Report-only trie rows: the block scan and the trie walk over one
    # subcarrier's vectors at massive's merged 16x8 (flexcore and
    # a-flexcore) and coherent's 12x12, each with the estimate's verdict
    # beside the faster measured kernel.
    trie = {(r['shape'], r['detector']): r for r in rows
            if r['kernel'] == 'trie'}
    need_trie = {('massive', 'flexcore-32'), ('coherent', 'flexcore-64'),
                 ('massive', 'a-flexcore-32')}
    assert need_trie <= trie.keys(), \
        f'trie rows missing: {need_trie - trie.keys()}'
    for row in trie.values():
        assert row.get('isa') in isas, row
        assert row['block_ns_per_path'] > 0, row
        assert row['trie_ns_per_path'] > 0, row
        assert row['node_cost_block_levels'] > 0, row
        assert row['estimate'] in ('trie', 'block'), row
        assert row['faster'] in ('trie', 'block'), row
    ser = {r['precision']: r for r in rows if r['kernel'] == 'ser'}
    assert {'fp64', 'i16'} <= ser.keys(), f'ser rows missing: {ser.keys()}'
    assert 'ser_gap_vs_fp64' in ser['i16'], ser['i16']
    fp64 = [r for r in speed if r['kernel'] == 'block'
            and r['precision'] == 'fp64' and r['mimo'] == 12
            and r['detector'] == 'flexcore-128']
    print(f'BENCH_kernels.json OK: {len(rows)} rows, '
          f"copy {fp64[0]['isa']}, "
          f"fp64 12x12 {fp64[0]['gflops']:.2f} GFLOP/s, "
          f"i16 ser gap {ser['i16']['ser_gap_vs_fp64']}")


def fail(msg):
    print(f'FAIL: {msg}', file=sys.stderr)
    sys.exit(1)


def geomean(path, field):
    with open(path) as f:
        doc = json.load(f)
    vals = [row[field] for row in doc.get('rows', [])
            if isinstance(row.get(field), (int, float)) and row[field] > 0]
    if not vals:
        fail(f'{path}: no positive {field!r} values')
    return math.exp(sum(math.log(v) for v in vals) / len(vals)), len(vals)


def best_geomean(paths, field):
    runs = [geomean(p, field) for p in paths]
    rows = {n for _, n in runs}
    if len(rows) != 1:
        fail(f'row count differs across {paths}: {sorted(rows)}')
    return max(g for g, _ in runs), rows.pop()


def compare(argv):
    parser = argparse.ArgumentParser(prog='check.py compare')
    parser.add_argument('--baseline', nargs='+', required=True)
    parser.add_argument('--candidate', nargs='+', required=True)
    parser.add_argument('--max-regress', type=float, default=0.03)
    parser.add_argument('--field', default='vectors_per_sec')
    args = parser.parse_args(argv)
    base, nb = best_geomean(args.baseline, args.field)
    cand, nc = best_geomean(args.candidate, args.field)
    if nb != nc:
        fail(f'row count mismatch: baseline {nb} vs candidate {nc}')
    ratio = cand / base
    verdict = 'OK' if ratio >= 1.0 - args.max_regress else 'FAIL'
    print(f'{verdict}: best geomean {args.field} baseline {base:.0f} '
          f'(of {len(args.baseline)} runs) vs candidate {cand:.0f} '
          f'(of {len(args.candidate)} runs) over {nb} rows -> '
          f'ratio {ratio:.4f} (gate {1.0 - args.max_regress:.4f})')
    if verdict == 'FAIL':
        sys.exit(1)


CHECKS = {'control': check_control, 'sharded': check_sharded,
          'soak': check_soak, 'kernels': check_kernels}


def main(argv):
    if len(argv) > 1 and argv[1] == 'compare':
        compare(argv[2:])
        return
    if not __debug__:
        sys.exit('check.py: the checks are assert statements; run without -O')
    if len(argv) != 3 or argv[1] not in CHECKS:
        sys.exit(f'usage: {argv[0]} {{{",".join(CHECKS)}}} <json> | '
                 f'compare --baseline ... --candidate ...')
    with open(argv[2]) as f:
        CHECKS[argv[1]](json.load(f))


if __name__ == '__main__':
    main(sys.argv)
