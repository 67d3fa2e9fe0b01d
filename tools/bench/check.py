#!/usr/bin/env python3
"""Validators of the benches' BENCH_*.json files (stdlib only).

    tools/bench/check.py kernels <BENCH_kernels.json>

Exits non-zero, with the failed assertion and its row, when a file does
not hold what its bench promises; prints a one-line summary otherwise.
`kernels` checks bench/fig17_kernel_engine's rows.  The checks are assert
statements, so the script refuses to run under python -O.
"""
import json
import sys


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


CHECKS = {'kernels': check_kernels}


def main(argv):
    if not __debug__:
        sys.exit('check.py: the checks are assert statements; run without -O')
    if len(argv) != 3 or argv[1] not in CHECKS:
        sys.exit(f'usage: {argv[0]} {{{",".join(CHECKS)}}} <json>')
    with open(argv[2]) as f:
        CHECKS[argv[1]](json.load(f))


if __name__ == '__main__':
    main(sys.argv)
