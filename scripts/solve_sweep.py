#!/usr/bin/env python3
"""One CSV row per solve of the MVIE over a fixed grid of synth instances.

The grid: N as given (default 3-7), L = 1000 (400 at N >= 6), M = 20
and 50, SNR inf, 40, 30 and 20 dB, the given seeds (default 0-3), and
purity r = 1/sqrt(N-1) + 0.1 and 1/sqrt(N-1) - 0.03. Each instance is
reduced by the affine fit, its hull enumerated and the MVIE solved by
``solve_mvie_high_accuracy``; its row gives the solve's diagnostics and
max_violation, floats at 17 significant digits, so two checkouts'
outputs compare bit for bit with diff. Draws the sampler cannot make
(RejectionStall) get no row; the last line gives the totals and counts
them apart.

    PYTHONPATH=src python scripts/solve_sweep.py [--N 3 4 ...] [--seeds 0 ...]
"""

import argparse
import math
import sys

from mviefact import dimred, hull, mvie, synth
from mviefact.errors import RejectionStall

COLUMNS = ("N", "M", "L", "r", "snr_db", "seed", "termination", "touching",
           "iterations", "evaluations", "rounds", "pivots", "gap",
           "final_objective", "max_violation")


def grid(ns, seeds):
    """(N, M, L, r, snr_db, seed) of every instance, in row order."""
    for n in ns:
        for r in (1.0 / math.sqrt(n - 1) + 0.1, 1.0 / math.sqrt(n - 1) - 0.03):
            for m in (20, 50):
                for snr in (math.inf, 40.0, 30.0, 20.0):
                    for seed in seeds:
                        yield n, m, 1000 if n < 6 else 400, r, snr, seed


def solve_row(n, m, l, r, snr, seed):
    """The row's values after the grid's six, or None for a stalled draw."""
    try:
        gt = synth.make_instance(m, n, l, r, snr, seed)
    except RejectionStall:
        return None
    _, reduced = dimred.affine_fit(gt.X, n)
    poly = hull.enumerate_facets(reduced.T)
    ell, diag = mvie.solve_mvie_high_accuracy(poly)
    return (diag.termination, len(diag.touching), diag.iterations,
            diag.evaluations, diag.rounds, diag.pivots, diag.gap,
            diag.final_objective, mvie.max_violation(ell, poly))


def cell(v):
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    args = ap.parse_args()
    if min(args.N) < 3:
        ap.error(f"--N must be at least 3 (got {min(args.N)})")
    print(",".join(COLUMNS))
    rows, stalled = [], 0
    for case in grid(args.N, args.seeds):
        row = solve_row(*case)
        if row is None:
            stalled += 1
            continue
        rows.append(row)
        print(",".join(map(cell, case + row)), flush=True)
    sums = ", ".join(f"{COLUMNS[6 + i]} {sum(row[i] for row in rows)}"
                     for i in range(2, 6))
    gap = max((row[6] for row in rows), default=0.0)
    worst = max((row[8] for row in rows), default=-math.inf)
    print(f"# total: {len(rows)} solved, {stalled} RejectionStall, {sums}, "
          f"max gap {cell(gap)}, max max_violation {cell(worst)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
