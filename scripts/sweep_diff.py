#!/usr/bin/env python3
"""Compare two outputs of scripts/solve_sweep.py row by row.

Prints the number of rows that differ in any column, the number that
differ in termination or touching (with their grid keys), the number of
rows ended on the spread's guess (termination "simplex" in either
output) that are not byte-equal, and both outputs' totals lines. Exits
1 when the two outputs' grids differ: when their rows' (N, M, L, r,
snr_db, seed) keys are not the same, in the same order.

    python scripts/sweep_diff.py BASE.csv CHANGE.csv
"""

import argparse
import sys

KEY = ("N", "M", "L", "r", "snr_db", "seed")


def read_sweep(path):
    """(header cells, data lines, totals line) of a solve_sweep output."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    totals = [line for line in lines[1:] if line.startswith("#")]
    rows = [line for line in lines[1:] if not line.startswith("#")]
    return lines[0].split(","), rows, totals[-1] if totals else "(none)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()
    header, base, base_totals = read_sweep(args.base)
    change_header, change, change_totals = read_sweep(args.change)
    if change_header != header:
        print(f"the outputs' columns differ: {header} vs {change_header}")
        return 1
    at = {name: i for i, name in enumerate(header)}
    base = [line.split(",") for line in base]
    change = [line.split(",") for line in change]

    def key(cells):
        return tuple(cells[at[k]] for k in KEY)

    if [key(r) for r in base] != [key(r) for r in change]:
        print(f"the grids differ: {len(base)} and {len(change)} rows, "
              "keyed by " + ",".join(KEY))
        return 1
    differ = outcome = simplex = 0
    for old, new in zip(base, change):
        differ += old != new
        if any(old[at[k]] != new[at[k]] for k in ("termination", "touching")):
            outcome += 1
            print("termination or touching differ at "
                  + ",".join(key(old)))
        if "simplex" in (old[at["termination"]], new[at["termination"]]):
            simplex += old != new
    print(f"rows: {len(base)}, differing in any column: {differ}, "
          f"in termination or touching: {outcome}, "
          f"simplex rows not byte-equal: {simplex}")
    print(f"base   {base_totals}")
    print(f"change {change_totals}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
