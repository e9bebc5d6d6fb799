#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/spread.py --workload n4-exact --seeds 1-10 [--trace 1]

For every metric it prints the median of the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, plus the failed share of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=os.path.dirname(HERE), capture_output=True, text=True,
            check=True)
        lines = proc.stdout.strip().splitlines()
        out = json.loads(lines[-1])
        print(f"seed {seed}: {lines[0]}", flush=True)
        shares.append(out["failed"] / out["attempted"])
        for name, metric in out["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:24s} median {med:.6g} {units[name]}  "
              f"quartiles {q1:.6g} .. {q3:.6g}  spread {spread:.3f}")
    print(f"failed shares: {sorted(set(shares))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
