#!/usr/bin/env python3
"""Recovery error versus SNR at fixed model order.

Adds white Gaussian noise at a range of SNRs for two purity levels and
records the angle error. The low purity sits 0.05 above the recovery
threshold 1/sqrt(N-1); the low-purity column is where inscribed-
ellipsoid recovery is expected to hold up longest as noise grows.
"""

import argparse
import math
import os
import sys

from mviefact.cli import BenchSpec, run_bench, write_aggregate_csv, write_results_csv


def low_purity(n):
    """The low purity for N: 0.55 at N=5, 0.7571 at N=3."""
    return round(1.0 / math.sqrt(n - 1) + 0.05, 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=5)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--M", type=int, default=50)
    ap.add_argument("--L", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--snrs", type=float, nargs="+",
                    default=[15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0])
    ap.add_argument("--out", default="results/noise_sweep")
    args = ap.parse_args()
    if args.N < 3:
        ap.error(f"--N must be at least 3 (got {args.N}): no purity lies "
                 "above the recovery threshold 1/sqrt(N-1) below N=3")

    os.makedirs(args.out, exist_ok=True)
    spec = BenchSpec(Ns=(args.N,), rs=(low_purity(args.N), 0.8),
                     snrs=tuple(args.snrs), trials=args.trials,
                     base_seed=args.seed, M=args.M, L=args.L)
    results, aggregates = run_bench(spec)
    write_results_csv(os.path.join(args.out, "trials.csv"), results)
    write_aggregate_csv(os.path.join(args.out, "aggregate.csv"), aggregates)
    for row in aggregates:
        print(f"N={row['N']} r={row['r']} snr={row['snr_db']:.0f} dB: "
              f"phi = {row['phi_mean_deg']:.4f} +- {row['phi_std_deg']:.4f} "
              f"deg ({row['n_ok']}/{row['trials']} ok)")
    print(f"wrote CSVs under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
