#!/usr/bin/env python3
"""Time and memory of the affine fit on one image-sized X.

Builds X = A S + W by hand: a uniform random M x N matrix A, Dirichlet(1)
abundance columns S and Gaussian noise W of sigma 1e-3, from a fixed
seed. Runs run_pipeline on it and prints the median over the repeats of
its dimred stage time (dimred.affine_fit) and of its recover stage time
with abundances, and the peak of numpy's allocations within one call
beyond X, as a multiple of X's size, read by tracemalloc without and
with abundances.

    PYTHONPATH=src python scripts/fit_scale.py [--M 224] [--L 100000]
"""

import argparse
import statistics
import sys
import tracemalloc

import numpy as np

from mviefact.recovery import run_pipeline


def make_x(m, n, l, seed):
    """M x L observations of N Dirichlet(1) mixtures plus noise."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (m, n))
    s = rng.dirichlet(np.ones(n), l).T
    return a @ s + rng.normal(0.0, 1e-3, (m, l))


def peak_over_x(x, n, want_abundances):
    """numpy's peak allocation within one run_pipeline call, over X's
    size."""
    tracemalloc.start()
    try:
        run_pipeline(x, n, want_abundances=want_abundances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / x.nbytes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--M", type=int, default=224)
    ap.add_argument("--L", type=int, default=100_000)
    ap.add_argument("--N", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    x = make_x(args.M, args.N, args.L, args.seed)
    fit = statistics.median(run_pipeline(x, args.N).timings["dimred"]
                            for _ in range(args.repeats))
    print(f"M={args.M} L={args.L} N={args.N}, X {x.nbytes / 2**20:.1f} MiB")
    print(f"dimred stage: median {1e3 * fit:.1f} ms of {args.repeats} calls")
    recover = statistics.median(
        run_pipeline(x, args.N, want_abundances=True).timings["recover"]
        for _ in range(args.repeats))
    print(f"recover stage with abundances: median {1e3 * recover:.1f} ms "
          f"of {args.repeats} calls")
    for want in (False, True):
        print(f"peak beyond X, abundances {want}: "
              f"{peak_over_x(x, args.N, want):.2f} x X")
    return 0


if __name__ == "__main__":
    sys.exit(main())
