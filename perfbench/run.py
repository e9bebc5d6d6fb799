#!/usr/bin/env python3
"""Recovery benchmark: run_pipeline end to end, four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload n4-exact --seed 1 --seconds 15 --trace 0

Each workload is a fixed panel of ``synth.make_instance`` problems. The
run imports the package, builds the panel's inputs (written as matrix CSV
and read back with ``cli.read_matrix_csv``), then calls
``recovery.run_pipeline`` on every panel instance in turn, in whole
rounds, until ``--seconds`` have passed. Every result is checked against
a computation made outside the package (``checks.py``). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
instead, and the spans are written to ``.perfbench_out/``. Times are
given at a reference machine speed, measured alongside (``speed.py``).

Exit code 0 after a completed run, 2 when the package cannot be loaded
from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

# One BLAS thread: the package's matrices are small, and on a shared
# 2-core machine a second OpenBLAS thread only spins (CPU time 1.4x wall).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

M = 50                 # bands, as in the paper's experiments
SETUP_REPEATS = 3      # this process plus two fresh child processes

SCALE_FAULT = (
    "the solver is not scale-free: its Huber kink sits at an absolute "
    "residual of 1, and tol_rel and the contact slack tau are taken "
    "relative to max(1, .), so X in sensor-count units (x1e4) runs every "
    "first rho stage to max_iter and misses exact recovery")


@dataclass(frozen=True)
class Workload:
    n: int
    l: int
    r: float
    snr_db: float
    panel: tuple[int, ...]        # make_instance seeds
    scale: float = 1.0            # X is multiplied by this
    reframe: bool = True          # --seed rotates the bands, orders the pixels
    abundances: bool = False      # run_pipeline(want_abundances=...)
    known_fault: str | None = None


# The panels are fixed so that a run's figures follow the program and the
# machine, not which instances a seed drew: phi and the solve's iteration
# counts differ twofold from one instance to the next. Per-instance cost
# sets the panel size so that one round fits in about 20 s.
WORKLOADS = {
    # Only workload where the hull dominates: K ~ 7.0k-7.5k facets, the
    # O(K^2) facet merge ~70% of each ~11 s instance.
    "n6-hull": Workload(6, 400, 0.6, math.inf, (0, 1)),
    # Solve-bound, small hull (K ~ 300): ~90% of each ~0.45 s in mvie.
    "n4-exact": Workload(4, 1000, 0.7, math.inf, tuple(range(8))),
    # The only workload that computes abundances (30-60% of each
    # instance); noise leaves N raw contacts and long third rho stages.
    "n4-noisy-abund": Workload(4, 1000, 0.7, 30.0, tuple(range(8)),
                               abundances=True),
    # The first n4-exact instances in sensor-count units. Their inputs do
    # not depend on --seed: every instance fails on the scale fault.
    "n4-dn-units": Workload(4, 1000, 0.7, math.inf, (0, 1, 2), scale=1e4,
                            reframe=False, known_fault=SCALE_FAULT),
}


@dataclass
class Instance:
    a: object    # M x N signatures in the frame of x
    s: object    # N x L abundances in the pixel order of x
    x: object    # M x L observations, as read back from CSV


def set_up(name: str, seed: int):
    """Import the package and build the workload's inputs.

    Returns (package, instances, timings). Timings run from the start of
    ``import mviefact`` until the last input is in memory.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import mviefact
    t_import = time.perf_counter()
    if os.path.dirname(os.path.abspath(mviefact.__file__)) != os.path.join(
            SRC, "mviefact"):
        raise ImportError(f"mviefact loaded from {mviefact.__file__}, "
                          f"not from {SRC}")
    import numpy as np

    wl = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    make_s = read_s = 0.0
    instances = []
    try:
        for k, gen_seed in enumerate(wl.panel):
            t = time.perf_counter()
            gt = mviefact.synth.make_instance(M, wl.n, wl.l, wl.r, wl.snr_db,
                                              gen_seed)
            make_s += time.perf_counter() - t
            a, s, x = gt.A, gt.S, wl.scale * gt.X
            if wl.reframe:
                # A random orthogonal frame of the bands and a pixel order:
                # new numbers, the same geometry.
                rng = np.random.default_rng([seed, gen_seed])
                q, tri = np.linalg.qr(rng.standard_normal((M, M)))
                q *= np.sign(np.diag(tri))
                order = rng.permutation(wl.l)
                a, s, x = q @ a, s[:, order], q @ x[:, order]
            path = os.path.join(tmp, f"X{k}.csv")
            mviefact.cli.write_matrix_csv(path, x)
            t = time.perf_counter()
            x = mviefact.cli.read_matrix_csv(path)
            read_s += time.perf_counter() - t
            instances.append(Instance(a, s, x))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_s = time.perf_counter() - t0
    import speed
    pace = statistics.median(speed.calibrate() for _ in range(5))
    timings = {"setup_s": setup_s * speed.REF_CALIBRATION_S / pace,
               "mviefact.import_s": t_import - t0,
               "synth.make_instance_s": make_s,
               "cli.read_matrix_s": read_s}
    return mviefact, instances, timings


def child_set_up(name: str, seed: int) -> dict:
    """Set-up timings of a fresh interpreter, so import is paid again."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(pkg, probe, wl: Workload, inst: Instance, op_id: int):
    """One timed run_pipeline call: (report or None, error, t0, t1, op)."""
    op = probe.begin(op_id)
    t0 = time.perf_counter()
    try:
        rep = pkg.recovery.run_pipeline(inst.x, wl.n,
                                        want_abundances=wl.abundances)
        error = None
    except pkg.errors.MviefactError as exc:
        rep, error = None, f"{type(exc).__name__}: {exc}"
    return rep, error, t0, time.perf_counter(), op


@dataclass
class Outcome:
    interval: tuple[float, float]   # perf_counter() around the call
    phi: float
    failures: list
    layers: dict


def evaluate(pkg, wl: Workload, inst: Instance, op, rep, error, interval):
    """Check one result outside the package and collect its figures."""
    import numpy as np
    import checks

    if rep is None:
        return Outcome(interval, math.nan, [error],
                       layer_metrics(op, None, {}))
    phi, cols = checks.rms_angle_deg(inst.a, rep.A_hat)
    noiseless = math.isinf(wl.snr_db)
    failures = checks.check_phi(
        phi, checks.EXACT_PHI_DEG if noiseless else checks.NOISY_PHI_DEG)

    ell = rep.ellipsoid
    chart = checks.chart_from_contacts(
        np.vstack([rep.contacts_reduced, ell.c]),
        np.vstack([rep.contacts_ambient, rep.center_ambient]))
    points = checks.reduce(inst.x, *chart)
    failures += checks.check_inscribed(ell.F, ell.c,
                                       *checks.hull_facets(points))
    poly = op.poly
    failures += checks.check_points_inside(points, poly.normals,
                                           poly.offsets, poly.eps_hull)
    extra = {}
    if wl.abundances:
        failures += checks.check_simplex_columns(rep.S_hat)
        failures += checks.check_fcls(rep.A_hat, inst.x, rep.S_hat)
        extra["recovery.abundance_rmse"] = float(
            np.sqrt(np.mean((rep.S_hat[cols] - inst.s) ** 2)))
    if op.spans:
        extra["mvie.violation"] = checks.ellipsoid_crossing(
            ell.F, ell.c, poly.normals, poly.offsets)
        try:
            extra["mvie.john_residual"] = pkg.mvie.check_john(
                ell, rep.contacts_reduced).residual
        except (np.linalg.LinAlgError, pkg.errors.MviefactError):
            extra["mvie.john_residual"] = math.nan
    op.poly = None
    return Outcome(interval, phi, failures,
                   layer_metrics(op, rep, extra))


def layer_metrics(op, rep, extra: dict) -> dict:
    """Per-layer figures of one traced pipeline run (empty untraced)."""
    if not op.spans:
        return {}
    enumerate_s = op.layer_seconds("hull.enumerate")
    qhull_s = op.layer_seconds("hull.qhull")
    out = {
        "dimred.fit_s": op.layer_seconds("dimred."),
        "hull.enumerate_s": enumerate_s,
        "hull.qhull_s": qhull_s,
        "hull.merge_s": enumerate_s - qhull_s,
        "hull.qhull_facets": op.qhull_facets,
        "mvie.solve_s": op.layer_seconds("mvie.solve"),
        "mvie.stages": len(op.stage_terminations),
        "mvie.capped_stages": op.stage_terminations.count("max_iter"),
        "mvie.eigh_calls": op.counts.get("eigh_calls", 0),
        "mvie.grad_calls": op.counts.get("grad_calls", 0),
        "recovery.contacts_s": op.layer_seconds("recovery.contacts"),
        "recovery.abundances_s": op.layer_seconds("recovery.abundances"),
        "recovery.abundance_rmse": 0.0,
    }
    if rep is not None:
        out.update({
            "hull.facets": rep.n_facets,
            "mvie.iterations": rep.solver.iterations,
            "mvie.backtracks": sum(rep.solver.backtracks),
            "mvie.restarts": rep.solver.restarts,
            "recovery.raw_contacts": rep.raw_contact_count,
        })
    out.update(extra)
    return out


END_TO_END_UNITS = {"recover_s": "s", "phi_deg": "deg", "setup_s": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "dimred.fit_s": "s", "hull.enumerate_s": "s", "hull.qhull_s": "s",
    "hull.merge_s": "s", "hull.qhull_facets": "count", "hull.facets": "count",
    "mvie.solve_s": "s", "mvie.stages": "count", "mvie.capped_stages": "count",
    "mvie.iterations": "count", "mvie.backtracks": "count",
    "mvie.restarts": "count", "mvie.eigh_calls": "count",
    "mvie.grad_calls": "count", "mvie.violation": "1",
    "mvie.john_residual": "1", "recovery.contacts_s": "s",
    "recovery.raw_contacts": "count", "recovery.abundances_s": "s",
    "recovery.abundance_rmse": "1", "mviefact.import_s": "s",
    "synth.make_instance_s": "s", "cli.read_matrix_s": "s",
}


def median_of(values) -> float:
    kept = [float(v) for v in values if not math.isnan(v)]
    return statistics.median(kept) if kept else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isdir(os.path.join(SRC, "mviefact")):
        print(f"perfbench: no package at {SRC}/mviefact", file=sys.stderr)
        return 2
    try:
        pkg, instances, setup = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot load mviefact: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import warnings
    from probe import Probe
    from speed import SpeedSampler

    setups = [setup] + [child_set_up(args.workload, args.seed)
                        for _ in range(SETUP_REPEATS - 1)]
    wl = WORKLOADS[args.workload]
    # Noisy data trips the package's noiseless-model warning on every call.
    warnings.filterwarnings("ignore", message="affine fit residual")
    probe = Probe(pkg, trace=bool(args.trace))
    outcomes = []
    rounds = 0
    start = time.perf_counter()
    try:
        with SpeedSampler() as sampler:
            while True:
                for inst in instances:
                    rep, error, t0, t1, op = run_one(pkg, probe, wl, inst,
                                                     len(outcomes))
                    outcomes.append(evaluate(pkg, wl, inst, op, rep, error,
                                             (t0, t1)))
                rounds += 1
                if time.perf_counter() - start >= args.seconds:
                    break
    finally:
        probe.close()

    failed = [o for o in outcomes if o.failures]
    # Whole rounds of a fixed panel make the mean the panel's time per call.
    # A median would fall in the gap between two instances' costs and jump
    # with the noise on either.
    recover_s = statistics.fmean(sampler.scale(*o.interval)
                                 for o in outcomes)
    measured_s = statistics.fmean(o.interval[1] - o.interval[0]
                                  for o in outcomes)
    print(f"{args.workload}: seed {args.seed}, {rounds} round(s) of "
          f"{len(instances)} instance(s), {len(outcomes)} run_pipeline calls, "
          f"{len(failed)} failed; mean {recover_s:.4f} s per call at "
          f"the reference speed, "
          f"{measured_s:.4f} s measured, "
          f"calibration loop {statistics.median(sampler.durations):.5f} s"
          + (" (traced)" if args.trace else ""))
    for msg in sorted({o.failures[0] for o in failed})[:5]:
        print(f"  failed: {msg}")
    if failed and wl.known_fault:
        print(f"  known fault: {wl.known_fault}")

    if args.trace:
        metrics = {name: median_of(o.layers.get(name, math.nan)
                                   for o in outcomes)
                   for name in LAYER_UNITS}
        for name in ("mviefact.import_s", "synth.make_instance_s",
                     "cli.read_matrix_s"):
            metrics[name] = median_of(s[name] for s in setups)
        units = LAYER_UNITS
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": probe.spans_json()}, fh)
    else:
        metrics = {
            "recover_s": recover_s,
            "phi_deg": median_of(o.phi for o in outcomes),
            "setup_s": median_of(s["setup_s"] for s in setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": not failed or wl.known_fault is not None,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
