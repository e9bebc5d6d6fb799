"""Command-line pipeline: instance generation, recovery runs, benchmarks.

Subcommands:
  synth  write a synthetic observation matrix plus ground-truth sidecar
  run    recover signatures from an observation CSV, write a JSON report
  bench  sweep a (N, purity, SNR) grid and write per-trial/aggregate CSVs

Both run and bench solve the MVIE by the barrier Newton method of
mvie.solve_mvie_high_accuracy; neither takes a solver option.

Exit codes: 0 success, 1 I/O failure (a missing, unreadable or malformed
file), 2 invalid parameters, 3 numerical failure. A failure prints
"error [<where>]: <message>" to stderr, where <where> is the pipeline
stage that raised it (dimred, hull, solve or recover), or io, params or
numerical outside the pipeline.

--snr is read by float: finite dB, or inf, +inf or Infinity (any case)
for noiseless data; nan and -inf exit 2. --L or --M below --N exits 2.

File formats (owned here):
  matrix CSV     no header, one row per band (M rows), one column per
                 pixel, 17 significant digits
  truth JSON     {"A": rows, "S": rows, "params": {N,M,L,r,snr_db,seed}};
                 snr_db is dB or "inf", and noiseless if missing or null
  run JSON       params {N}, A_hat (M x N), contacts_reduced,
                 contacts_ambient, raw_contact_count, center_ambient,
                 K (facets), affine_residual, noise_sigma (null with no
                 discarded singular value), diagnostics, timings (seconds
                 per stage); phi_deg and permutation with --truth, S_hat
                 (N x L) with --emit-shat. contacts_reduced (N x (N-1))
                 is in the reduced coordinates of dimred.affine_fit(X)'s
                 chart, and final_objective is -log det F of the
                 ellipsoid in them; A_hat, the ambient fields,
                 affine_residual and noise_sigma are in X's units.
                 diagnostics: the SolveDiagnostics fields listed in
                 _SOLVE_FIGURES (iterations, final_objective, termination,
                 stage_iterations, evaluations, kept_facets, rounds, gap,
                 pivots), then max_violation. The optimality certificate is
                 gap, the solve's certified log-det gap bound, with
                 max_violation, the worst constraint value over the largest
                 facet distance (<= 0 inscribed). iterations, evaluations,
                 kept_facets and rounds read 0, and stage_iterations [],
                 when the solve ended on the simplex guessed from the
                 points' spread, before any Newton step; pivots counts
                 the sets that guess's walk tried after the guess
  trials CSV     N,M,L,r,snr_db,seed,status,phi_deg,K, then the diagnostics
                 kept_facets,rounds,termination,gap (_TRIAL_SOLVE_COLUMNS, a
                 subset of the run JSON's), then t_dimred,t_hull,t_solve,
                 t_recover,t_total. termination is "simplex" exactly when
                 the simplex guessed from the points' spread ended the
                 solve, "tol" when the barrier did; a solve ended on its
                 guess writes 0,0,simplex,<gap> and a failed trial
                 0,0,,nan in those four columns
  aggregate CSV  N,M,L,r,snr_db,trials,n_ok,phi_mean_deg,phi_std_deg,
                 K_mean,t_total_mean
  CSV cells are formatted as in the matrix CSV, with "inf" for an
  infinite SNR; --omit-timings writes 0 in every t_ column.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import metrics, recovery, synth
from .errors import BadDims, MviefactError, NumericalError, ParameterError

__all__ = ["BenchSpec", "main", "cmd_synth", "cmd_run", "cmd_bench"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARAMS = 2
EXIT_NUMERICAL = 3

_TIMINGS = ["dimred", "hull", "solve", "recover", "total"]
# the SolveDiagnostics fields the run JSON's diagnostics report, in order
_SOLVE_FIGURES = ["iterations", "final_objective", "termination",
                  "stage_iterations", "evaluations", "kept_facets", "rounds",
                  "gap", "pivots"]
# the diagnostics the trials CSV reports, with what a failed trial writes
_TRIAL_SOLVE_COLUMNS = {"kept_facets": 0, "rounds": 0, "termination": "",
                        "gap": math.nan}
_RESULT_COLUMNS = ["N", "M", "L", "r", "snr_db", "seed", "status", "phi_deg",
                   "K", *_TRIAL_SOLVE_COLUMNS, *(f"t_{k}" for k in _TIMINGS)]
_AGGREGATE_COLUMNS = ["N", "M", "L", "r", "snr_db", "trials", "n_ok",
                      "phi_mean_deg", "phi_std_deg", "K_mean", "t_total_mean"]


@dataclass(frozen=True)
class BenchSpec:
    Ns: tuple[int, ...]
    rs: tuple[float, ...]
    snrs: tuple[float, ...]
    trials: int
    base_seed: int
    M: int
    L: int

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("bench needs trials >= 1")
        if not self.Ns or not self.rs or not self.snrs:
            raise ParameterError("bench grid must be nonempty")
        if self.L < max(self.Ns):
            raise BadDims(f"need L >= N, got L={self.L}, N={max(self.Ns)}")
        if self.M < max(self.Ns):
            raise BadDims(f"need N <= M, got N={max(self.Ns)}, M={self.M}")
        for n in self.Ns:
            for r in self.rs:
                synth.check_purity(n, r)
        for snr in self.snrs:
            synth.check_snr(snr)

    @property
    def cells(self):
        for n in self.Ns:
            for r in self.rs:
                for snr in self.snrs:
                    yield n, r, snr


# -- serialization helpers ----------------------------------------------------

def _cell(v):
    """A CSV cell: a float to 17 significant digits, "inf" for either
    infinity; anything else as it is."""
    if isinstance(v, float):
        return "inf" if math.isinf(v) else format(v, ".17g")
    return v


def _write_csv(path, columns: list[str], rows,
               omit_timings: bool = False) -> None:
    """Write a header and rows of cells; with omit_timings every t_
    column holds 0."""
    timed = [omit_timings and c.startswith("t_") for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(0.0 if t else v) for t, v in zip(timed, row)]
                         for row in rows)


def write_matrix_csv(path, x: np.ndarray) -> None:
    """Write x in the matrix CSV format: the bytes csv.writer gives for
    rows of %.17g cells, CRLF line ends included."""
    x = np.asarray(x, dtype=float)
    line = ",".join(["%.17g"] * x.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(line % tuple(row) for row in x.tolist())


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix CSV; a malformed or empty file raises OSError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # empty input: raised below
            x = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise OSError(f"malformed matrix file {path}: {exc}") from exc
    if not x.size:
        raise OSError(f"empty matrix file: {path}")
    return x


def _snr_json(snr_db: float):
    return "inf" if math.isinf(snr_db) else snr_db


def write_truth_json(path, gt: synth.GroundTruth) -> None:
    payload = {
        "A": gt.A.tolist(),
        "S": gt.S.tolist(),
        "params": {"N": gt.A.shape[1], "M": gt.A.shape[0], "L": gt.S.shape[1],
                   "r": gt.purity_r, "snr_db": _snr_json(gt.snr_db),
                   "seed": gt.seed},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_truth_json(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Parse a truth JSON; a malformed file or field raises OSError."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        a = np.asarray(payload["A"], dtype=float)
        s = np.asarray(payload["S"], dtype=float)
        params = dict(payload["params"])
        snr = params.get("snr_db")
        params["snr_db"] = math.inf if snr is None else float(snr)
    except (KeyError, TypeError, ValueError) as exc:
        raise OSError(f"malformed truth file {path}: {exc!r}") from exc
    return a, s, params


# -- subcommands ---------------------------------------------------------------

def cmd_synth(args) -> int:
    library = (None if args.library is None
               else synth.load_signature_library(args.library)[1])
    gt = synth.make_instance(args.M, args.N, args.L, args.purity,
                             args.snr, args.seed, library=library)
    os.makedirs(args.out, exist_ok=True)
    write_matrix_csv(os.path.join(args.out, "X.csv"), gt.X)
    write_truth_json(os.path.join(args.out, "truth.json"), gt)
    print(f"wrote {args.out}/X.csv ({args.M}x{args.L}) and "
          f"{args.out}/truth.json (N={args.N}, r={args.purity}, "
          f"snr={_snr_json(args.snr)}, seed={args.seed})")
    return EXIT_OK


def cmd_run(args) -> int:
    x = read_matrix_csv(args.input)
    report = recovery.run_pipeline(x, args.N,
                                   want_abundances=args.emit_shat)

    payload = {
        "params": {"N": args.N},
        "A_hat": report.A_hat.tolist(),
        "contacts_reduced": report.contacts_reduced.tolist(),
        "contacts_ambient": report.contacts_ambient.tolist(),
        "raw_contact_count": report.raw_contact_count,
        "center_ambient": report.center_ambient.tolist(),
        "K": report.n_facets,
        "affine_residual": report.affine_residual,
        # null, not NaN, when no singular value was discarded (L = N or
        # M = N-1): a strict JSON reader rejects NaN
        "noise_sigma": (None if math.isnan(report.noise_sigma)
                        else report.noise_sigma),
        "diagnostics": _diagnostics(report),
        "timings": report.timings,
    }
    if args.truth:
        a_true, _, _ = read_truth_json(args.truth)
        phi, perm = metrics.rms_angle_error(a_true, report.A_hat)
        payload["phi_deg"] = phi
        payload["permutation"] = list(perm)
    if args.emit_shat:
        payload["S_hat"] = report.S_hat.tolist()

    with open(args.out, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    phi_txt = (f", phi={payload['phi_deg']:.6f} deg"
               if "phi_deg" in payload else "")
    print(f"wrote {args.out} (K={report.n_facets}, "
          f"{report.solver.iterations} iterations{phi_txt})")
    return EXIT_OK


def _diagnostics(report: recovery.RecoveryReport) -> dict:
    """The solve's reported figures: _SOLVE_FIGURES, then max_violation."""
    return dict(((k, getattr(report.solver, k)) for k in _SOLVE_FIGURES),
                max_violation=report.max_violation)


def run_bench(spec: BenchSpec) -> tuple[list[metrics.TrialResult], list[dict]]:
    """Execute every (cell, trial) pair; failures become status rows."""
    results: list[metrics.TrialResult] = []
    aggregates = []
    for n, r, snr in spec.cells:
        cell = []
        for trial in range(spec.trials):
            seed = spec.base_seed + trial
            res = metrics.TrialResult(seed=seed, N=n, M=spec.M, L=spec.L,
                                      r=r, snr_db=snr)
            t0 = time.perf_counter()
            try:
                gt = synth.make_instance(spec.M, n, spec.L, r, snr, seed)
                report = recovery.run_pipeline(gt.X, n)
                phi, perm = metrics.rms_angle_error(gt.A, report.A_hat)
                res.rms_angle_deg = phi
                res.permutation = perm
                res.K_facets = report.n_facets
                res.diagnostics = _diagnostics(report)
                res.runtimes_sec = dict(report.timings)
            except MviefactError as exc:
                res.status = f"error:{type(exc).__name__}"
            res.runtimes_sec["total"] = time.perf_counter() - t0
            cell.append(res)
        results += cell
        ok = [t for t in cell if t.status == "ok"]
        phis = np.array([t.rms_angle_deg for t in ok])
        aggregates.append({
            "N": n, "M": spec.M, "L": spec.L, "r": r, "snr_db": snr,
            "trials": len(cell), "n_ok": len(ok),
            "phi_mean_deg": float(phis.mean()) if ok else math.nan,
            "phi_std_deg": (float(phis.std(ddof=1))
                            if len(ok) > 1 else 0.0 if ok else math.nan),
            "K_mean": (float(np.mean([t.K_facets for t in ok]))
                       if ok else math.nan),
            "t_total_mean": float(np.mean([t.runtimes_sec["total"]
                                           for t in cell])),
        })
    return results, aggregates


def write_results_csv(path, results: list[metrics.TrialResult],
                      omit_timings: bool = False) -> None:
    _write_csv(path, _RESULT_COLUMNS, (
        [t.N, t.M, t.L, t.r, t.snr_db, t.seed, t.status, t.rms_angle_deg,
         t.K_facets,
         *(t.diagnostics.get(k, v) for k, v in _TRIAL_SOLVE_COLUMNS.items()),
         *(t.runtimes_sec.get(k, 0.0) for k in _TIMINGS)]
        for t in results), omit_timings)


def write_aggregate_csv(path, aggregates: list[dict],
                        omit_timings: bool = False) -> None:
    _write_csv(path, _AGGREGATE_COLUMNS,
               ([row[c] for c in _AGGREGATE_COLUMNS] for row in aggregates),
               omit_timings)


def cmd_bench(args) -> int:
    spec = BenchSpec(
        Ns=tuple(args.N), rs=tuple(args.r), snrs=tuple(args.snr),
        trials=args.trials, base_seed=args.seed, M=args.M, L=args.L)
    results, aggregates = run_bench(spec)
    os.makedirs(args.out, exist_ok=True)
    trials_path = os.path.join(args.out, "trials.csv")
    agg_path = os.path.join(args.out, "aggregate.csv")
    write_results_csv(trials_path, results, args.omit_timings)
    write_aggregate_csv(agg_path, aggregates, args.omit_timings)
    for row in aggregates:
        print(f"N={row['N']} r={row['r']} snr={_snr_json(row['snr_db'])}: "
              f"phi = {row['phi_mean_deg']:.4f} +- {row['phi_std_deg']:.4f} deg "
              f"({row['n_ok']}/{row['trials']} ok, K~{row['K_mean']:.0f})")
    print(f"wrote {trials_path} and {agg_path}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mviefact",
        description="Blind simplex-factor recovery via the maximum-volume "
                    "inscribed ellipsoid of the data convex hull")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic instance")
    ps.add_argument("--N", type=int, required=True)
    ps.add_argument("--M", type=int, required=True)
    ps.add_argument("--L", type=int, required=True)
    ps.add_argument("--purity", type=float, required=True)
    ps.add_argument("--snr", type=float, default=math.inf,
                    help="SNR in dB, or 'inf' for noiseless (default)")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--library", default=None,
                    help="optional signature library CSV")
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=cmd_synth)

    pr = sub.add_parser("run", help="recover signatures from X.csv")
    pr.add_argument("--input", required=True, help="observation matrix CSV")
    pr.add_argument("--N", type=int, required=True)
    pr.add_argument("--truth", default=None,
                    help="truth.json for angle-error evaluation")
    pr.add_argument("--emit-shat", action="store_true",
                    help="include recovered abundances in the report")
    pr.add_argument("--out", default="report.json")
    pr.set_defaults(func=cmd_run)

    pb = sub.add_parser("bench", help="run a recovery benchmark grid")
    pb.add_argument("--N", type=int, nargs="+", required=True)
    pb.add_argument("--r", type=float, nargs="+", required=True)
    pb.add_argument("--snr", type=float, nargs="+", default=[math.inf])
    pb.add_argument("--trials", type=int, default=20)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--M", type=int, default=50)
    pb.add_argument("--L", type=int, default=1000)
    pb.add_argument("--omit-timings", action="store_true",
                    help="write zeros in timing columns so repeated runs "
                         "are byte-identical")
    pb.add_argument("--out", required=True, help="output directory")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error [{exc.stage or 'params'}]: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except NumericalError as exc:
        print(f"error [{exc.stage or 'numerical'}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
