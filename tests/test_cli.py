import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mviefact import dimred, recovery
from mviefact.cli import (
    BenchSpec,
    main,
    read_matrix_csv,
    read_truth_json,
    run_bench,
    write_matrix_csv,
    write_results_csv,
)
from mviefact.errors import ConvergenceFailure, ParameterError


SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run_cli(*argv):
    return main(list(argv))


class TestSynthCommand:
    def test_writes_files(self, tmp_path):
        out = tmp_path / "d"
        code = run_cli("synth", "--N", "3", "--M", "50", "--L", "500",
                       "--purity", "0.85", "--seed", "7", "--out", str(out))
        assert code == 0
        x = read_matrix_csv(out / "X.csv")
        assert x.shape == (50, 500)
        a, s, params = read_truth_json(out / "truth.json")
        assert a.shape == (50, 3) and s.shape == (3, 500)
        assert params["N"] == 3 and params["seed"] == 7
        assert params["snr_db"] == float("inf")
        assert np.allclose(x, a @ s)

    def test_infeasible_purity_exit_2(self, tmp_path, capsys):
        code = run_cli("synth", "--N", "3", "--M", "20", "--L", "50",
                       "--purity", "0.5", "--out", str(tmp_path / "d"))
        assert code == 2
        assert "purity" in capsys.readouterr().err

    def test_byte_identical_rerun(self, tmp_path):
        args = ["synth", "--N", "3", "--M", "20", "--L", "100",
                "--purity", "0.9", "--snr", "25", "--seed", "3"]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for name in ("X.csv", "truth.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    @pytest.fixture()
    def library(self, tmp_path, rng):
        lib = rng.random((20, 5)) + 0.05
        path = tmp_path / "lib.csv"
        with open(path, "w") as fh:
            fh.write("band," + ",".join(f"s{j}" for j in range(5)) + "\n")
            for i, row in enumerate(lib):
                fh.write(f"{i}," + ",".join(repr(float(v)) for v in row)
                         + "\n")
        return path, lib

    def test_library_columns_become_signatures(self, library, tmp_path):
        path, lib = library
        out = tmp_path / "d"
        code = run_cli("synth", "--N", "3", "--M", "20", "--L", "100",
                       "--purity", "0.9", "--library", str(path),
                       "--out", str(out))
        assert code == 0
        a, _, _ = read_truth_json(out / "truth.json")
        for col in a.T:
            assert any(np.array_equal(col, ref) for ref in lib.T)

    @pytest.mark.parametrize("m, n, says", [
        ("21", "3", "error [params]: library has 20 bands"),
        ("20", "6", "error [params]: library has 5 signatures")],
        ids=["bands", "signatures"])
    def test_library_mismatch_exit_2(self, library, tmp_path, capsys,
                                     m, n, says):
        code = run_cli("synth", "--N", n, "--M", m, "--L", "100",
                       "--purity", "0.9", "--library", str(library[0]),
                       "--out", str(tmp_path / "d"))
        assert code == 2
        assert capsys.readouterr().err.startswith(says)

    @pytest.mark.parametrize("text", [
        "", "band,a,b\n0,0.5,x\n", "band,a,b\n0,0.5,0.2\n1,0.3\n",
        "band,a,b\n0,0.5,nan\n", "band,a,b\n0,inf,0.2\n"],
        ids=["empty", "non-numeric", "ragged", "nan", "inf"])
    def test_malformed_library_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "lib.csv"
        path.write_text(text)
        code = run_cli("synth", "--N", "2", "--M", "2", "--L", "50",
                       "--purity", "0.9", "--library", str(path),
                       "--out", str(tmp_path / "d"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error [io]: ")
        assert "Traceback" not in err

    def test_rejection_stall_exit_3(self, tmp_path, capsys):
        # r = 0.42 sits just above 1/sqrt(6): too few Dirichlet(1/6) draws
        # pass the norm test, and the sampler's window gives up
        code = run_cli("synth", "--N", "6", "--M", "20", "--L", "50",
                       "--purity", "0.42", "--out", str(tmp_path / "d"))
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error [numerical]: acceptance rate")

    @pytest.mark.parametrize("text,snr", [("INF", math.inf),
                                          ("Infinity", math.inf),
                                          ("+inf", math.inf), ("25", 25.0)])
    def test_snr_spellings(self, tmp_path, text, snr):
        code = run_cli("synth", "--N", "3", "--M", "20", "--L", "50",
                       "--purity", "0.9", "--snr", text,
                       "--out", str(tmp_path / "d"))
        assert code == 0
        _, _, params = read_truth_json(tmp_path / "d" / "truth.json")
        assert params["snr_db"] == snr

    @pytest.mark.parametrize("args", [("--snr", "nan"), ("--snr=-inf",),
                                      ("--L", "3")],
                             ids=["snr-nan", "snr-minus-inf", "L-below-N"])
    def test_bad_snr_or_too_few_pixels_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "d"
        code = run_cli("synth", "--N", "4", "--M", "20", "--L", "50",
                       "--purity", "0.9", *args, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error [params]:")
        assert not out.exists()


@pytest.mark.parametrize("params,snr", [({}, math.inf),
                                        ({"snr_db": None}, math.inf),
                                        ({"snr_db": "inf"}, math.inf),
                                        ({"snr_db": 0}, 0.0)],
                         ids=["missing", "null", "inf", "zero"])
def test_truth_json_snr(tmp_path, params, snr):
    # a truth JSON without an SNR describes noiseless data; 0 dB is not that
    path = tmp_path / "truth.json"
    path.write_text(json.dumps({"A": [[1.0]], "S": [[1.0]],
                                "params": {"N": 1, **params}}))
    _, _, got = read_truth_json(path)
    assert got["snr_db"] == snr


class TestRunCommand:
    @pytest.fixture()
    def instance_dir(self, tmp_path):
        out = tmp_path / "data"
        run_cli("synth", "--N", "3", "--M", "30", "--L", "400",
                "--purity", "0.85", "--seed", "5", "--out", str(out))
        return out

    def test_recovers_and_reports_phi(self, instance_dir, tmp_path):
        report = tmp_path / "report.json"
        code = run_cli("run", "--input", str(instance_dir / "X.csv"),
                       "--N", "3", "--truth", str(instance_dir / "truth.json"),
                       "--out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["phi_deg"] <= 0.05
        assert payload["K"] >= 4
        assert len(payload["A_hat"]) == 30
        # the spread's guess ends this noiseless solve before any step
        diagnostics = payload["diagnostics"]
        assert diagnostics["iterations"] == sum(
            diagnostics["stage_iterations"])
        assert diagnostics["termination"] == "simplex"
        viol = payload["diagnostics"]["max_violation"]
        assert np.isfinite(viol)
        assert "john_residual" not in payload["diagnostics"]
        assert viol <= 0.0
        assert payload["diagnostics"]["gap"] <= 1e-11
        # sigma^2 is the mean squared residual over the k >= 1 discarded
        # directions, so sigma is at most the largest residual
        assert 0.0 <= payload["noise_sigma"] <= payload["affine_residual"]
        # at most d+1 = 3 pivots, all of them the spread's guess's walk
        pivots = payload["diagnostics"]["pivots"]
        assert isinstance(pivots, int)
        assert 0 <= pivots <= 3
        assert set(payload["timings"]) == {"dimred", "hull", "solve",
                                           "recover"}

    def test_noise_sigma_is_null_with_nothing_discarded(self, tmp_path):
        # N = L points leave no singular value to estimate the noise from
        data = tmp_path / "X.csv"
        write_matrix_csv(data, np.random.default_rng(0).random((20, 4)))
        report = tmp_path / "report.json"
        assert run_cli("run", "--input", str(data), "--N", "4",
                       "--out", str(report)) == 0
        text = report.read_text()
        assert "NaN" not in text
        assert json.loads(text)["noise_sigma"] is None

    def test_emit_shat(self, instance_dir, tmp_path):
        report = tmp_path / "report.json"
        code = run_cli("run", "--input", str(instance_dir / "X.csv"),
                       "--N", "3", "--emit-shat", "--out", str(report))
        assert code == 0
        s_hat = np.asarray(json.loads(report.read_text())["S_hat"])
        assert s_hat.shape == (3, 400)
        assert np.abs(s_hat.sum(axis=0) - 1.0).max() <= 1e-9

    @pytest.mark.filterwarnings("ignore:affine fit residual")
    def test_emit_shat_follows_the_units_of_x(self, tmp_path):
        data = tmp_path / "noisy"
        run_cli("synth", "--N", "4", "--M", "30", "--L", "400",
                "--purity", "0.75", "--snr", "30", "--seed", "5",
                "--out", str(data))
        scaled = tmp_path / "X_counts.csv"
        write_matrix_csv(scaled, 1e4 * read_matrix_csv(data / "X.csv"))
        s_hat = []
        for name, src in (("unit", data / "X.csv"), ("counts", scaled)):
            report = tmp_path / f"{name}.json"
            code = run_cli("run", "--input", str(src), "--N", "4",
                           "--emit-shat", "--out", str(report))
            assert code == 0
            s_hat.append(np.asarray(json.loads(report.read_text())["S_hat"]))
        assert np.abs(s_hat[1] - s_hat[0]).max() <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_recovers_at_extreme_units(self, instance_dir, tmp_path, capsys,
                                       scale):
        x = read_matrix_csv(instance_dir / "X.csv")
        scaled = tmp_path / "X_scaled.csv"
        write_matrix_csv(scaled, scale * x)
        report = tmp_path / "report.json"
        code = run_cli("run", "--input", str(scaled), "--N", "3",
                       "--truth", str(instance_dir / "truth.json"),
                       "--out", str(report))
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_text())["phi_deg"] <= 0.05

    def test_abundance_failure_names_recover_stage(self, instance_dir,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        def fail(x, a_hat):
            raise ConvergenceFailure("active set did not settle")

        monkeypatch.setattr(recovery, "recover_abundances", fail)
        code = run_cli("run", "--input", str(instance_dir / "X.csv"),
                       "--N", "3", "--emit-shat",
                       "--out", str(tmp_path / "report.json"))
        assert code == 3
        assert "error [recover]" in capsys.readouterr().err

    def test_fit_failure_names_dimred_stage(self, instance_dir, tmp_path,
                                            monkeypatch, capsys):
        real = dimred.dgesdd
        monkeypatch.setattr(dimred, "dgesdd",
                            lambda a, **kw: (*real(a, **kw)[:3], 1))
        code = run_cli("run", "--input", str(instance_dir / "X.csv"),
                       "--N", "3", "--out", str(tmp_path / "report.json"))
        assert code == 3
        assert capsys.readouterr().err.startswith("error [dimred]: ")

    def test_run_leaves_scipy_optimize_unimported(self, instance_dir,
                                                  tmp_path):
        # the certificate is the solve's gap and max_violation: without
        # --truth nothing in a run needs scipy.optimize
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        code = ("import sys, mviefact.cli as c; "
                "assert c.main(sys.argv[1:]) == 0; "
                "print('scipy.optimize' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", "--input",
             str(instance_dir / "X.csv"), "--N", "3",
             "--out", str(tmp_path / "report.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"

    def test_nan_input_names_dimred_stage(self, instance_dir, tmp_path,
                                          capsys):
        x = read_matrix_csv(instance_dir / "X.csv")
        x[3, 7] = np.nan
        write_matrix_csv(tmp_path / "X_nan.csv", x)
        code = run_cli("run", "--input", str(tmp_path / "X_nan.csv"),
                       "--N", "3", "--out", str(tmp_path / "report.json"))
        assert code == 3
        assert "error [dimred]" in capsys.readouterr().err

    def test_missing_input_exit_1(self, tmp_path, capsys):
        code = run_cli("run", "--input", str(tmp_path / "nope.csv"),
                       "--N", "3")
        assert code == 1
        assert "io" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1,2,3\n4,abc,6\n", "1,2,3\n4,5\n"],
                             ids=["non-numeric", "short-row"])
    def test_malformed_input_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = run_cli("run", "--input", str(bad), "--N", "3",
                       "--out", str(tmp_path / "report.json"))
        assert code == 1
        assert "error [io]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b'{"S": [[1.0]], "params": {}}', b'[1, 2]',
        b'{"A": [["x"]], "S": [[1.0]], "params": {}}', b'{"A": ',
        b'\xff\xfe'],
        ids=["no-A", "not-an-object", "non-numeric", "not-json", "not-utf8"])
    def test_malformed_truth_exit_1(self, instance_dir, tmp_path, capsys,
                                    text):
        truth = tmp_path / "truth.json"
        truth.write_bytes(text)
        code = run_cli("run", "--input", str(instance_dir / "X.csv"),
                       "--N", "3", "--truth", str(truth),
                       "--out", str(tmp_path / "report.json"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error [io]: ")
        assert "Traceback" not in err


class TestMatrixCsv:
    def test_bytes_match_csv_writer(self, tmp_path, rng):
        x = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-300, 300,
                                                                 (6, 9))
        x[0, :5] = [0.0, -0.0, 1.0, 1e-320, -2.5]
        x[1, :3] = [np.nan, np.inf, -np.inf]
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        for row in x:
            writer.writerow([format(float(v), ".17g") for v in row])
        write_matrix_csv(tmp_path / "x.csv", x)
        assert (tmp_path / "x.csv").read_bytes() == ref.getvalue().encode()
        back = read_matrix_csv(tmp_path / "x.csv")
        assert np.array_equal(back, x, equal_nan=True)

    @pytest.mark.parametrize("text", ["", "\n\n", "1,x\n", "1,2\n3\n"])
    def test_empty_or_malformed_raises_oserror(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(OSError):
            read_matrix_csv(path)

    def test_one_row_and_one_column_stay_2d(self, tmp_path):
        for x in (np.arange(4.0)[None, :], np.arange(4.0)[:, None]):
            write_matrix_csv(tmp_path / "x.csv", x)
            assert np.array_equal(read_matrix_csv(tmp_path / "x.csv"), x)


class TestBenchCommand:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--N", "3", "--r", "0.85", "1.0",
                       "--trials", "2", "--M", "25", "--L", "200",
                       "--seed", "1", "--out", str(out))
        assert code == 0
        rows = (out / "trials.csv").read_text().strip().splitlines()
        assert rows[0].startswith("N,M,L,r,snr_db,seed,status,phi_deg,K,")
        assert len(rows) == 1 + 4  # 2 cells x 2 trials
        agg = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(agg) == 1 + 2
        for line in rows[1:]:
            assert ",ok," in line

    def test_trials_report_how_each_solve_ended(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--N", "3", "--r", "0.9", "--snr", "inf",
                       "20", "--trials", "2", "--M", "20", "--L", "150",
                       "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(
            (out / "trials.csv").read_text())))
        assert len(rows) == 4
        for row in rows:
            assert row["termination"] in ("simplex", "tol")
            assert float(row["gap"]) <= 1e-11
        header = (out / "trials.csv").read_text().splitlines()[0]
        assert ",rounds,termination,gap,t_dimred," in header

    def test_deterministic_rerun_without_timings(self, tmp_path):
        args = ["bench", "--N", "3", "--r", "0.9", "--trials", "2",
                "--M", "20", "--L", "150", "--seed", "4", "--omit-timings"]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for name in ("trials.csv", "aggregate.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_infinite_snr_written_as_inf(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--N", "3", "--r", "0.9", "--snr", "inf",
                       "--trials", "1", "--M", "20", "--L", "150",
                       "--out", str(out))
        assert code == 0
        for name in ("trials.csv", "aggregate.csv"):
            rows = list(csv.DictReader(io.StringIO((out / name).read_text())))
            assert [row["snr_db"] for row in rows] == ["inf"]

    def test_zero_trials_rejected(self, tmp_path, capsys):
        code = run_cli("bench", "--N", "3", "--r", "0.9", "--trials", "0",
                       "--M", "20", "--L", "100",
                       "--out", str(tmp_path / "x"))
        assert code == 2

    @pytest.mark.parametrize("args", [("--snr", "30", "nan"),
                                      ("--snr=-inf",), ("--L", "3"),
                                      ("--M", "3")],
                             ids=["snr-nan", "snr-minus-inf", "L-below-N",
                                  "M-below-N"])
    def test_bad_snr_or_too_few_pixels_exit_2(self, tmp_path, capsys, args):
        # rejected before any trial runs, as an infeasible purity is
        out = tmp_path / "bench"
        code = run_cli("bench", "--N", "3", "4", "--r", "0.9", "--trials",
                       "1", "--M", "20", "--L", "100", *args,
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error [params]:")
        assert not out.exists()

    def test_infeasible_cell_rejected(self):
        with pytest.raises(ParameterError):
            BenchSpec(Ns=(3,), rs=(0.5,), snrs=(float("inf"),),
                      trials=1, base_seed=0, M=10, L=50)

    def test_repeated_grid_value_counts_each_trial_once(self, tmp_path):
        # --r 0.9 0.9 makes two cells of one trial each; each aggregate
        # row counts its own cell's trial, not both
        out = tmp_path / "bench"
        code = run_cli("bench", "--N", "3", "--r", "0.9", "0.9",
                       "--trials", "1", "--M", "20", "--L", "100",
                       "--omit-timings", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(
            (out / "aggregate.csv").read_text())))
        assert [(row["trials"], row["n_ok"]) for row in rows] == [
            ("1", "1"), ("1", "1")]

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_exit_2(self, n, tmp_path):
        # the purity bound takes 1/sqrt(N); N is checked before it
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        code = "import sys, mviefact.cli as c; sys.exit(c.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "bench", "--N", n, "--r", "0.9",
             "--trials", "1", "--M", "20", "--L", "100",
             "--out", str(tmp_path / "bench")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error [params]: ")

    def test_failed_trial_recorded(self, tmp_path, monkeypatch):
        # a trial whose pipeline raises carries its error status (M < N,
        # which used to fail the affine fit, is now rejected up front)
        def fail(x, n):
            raise ConvergenceFailure("solve did not converge")

        monkeypatch.setattr(recovery, "run_pipeline", fail)
        spec = BenchSpec(Ns=(3,), rs=(0.9,), snrs=(float("inf"),),
                         trials=1, base_seed=0, M=20, L=50)
        results, aggregates = run_bench(spec)
        assert len(results) == 1
        assert results[0].status.startswith("error:")
        assert aggregates[0]["n_ok"] == 0
        write_results_csv(tmp_path / "t.csv", results)
        assert "error:" in (tmp_path / "t.csv").read_text()


@pytest.mark.parametrize("knob", [["--fast"], ["--config", "x.json"],
                                  ["--tau", "1e-3"]],
                         ids=["fast", "config", "tau"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_solver_options_are_usage_errors(command, knob, tmp_path, capsys):
    # the MVIE has one solver and one contact rule: no option selects or
    # tunes either, and argparse rejects the old ones before any work
    args = {"run": ["--input", str(tmp_path / "X.csv"), "--N", "3",
                    "--out", str(tmp_path / "report.json")],
            "bench": ["--N", "3", "--r", "0.9", "--trials", "1",
                      "--M", "20", "--L", "100",
                      "--out", str(tmp_path / "bench")]}[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, *knob)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_runs_without_runpy_warning():
    # the package loads cli on first use, so running it as __main__ does
    # not find it imported already, and mviefact.cli still resolves
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    for args in (["-m", "mviefact.cli", "--help"],
                 ["-c", "import mviefact; mviefact.cli.main(['--help'])"]):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", *args], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: mviefact")
