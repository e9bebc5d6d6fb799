"""The scripts run end to end on tiny inputs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def script_env():
    """The environment with the package's source on the path, BLAS on
    one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def run_script(script, args, out):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args,
         "--trials", "1", "--M", "20", "--L", "150", "--out", str(out)],
        env=script_env(), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script,args", [
    ("noise_sweep.py", ["--N", "3"]),
    ("purity_sweep.py", []),
])
def test_sweep_script_runs(script, args, tmp_path):
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(p.name for p in tmp_path.iterdir())
    assert csvs and all(name.endswith(".csv") for name in csvs)
    assert "phi =" in proc.stdout


def test_noise_sweep_rejects_n_below_3(tmp_path):
    # at N=2 the recovery threshold 1/sqrt(N-1) is 1: no purity lies above it
    proc = run_script("noise_sweep.py", ["--N", "2"], tmp_path / "out")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: --N must be at least 3" in proc.stderr.splitlines()[-1]
    assert not (tmp_path / "out").exists()


def test_src_lines_counts_code_apart_from_docstrings(tmp_path):
    # 9 lines: a docstring over two lines, a blank, a comment, a
    # statement over two lines, and a function whose docstring stands
    # alone; the statement, the def and the return are the 4 code lines
    (tmp_path / "mod.py").write_text(
        '"""A module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "x = (1 +\n"
        "     2)\n"
        "def f():\n"
        '    """Its docstring."""\n'
        "    return 'not a docstring'  # trailing comment\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "src_lines.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[0] == ["module", "lines", "code"]
    assert rows[1:] == [["mod.py", "9", "4"], ["total", "9", "4"]]


def test_fit_scale_prints_the_fit_time_and_peak():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "fit_scale.py"),
         "--M", "20", "--L", "500", "--repeats", "2"],
        env=script_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("M=20 L=500 N=4")
    assert lines[1].startswith("dimred stage: median")
    assert [line.split(":")[0] for line in lines[2:]] == [
        "peak beyond X, abundances False", "peak beyond X, abundances True"]


def test_solve_sweep_repeats_bit_for_bit():
    # the rows of two runs compare by diff: 16 instances at N = 3, seed 1
    runs = [subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "solve_sweep.py"),
         "--N", "3", "--seeds", "1"],
        env=script_env(), capture_output=True, timeout=120) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.decode().splitlines()
    assert lines[0].startswith("N,M,L,r,snr_db,seed,termination,touching")
    assert len(lines) == 18 and lines[-1].startswith("# total: 16 solved")
