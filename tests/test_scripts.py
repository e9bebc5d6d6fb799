"""The sweep scripts run end to end on a tiny grid."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(script, args, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args,
         "--trials", "1", "--M", "20", "--L", "150", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)


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
