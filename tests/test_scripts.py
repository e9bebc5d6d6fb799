"""The sweep scripts run end to end on a tiny grid."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script,args", [
    ("noise_sweep.py", ["--N", "3"]),
    ("purity_sweep.py", []),
])
def test_sweep_script_runs(script, args, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args,
         "--trials", "1", "--M", "20", "--L", "150", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(p.name for p in tmp_path.iterdir())
    assert csvs and all(name.endswith(".csv") for name in csvs)
    assert "phi =" in proc.stdout
