"""Tests of the benchmark itself: its checks and a smoke run per workload.

Run from the root of the repository (about two minutes, most of it in
the smoke runs):

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so that the package's own test
suite does not collect it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import nnls

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402


def rotate_columns(a, deg, rng):
    """Turn every column of a by exactly deg degrees, keeping its norm."""
    out = np.empty_like(a)
    for j in range(a.shape[1]):
        u = a[:, j] / np.linalg.norm(a[:, j])
        w = rng.standard_normal(a.shape[0])
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        t = math.radians(deg)
        out[:, j] = np.linalg.norm(a[:, j]) * (math.cos(t) * u
                                               + math.sin(t) * w)
    return out


def simplex_with_mvie(n, rng):
    """Vertices (rows) of a random simplex in R^(n-1) and its maximum-volume
    inscribed ellipsoid: the affine image of a regular simplex's insphere."""
    e = np.eye(n) - np.ones((n, n)) / n
    u, _, _ = np.linalg.svd(e)
    regular = u[:, :n - 1]                        # circumradius sqrt((n-1)/n)
    t = rng.standard_normal((n - 1, n - 1)) + 2.0 * np.eye(n - 1)
    shift = rng.standard_normal(n - 1)
    vertices = regular @ t.T + shift
    radius = math.sqrt((n - 1) / n) / (n - 1)
    lam, vec = np.linalg.eigh(t @ t.T)
    f = radius * (vec * np.sqrt(lam)) @ vec.T
    return vertices, f, shift


# -- phi ----------------------------------------------------------------------

def test_phi_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    a, b = rng.random((20, 5)), rng.random((20, 5))
    phi, cols = checks.rms_angle_deg(a, b)
    ua, ub = a / np.linalg.norm(a, axis=0), b / np.linalg.norm(b, axis=0)
    ang = np.arccos(np.clip(ua.T @ ub, -1, 1))
    best = min(sum(ang[i, p[i]] ** 2 for i in range(5))
               for p in itertools.permutations(range(5)))
    assert phi == pytest.approx(math.degrees(math.sqrt(best / 5)), rel=1e-9)
    assert sorted(cols) == list(range(5))


def test_phi_accepts_truth_up_to_order_and_scale():
    rng = np.random.default_rng(1)
    a = rng.random((50, 4))
    a_hat = 3.0 * a[:, [2, 0, 3, 1]]
    phi = checks.rms_angle_deg(a, a_hat)[0]
    assert phi < 1e-6
    assert checks.check_phi(phi, checks.EXACT_PHI_DEG) == []


@pytest.mark.parametrize("limit", [checks.EXACT_PHI_DEG, checks.NOISY_PHI_DEG])
def test_phi_rejects_a_hat_past_tolerance(limit):
    rng = np.random.default_rng(2)
    a = rng.random((50, 4))
    inside = checks.rms_angle_deg(a, rotate_columns(a, 0.9 * limit, rng))[0]
    outside = checks.rms_angle_deg(a, rotate_columns(a, 1.1 * limit, rng))[0]
    assert outside == pytest.approx(1.1 * limit)
    assert checks.check_phi(inside, limit) == []
    assert checks.check_phi(outside, limit) != []


# -- ellipsoid and hull -------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 6])
def test_inscribed_accepts_the_true_mvie_and_rejects_it_scaled(n):
    vertices, f, c = simplex_with_mvie(n, np.random.default_rng(n))
    normals, offsets = checks.hull_facets(vertices)
    assert checks.ellipsoid_crossing(f, c, normals, offsets) < 1e-12
    assert checks.check_inscribed(f, c, normals, offsets) == []
    assert checks.check_inscribed(1.01 * f, c, normals, offsets) != []


def test_chart_from_contacts_recovers_the_affine_map():
    rng = np.random.default_rng(3)
    phi, _ = np.linalg.qr(rng.standard_normal((50, 3)))
    b = rng.standard_normal(50)
    reduced = rng.standard_normal((5, 3))
    got_phi, got_b = checks.chart_from_contacts(reduced, reduced @ phi.T + b)
    assert np.allclose(got_phi, phi) and np.allclose(got_b, b)
    x = phi @ rng.standard_normal((3, 40)) + b[:, None]
    assert np.allclose(checks.reduce(x, got_phi, got_b) @ phi.T + b, x.T)


def test_points_inside_accepts_the_hull_and_rejects_tighter_facets():
    points = np.random.default_rng(4).standard_normal((300, 4))
    normals, offsets = checks.hull_facets(points)
    eps = 1e-9 * float(np.ptp(points, axis=0).max())
    assert checks.check_points_inside(points, normals, offsets, eps) == []
    assert checks.check_points_inside(points, normals, offsets - 1e-6,
                                      eps) != []


# -- abundances ---------------------------------------------------------------

def test_simplex_columns_accept_truth_and_reject_columns_off_it():
    s = np.random.default_rng(5).dirichlet(np.ones(4), size=100).T
    assert checks.check_simplex_columns(s) == []
    off_sum = s.copy()
    off_sum[0, 7] += 1e-3
    assert checks.check_simplex_columns(off_sum) != []
    negative = s.copy()
    negative[:, 9] = [1.2, -0.2, 0.0, 0.0]
    assert checks.check_simplex_columns(negative) != []


def test_fcls_objective_agrees_with_nnls_and_a_sum_to_one_row():
    rng = np.random.default_rng(6)
    a = rng.random((50, 4))
    x = a @ rng.dirichlet(np.ones(4), size=30).T
    x += 0.3 * rng.standard_normal(x.shape)
    weight = 1e4
    aug = np.vstack([a, weight * np.ones((1, 4))])
    for j in range(x.shape[1]):
        s, _ = nnls(aug, np.append(x[:, j], weight))
        s /= s.sum()
        ref = float(np.sum((a @ s - x[:, j]) ** 2))
        got = float(checks.fcls_objective(a, x[:, j:j + 1])[0])
        assert got <= ref * (1 + 1e-9)
        assert got == pytest.approx(ref, rel=1e-5)


def test_fcls_accepts_truth_and_rejects_a_worse_simplex_point():
    rng = np.random.default_rng(7)
    a = rng.random((50, 4))
    s = rng.dirichlet(np.ones(4), size=60).T
    x = a @ s
    assert checks.check_fcls(a, x, s) == []
    worse = s.copy()
    worse[:, 3] = 0.9 * s[:, 3] + 0.1 * np.eye(4)[0]
    assert checks.check_simplex_columns(worse) == []
    assert checks.check_fcls(a, x, worse) != []


# -- the benchmark as a program -----------------------------------------------

@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_one_round_of_each_workload(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    wl = run.WORKLOADS[workload]
    assert out["correct"] is True
    assert out["attempted"] == len(wl.panel)
    assert out["failed"] == (len(wl.panel) if wl.known_fault else 0)
    assert set(out["metrics"]) == set(run.LAYER_UNITS)
    layers = {k: v["value"] for k, v in out["metrics"].items()}
    assert (layers["recovery.abundances_s"] > 0) == wl.abundances


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n4-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout


def test_probe_puts_every_attribute_back():
    import mviefact
    from probe import COUNTERS, SPANS, Probe
    names = [(getattr(mviefact, m), a) for m, a, _ in SPANS + COUNTERS]
    before = [getattr(mod, attr) for mod, attr in names]
    probe = Probe(mviefact, trace=True)
    assert all(getattr(mod, attr) is not orig
               for (mod, attr), orig in zip(names, before))
    probe.close()
    assert all(getattr(mod, attr) is orig
               for (mod, attr), orig in zip(names, before))
