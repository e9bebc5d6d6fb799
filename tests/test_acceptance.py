"""Acceptance gates for the package.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete) and asserts the gate at its stated tolerance. Gates
cover: exact recovery above the purity threshold, behavior near and
below it, closed-form solver oracles, the pure-pixel configuration and
its optimality certificate, randomized oracles for the proximal map,
gradients, hulls and the angle metric, and bit-level reproducibility.
"""

import itertools
import math

import numpy as np
import pytest

from mviefact import dimred, hull, metrics, mvie, recovery, synth
from mviefact.cli import BenchSpec, run_bench, write_results_csv
from mviefact.numerics import rng_from_seed

from conftest import pure_pixel_instance, regular_simplex_points
from test_hull import chain_facets
from test_metrics import brute_force_rms
from test_mvie import _prox_scalar_oracle


def gate(tag: str, ok: bool, detail: str):
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {tag}: {detail}"


def _bench_cell(n, r, trials=20, m=50, l=1000, snr=math.inf, seed0=0):
    phis = []
    times = []
    import time
    for trial in range(trials):
        t0 = time.perf_counter()
        gt = synth.make_instance(m, n, l, r, snr, seed0 + trial)
        rep = recovery.run_pipeline(gt.X, n)
        phi, _ = metrics.rms_angle_error(gt.A, rep.A_hat)
        phis.append(phi)
        times.append(time.perf_counter() - t0)
    return np.array(phis), np.array(times)


def test_1_exact_recovery_above_threshold():
    lines = []
    ok = True
    for n, r in [(3, 0.85), (4, 0.7), (5, 0.7)]:
        phis, times = _bench_cell(n, r)
        ok &= phis.mean() <= 0.05
        lines.append(f"N={n} r={r}: phi={phis.mean():.4f}+-{phis.std():.4f} "
                     f"deg ({times.mean():.2f} s/trial)")
    gate("1", ok, "noiseless recovery, 20 trials/cell, gate mean<=0.05 deg; "
         + "; ".join(lines))


def test_2_near_threshold_recovery():
    phis, _ = _bench_cell(3, 0.72)
    gate("2", phis.mean() <= 0.5,
         f"N=3 r=0.72 (threshold 0.7071): phi={phis.mean():.4f}"
         f"+-{phis.std():.4f} deg, gate mean<=0.5")


def test_3_below_threshold_degrades():
    phis, _ = _bench_cell(3, 0.65)
    gate("3", phis.mean() >= 1.0,
         f"N=3 r=0.65 < 0.7071: phi={phis.mean():.2f} deg, gate mean>=1.0")


def test_4a_square_oracle():
    g = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    poly = hull.HPolytope(2, g, np.ones(4), np.zeros(2), 1e-9)
    ell, _ = mvie.solve_mvie_high_accuracy(poly)
    df = np.abs(ell.F - np.eye(2)).max()
    dc = np.abs(ell.c).max()
    gate("4a", df <= 1e-4 and dc <= 1e-4,
         f"square [-1,1]^2 -> unit disk: |F-I|={df:.2e}, |c|={dc:.2e}")


def test_4b_triangle_incircle_oracle():
    # The max-area ellipse inscribed in a triangle is its Steiner
    # inellipse (Boyd & Vandenberghe, Convex Optimization, 8.4.2): centered
    # at the centroid, F* = sqrt of (1/6) sum (v_i - c*)(v_i - c*)^T, which
    # is affine-covariant and gives R/2 on an equilateral triangle. The
    # incircle r=(2-sqrt(2))/2 is only the largest disk, a strictly smaller
    # feasible ellipse. See notes/decisions.md.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    poly = hull.enumerate_facets(pts)
    ell, _ = mvie.solve_mvie_high_accuracy(poly)
    c_star = pts.mean(axis=0)
    lam, u = np.linalg.eigh((pts - c_star).T @ (pts - c_star) / 6.0)
    f_star = (u * np.sqrt(lam)) @ u.T
    r = (2.0 - math.sqrt(2.0)) / 2.0
    df = np.abs(ell.F - f_star).max()
    dc = np.abs(ell.c - c_star).max()
    det_ratio = np.linalg.det(ell.F) / r ** 2
    gate("4b", df <= 1e-4 and dc <= 1e-4 and det_ratio > 1.0,
         f"triangle -> Steiner inellipse: |F-F*|={df:.2e}, "
         f"|c-c*|={dc:.2e}, det F / r_incircle^2 = {det_ratio:.4f} (> 1)")


def _pure_pixel_report(n, seed):
    a, x = pure_pixel_instance(n, 50, seed)
    rep = recovery.run_pipeline(x, n)
    return a, x, rep


def test_5_pure_pixel_geometry():
    ok = True
    lines = []
    for n, seed in [(3, 21), (4, 3)]:
        a, x, rep = _pure_pixel_report(n, seed)
        abar = a.mean(axis=1)
        ce = np.linalg.norm(rep.center_ambient - abar) / np.linalg.norm(abar)
        q_true = ((a.sum(axis=1)[:, None] - a) / (n - 1)).T
        qe = 0.0
        for q in rep.contacts_ambient:
            d = np.linalg.norm(q_true - q, axis=1)
            qe = max(qe, d.min() / np.linalg.norm(q_true[d.argmin()]))
        ok &= ce <= 1e-3 and qe <= 1e-3
        lines.append(f"N={n}: center err {ce:.2e}, contact err {qe:.2e}")
    gate("5", ok, "pure-pixel instances, gate 1e-3 relative; "
         + "; ".join(lines))


def test_6_john_certificate():
    # The certificate validates the analytically known optimal
    # configuration of the pure-pixel instance (ellipsoid and facet
    # midpoints from the true signatures) with fitted weights, and the
    # solved ellipsoid's own residual at the same tolerance.
    ok = True
    lines = []
    for n, seed in [(3, 21), (4, 3)]:
        a, x, rep = _pure_pixel_report(n, seed)
        chart = dimred.affine_fit(x, n)
        _, c_mat = regular_simplex_points(n)
        beta = 1.0 / math.sqrt(n * (n - 1))
        f_true = beta * chart.Phi.T @ a @ c_mat
        abar = a.mean(axis=1)
        c_true = chart.Phi.T @ (abar - chart.b)
        q_true = ((a.sum(axis=1)[:, None] - a) / (n - 1)).T
        q_red = dimred.reduce_points(q_true.T, chart).T
        cert = mvie.check_john(mvie.Ellipsoid(f_true, c_true), q_red)
        solved = mvie.check_john(rep.ellipsoid, rep.contacts_reduced)
        ok &= cert.residual <= 1e-6
        ok &= solved.residual <= 1e-6
        lines.append(f"N={n}: residual {cert.residual:.2e} "
                     f"(solved-ellipsoid residual {solved.residual:.2e})")
    gate("6", ok, "weighted contact conditions, gate 1e-6; "
         + "; ".join(lines))


def test_7_prox_matches_grid_search():
    gen = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(gen.integers(2, 5))
        v = gen.standard_normal((d, d)) * gen.uniform(0.5, 2.0)
        t = float(gen.uniform(0.01, 5.0))
        rho = float(gen.uniform(0.5, 300.0))
        cfg = mvie.FpgmConfig(rho=rho, eps=1e-8)
        out = mvie.prox_logdet(v, t, cfg)
        lam = np.linalg.eigvalsh(0.5 * (v + v.T))
        got = np.sort(np.linalg.eigvalsh(out))
        for i, l in enumerate(lam):
            worst = max(worst,
                        abs(got[i] - _prox_scalar_oracle(l, t / rho, 1e-8)))
    gate("7", worst <= 1e-6,
         f"1000 random prox evaluations vs per-eigenvalue grid search: "
         f"worst |closed form - grid| = {worst:.2e}, gate 1e-6")


def test_8_gradient_matches_finite_differences():
    gen = np.random.default_rng(512)
    cfg = mvie.FpgmConfig(eps=1e-12)
    worst = 0.0
    for _ in range(100):
        d = int(gen.integers(2, 5))
        k = int(gen.integers(d + 1, 14))
        g = gen.standard_normal((k, d))
        g /= np.linalg.norm(g, axis=1)[:, None]
        poly = hull.HPolytope(d, g, gen.uniform(0.2, 1.5, k), np.zeros(d),
                              0.0)
        w0 = gen.standard_normal((d, d)) * 0.6
        w = 0.5 * (w0 + w0.T)
        y = gen.standard_normal(d) * 0.4
        _, gw, gy = mvie.objective_and_grad(w, y, poly, cfg)
        dw0 = gen.standard_normal((d, d))
        dw = 0.5 * (dw0 + dw0.T)
        dy = gen.standard_normal(d)
        nrm = math.sqrt(np.sum(dw * dw) + dy @ dy)
        dw /= nrm
        dy /= nrm
        h = 1e-6
        fp, _, _ = mvie.objective_and_grad(w + h * dw, y + h * dy, poly, cfg)
        fm, _, _ = mvie.objective_and_grad(w - h * dw, y - h * dy, poly, cfg)
        fd = (fp - fm) / (2 * h)
        an = float(np.sum(gw * dw) + gy @ dy)
        if abs(fd) > 1e-8:
            worst = max(worst, abs(an - fd) / abs(fd))
    gate("8", worst <= 1e-4,
         f"100 random objective gradients vs central differences: "
         f"worst relative error {worst:.2e}, gate 1e-4")


def test_9_hull_properties():
    gen = np.random.default_rng(99)
    clouds = 0
    ok = True
    worst_viol = -math.inf
    for d in (2, 3, 4):
        for l in (50, 1000):
            for _ in range(34):
                pts = gen.standard_normal((l, d)) * gen.uniform(0.5, 2.0)
                poly = hull.enumerate_facets(pts)
                clouds += 1
                slack = poly.offsets[None] - pts @ poly.normals.T
                worst_viol = max(worst_viol, float(-slack.min()))
                ok &= slack.min() >= -poly.eps_hull
                support = (np.abs(slack) <= poly.eps_hull).sum(axis=0)
                ok &= bool(np.all(support >= d))
                if d == 2:
                    ref = chain_facets(pts)
                    ok &= poly.n_facets == len(ref)
                    got = sorted(map(tuple, np.column_stack(
                        [poly.normals, poly.offsets]).round(8)))
                    exp = sorted(tuple(np.append(g, h).round(8))
                                 for g, h in ref)
                    ok &= bool(np.allclose(got, exp, atol=1e-8))
    gate("9", ok,
         f"{clouds} random clouds (d in 2..4, L in 50/1000): soundness, "
         f">=d support points per facet, 2-D facets match the "
         f"monotone-chain oracle (worst outside-violation {worst_viol:.1e})")


def test_10_angle_metric_matches_brute_force():
    gen = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 7))
        a = gen.random((10, n)) + 0.05
        b = gen.random((10, n)) + 0.05
        phi, _ = metrics.rms_angle_error(a, b)
        worst = max(worst, abs(phi - brute_force_rms(a, b)))
    gate("10", worst <= 1e-9,
         f"100 random pairs, N<=6: exhaustive-permutation oracle, "
         f"worst |diff| = {worst:.2e} deg")


def test_11_bench_determinism(tmp_path):
    spec = BenchSpec(Ns=(3,), rs=(0.85,), snrs=(math.inf,), trials=3,
                     base_seed=42, M=30, L=300)
    outs = []
    for tag in ("a", "b"):
        results, _ = run_bench(spec)
        path = tmp_path / f"{tag}.csv"
        write_results_csv(path, results, omit_timings=True)
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1]

    # timing columns are wall-clock measurements; with them included the
    # result columns must still agree field-for-field
    res1, _ = run_bench(spec)
    res2, _ = run_bench(spec)
    fields_match = all(
        (t1.seed, t1.status, t1.rms_angle_deg, t1.K_facets, t1.permutation)
        == (t2.seed, t2.status, t2.rms_angle_deg, t2.K_facets, t2.permutation)
        for t1, t2 in zip(res1, res2))
    gate("11", identical and fields_match,
         "repeated bench cell: byte-identical CSVs (timings omitted), "
         "bit-identical result fields otherwise")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
