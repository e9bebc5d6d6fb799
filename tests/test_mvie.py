import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from mviefact import dimred, hull, mvie, synth
from mviefact.errors import Divergence, EmptyInterior, TooFewContacts
from mviefact.mvie import (
    Ellipsoid,
    FpgmConfig,
    check_john,
    composite_objective,
    huber,
    huber_prime,
    objective_and_grad,
    prox_logdet,
    solve_mvie,
    solve_mvie_high_accuracy,
)

from conftest import random_symmetric, regular_simplex_points, square_polytope


class TestHuber:
    def test_negative_branch(self):
        assert huber(-0.3) == 0.0
        assert huber_prime(-0.3) == 0.0

    def test_quadratic_branch(self):
        assert huber(0.5) == 0.125
        assert huber_prime(0.5) == 0.5

    def test_linear_branch(self):
        assert huber(2.0) == 1.5
        assert huber_prime(2.0) == 1.0

    def test_convex_and_c1(self):
        z = np.linspace(-2, 3, 2001)
        psi = huber(z)
        dpsi = huber_prime(z)
        assert np.all(np.diff(dpsi) >= -1e-12)  # psi' nondecreasing
        mid = 0.5 * (z[1:] + z[:-1])
        fd = np.diff(psi) / np.diff(z)
        assert np.abs(fd - huber_prime(mid)).max() <= 2e-3


class TestObjectiveAndGrad:
    def test_deep_interior_is_flat(self):
        poly = square_polytope()
        f, gw, gy = objective_and_grad(np.zeros((2, 2)), np.zeros(2), poly,
                                       FpgmConfig())
        assert f == 0.0
        assert np.all(gw == 0.0) and np.all(gy == 0.0)

    def test_single_facet_hand_value(self):
        poly = hull.HPolytope(2, np.array([[1.0, 0.0]]), np.zeros(1),
                              np.array([-1.0, 0.0]), 0.0)
        cfg = FpgmConfig(eps=1e-30)
        f, _, _ = objective_and_grad(np.eye(2), np.zeros(2), poly, cfg)
        assert abs(f - 0.5) <= 1e-8

    def test_gradient_vs_finite_differences(self):
        # central differences along random symmetric directions
        cfg = FpgmConfig(eps=1e-12)
        gen = np.random.default_rng(123)
        worst = 0.0
        for trial in range(100):
            d = int(gen.integers(2, 5))
            k = int(gen.integers(d + 1, 12))
            g = gen.standard_normal((k, d))
            g /= np.linalg.norm(g, axis=1)[:, None]
            poly = hull.HPolytope(d, g, gen.uniform(0.2, 1.5, k),
                                  np.zeros(d), 0.0)
            w = random_symmetric(gen, d, scale=0.7)
            y = gen.standard_normal(d) * 0.4
            f, gw, gy = objective_and_grad(w, y, poly, cfg)
            dw = random_symmetric(gen, d)
            dy = gen.standard_normal(d)
            scale = math.sqrt(np.sum(dw * dw) + dy @ dy)
            dw /= scale
            dy /= scale
            h = 1e-6
            fp, _, _ = objective_and_grad(w + h * dw, y + h * dy, poly, cfg)
            fm, _, _ = objective_and_grad(w - h * dw, y - h * dy, poly, cfg)
            fd = (fp - fm) / (2 * h)
            an = float(np.sum(gw * dw) + gy @ dy)
            if abs(fd) > 1e-8:
                worst = max(worst, abs(an - fd) / abs(fd))
        assert worst <= 1e-4

    def test_grad_w_is_symmetric(self, rng):
        poly = square_polytope()
        w = random_symmetric(rng, 2, scale=2.0)
        _, gw, _ = objective_and_grad(w, rng.standard_normal(2), poly,
                                      FpgmConfig())
        assert np.array_equal(gw, gw.T)


def _prox_scalar_oracle(lam, t_over_rho, eps):
    """Two-pass grid search for argmin over d >= eps of
    0.5 (lam - d)^2 - t_over_rho * ln d.

    The minimizer is at most max(lam, 0) + sqrt(t_over_rho), so the
    bracket below always contains it (also when lam is very negative).
    """
    lo, hi = eps, max(lam, 0.0) + 4.0 * math.sqrt(t_over_rho) + 1.0

    def refine(lo, hi):
        d = np.linspace(lo, hi, 100_000)
        vals = 0.5 * (lam - d) ** 2 - t_over_rho * np.log(d)
        i = int(np.argmin(vals))
        return d[max(i - 1, 0)], d[min(i + 1, d.size - 1)]

    lo2, hi2 = refine(lo, hi)
    d = np.linspace(lo2, hi2, 100_000)
    vals = 0.5 * (lam - d) ** 2 - t_over_rho * np.log(d)
    return float(d[np.argmin(vals)])


class TestProxLogdet:
    def test_example_diag(self):
        cfg = FpgmConfig(rho=1.0, eps=1e-8)
        out = prox_logdet(np.diag([3.0, -1.0]), 2.0, cfg)
        expect = np.diag([(3.0 + math.sqrt(17.0)) / 2.0, 1.0])
        assert np.abs(out - expect).max() <= 1e-12
        # cross-check against the scalar grid oracle
        for lam, d in [(3.0, out[0, 0]), (-1.0, out[1, 1])]:
            assert abs(d - _prox_scalar_oracle(lam, 2.0, 1e-8)) <= 1e-6

    def test_zero_matrix(self):
        cfg = FpgmConfig(rho=1.0, eps=1e-8)
        out = prox_logdet(np.zeros((3, 3)), 1.0, cfg)
        assert np.abs(out - np.eye(3)).max() <= 1e-12

    def test_floor_is_psd(self, rng):
        cfg = FpgmConfig()
        for _ in range(10):
            v = rng.standard_normal((4, 4))
            out = prox_logdet(v, 0.5, cfg)
            w = np.linalg.eigvalsh(out - cfg.eps * np.eye(4))
            assert w.min() >= -1e-15

    def test_grid_oracle_random(self):
        gen = np.random.default_rng(77)
        for _ in range(200):
            d = int(gen.integers(2, 5))
            v = gen.standard_normal((d, d))
            t = float(gen.uniform(0.01, 5.0))
            rho = float(gen.uniform(0.5, 300.0))
            cfg = FpgmConfig(rho=rho, eps=1e-8)
            out = prox_logdet(v, t, cfg)
            lam, u = np.linalg.eigh(0.5 * (v + v.T))
            got = np.sort(np.linalg.eigvalsh(out))
            for i, l in enumerate(lam):
                ref = _prox_scalar_oracle(l, t / rho, 1e-8)
                assert abs(got[i] - ref) <= 1e-6


class TestSolve:
    def test_square_gives_unit_disk(self):
        ell, diag = solve_mvie_high_accuracy(square_polytope())
        assert np.abs(ell.F - np.eye(2)).max() <= 1e-5
        assert np.abs(ell.c).max() <= 1e-5
        assert diag.termination in ("tol", "max_iter")

    def test_triangle_gives_steiner_inellipse(self):
        # the max-area inscribed ellipse of any triangle touches the side
        # midpoints and sits at the centroid: the affine image of the
        # regular simplex's inscribed ball (an independent closed form)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        poly = hull.enumerate_facets(pts)
        ell, _ = solve_mvie_high_accuracy(poly)
        eq, _ = regular_simplex_points(3)
        a_ls = np.hstack([eq, np.ones((3, 1))])
        sol = np.linalg.solve(a_ls, pts)
        m, shift = sol[:2].T, sol[2]
        beta = 1.0 / math.sqrt(3 * 2)
        lam, u = np.linalg.eigh(beta ** 2 * (m @ m.T))
        f_star = (u * np.sqrt(lam)) @ u.T
        assert np.abs(ell.c - shift).max() <= 1e-5      # centroid (1/3, 1/3)
        assert np.abs(ell.F - f_star).max() <= 1e-5
        # strictly better than the incircle, which is optimal only among disks
        r_in = (2.0 - math.sqrt(2.0)) / 2.0
        assert np.linalg.det(ell.F) > r_in ** 2 * 1.1

    def test_regular_simplex_gives_known_ball(self):
        # inscribed ball radius 1/sqrt(N(N-1)) centered at the origin
        for n in (3, 4):
            pts, _ = regular_simplex_points(n)
            poly = hull.enumerate_facets(pts)
            ell, _ = solve_mvie_high_accuracy(poly)
            beta = 1.0 / math.sqrt(n * (n - 1))
            assert np.abs(ell.F - beta * np.eye(n - 1)).max() <= 1e-4
            assert np.abs(ell.c).max() <= 1e-6

    @staticmethod
    def _scaled_triangles():
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for scale in (1e-4, 1.0, 1e4):
            poly = hull.enumerate_facets(scale * pts)
            yield scale, poly, solve_mvie_high_accuracy(poly)[0]

    def test_scale_covariant(self):
        # solving the triangle in other units rescales F and c exactly
        solved = list(self._scaled_triangles())
        f_unit = solved[1][2].F
        c_unit = solved[1][2].c
        for scale, _, ell in solved:
            assert np.abs(ell.F / scale - f_unit).max() <= 1e-9
            assert np.abs(ell.c / scale - c_unit).max() <= 1e-9

    def test_returned_ellipsoid_is_inscribed(self):
        for _, poly, ell in self._scaled_triangles():
            excess = (np.linalg.norm(poly.normals @ ell.F, axis=1)
                      + poly.normals @ ell.c - poly.offsets)
            assert excess.max() <= 0.0

    def test_monotone_trace_and_symmetry(self, rng):
        pts = rng.standard_normal((60, 3))
        poly = hull.enumerate_facets(pts)
        ell, diag = solve_mvie(poly)
        trace = np.array(diag.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert np.linalg.norm(ell.F - ell.F.T) <= 1e-12 * np.linalg.norm(ell.F)
        assert np.linalg.eigvalsh(ell.F).min() >= FpgmConfig().eps

    def test_recomputed_objective_matches_trace(self, rng):
        pts = rng.standard_normal((40, 2))
        poly = hull.enumerate_facets(pts)
        cfg = FpgmConfig()
        ell, diag = solve_mvie(poly, cfg)
        assert abs(composite_objective(ell.F, ell.c, poly, cfg)
                   - diag.final_objective) <= 1e-10

    def test_feasibility_at_convergence(self, rng):
        pts = rng.standard_normal((200, 3))
        poly = hull.enumerate_facets(pts)
        ell, _ = solve_mvie_high_accuracy(poly)
        viol = (np.linalg.norm(poly.normals @ ell.F.T, axis=1)
                + poly.normals @ ell.c - poly.offsets).max()
        diam = 2.0 * np.linalg.norm(pts, axis=1).max()
        assert viol <= 1e-6 * diam

    def test_empty_interior(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        h = np.array([1.0, -2.0])  # x <= 1 and x >= 2: empty
        poly = hull.HPolytope(2, g, h, np.zeros(2), 0.0)
        with pytest.raises(EmptyInterior):
            solve_mvie(poly)

    @pytest.mark.filterwarnings("error")
    def test_unbounded_polytope_diverges(self):
        # A quadrant and a slab contain inscribed ellipses of any area.
        # A seed ray leaves each through no facet, so both solves raise
        # before any step.
        quadrant = hull.HPolytope(2, np.eye(2), np.ones(2), np.zeros(2), 0.0)
        slab = hull.HPolytope(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                              np.ones(2), np.zeros(2), 0.0)
        for solve in (solve_mvie, solve_mvie_high_accuracy):
            for poly in (quadrant, slab):
                with pytest.raises(Divergence,
                                   match="leaves through no facet"):
                    solve(poly)

    def test_diagnostics_shapes(self):
        ell, diag = solve_mvie(square_polytope())
        assert diag.iterations == len(diag.backtracks)
        assert diag.iterations == len(diag.inv_step_trace)
        assert len(diag.objective_trace) == diag.iterations + 1
        assert np.isfinite(diag.objective_trace).all()


def synth_polytope(n, r, l, seed, m=30, snr=math.inf):
    """Facets of the reduced data hull of a synth instance, noiseless
    unless snr (dB) is given."""
    gt = synth.make_instance(m, n, l, r, snr, seed)
    _, reduced = dimred.affine_fit(gt.X, n)
    return hull.enumerate_facets(reduced.T)


def full_set_solve(poly):
    """The barrier path with every facet kept from the start."""
    return mvie._barrier_solve(poly, np.arange(poly.n_facets))


def barrier_only(poly):
    """poly without its spread: the solve takes no guess from the points
    and starts the barrier at once."""
    return dataclasses.replace(poly, spread=None)


def assert_same_ellipsoid(ell, ref, rtol):
    # c is compared at the ellipsoid's size: its own norm depends on where
    # the origin of the reduced coordinates lies
    size = np.linalg.norm(ref.F)
    assert np.linalg.norm(ell.F - ref.F) <= rtol * size
    assert np.linalg.norm(ell.c - ref.c) <= rtol * size


class TestConstraintGeneration:
    @pytest.mark.parametrize("n,r,l", [(4, 0.7, 1000), (5, 0.7, 400),
                                       (6, 0.6, 200), (7, 0.55, 150)])
    def test_matches_full_set_solve(self, n, r, l):
        for seed in (0, 1):
            poly = synth_polytope(n, r, l, seed)
            ell, diag = solve_mvie_high_accuracy(poly)
            assert_same_ellipsoid(ell, full_set_solve(poly)[0], 1e-6)
            assert mvie.max_violation(ell, poly) <= 0.0
            assert diag.kept_facets < poly.n_facets

    def test_repeated_calls_are_bitwise_equal(self):
        poly = synth_polytope(6, 0.6, 200, 0)
        first, _ = solve_mvie_high_accuracy(poly)
        second, _ = solve_mvie_high_accuracy(poly)
        assert np.array_equal(first.F, second.F)
        assert np.array_equal(first.c, second.c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [[5, 25], [0, 10]])
    def test_unbounded_seed_in_bounded_polygon(self, seed):
        # 40 facets with normals at k * 9 degrees; the facets with normals
        # (1, 1) and (-1, -1) (k = 5, 25) sit closer in. Started from that
        # pair (unbounded along (1, -1)) or from the quadrant x, y <= 1
        # (k = 0, 10), the solve must add facets until it has the MVIE.
        ang = 2.0 * np.pi * np.arange(40) / 40
        h = np.ones(40)
        h[[5, 25]] = 0.8
        poly = hull.HPolytope(2, np.column_stack([np.cos(ang), np.sin(ang)]),
                              h, np.array([0.3, -0.2]), 0.0)
        ell, diag = mvie._barrier_solve(poly, np.array(seed))
        assert_same_ellipsoid(ell, full_set_solve(poly)[0], 1e-6)
        assert mvie.max_violation(ell, poly) <= 0.0
        assert diag.kept_facets > len(seed)

    def test_caps_facets_added_per_round(self):
        # On this cloud the iterate once met thousands of facets at a
        # stage end (2257 of 12642 were kept); each round now adds at most
        # d(d+3)/2 = 27, and the solve keeps 181
        poly = synth_polytope(7, 0.55, 150, 0)
        ell, diag = solve_mvie_high_accuracy(poly)
        assert diag.kept_facets <= 300
        assert_same_ellipsoid(ell, full_set_solve(poly)[0], 1e-6)
        assert mvie.max_violation(ell, poly) <= 0.0

    def test_diagnostics_count_every_round(self, monkeypatch):
        # The spread's guess is off: with it this solve ends before any
        # Newton step
        monkeypatch.setattr(mvie, "_simplex_candidate", lambda *args: None)
        poly = synth_polytope(6, 0.6, 200, 0)
        _, diag = solve_mvie_high_accuracy(poly)
        assert diag.rounds > 1
        assert 0 < diag.kept_facets < poly.n_facets
        assert diag.iterations == sum(diag.stage_iterations)
        assert diag.iterations == len(diag.backtracks)
        assert len(diag.objective_trace) == diag.iterations + 1
        # each accepted step is 2^-halvings long
        assert diag.inv_step_trace == [2.0 ** b for b in diag.backtracks]

    def test_cold_start_enters_as_a_warm_one(self, monkeypatch):
        # Without a start the barrier enters from E = I, c' = 0 at t = 1,
        # so E = fit I with fit = min(1, 1/2 the step bound from E = 0
        # along I over the kept facets). The ray-exit facets kept here
        # lack the facet nearest the centre, so fit is 0.50042, not 1/2
        systems = first_newton_system(monkeypatch)
        solve_mvie_high_accuracy(barrier_only(synth_polytope(5, 0.47, 1000,
                                                             1, m=20)))
        e_in, _, s, _, t, gt, _ = systems[0]
        assert t == 1.0
        fit = min(1.0, 0.5 * (s / np.linalg.norm(gt, axis=0)).min())
        assert np.abs(e_in - fit * np.eye(e_in.shape[0])).max() <= 1e-15
        assert fit > 0.5 + 1e-4

    @pytest.mark.parametrize("n,r,l,seed", [(4, 0.7, 1000, 7),
                                            (6, 0.6, 400, 1)])
    def test_rerun_does_not_crawl_from_the_edge(self, monkeypatch, n, r, l,
                                                seed):
        # Re-entered at a fixed 1 - 1e-6 of the new facets' fit, the rerun
        # stage took 12, 11, ..., 0 (here 13, 12, ..., 0) halvings per
        # step to move off that edge. The spread's guess is off: with it
        # both solves end before any Newton step
        monkeypatch.setattr(mvie, "_simplex_candidate", lambda *args: None)
        _, diag = solve_mvie_high_accuracy(synth_polytope(n, r, l, seed, 50))
        assert diag.rounds > 1
        assert max(diag.backtracks) <= 8


class TestStepBound:
    def test_cones_fail_at_the_bound(self, rng):
        # along (E + a dE, c' + a dc) from a strictly feasible point, every
        # s_i > ||E g_i|| must hold just short of the bound and one must
        # fail just past it
        def feasible(gt, h, e, c):
            return bool(np.all(h - c @ gt > np.linalg.norm(e @ gt, axis=0)))

        for _ in range(200):
            d = int(rng.integers(2, 7))
            gt = rng.standard_normal((d, 40))
            gt /= np.linalg.norm(gt, axis=0)
            e = random_symmetric(rng, d) + 2.0 * d * np.eye(d)
            c = rng.standard_normal(d)
            reach = np.linalg.norm(e @ gt, axis=0)
            h = c @ gt + reach * (1.0 + rng.random(40))
            de = random_symmetric(rng, d, scale=rng.choice([0.1, 1.0, 10.0]))
            dc = rng.standard_normal(d) * rng.choice([0.1, 1.0, 10.0])
            s = h - c @ gt
            ut = e @ gt
            gg = (gt[:, None] * gt).reshape(d * d, -1)
            b = s * (dc @ gt) + (ut * (de @ gt)).sum(axis=0)
            bound = mvie._step_bound(gt, gg, s * s - (ut * ut).sum(axis=0),
                                     b, de, dc)
            assert 0.0 < bound < math.inf
            inside, past = 0.999 * bound, 1.001 * bound
            assert feasible(gt, h, e + inside * de, c + inside * dc)
            assert not feasible(gt, h, e + past * de, c + past * dc)

    def test_evaluations_stay_near_newton_steps(self):
        # every line search opens inside the cones, so few trials are
        # rejected; halving from the full step took 2.7-3.3 per step. The
        # spread's guess ends both solves before any step.
        for n, r, l in [(4, 0.7, 1000), (6, 0.6, 200)]:
            _, diag = solve_mvie_high_accuracy(
                barrier_only(synth_polytope(n, r, l, 0)))
            assert diag.evaluations < 1.5 * diag.iterations


@pytest.fixture
def finish_calls(monkeypatch):
    """The arguments of every simplex finish the solves of a test attempt,
    each with its result: (E, c', log det E, gap) when it ended the solve,
    else None."""
    calls = []
    finish = mvie._simplex_finish

    def recorded(*args):
        out = finish(*args)
        calls.append((args, out[0]))
        return out

    monkeypatch.setattr(mvie, "_simplex_finish", recorded)
    return calls


@pytest.fixture
def guess_walk(monkeypatch, finish_calls):
    """A function giving the walk of the spread's guess in the one solve
    of a test: the guessed set (None when the greedy rule found none) and
    the sets the finish was given, in order, each a frozenset of facet
    indices."""
    guesses = []
    candidate = mvie._spread_candidate

    def recorded(*args):
        guesses.append(candidate(*args))
        return guesses[-1]

    monkeypatch.setattr(mvie, "_spread_candidate", recorded)

    def walk():
        [guess] = guesses
        return (None if guess is None else frozenset(guess),
                [frozenset(args[2]) for args, _ in finish_calls])

    return walk


def polygon(k):
    """The regular k-gon with unit inradius, centred at the origin."""
    ang = 2.0 * np.pi * np.arange(k) / k
    return hull.HPolytope(2, np.column_stack([np.cos(ang), np.sin(ang)]),
                          np.ones(k), np.zeros(2), 0.0)


class TestSimplexFinish:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_random_simplex_ends_on_the_closed_form(self, rng, d):
        # x = A u + b maps the regular simplex, whose inscribed ball has
        # radius 1/sqrt((d+1) d), to a simplex whose MVIE is the image of
        # that ball: F = (A A^T / ((d+1) d))^(1/2), c = b. A has singular
        # values 1 to 3 in random orthogonal frames.
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = (q1 * np.linspace(1.0, 3.0, d)) @ q2
        b = rng.standard_normal(d)
        pts, _ = regular_simplex_points(d + 1)
        poly = hull.enumerate_facets(pts @ a.T + b)
        ell, diag = solve_mvie_high_accuracy(poly)
        lam, u = np.linalg.eigh(a @ a.T / ((d + 1) * d))
        f_star = (u * np.sqrt(lam)) @ u.T
        assert diag.termination == "simplex"
        assert np.linalg.norm(ell.F - f_star) <= 1e-9 * np.linalg.norm(f_star)
        assert np.linalg.norm(ell.c - b) <= 1e-9 * np.linalg.norm(f_star)
        assert mvie.max_violation(ell, poly) <= 0.0
        assert diag.gap <= 1e-11
        assert np.array_equal(diag.touching, np.arange(d + 1))
        assert abs(diag.final_objective
                   + np.linalg.slogdet(ell.F)[1]) <= 1e-12 * d

    @pytest.mark.parametrize("d,cut", [(2, 0.5), (3, 0.6)])
    def test_cut_corner_rejects_the_candidate(self, finish_calls, d, cut):
        # The MVIE of conv(0, e_1, ..., e_d) reaches x_1 + ... + x_d = 1/3
        # (d = 2) and 1/2 (d = 3), so cutting the corner at 0 by
        # x_1 + ... + x_d >= cut clips it: no simplex of the polytope's
        # facets has an inscribed ellipsoid inside it
        poly = hull.enumerate_facets(np.vstack([cut * np.eye(d), np.eye(d)]))
        ell, diag = solve_mvie_high_accuracy(poly)
        assert finish_calls
        assert all(end is None for _, end in finish_calls)
        assert diag.termination == "tol"
        assert diag.gap <= 1e-11
        assert_same_ellipsoid(ell, full_set_solve(poly)[0], 1e-6)
        assert mvie.max_violation(ell, poly) <= 0.0

    @pytest.mark.parametrize("n,r,l,seed,m,snr", [
        (6, 0.6, 200, 0, 30, math.inf), (4, 0.7, 1000, 0, 50, 30.0)])
    def test_the_finish_ends_exactly_when_theta_over_all_k_passes(
            self, finish_calls, n, r, l, seed, m, snr):
        # theta = min_i (h_i - g_i . c*) / ||F* g_i|| over all K facets,
        # recomputed here for every candidate the solve tried: the finish
        # ends the solve exactly when theta passes its floor, an unbounded
        # candidate never ends it, and the ellipsoid it ends on lies
        # inside every facet
        poly = synth_polytope(n, r, l, seed, m, snr)
        solve_mvie_high_accuracy(poly)
        assert any(end is None for _, end in finish_calls)
        for (g, h, idx), end in finish_calls:
            d = g.shape[1]
            b_inv = np.linalg.inv(np.column_stack([g[idx], -h[idx]]))
            if b_inv[d].max() >= 0.0:
                assert end is None             # an unbounded candidate
                continue
            v = b_inv[:d] / b_inv[d]
            c = v.mean(axis=1)
            v -= c[:, None]
            lam, u = np.linalg.eigh(v @ v.T / (d * (d + 1)))
            f = (u * np.sqrt(lam)) @ u.T
            ratio = (h - g @ c) / np.linalg.norm(g @ f, axis=1)
            assert ratio.min() <= 1.0 + 1e-12  # F* touches its own facets
            assert (end is not None) == (ratio.min()
                                         >= math.exp(-0.5e-11 / d))
            if end is not None:
                e, cc, _, _ = end
                assert np.all(np.linalg.norm(g @ e, axis=1) + g @ cc < h)

    def test_the_walk_pivots_on_the_facet_that_cuts_deepest(
            self, monkeypatch):
        # The most cutting facet over all K is the one the rejected guess
        # lacks, so the guess's walk reaches the simplex within its d+1 =
        # 6 pivots, before any Newton step; a walk that pivots on a facet
        # cutting less deep stops one short. With the guess off the
        # barrier names the same facets as touching.
        poly = synth_polytope(6, 0.6, 400, 1, 50)
        _, diag = solve_mvie_high_accuracy(poly)
        monkeypatch.setattr(mvie, "_simplex_candidate", lambda *args: None)
        _, ref_diag = solve_mvie_high_accuracy(poly)
        assert diag.termination == "simplex"
        assert diag.iterations == 0
        assert np.array_equal(diag.touching, ref_diag.touching)

    def test_affine_simplices_in_r5_end_inscribed(self, monkeypatch):
        # A badly conditioned simplex (k = 34, cond(A) = 1472) defeats the
        # finish's certificate by rounding, and the path alone left 9 of
        # these 40 slightly outside (4e-16 to 2.6e-13): the path's answer
        # is scaled inside all K facets with the finish's margin. That
        # fit costs -d log theta of log det, so the certified gap may pass
        # 1e-11 (6.0e-11 at k = 34, where min s_i / ||E g_i|| is 1 - 1e-11)
        pts, _ = regular_simplex_points(6)
        polys = []
        for k in range(40):
            rng = np.random.default_rng(k)
            a = rng.standard_normal((5, 5))
            polys.append(hull.enumerate_facets(pts @ a.T
                                               + rng.standard_normal(5)))
        for guess in (True, False):
            if not guess:
                monkeypatch.setattr(mvie, "_simplex_candidate",
                                    lambda *args: None)
            for poly in polys:
                ell, diag = solve_mvie_high_accuracy(poly)
                assert mvie.max_violation(ell, poly) <= 0.0
                assert diag.gap <= 1e-10

    def test_polygons_keep_the_path(self):
        # Their MVIE, the unit incircle, touches every side, and no three
        # sides bound a triangle whose inscribed ellipse it is: that
        # triangle would be equilateral. Every third side of the hexagon
        # does bound one. Built by hand the polygons have no spread, so
        # every solve takes the path; built from their vertices, the
        # spread's guess ends the hexagon's solve on that triangle.
        for k in range(4, 9):
            ang = np.pi * (2.0 * np.arange(k) + 1.0) / k
            vertices = np.column_stack([np.cos(ang), np.sin(ang)])
            hulled = hull.enumerate_facets(vertices / math.cos(math.pi / k))
            for poly, end in [(polygon(k), "tol"),
                              (hulled, "simplex" if k == 6 else "tol")]:
                ell, diag = solve_mvie_high_accuracy(poly)
                assert diag.termination == end
                assert diag.gap <= 1e-11
                assert np.abs(ell.F - np.eye(2)).max() <= 1e-5
                assert mvie.max_violation(ell, poly) <= 0.0

    def test_stage_ends_below_the_last_place_of_f(self, monkeypatch):
        # With the guess off this instance takes the full path. At
        # t = 1e14 a step passes the decrement test whose Armijo decrease,
        # about 1.8e-16, lies below one unit in the last place of f;
        # stopped on the decrement alone, its line search rejected 18
        # trials (45 evaluations for 19 steps). Trials beyond one per
        # Newton step and one per stage run are rejected ones.
        monkeypatch.setattr(mvie, "_simplex_candidate", lambda *args: None)
        poly = synth_polytope(4, 0.7, 1000, 7, m=50, snr=30.0)
        _, diag = solve_mvie_high_accuracy(poly)
        rejected = (diag.evaluations - diag.iterations
                    - len(diag.stage_iterations))
        assert diag.termination == "tol"
        assert rejected < 10


# The unframed benchmark panel: N = 6 noiseless, N = 4 noiseless and at
# 30 dB; and the synth shapes of the sweep, with m, snr and seed varied
PANEL = ([(6, 0.6, 400, seed, 50, math.inf) for seed in range(2)]
         + [(4, 0.7, 1000, seed, 50, snr) for seed in range(8)
            for snr in (math.inf, 30.0)])
SWEEP_SHAPES = [(3, 0.85, 400), (4, 0.7, 1000), (5, 0.7, 400), (6, 0.6, 200),
                (7, 0.55, 150)]


SWEEP = [(n, r, l, seed, m, snr) for n, r, l in SWEEP_SHAPES
         for m in (20, 50) for snr in (math.inf, 30.0, 20.0)
         for seed in range(2)]


@functools.lru_cache(maxsize=None)
def spread_and_barrier(n, r, l, seed, m, snr):
    """The polytope of a synth instance, its solve, and the solve of the
    barrier without the spread, each as (ellipsoid, diagnostics)."""
    poly = synth_polytope(n, r, l, seed, m, snr)
    return (poly, solve_mvie_high_accuracy(poly),
            solve_mvie_high_accuracy(barrier_only(poly)))


def warm_starts(monkeypatch):
    """A list that gets, for each solve of a test whose guess was
    rejected, the number of sets the guess's walk rejected and the start
    _warm_start made of them (None for none)."""
    starts = []
    warm_start = mvie._warm_start

    def recorded(d, rejected):
        starts.append((len(rejected), warm_start(d, rejected)))
        return starts[-1][1]

    monkeypatch.setattr(mvie, "_warm_start", recorded)
    return starts


def first_newton_system(monkeypatch):
    """A list that gets the arguments of the first Newton system of the
    solves of a test: the barrier's start."""
    calls = []
    system = mvie._newton_system

    def recorded(*args):
        if not calls:
            calls.append(args)
        return system(*args)

    monkeypatch.setattr(mvie, "_newton_system", recorded)
    return calls


class TestSpreadStart:
    @staticmethod
    def assert_ends_where_the_barrier_does(case):
        """The solve of the instance ends where the barrier's without the
        spread does: its log det within both certified gaps, on the same
        touching facets and termination when the barrier ran, and when
        the spread's guess ended it on an ellipsoid within 1e-6 of the
        barrier's and on facets the barrier names as touching. Returns
        the Newton steps of both solves when the barrier ran, None when
        the guess ended the solve."""
        poly, (ell, diag), (ref, ref_diag) = spread_and_barrier(*case)
        assert mvie.max_violation(ell, poly) <= 0.0
        assert diag.gap <= 1e-11
        assert (abs(diag.final_objective - ref_diag.final_objective)
                <= diag.gap + ref_diag.gap)
        # "simplex" means the guess ended the solve, and nothing else
        assert ((diag.termination == "simplex") == (diag.rounds == 0)
                == (diag.iterations == 0))
        if case[-1] == math.inf:
            assert diag.rounds == 0
        if diag.rounds > 0:
            assert diag.termination == ref_diag.termination
            assert np.array_equal(diag.touching, ref_diag.touching)
            return diag.iterations, ref_diag.iterations
        assert set(diag.touching) <= set(ref_diag.touching)
        assert_same_ellipsoid(ell, ref, 1e-6)
        assert diag.iterations == diag.evaluations == 0
        assert diag.kept_facets == 0
        assert diag.stage_iterations == []
        return None

    def test_the_panel_ends_where_the_barrier_does(self):
        ran = [self.assert_ends_where_the_barrier_does(case)
               for case in PANEL]
        assert ran.count(None) > 10        # 15 of the 18

    @pytest.mark.parametrize("n,r,l", SWEEP_SHAPES)
    def test_the_sweep_ends_where_the_barrier_does(self, n, r, l):
        for case in SWEEP:
            if case[:3] == (n, r, l):
                self.assert_ends_where_the_barrier_does(case)

    def test_warm_starts_take_fewer_steps_on_the_noisy_panel(self):
        # 3 of the 8 noisy solves reach the barrier, and start it from
        # the guess's best rejected set: 49 Newton steps against 89
        ran = [self.assert_ends_where_the_barrier_does(case)
               for case in PANEL if case[-1] == 30.0]
        warm, cold = map(sum, zip(*filter(None, ran)))
        assert 5 * warm <= 4 * cold

    def test_the_sweep_takes_fewer_steps(self):
        # Some solves take more steps from the warm start (79 -> 117 at
        # N = 6, M = 20, 30 dB, seed 0), and a solve whose guess gave no
        # start takes as many; over the sweep they take fewer, 2168 Newton
        # steps against 2352
        ran = [self.assert_ends_where_the_barrier_does(case)
               for case in SWEEP]
        warm, cold = map(sum, zip(*filter(None, ran)))
        assert warm < cold

    def test_a_rejected_guess_starts_the_barrier_inside(self, monkeypatch):
        # At 30 dB the MVIE touches more than d+1 facets and no simplex
        # is certified. The barrier starts from theta F* about c* of the
        # rejected set of largest log det, which lies inside all K
        # facets, at t = max(1, 2 K_kept / gap), entered t/(t+1) of the
        # way to the kept cones' edge from E = 0, c' = 0
        starts = warm_starts(monkeypatch)
        systems = first_newton_system(monkeypatch)
        poly = synth_polytope(4, 0.7, 1000, 0, m=50, snr=30.0)
        ell, diag = solve_mvie_high_accuracy(poly)
        [(_, (e, cc, logdet, gap))] = starts
        e_in, _, _, _, t, gt, _ = systems[0]
        kept = gt.shape[1]
        assert 0.0 < gap < math.inf
        assert t == max(1.0, 2.0 * kept / gap)
        assert abs(np.linalg.slogdet(e)[1] - logdet) <= 1e-12
        # in the solve's coordinates: about the interior point, scaled
        c0 = poly.interior
        depth = poly.offsets - poly.normals @ c0
        g, h = poly.normals, depth / depth.min()
        reach = np.linalg.norm(g @ e, axis=1)
        assert np.all(reach <= (h - g @ cc) * (1.0 + 1e-12))
        fit = e_in[0, 0] / e[0, 0]
        assert 0.5 <= fit < 1.0
        assert np.abs(e_in - fit * e).max() <= 1e-12 * np.abs(e).max()
        assert np.all(fit * reach < h - g @ (fit * cc))
        _, ref_diag = solve_mvie_high_accuracy(barrier_only(poly))
        assert diag.termination == ref_diag.termination == "tol"
        assert np.array_equal(diag.touching, ref_diag.touching)
        assert diag.iterations < ref_diag.iterations

    def test_a_guess_with_no_inner_set_starts_cold(self, monkeypatch):
        # The guess's walk tries 3 bounded sets here, and the centre c*
        # of each lies outside some facet (theta <= 0): none gives an
        # inscribed start, and the barrier enters from E = I, c' = 0 at
        # t = 1 on the ray-exit facets alone, as without the guess
        starts = warm_starts(monkeypatch)
        poly = synth_polytope(3, 1 / math.sqrt(2) + 0.1, 1000, 0, m=20,
                              snr=20.0)
        ell, diag = solve_mvie_high_accuracy(poly)
        ref, ref_diag = solve_mvie_high_accuracy(barrier_only(poly))
        [(guessed, start)] = starts
        assert start is None
        assert guessed == 3
        assert np.array_equal(ell.F, ref.F)
        assert np.array_equal(ell.c, ref.c)
        assert np.array_equal(diag.touching, ref_diag.touching)
        for name in ("iterations", "stage_iterations", "backtracks",
                     "inv_step_trace", "objective_trace", "final_objective",
                     "evaluations", "kept_facets", "rounds", "gap",
                     "termination"):
            assert getattr(diag, name) == getattr(ref_diag, name), name
        assert diag.pivots == ref_diag.pivots + guessed - 1

    def test_the_guess_walks_one_facet_at_a_time(self, guess_walk):
        # The guess lacks facets of the simplex; the walk swaps them in,
        # one per pivot, before any Newton step, and no set twice
        poly = synth_polytope(6, 0.6, 400, 1, m=50)
        _, diag = solve_mvie_high_accuracy(poly)
        guess, sets = guess_walk()
        assert sets[0] == guess
        assert len(set(sets)) == len(sets)
        assert diag.iterations == 0
        assert all(len(a & b) == poly.dim for a, b in zip(sets, sets[1:]))
        assert diag.pivots == len(sets) - 1
        assert 0 < diag.pivots <= poly.dim + 1


def sym_basis(d):
    """e_i e_i^T for i < d, then e_i e_j^T + e_j e_i^T for the pairs i < j
    in np.triu_indices order: the solve's coordinates of E."""
    out = [np.outer(np.eye(d)[i], np.eye(d)[i]) for i in range(d)]
    for i, j in zip(*np.triu_indices(d, 1)):
        b = np.zeros((d, d))
        b[i, j] = b[j, i] = 1.0
        out.append(b)
    return np.array(out)


def barrier_point(x, gt, h):
    """E, s and Delta_i = s_i^2 - ||E g_i||^2 at x = (coordinates of E,
    c'), s = h - G c'."""
    d = gt.shape[0]
    e = np.tensordot(x[:-d], sym_basis(d), axes=1)
    s = h - x[-d:] @ gt
    return e, s, s * s - ((e @ gt) ** 2).sum(axis=0)


def barrier(x, t, gt, h):
    """-log det E - (1/t) sum_i log Delta_i at x."""
    e, _, delta = barrier_point(x, gt, h)
    return -np.linalg.slogdet(e)[1] - np.log(delta).sum() / t


def einsum_newton_system(e, s, delta, t, gt):
    """Hessian, gradient and vt of the barrier from the vectors E g_i of
    each facet, summed by einsum: the reference for mvie._newton_system."""
    d = gt.shape[0]
    basis = sym_basis(d)
    m_e = basis.shape[0]
    upper, lower = np.triu_indices(d, 1)
    pairs = np.einsum("kab,lbc->klac", basis, basis).reshape(m_e * m_e, -1)
    ut = e @ gt
    w = 1.0 / (t * delta)
    vt = np.empty((m_e + d, gt.shape[1]))
    np.multiply(ut, gt, out=vt[:d])
    np.multiply(ut[upper], gt[lower], out=vt[d:m_e])
    vt[d:m_e] += ut[lower] * gt[upper]
    np.multiply(gt, s, out=vt[m_e:])
    gram = (gt * (2.0 * w)) @ gt.T
    hess = (vt * (4.0 / (t * delta * delta))) @ vt.T
    ei_b = np.linalg.inv(e) @ basis
    hess[:m_e, :m_e] += (
        (pairs @ gram.ravel()).reshape(m_e, m_e)
        + ei_b.reshape(m_e, -1) @ ei_b.transpose(0, 2, 1).reshape(m_e, -1).T)
    hess[m_e:, m_e:] -= gram
    grad = 2.0 * (vt @ w)
    grad[:m_e] -= np.einsum("kaa->k", ei_b)
    return hess, grad, vt


class TestNewtonSystem:
    @pytest.mark.parametrize("t", [1.0, 1e6])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_differences_and_einsum_formulas(self, rng, d, t):
        e = random_symmetric(rng, d) + 2.0 * d * np.eye(d)
        c = rng.standard_normal(d)
        gt = rng.standard_normal((d, 40))
        gt /= np.linalg.norm(gt, axis=0)
        h = c @ gt + np.linalg.norm(e @ gt, axis=0) * (1.1 + rng.random(40))
        gg = (gt[:, None] * gt).reshape(d * d, -1)

        def system(x):
            e, s, delta = barrier_point(x, gt, h)
            return mvie._newton_system(e, np.linalg.inv(e), s, delta, t,
                                       gt, gg)

        x = np.concatenate([np.diag(e), e[np.triu_indices(d, 1)], c])
        hess, grad, vt = system(x)
        fd_grad = np.empty(x.size)
        fd_hess = np.empty((x.size, x.size))
        for k, dx in enumerate(1e-5 * np.eye(x.size)):
            fd_grad[k] = (barrier(x + dx, t, gt, h)
                          - barrier(x - dx, t, gt, h)) / 2e-5
            fd_hess[:, k] = (system(x + dx)[1] - system(x - dx)[1]) / 2e-5
        assert np.abs(grad - fd_grad).max() <= 1e-6 * np.abs(grad).max()
        assert np.abs(hess - fd_hess).max() <= 1e-5 * np.abs(hess).max()

        ref = einsum_newton_system(*barrier_point(x, gt, h), t, gt)
        for got, want in zip((hess, grad, vt), ref):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_lapack_comes_with_scipy_spatial_and_optimize_stays_out():
    # the solve's LAPACK routines are loaded by the hull's scipy.spatial,
    # so they add nothing to the import; scipy.optimize (0.16 s) is
    # imported on use by metrics and check_john
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys; import scipy.spatial; "
            "print('scipy.linalg.lapack' in sys.modules); import mviefact; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


class TestPaperReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,r", [(3, 0.85), (4, 0.7)])
    def test_newton_agrees_with_fpgm(self, n, r, seed):
        # The paper's FPGM at its rho = 150, started at the interior
        # point the Newton solve starts at, stops near the MVIE, within
        # 9.0e-3 in F and 7.6e-3 in c (relative to max|F|) on these
        # instances. Shrunk about its centre until it is inscribed, its
        # volume is below the Newton answer's, which is the maximum.
        poly = synth_polytope(n, r, 1000, seed, m=50)
        fpgm, _ = solve_mvie(poly)
        newton, _ = solve_mvie_high_accuracy(poly)
        size = np.abs(newton.F).max()
        assert np.abs(fpgm.F - newton.F).max() <= 2e-2 * size
        assert np.abs(fpgm.c - newton.c).max() <= 2e-2 * size
        depth = poly.offsets - poly.normals @ fpgm.c
        reach = np.linalg.norm(poly.normals @ fpgm.F, axis=1)
        shrink = min(1.0, float((depth / reach).min()))
        logdet_fpgm = np.linalg.slogdet(shrink * fpgm.F)[1]
        assert logdet_fpgm <= np.linalg.slogdet(newton.F)[1]


def brute_force_exits(g, h, rays):
    """argmin h_i / (g_i . u) over g_i . u > 0, ray by ray; -1 if none."""
    hit = []
    for u in rays:
        proj = g @ u
        ahead = np.flatnonzero(proj > 0.0)
        hit.append(ahead[np.argmin(h[ahead] / proj[ahead])]
                   if ahead.size else -1)
    return np.array(hit)


class TestExitFacets:
    @pytest.mark.parametrize("k,d,blocks", [(40, 3, 1), (5000, 6, 5)])
    def test_matches_brute_force(self, rng, k, d, blocks):
        # The normals lie within 60 degrees of e_1 (g_1 >= 1/2), so every
        # ray -e_1 + v with |v| <= 1/2 leaves through no facet: there
        # g . u <= -1/2 + sin(60 deg) / 2 < 0.
        tilt = rng.uniform(0.0, np.pi / 3, k)
        side = rng.standard_normal((k, d - 1))
        side /= np.linalg.norm(side, axis=1, keepdims=True)
        g = np.column_stack([np.cos(tilt), np.sin(tilt)[:, None] * side])
        h = rng.uniform(0.5, 2.0, k)
        rays = rng.standard_normal((120, d))
        away = rays[::4, 1:]
        away *= 0.5 * rng.random((30, 1)) / np.linalg.norm(
            away, axis=1, keepdims=True)
        rays[::4, 0] = -1.0
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        assert -(-120 // max(1, mvie._RAY_BLOCK // k)) == blocks
        hit = mvie._exit_facets(g, h, rays)
        assert np.array_equal(hit, brute_force_exits(g, h, rays))
        assert (hit[::4] == -1).all() and (hit >= 0).sum() >= 60

    def test_every_seed_ray_leaves_a_bounded_polytope(self):
        poly = synth_polytope(5, 0.7, 400, 0)
        g = poly.normals
        h = poly.offsets - g @ poly.interior
        rays = mvie._seed_rays(poly.dim)
        hit = mvie._exit_facets(g, h, rays)
        assert (hit >= 0).all()
        assert np.array_equal(hit, brute_force_exits(g, h, rays))


def sorted_scan_guess(spread, g, h):
    """The spread's guess by the rule the argmins replace: the facets in
    stable ascending order of h_i / ||R g_i|| (R^T R = spread), then the
    first d+1 whose directions R g_i meet every one taken before at a
    negative inner product, ascending; None when fewer qualify."""
    r, info = dpotrf(spread)
    assert info == 0
    rg = g @ r.T
    pick = []
    for i in np.argsort(h / np.sqrt(np.einsum("ij,ij->i", rg, rg)),
                        kind="stable"):
        if all(rg[i] @ rg[j] < 0.0 for j in pick):
            pick.append(int(i))
            if len(pick) == g.shape[1] + 1:
                return sorted(pick)
    return None


def spread_guess(spread, g, h):
    out = mvie._spread_candidate(spread, g, h)
    return None if out is None else out.tolist()


class TestSpreadGuess:
    def test_matches_the_sorted_scan_on_random_polytopes(self, rng):
        # hulls of Gaussian clouds under their own spread and a random
        # one, and synth hulls with and without noise under their spread
        cases = []
        for _ in range(30):
            d = int(rng.integers(2, 7))
            poly = hull.enumerate_facets(rng.standard_normal((60, d)))
            a = rng.standard_normal((d, d))
            cases += [(poly, poly.spread), (poly, a @ a.T + 0.1 * np.eye(d))]
        for n, snr in [(3, math.inf), (4, 30.0), (5, 20.0), (6, math.inf)]:
            poly = synth_polytope(n, 1.0 / math.sqrt(n - 1) + 0.1, 200,
                                  0, 20, snr)
            cases.append((poly, poly.spread))
        found = 0
        for poly, spread in cases:
            g = poly.normals
            h = poly.offsets - g @ poly.interior
            guess = spread_guess(spread, g, h / h.min())
            assert guess == sorted_scan_guess(spread, g, h / h.min())
            found += guess is not None
        assert 10 <= found < len(cases)

    def test_exact_ties_go_to_the_lower_index(self, rng):
        # Under spread I every facet of these lies at the same distance,
        # bit for bit. The regular tetrahedron's facets meet pairwise at
        # inner product -1: any order picks all four. The cube's meet at
        # 0 or -1: after a facet and its opposite none qualifies. The
        # octahedron's set depends on the order: a facet's antipode taken
        # second leaves none, three of its neighbours give a tetrahedron.
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        tetra = signs[np.prod(signs, axis=1) > 0]
        cube = np.vstack([np.eye(3), -np.eye(3)])
        assert spread_guess(np.eye(3), signs, np.ones(8)) == [0, 3, 5, 6]
        for g, ends in [(tetra, {4}), (cube, {None}), (signs, {None, 4})]:
            seen = set()
            for _ in range(40):
                perm = g[rng.permutation(len(g))]
                guess = spread_guess(np.eye(3), perm, np.ones(len(g)))
                assert guess == sorted_scan_guess(np.eye(3), perm,
                                                  np.ones(len(g)))
                seen.add(None if guess is None else len(guess))
            assert seen == ends


class TestCheckJohn:
    def test_ball_in_square_given_weights(self):
        ell = Ellipsoid(F=np.eye(2), c=np.zeros(2))
        contacts = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
        cert = check_john(ell, contacts, weights=[0.5] * 4)
        assert cert.residual <= 1e-14
        fitted = check_john(ell, contacts)
        assert fitted.residual <= 1e-12
        assert np.allclose(fitted.weights, 0.5, atol=1e-10)

    def test_regular_simplex_configuration(self):
        # contact points are the facet midpoints of the regular simplex;
        # in ball coordinates the uniform weights (N-1)/N certify optimality
        n = 3
        pts, c = regular_simplex_points(n)
        beta = 1.0 / math.sqrt(n * (n - 1))
        q = np.array([-(c.T @ np.eye(n)[:, i]) / (n - 1) for i in range(n)])
        ell = Ellipsoid(F=beta * np.eye(n - 1), c=np.zeros(n - 1))
        cert = check_john(ell, q)
        assert cert.residual <= 1e-10
        given = check_john(ell, q, weights=[(n - 1.0) / n] * n)
        assert given.residual <= 1e-10

    def test_clustered_contacts_fail(self):
        ell = Ellipsoid(F=np.eye(2), c=np.zeros(2))
        ang = np.array([0.0, 0.2, 0.4])
        contacts = np.column_stack([np.cos(ang), np.sin(ang)])
        cert = check_john(ell, contacts)
        assert cert.residual > 0.1

    def test_too_few_contacts(self):
        ell = Ellipsoid(F=np.eye(3), c=np.zeros(3))
        with pytest.raises(TooFewContacts):
            check_john(ell, np.eye(3)[:2])


class TestConfig:
    def test_paper_defaults(self):
        cfg = FpgmConfig()
        assert cfg.rho == 150.0
        assert cfg.eps == 2.22e-16
        assert cfg.alpha == 2.0
        assert cfg.beta == 0.6

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FpgmConfig(beta=1.5)
        with pytest.raises(ValueError):
            FpgmConfig(rho=-1.0)
