import math

import numpy as np
import pytest

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
        # a quadrant and a slab contain inscribed ellipses of any area
        quadrant = hull.HPolytope(2, np.eye(2), np.ones(2), np.zeros(2), 0.0)
        slab = hull.HPolytope(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                              np.ones(2), np.zeros(2), 0.0)
        for poly in (quadrant, slab):
            with pytest.raises(Divergence):
                solve_mvie_high_accuracy(poly)

    def test_diagnostics_shapes(self):
        ell, diag = solve_mvie(square_polytope())
        assert diag.iterations == len(diag.backtracks)
        assert diag.iterations == len(diag.inv_step_trace)
        assert len(diag.objective_trace) == diag.iterations + 1
        assert np.isfinite(diag.objective_trace).all()


def synth_polytope(n, r, l, seed, m=30):
    """Facets of the reduced data hull of a noiseless synth instance."""
    gt = synth.make_instance(m, n, l, r, math.inf, seed)
    chart = dimred.affine_fit(gt.X, n)
    return hull.enumerate_facets(dimred.reduce_points(gt.X, chart).T)


def full_set_solve(poly):
    """The barrier path with every facet kept from the start."""
    return mvie._barrier_solve(poly, np.arange(poly.n_facets))


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

    def test_diagnostics_count_every_round(self):
        poly = synth_polytope(6, 0.6, 200, 0)
        _, diag = solve_mvie_high_accuracy(poly)
        assert diag.rounds > 1
        assert 0 < diag.kept_facets < poly.n_facets
        assert diag.iterations == sum(diag.stage_iterations)
        assert diag.iterations == len(diag.backtracks)
        assert len(diag.objective_trace) == diag.iterations + 1

    @pytest.mark.parametrize("n,r,l,seed", [(4, 0.7, 1000, 7),
                                            (6, 0.6, 400, 1)])
    def test_rerun_does_not_crawl_from_the_edge(self, n, r, l, seed):
        # Re-entered at a fixed 1 - 1e-6 of the new facets' fit, the rerun
        # stage took 12, 11, ..., 0 (here 13, 12, ..., 0) halvings per
        # step to move off that edge
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
            bound = mvie._step_bound(gt, s, ut, s * s - (ut * ut).sum(axis=0),
                                     de, dc)
            assert 0.0 < bound < math.inf
            inside, past = 0.999 * bound, 1.001 * bound
            assert feasible(gt, h, e + inside * de, c + inside * dc)
            assert not feasible(gt, h, e + past * de, c + past * dc)

    def test_evaluations_stay_near_newton_steps(self):
        # every line search opens inside the cones, so few trials are
        # rejected; halving from the full step took 2.7-3.3 per step
        for n, r, l in [(4, 0.7, 1000), (6, 0.6, 200)]:
            _, diag = solve_mvie_high_accuracy(synth_polytope(n, r, l, 0))
            assert diag.evaluations < 1.5 * diag.iterations


class TestPaperReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,r", [(3, 0.85), (4, 0.7)])
    def test_newton_agrees_with_fpgm(self, n, r, seed):
        # The paper's FPGM at its rho = 150 stops near the MVIE, within
        # 1.1e-2 in F and 8.3e-3 in c (relative to max|F|) on these
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
