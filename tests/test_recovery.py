import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from mviefact import dimred, hull, metrics, recovery, synth
from mviefact.errors import (
    BadRank,
    ConvergenceFailure,
    NotFinite,
    RankDeficientA,
    TooFewContacts,
    WrongCount,
)
from mviefact.mvie import Ellipsoid, check_john, solve_mvie_high_accuracy
from mviefact.numerics import rng_from_seed
from mviefact.recovery import (
    consolidate_contacts,
    find_contacts,
    recover_abundances,
    reconstruct_endmembers,
    run_pipeline,
)

from conftest import pure_pixel_instance, square_polytope


class TestFindContacts:
    def test_disk_in_square(self):
        poly = square_polytope()
        pts = find_contacts(np.eye(2), np.zeros(2), poly.normals)
        assert pts.shape == (4, 2)
        expect = {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert {tuple(np.round(p, 9)) for p in pts} == expect

    def test_triangle_tangency_points(self):
        # the inscribed max-area ellipse of a triangle touches the three
        # side midpoints
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        poly = hull.enumerate_facets(tri)
        ell, diag = solve_mvie_high_accuracy(poly)
        pts = find_contacts(ell.F, ell.c, poly.normals[diag.touching])
        assert pts.shape == (3, 2)
        mids = {(0.5, 0.0), (0.0, 0.5), (0.5, 0.5)}
        got = {tuple(np.round(p, 4)) for p in pts}
        assert got == mids

    def test_on_ellipsoid_boundary(self, rng):
        pts_cloud = rng.standard_normal((80, 3))
        poly = hull.enumerate_facets(pts_cloud)
        ell, diag = solve_mvie_high_accuracy(poly)
        pts = find_contacts(ell.F, ell.c, poly.normals[diag.touching])
        radii = np.linalg.norm(
            np.linalg.solve(ell.F, (pts - ell.c).T), axis=0)
        assert np.abs(radii - 1.0).max() <= 1e-8


class TestConsolidate:
    def test_exactly_n_pass_through(self, rng):
        pts = rng.standard_normal((4, 2)) * 5
        out = consolidate_contacts(pts, 4)
        assert np.array_equal(out, pts)

    def test_near_duplicate_clusters(self, rng):
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        jitter = 1e-7 * rng.standard_normal((3, 5, 2))
        candidates = (centers[:, None, :] + jitter).reshape(-1, 2)
        out = consolidate_contacts(candidates, 3)
        means = (centers[:, None, :] + jitter).mean(axis=1)
        for m in means:
            assert np.linalg.norm(out - m, axis=1).min() <= 1e-6
        # groups of 1, 7 and 3 candidates, rows in random order
        sizes = (1, 7, 3)
        groups = [c + 1e-7 * rng.standard_normal((k, 2))
                  for c, k in zip(centers, sizes)]
        candidates = rng.permutation(np.concatenate(groups))
        out = consolidate_contacts(candidates, 3)
        assert out.shape == (3, 2)
        for grp in groups:
            assert np.linalg.norm(out - grp.mean(axis=0), axis=1).min() <= 1e-12

    def test_too_few(self, rng):
        with pytest.raises(TooFewContacts):
            consolidate_contacts(rng.standard_normal((2, 2)), 3)

    def test_too_few_distinct(self):
        # five candidates at two distinct points cannot make three contacts
        candidates = [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0],
                      [3.0, 0.0]]
        with pytest.raises(TooFewContacts):
            consolidate_contacts(candidates, 3)


class TestReconstruct:
    def test_inverse_of_contact_formula(self, rng):
        for n in (3, 5):
            a = rng.random((12, n)) + 0.1
            q = ((a.sum(axis=1)[:, None] - a) / (n - 1)).T  # rows q_i
            back = reconstruct_endmembers(q)
            assert np.abs(back - a).max() <= 1e-12

    def test_all_equal_contacts(self):
        q = np.tile([1.0, 2.0], (4, 1))
        out = reconstruct_endmembers(q)
        assert np.allclose(out, np.tile([[1.0], [2.0]], (1, 4)))

    def test_identity_example(self):
        q = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        assert np.allclose(reconstruct_endmembers(q), np.eye(3))

    def test_wrong_count(self):
        with pytest.raises(WrongCount):
            reconstruct_endmembers(np.zeros((0, 3)))


class TestRecoverAbundances:
    def test_consistent_system(self, rng):
        a = rng.random((20, 4)) + 0.2
        s = synth.sample_abundances(4, 60, 1.0, seed=5)
        s_hat = recover_abundances(a @ s, a)
        assert np.abs(s_hat - s).max() <= 1e-6

    def test_vertex_datum(self, rng):
        a = rng.random((10, 3)) + 0.2
        s_hat = recover_abundances(a[:, [0]], a)
        assert np.abs(s_hat[:, 0] - [1.0, 0.0, 0.0]).max() <= 1e-8

    def test_simplex_constraints_always(self, rng):
        a = rng.random((8, 3)) + 0.1
        x = rng.standard_normal((8, 30)) * 2.0  # arbitrary, off-cone data
        s_hat = recover_abundances(x, a)
        assert s_hat.min() >= 0
        assert np.abs(s_hat.sum(axis=0) - 1.0).max() <= 1e-9

    def test_beats_dirichlet_random_search(self, rng):
        # Monte-Carlo upper bound: the solver's objective must not exceed
        # the best of one million random simplex points
        a = rng.random((6, 3)) + 0.1
        x = rng.standard_normal((6, 3))
        s_hat = recover_abundances(x, a)
        gen = rng_from_seed(99)
        cand = gen.dirichlet(np.ones(3), size=1_000_000).T
        for j in range(x.shape[1]):
            obj = np.sum((x[:, [j]] - a @ s_hat[:, [j]]) ** 2)
            rand_best = np.sum((x[:, [j]] - a @ cand) ** 2, axis=0).min()
            assert obj <= rand_best + 1e-12

    def test_rank_deficient(self, rng):
        a = np.tile(rng.random((5, 1)), (1, 3))
        with pytest.raises(RankDeficientA):
            recover_abundances(rng.random((5, 4)), a)

    def test_abundances_follow_the_units_of_x(self):
        # S_hat(s X, s A) = S_hat(X, A): noisy pixels leave the simplex,
        # so many bounds are active; the small scales also hold the rank
        # test to a relative threshold
        gt = synth.make_instance(50, 4, 1000, 0.7, 30.0, seed=0)
        base = recover_abundances(gt.X, gt.A)
        for s in (1e-300, 1e-200, 1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e200, 1e300):
            s_hat = recover_abundances(s * gt.X, s * gt.A)
            assert np.abs(s_hat - base).max() <= 1e-9

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_support_enumeration(self, n):
        gen = rng_from_seed(40 + n)
        a = gen.random((n + 4, n)) + 0.1
        off_cone = gen.standard_normal((n + 4, 60)) * 2.0
        t = np.linspace(0.0, 1.0, 5)
        edge = np.outer(a[:, 0], t) + np.outer(a[:, 1], 1.0 - t)
        x = np.hstack([off_cone, a, edge, off_cone[:, :4], a[:, :2]])
        s_hat = recover_abundances(x, a)
        assert s_hat.min() >= 0
        assert np.abs(s_hat.sum(axis=0) - 1.0).max() <= 1e-12
        got = np.sum((a @ s_hat - x) ** 2, axis=0)
        best = _fcls_by_enumeration(a, x)
        # pixels fitted exactly have optimum 0; measure them against |x|^2
        floor = best + np.sum(x * x, axis=0)
        assert np.all(np.abs(got - best) <= 1e-12 * floor)

    def test_round_guard_raises(self, rng, monkeypatch):
        # a pixel outside the simplex needs more than one round
        a = rng.random((6, 3)) + 0.1
        monkeypatch.setattr(recovery, "_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceFailure):
            recover_abundances(a @ [[10.0], [-9.0], [0.0]], a)


class TestAbundanceWorkingSets:
    @pytest.mark.parametrize("seed", range(6))
    def test_each_pixel_depends_only_on_itself(self, seed):
        # the pixels are grouped by working set; reordering them must not
        # move a bit, and each must match its own one-pixel solve up to
        # the rounding of a KKT solve with one right-hand side instead of
        # many (0.2-1.0 cond(G) eps on these seeds)
        gt = synth.make_instance(50, 4, 1000, 0.7, 30.0, seed)
        p = rng_from_seed(seed).permutation(gt.X.shape[1])
        s_hat = recover_abundances(gt.X, gt.A)
        assert np.array_equal(recover_abundances(gt.X[:, p], gt.A),
                              s_hat[:, p])
        one = np.hstack([recover_abundances(gt.X[:, [j]], gt.A)
                         for j in range(gt.X.shape[1])])
        lam = np.linalg.eigvalsh(gt.A.T @ gt.A)
        bound = 4 * np.finfo(float).eps * lam[-1] / lam[0]
        assert np.abs(one - s_hat).max() <= bound

    @pytest.mark.parametrize("n", [64, 70])
    def test_no_ceiling_on_n(self, n):
        # past any 64-bit code for a free set: check the KKT conditions
        gen = rng_from_seed(n)
        a = gen.random((n + 20, n)) + 0.1
        x = gen.standard_normal((n + 20, 25)) * 2.0     # off-cone
        s_hat = recover_abundances(x, a)
        assert s_hat.min() >= 0
        assert np.abs(s_hat.sum(axis=0) - 1.0).max() <= 1e-12
        gram, b = a.T @ a, a.T @ x
        grad = gram @ s_hat - b
        scale = np.linalg.eigvalsh(gram)[-1] + np.abs(b).max(axis=0)
        for j in range(x.shape[1]):
            on = s_hat[:, j] > 0
            nu = -grad[on, j].mean()     # G s - b + nu = 0 on the free set
            mu = grad[~on, j] + nu       # the fixed entries' multipliers
            assert np.all(mu >= -1e-9 * scale[j])

    def test_open_pixels_on_different_free_sets(self, monkeypatch):
        # Pixels beyond each facet and each vertex, on an edge and
        # repeated: after round 2 the pixels still open hold several free
        # sets, which round 3 solves in one batched call
        gen = rng_from_seed(29)
        a = gen.random((8, 4)) + 0.1
        centre = a.mean(axis=1, keepdims=True)
        facets = (a.sum(axis=1, keepdims=True) - a) / 3   # off vertex i
        beyond_facets = facets + 0.8 * (facets - a)
        beyond_vertices = a + 1.5 * (a - centre)
        edges = np.outer(a[:, 0], [0.5, 0.3]) + np.outer(a[:, 1], [0.5, 0.7])
        off_space = 0.2 * gen.standard_normal((8, 8))
        x = np.hstack([beyond_facets, beyond_vertices, edges,
                       np.hstack([beyond_facets, beyond_vertices]) + off_space,
                       beyond_facets[:, :2], beyond_vertices[:, 1:3]])
        free_sets = []
        advance = recovery._advance

        def recorded(cur, target, free):
            free_sets.append({tuple(col) for col in free.T})
            return advance(cur, target, free)

        monkeypatch.setattr(recovery, "_advance", recorded)
        s_hat = recover_abundances(x, a)
        assert len(free_sets) >= 3 and len(free_sets[2]) >= 3

        got = np.sum((a @ s_hat - x) ** 2, axis=0)
        best = _fcls_by_enumeration(a, x)
        assert np.all(np.abs(got - best)
                      <= 1e-12 * (best + np.sum(x * x, axis=0)))
        one = np.hstack([recover_abundances(x[:, [j]], a)
                         for j in range(x.shape[1])])
        lam = np.linalg.eigvalsh(a.T @ a)
        assert np.abs(one - s_hat).max() <= (
            4 * np.finfo(float).eps * lam[-1] / lam[0])

    def test_no_pixels(self, rng):
        a = rng.random((6, 3)) + 0.1
        s_hat = recover_abundances(np.zeros((6, 0)), a)
        assert s_hat.shape == (3, 0)

    @pytest.mark.filterwarnings("ignore:affine fit residual")
    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_panel_is_optimal(self, seed):
        # the n4-noisy-abund instances, unframed, with the pipeline's A_hat
        gt = synth.make_instance(50, 4, 1000, 0.7, 30.0, seed)
        rep = run_pipeline(gt.X, 4, want_abundances=True)
        s_hat = rep.S_hat
        assert s_hat.min() >= 0
        assert np.abs(s_hat.sum(axis=0) - 1.0).max() <= 1e-12
        got = np.sum((rep.A_hat @ s_hat - gt.X) ** 2, axis=0)
        best = _fcls_by_enumeration(rep.A_hat, gt.X)
        assert np.all(np.abs(got - best) <= 1e-12 * best)


def _fcls_by_enumeration(a, x):
    """min over the unit simplex of ||A s - x||^2 per column, by trying
    the sum-to-one least-squares fit on every one of the 2^N - 1 supports
    and keeping the best nonnegative one."""
    n = a.shape[1]
    best = np.full(x.shape[1], np.inf)
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            sub = a[:, support]
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = sub.T @ sub
            kkt[k, k] = 0.0
            rhs = np.vstack([sub.T @ x, np.ones((1, x.shape[1]))])
            s = np.linalg.solve(kkt, rhs)[:k]
            obj = np.sum((sub @ s - x) ** 2, axis=0)
            best = np.where((s.min(axis=0) >= 0) & (obj < best), obj, best)
    return best


class TestPipeline:
    @pytest.mark.parametrize("n,r", [(3, 0.85), (4, 0.75), (5, 0.7)])
    def test_end_to_end_exact_recovery(self, n, r):
        # noiseless instances above the purity threshold recover the
        # signatures to fractions of a millidegree
        for seed in (0, 1):
            gt = synth.make_instance(50, n, 1000, r, math.inf, seed=seed)
            rep = run_pipeline(gt.X, n)
            phi, _ = metrics.rms_angle_error(gt.A, rep.A_hat)
            assert phi <= 0.05

    def test_contact_candidates_cluster(self):
        # raw candidates form exactly N well-separated spatial clusters
        gt = synth.make_instance(50, 4, 1000, 0.75, math.inf, seed=11)
        _, reduced = dimred.affine_fit(gt.X, 4)
        poly = hull.enumerate_facets(reduced.T)
        ell, diag = solve_mvie_high_accuracy(poly)
        raw = find_contacts(ell.F, ell.c, poly.normals[diag.touching])
        cents = consolidate_contacts(raw, 4)
        labels = np.linalg.norm(raw[:, None] - cents[None], axis=2).argmin(1)
        intra = max(np.linalg.norm(raw[labels == j] - cents[j], axis=1).max()
                    for j in range(4))
        pair = min(np.linalg.norm(cents[i] - cents[j])
                   for i in range(4) for j in range(i + 1, 4))
        assert pair > 10 * intra

    def test_pure_pixel_contacts_match_theory(self):
        a, x = pure_pixel_instance(3, 40, seed=21)
        rep = run_pipeline(x, 3)
        q_true = ((a.sum(axis=1)[:, None] - a) / 2).T
        for q in rep.contacts_ambient:
            d = np.linalg.norm(q_true - q, axis=1)
            assert d.min() <= 1e-3 * np.linalg.norm(q_true[d.argmin()])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n,r", [(3, 0.85), (4, 0.7)])
    def test_answer_follows_the_units_of_x(self, n, r):
        # A_hat(s X) = s A_hat(X) out to the ends of the double range:
        # nothing in the pipeline has a unit
        gt = synth.make_instance(50, n, 1000, r, math.inf, seed=0)
        base = run_pipeline(gt.X, n)
        for s in (1e-300, 1e-150, 1e-4, 1e-2, 1e2, 1e4, 1e150, 1e300):
            rep = run_pipeline(s * gt.X, n)
            assert rep.raw_contact_count == base.raw_contact_count
            err = np.abs(rep.A_hat / s - base.A_hat).max()
            assert err <= 1e-9 * np.abs(base.A_hat).max()

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(n=st.sampled_from([3, 4, 5]), seed=st.integers(0, 49),
           k=st.integers(-40, 40))
    def test_power_of_two_scale_moves_nothing(self, n, seed, k):
        # the stages see X scaled to the same bits at every power of two
        gt = synth.make_instance(20, n, 200, 1 / math.sqrt(n - 1) + 0.1,
                                 math.inf, seed)
        base = run_pipeline(gt.X, n)
        rep = run_pipeline(2.0 ** k * gt.X, n)
        assert rep.raw_contact_count == base.raw_contact_count >= n
        assert np.array_equal(rep.A_hat, 2.0 ** k * base.A_hat)
        assert rep.noise_sigma == 2.0 ** k * base.noise_sigma > 0

    @pytest.mark.parametrize("n,l,r,seeds", [(4, 1000, 0.7, range(8)),
                                             (6, 400, 0.6, (0, 1))])
    def test_noiseless_contacts_are_the_n_touching_facets(self, n, l, r,
                                                          seeds):
        # without noise the MVIE of these hulls touches exactly N facets,
        # and the John conditions hold on their tangency points
        for seed in seeds:
            gt = synth.make_instance(50, n, l, r, math.inf, seed)
            rep = run_pipeline(gt.X, n)
            assert rep.raw_contact_count == n
            john = check_john(rep.ellipsoid, rep.contacts_reduced)
            assert john.residual <= 1e-9

    def test_near_threshold_instance_ends_on_the_path(self):
        # Just above the purity threshold 1/sqrt(2) the spread's guess is
        # rejected, and the barrier runs to its gap bound (29 steps) on
        # the 3 facets of the simplex: no stage end tries a simplex
        gt = synth.make_instance(20, 3, 1000, 1 / math.sqrt(2) + 0.01,
                                 math.inf, 3)
        rep = run_pipeline(gt.X, 3)
        assert rep.solver.termination == "tol"
        assert rep.solver.touching.size == 3
        assert metrics.rms_angle_error(gt.A, rep.A_hat)[0] <= 1e-3
        assert rep.max_violation <= 0.0
        assert rep.solver.gap <= 1e-11

    @pytest.mark.parametrize("n,l,seed", [
        *((n, 1000, seed) for n in (4, 5) for seed in range(4)),
        *((n, 400, seed) for n in (6, 7) for seed in range(2))])
    def test_answer_lies_inside_qhull_facets(self, n, l, seed):
        # the ellipsoid is inscribed in the hull of the reduced points as
        # Qhull gives it, every raw equation row, checked here rather than
        # through the report's max_violation
        r = 0.6 if n in (5, 6) else 1 / math.sqrt(n - 1) + 0.1
        x = synth.make_instance(50, n, l, r, math.inf, seed).X
        ell = run_pipeline(x, n).ellipsoid
        _, reduced = dimred.affine_fit(x, n)
        eq = ConvexHull(reduced.T).equations
        g, h = eq[:, :-1], -eq[:, -1]
        depth = h - g @ ell.c
        excess = np.linalg.norm(g @ ell.F, axis=1) - depth
        assert excess.max() / depth.max() <= 0.0

    @pytest.mark.parametrize("s", [1e4, 2.0 ** -40], ids=["1e4", "2^-40"])
    def test_report_is_in_the_chart_of_the_fit(self, s):
        # contacts_reduced and the ellipsoid are in the reduced
        # coordinates of affine_fit(X)'s own chart, whatever the units of
        # X: through it the contacts lift to the ambient ones, and the
        # ellipsoid lies inside the hull of its reduced points as they are
        x = s * synth.make_instance(50, 4, 1000, 0.7, math.inf, 0).X
        rep = run_pipeline(x, 4)
        chart, reduced = dimred.affine_fit(x, 4)
        lifted = dimred.lift_points(rep.contacts_reduced.T, chart).T
        assert (np.abs(lifted - rep.contacts_ambient).max()
                <= 1e-12 * np.abs(rep.contacts_ambient).max())
        eq = ConvexHull(reduced.T).equations
        g, h = eq[:, :-1], -eq[:, -1]
        depth = h - g @ rep.ellipsoid.c
        excess = np.linalg.norm(g @ rep.ellipsoid.F, axis=1) - depth
        assert excess.max() / depth.max() <= 0.0

    @pytest.mark.parametrize("want_abundances", [False, True])
    def test_peak_memory_beyond_x(self, want_abundances):
        # the fit's one copy of X / 2^k, centred in place, and its
        # residual buffer: about 2.16 X of numpy's allocations here, and
        # 3.16 X with a second scaled copy of X kept through the call
        x = synth.make_instance(50, 4, 20000, 0.7, 30.0, 0).X
        tracemalloc.start()
        try:
            run_pipeline(x, 4, want_abundances=want_abundances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    @pytest.mark.filterwarnings("ignore:affine fit residual")
    @pytest.mark.parametrize("n,r", [(4, 0.7), (3, 0.85)])
    def test_integer_sensor_counts(self, n, r):
        # the instance in integer counts (x 1e4, rounded) still recovers
        gt = synth.make_instance(50, n, 1000, r, math.inf, seed=0)
        rep = run_pipeline(np.round(1e4 * gt.X), n)
        phi, _ = metrics.rms_angle_error(gt.A, rep.A_hat)
        assert phi <= 0.05

    def test_report_fields(self):
        gt = synth.make_instance(30, 3, 300, 0.9, math.inf, seed=2)
        rep = run_pipeline(gt.X, 3, want_abundances=True)
        assert rep.A_hat.shape == (30, 3)
        assert rep.S_hat.shape == (3, 300)
        assert np.abs(rep.S_hat.sum(axis=0) - 1.0).max() <= 1e-9
        assert rep.contacts_ambient.shape == (3, 30)
        assert rep.raw_contact_count >= 3
        assert rep.n_facets >= 4
        assert set(rep.timings) == {"dimred", "hull", "solve", "recover"}
        # abundance error is signature error amplified by conditioning;
        # rows of S_hat follow the columns of A_hat, in no set order
        _, perm = metrics.rms_angle_error(gt.A, rep.A_hat)
        assert np.abs(rep.S_hat[list(perm)] - gt.S).max() <= 1e-2

    @pytest.mark.parametrize("bad,error,message", [
        (np.nan, NotFinite, "X contains NaN or Inf"),
        (np.inf, NotFinite, "X contains NaN or Inf"),
        (-np.inf, NotFinite, "X contains NaN or Inf"),
        (None, BadRank, "X must be 2-D, got ndim=1"),
    ])
    def test_bad_input_fails_in_dimred(self, bad, error, message):
        # one max and one min see every NaN and infinity, and |X| is
        # never formed
        x = synth.make_instance(20, 3, 150, 0.9, math.inf, seed=0).X
        if bad is None:
            x = x[0]
        else:
            x[3, 7] = bad
        with pytest.raises(error) as info:
            run_pipeline(x, 3)
        assert str(info.value) == message
        assert info.value.stage == "dimred"

    @pytest.mark.parametrize("where", ["eigh", "dgesdd"])
    def test_fit_failure_is_typed(self, monkeypatch, where):
        # LAPACK not converging in the fit is a numerical error of the
        # dimred stage, not a bare LinAlgError
        if where == "eigh":
            def fail(a):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            monkeypatch.setattr(np.linalg, "eigh", fail)
        else:
            real = dimred.dgesdd
            monkeypatch.setattr(dimred, "dgesdd",
                                lambda a, **kw: (*real(a, **kw)[:3], 1))
        x = synth.make_instance(20, 3, 150, 0.9, math.inf, seed=0).X
        with pytest.raises(ConvergenceFailure) as info:
            run_pipeline(x, 3)
        assert info.value.stage == "dimred"

    def test_pipeline_leaves_scipy_optimize_unimported(self):
        # scipy.optimize is imported where it is used, not by the package
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        code = ("import math, sys; import mviefact; "
                "gt = mviefact.synth.make_instance(20, 3, 150, 0.9, "
                "math.inf, 0); mviefact.recovery.run_pipeline(gt.X, 3); "
                "print('scipy.optimize' in sys.modules)")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
