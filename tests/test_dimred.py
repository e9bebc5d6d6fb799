import math
import warnings

import numpy as np
import pytest

from mviefact import dimred, hull, mvie, recovery, synth
from mviefact.errors import BadDims, DimMismatch, RankDeficientData


def _conditioned(m, l, n, cond, seed=0):
    """Noiseless M x L data about a mean offset in [1, 2]^M, whose centred
    part has the singular values geomspace(1, cond, N-1)."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, n - 1)))[0]
    w = rng.standard_normal((l, n - 1))
    w = np.linalg.qr(w - w.mean(axis=0))[0]    # columns sum to 0
    s = np.geomspace(1.0, cond, n - 1)
    return (u * s) @ w.T + rng.uniform(1.0, 2.0, (m, 1))


def _layout(x, layout):
    """A copy of x laid out C-ordered, Fortran-ordered or as a strided
    view."""
    if layout == "C":
        return x.copy(order="C")
    if layout == "F":
        return np.asfortranarray(x)
    wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
    wide[::2, ::3] = x
    return wide[::2, ::3]


class TestAffineFit:
    def test_points_on_a_line(self, rng):
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        offset = np.array([0.5, -0.3, 0.2])
        t = rng.standard_normal(30)
        x = offset[:, None] + direction[:, None] * t
        chart, _ = dimred.affine_fit(x, 2)
        assert chart.Phi.shape == (3, 1)
        assert abs(abs(chart.Phi[:, 0] @ direction) - 1.0) <= 1e-12
        assert dimred.fit_residual(chart, x) <= 1e-12

    def test_noiseless_instance_residual(self):
        gt = synth.make_instance(30, 3, 200, 0.9, math.inf, seed=8)
        chart, _ = dimred.affine_fit(gt.X, 3)
        scale = np.linalg.norm(gt.X - gt.X.mean(axis=1)[:, None],
                               axis=0).max()
        assert dimred.fit_residual(chart, gt.X) <= 1e-8 * scale

    def test_identical_columns_rank_deficient(self):
        x = np.tile(np.arange(4.0)[:, None], (1, 10))
        with pytest.raises(RankDeficientData):
            dimred.affine_fit(x, 3)

    def test_semi_orthonormal(self):
        gt = synth.make_instance(25, 4, 120, 0.8, math.inf, seed=2)
        chart, _ = dimred.affine_fit(gt.X, 4)
        assert np.linalg.norm(chart.Phi.T @ chart.Phi - np.eye(3)) <= 1e-10

    @pytest.mark.filterwarnings("error")
    def test_noise_alone_does_not_warn(self):
        # the residual is far above 1e-8 relative, but isotropic noise
        # spreads over the discarded singular values
        gt = synth.make_instance(25, 3, 200, 0.9, 20.0, seed=4)
        chart, _ = dimred.affine_fit(gt.X, 3)
        scale = np.linalg.norm(gt.X - gt.X.mean(axis=1)[:, None],
                               axis=0).max()
        assert chart.residual > 1e-3 * scale

    @pytest.mark.parametrize("seed", [0, 1])
    def test_too_small_n_warns(self, seed):
        # four signatures fit at N=3: the missed one puts a dominant
        # first singular value among the discarded ones
        gt = synth.make_instance(50, 4, 1000, 0.7, 30.0, seed)
        with pytest.warns(UserWarning, match="affine fit residual"):
            dimred.affine_fit(gt.X, 3)

    def test_preconditions(self, rng):
        with pytest.raises(BadDims):
            dimred.affine_fit(rng.random((5, 2)), 3)

    @pytest.mark.parametrize("m,n,l", [(50, 4, 1000), (50, 4, 20),
                                       (30, 6, 200), (5, 6, 40)])
    def test_matches_svd_of_the_data(self, rng, m, n, l):
        # Phi must span the top N-1 left singular vectors of the centred
        # data, as a full SVD of it gives them, also when L < M
        x = rng.standard_normal((m, l)) * rng.uniform(0.5, 2.0, (m, 1))
        centered = x - x.mean(axis=1)[:, None]
        u, s, _ = np.linalg.svd(centered, full_matrices=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # random data: not noiseless
            chart, _ = dimred.affine_fit(x, n)
        top = u[:, :n - 1]
        assert (np.abs(chart.Phi @ chart.Phi.T - top @ top.T).max()
                <= 1e-12)
        s_fit = np.linalg.svd(chart.Phi.T @ centered, compute_uv=False)
        assert np.abs(s_fit - s[:n - 1]).max() <= 1e-12 * s[0]

    @pytest.mark.filterwarnings("ignore:affine fit residual")
    @pytest.mark.parametrize("snr", [math.inf, 20.0])
    def test_chart_carries_its_residual(self, snr):
        gt = synth.make_instance(25, 4, 300, 0.8, snr, seed=1)
        chart, _ = dimred.affine_fit(gt.X, 4)
        assert chart.residual == dimred.fit_residual(chart, gt.X)

    @pytest.mark.filterwarnings("ignore:affine fit residual")
    @pytest.mark.parametrize("seed", range(3))
    def test_noise_sigma_matches_the_noise(self, seed):
        gt = synth.make_instance(50, 4, 1000, 0.7, 30.0, seed)
        rms = np.sqrt(np.mean(gt.noise ** 2))
        assert abs(dimred.affine_fit(gt.X, 4)[0].noise_sigma / rms - 1) <= 0.02

    def test_noiseless_noise_sigma_is_rounding(self):
        gt = synth.make_instance(50, 4, 1000, 0.7, math.inf, seed=0)
        sigma = dimred.affine_fit(gt.X, 4)[0].noise_sigma
        assert 0 <= sigma <= 1e-12 * np.linalg.norm(gt.X, axis=0).max()
        # a chart not made by the fit has no estimate
        chart = dimred.AffineChart(Phi=np.eye(3)[:, :2], b=np.zeros(3))
        assert math.isnan(chart.noise_sigma)

    @pytest.mark.parametrize("m,l,n", [(50, 1000, 4), (50, 1000, 7)])
    @pytest.mark.parametrize("e", range(1, 10))
    def test_ill_conditioned_data_match_svd(self, m, l, n, e):
        # the Gram eigenvectors alone are off by about eps (s_1/s_{N-1})^2,
        # which fails this bound from s_{N-1}/s_1 = 1e-4 on; the Ritz step
        # on the data brings the error back to about eps s_1/s_{N-1}
        x = _conditioned(m, l, n, 10.0 ** -e)
        u, s, _ = np.linalg.svd(x - x.mean(axis=1)[:, None],
                                full_matrices=False)
        top = u[:, :n - 1]
        phi = dimred.affine_fit(x, n)[0].Phi
        assert (np.abs(phi @ phi.T - top @ top.T).max()
                <= 1e-14 * s[0] / s[n - 2])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_layout_of_the_data_moves_nothing(self, layout):
        # the fit centres a copy of X; an X of any layout must give the
        # answer of a C-ordered one and stay as it was
        gt = synth.make_instance(50, 4, 1000, 0.7, math.inf, seed=0)
        ref_chart, _ = dimred.affine_fit(gt.X, 4)
        ref_rep = recovery.run_pipeline(gt.X, 4)
        x = _layout(gt.X, layout)
        kept = x.copy()
        chart, reduced = dimred.affine_fit(x, 4)
        proj = chart.Phi @ chart.Phi.T - ref_chart.Phi @ ref_chart.Phi.T
        assert np.abs(proj).max() <= 1e-12
        assert abs(chart.residual - ref_chart.residual) <= 1e-12
        assert chart.residual == dimred.fit_residual(chart, x)
        rep = recovery.run_pipeline(x, 4)
        assert np.abs(rep.A_hat - ref_rep.A_hat).max() <= 1e-12
        assert np.array_equal(x, kept)
        assert np.abs(chart.Phi @ reduced
                      - (gt.X - chart.b[:, None])).max() <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:affine fit residual")
    @pytest.mark.parametrize("s", [2.0 ** 600, 2.0 ** -600, 1e200, 1e-200,
                                   1e300, 1e-300],
                             ids=["2^600", "2^-600", "1e200", "1e-200",
                                  "1e300", "1e-300"])
    def test_fit_follows_the_units_of_x(self, s):
        # the fit squares X / 2^k, not X, whose squares overflow or
        # underflow at these scales: Phi is the unit-scale one, and b,
        # the residual and sigma are s times theirs, bit for bit where s
        # is a power of two
        x = synth.make_instance(50, 4, 1000, 0.7, 30.0, 0).X
        base, _ = dimred.affine_fit(x, 4)
        chart, _ = dimred.affine_fit(s * x, 4)
        assert (np.abs(chart.Phi @ chart.Phi.T - base.Phi @ base.Phi.T).max()
                <= 1e-15)
        for got, unit in ((chart.b, base.b), (chart.residual, base.residual),
                          (chart.noise_sigma, base.noise_sigma)):
            want = s * np.asarray(unit)
            if math.frexp(s)[0] == 0.5:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert dimred.fit_residual(chart, s * x) == chart.residual

    def test_warning_points_at_the_caller(self):
        gt = synth.make_instance(50, 4, 1000, 0.7, 30.0, 0)
        with pytest.warns(UserWarning, match="affine fit residual") as rec:
            dimred.affine_fit(gt.X, 3)
        assert rec[0].filename == __file__


class TestTransforms:
    def test_centered_origin(self, rng):
        b = rng.standard_normal(6)
        x = np.tile(b[:, None], (1, 8)) + 0.0
        # give it rank via two extra spread columns, then reduce b copies
        chart = dimred.AffineChart(
            Phi=np.linalg.qr(rng.standard_normal((6, 2)))[0], b=b)
        red = dimred.reduce_points(np.tile(b[:, None], (1, 5)), chart)
        assert np.abs(red).max() <= 1e-12

    def test_chart_inverse(self, rng):
        phi = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        b = rng.standard_normal(7)
        chart = dimred.AffineChart(Phi=phi, b=b)
        u = rng.standard_normal((3, 12))
        x = phi @ u + b[:, None]
        assert np.allclose(dimred.reduce_points(x, chart), u, atol=1e-12)

    def test_lift_basis_vectors(self, rng):
        phi = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        b = rng.standard_normal(5)
        chart = dimred.AffineChart(Phi=phi, b=b)
        assert np.allclose(dimred.lift_points(np.zeros((2, 1)), chart)[:, 0],
                           b)
        assert np.allclose(
            dimred.lift_points(np.array([[1.0], [0.0]]), chart)[:, 0],
            b + phi[:, 0])

    def test_round_trip_on_instance(self):
        gt = synth.make_instance(40, 4, 300, 0.85, math.inf, seed=3)
        chart, _ = dimred.affine_fit(gt.X, 4)
        back = dimred.lift_points(dimred.reduce_points(gt.X, chart), chart)
        scale = np.linalg.norm(gt.X, axis=0).max()
        assert np.linalg.norm(back - gt.X, axis=0).max() <= 1e-8 * scale

    def test_dim_mismatch(self, rng):
        chart = dimred.AffineChart(
            Phi=np.linalg.qr(rng.standard_normal((5, 2)))[0],
            b=np.zeros(5))
        with pytest.raises(DimMismatch):
            dimred.lift_points(np.zeros((3, 1)), chart)
        with pytest.raises(DimMismatch):
            dimred.reduce_points(np.zeros((4, 2)), chart)


class TestVolumeAndContainment:
    def test_volume_equivalence_on_solver_output(self):
        # lifted ellipsoid satisfies det(F^T F) = det(F')^2 because the
        # chart is semi-orthonormal
        gt = synth.make_instance(20, 3, 150, 0.9, math.inf, seed=6)
        chart, red = dimred.affine_fit(gt.X, 3)
        poly = hull.enumerate_facets(red.T)
        ell, _ = mvie.solve_mvie(poly)
        f_lift = chart.Phi @ ell.F
        lhs = np.linalg.det(f_lift.T @ f_lift)
        rhs = np.linalg.det(ell.F) ** 2
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_containment_preservation(self, rng):
        # support values of an ellipsoid against reduced facets equal the
        # support values of the lifted ellipsoid against lifted facets
        gt = synth.make_instance(15, 3, 120, 0.9, math.inf, seed=9)
        chart, red = dimred.affine_fit(gt.X, 3)
        poly = hull.enumerate_facets(red.T)
        for _ in range(10):
            m = rng.standard_normal((2, 2)) * 0.05
            f = m @ m.T + 0.01 * np.eye(2)
            c = red.mean(axis=1)
            reduced_support = (np.linalg.norm(f @ poly.normals.T, axis=0)
                               + poly.normals @ c)
            # lifted facets: normal Phi g, offset h + (Phi g) . b
            g_lift = (chart.Phi @ poly.normals.T).T
            h_lift = poly.offsets + g_lift @ chart.b
            f_lift = chart.Phi @ f
            c_lift = dimred.lift_points(c[:, None], chart)[:, 0]
            lifted_support = (np.linalg.norm(f_lift.T @ g_lift.T, axis=0)
                              + g_lift @ c_lift)
            assert np.allclose(reduced_support + poly.offsets * 0,
                               lifted_support - (h_lift - poly.offsets),
                               atol=1e-10)
            inside_reduced = np.all(reduced_support <= poly.offsets + 1e-12)
            inside_lifted = np.all(lifted_support <= h_lift + 1e-12)
            assert inside_reduced == inside_lifted
