import math

import numpy as np
import pytest

from mviefact.errors import (
    BadDims,
    InfeasiblePurity,
    LibraryTooSmall,
    ParameterError,
)
from mviefact.numerics import rng_from_seed
from mviefact.synth import (
    assemble_dataset,
    load_signature_library,
    make_instance,
    sample_abundances,
    sample_endmembers,
)
from mviefact.metrics import snr_of


def _min_angle_deg(a):
    unit = a / np.linalg.norm(a, axis=0)
    cos = np.clip(unit.T @ unit, -1, 1)
    np.fill_diagonal(cos, -1)
    return math.degrees(math.acos(cos.max()))


class TestEndmembers:
    def test_library_forced_selection(self, rng):
        lib = np.abs(rng.standard_normal((20, 3))) + 0.1
        a = sample_endmembers(20, 3, seed=4, library=lib)
        # same columns, order permuted
        assert sorted(map(tuple, a.T)) == sorted(map(tuple, lib.T))

    def test_library_order_depends_on_seed(self, rng):
        lib = np.abs(rng.standard_normal((20, 4))) + 0.1
        a1 = sample_endmembers(20, 4, seed=1, library=lib)
        a2 = sample_endmembers(20, 4, seed=2, library=lib)
        assert not np.array_equal(a1, a2)

    def test_library_too_small(self, rng):
        lib = np.abs(rng.standard_normal((20, 2))) + 0.1
        with pytest.raises(LibraryTooSmall):
            sample_endmembers(20, 3, seed=0, library=lib)

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            sample_endmembers(3, 5, seed=0)

    def test_synthetic_properties_many_seeds(self):
        for seed in range(100):
            a = sample_endmembers(224, 5, seed=seed)
            assert a.shape == (224, 5)
            assert a.min() >= 0.0
            assert _min_angle_deg(a) >= 5.0
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] > 1e-8

    def test_deterministic(self):
        a = sample_endmembers(64, 4, seed=9)
        b = sample_endmembers(64, 4, seed=9)
        assert np.array_equal(a, b)


class TestAbundances:
    def test_r_one_accepts_every_draw(self):
        # with r=1 the norm filter is vacuous: output must equal the
        # leading draws of the raw Dirichlet stream
        s = sample_abundances(3, 100, 1.0, seed=12)
        raw = rng_from_seed(12).dirichlet(np.full(3, 1 / 3), size=4096)
        assert np.array_equal(s.T, raw[:100])

    def test_infeasible_purity(self):
        with pytest.raises(InfeasiblePurity):
            sample_abundances(3, 10, 1 / math.sqrt(3), seed=0)
        with pytest.raises(InfeasiblePurity):
            sample_abundances(4, 10, 1.2, seed=0)

    def test_norm_constraint_active(self):
        # r controls purity: cap respected, near-active at L=1000
        for seed in range(20):
            s = sample_abundances(3, 1000, 0.85, seed=seed)
            norms = np.linalg.norm(s, axis=0)
            assert norms.max() <= 0.85 + 1e-12
            assert norms.max() >= 0.80
            assert np.all(s >= 0)
            assert np.abs(s.sum(axis=0) - 1.0).max() <= 1e-12

    def test_deterministic(self):
        a = sample_abundances(4, 250, 0.7, seed=3)
        b = sample_abundances(4, 250, 0.7, seed=3)
        assert np.array_equal(a, b)


class TestAssemble:
    def test_noiseless_exact(self, rng):
        a = np.abs(rng.standard_normal((10, 3)))
        s = sample_abundances(3, 50, 1.0, seed=0)
        gt = assemble_dataset(a, s, math.inf, seed=0)
        assert np.array_equal(gt.X, a @ s)

    def test_snr_30db_realized(self):
        a = sample_endmembers(224, 4, seed=1)
        s = sample_abundances(4, 1000, 1.0, seed=1)
        gt = assemble_dataset(a, s, 30.0, seed=1)
        assert abs(snr_of(a @ s, gt.noise) - 30.0) <= 0.5

    def test_snr_0db_noise_power(self):
        a = sample_endmembers(50, 3, seed=2)
        s = sample_abundances(3, 500, 1.0, seed=2)
        gt = assemble_dataset(a, s, 0.0, seed=2)
        clean = np.sum((a @ s) ** 2)
        noise = np.sum(gt.noise ** 2)
        assert abs(noise / clean - 1.0) <= 0.05

    def test_dim_mismatch(self, rng):
        with pytest.raises(Exception):
            assemble_dataset(rng.random((5, 3)), rng.random((4, 7)), 10.0, 0)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_snr_neither_finite_nor_plus_inf(self, rng, snr):
        # NaN made X all NaN and -inf made it noiseless
        with pytest.raises(ParameterError, match="SNR"):
            assemble_dataset(rng.random((5, 3)), rng.random((3, 7)), snr, 0)


class TestMakeInstance:
    def test_invariants(self):
        gt = make_instance(40, 4, 300, 0.8, math.inf, seed=5)
        assert gt.X.shape == (40, 300)
        col_sums = gt.S.sum(axis=0)
        assert np.abs(col_sums - 1.0).max() <= 1e-12
        assert np.linalg.norm(gt.S, axis=0).max() <= 0.8 + 1e-12
        assert np.abs(gt.X - gt.A @ gt.S).max() <= 1e-12
        assert np.linalg.svd(gt.A, compute_uv=False)[-1] > 1e-8
        assert np.linalg.svd(gt.S, compute_uv=False)[-1] > 1e-8

    def test_bitwise_determinism(self):
        g1 = make_instance(30, 3, 200, 0.85, 25.0, seed=77)
        g2 = make_instance(30, 3, 200, 0.85, 25.0, seed=77)
        assert np.array_equal(g1.X, g2.X)
        assert np.array_equal(g1.A, g2.A)
        assert np.array_equal(g1.S, g2.S)

    @pytest.mark.parametrize("l", [1, 3])
    def test_fewer_pixels_than_signatures(self, l):
        # no 4 x L abundance matrix with L < 4 has full row rank
        with pytest.raises(BadDims, match="need L >= N"):
            make_instance(20, 4, l, 0.9, math.inf, 0)

    def test_purity_meaningful_for_large_l(self):
        for r in (0.75, 0.9):
            gt = make_instance(30, 3, 600, r, math.inf, seed=1)
            mx = np.linalg.norm(gt.S, axis=0).max()
            assert mx <= r + 1e-12
            assert mx >= r - 0.05


class TestLibraryCsv:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "lib.csv"
        lib = np.abs(rng.standard_normal((6, 2))) + 0.05
        with open(path, "w") as fh:
            fh.write("band,alpha,beta\n")
            for i, row in enumerate(lib):
                fh.write(f"{i},{float(row[0])!r},{float(row[1])!r}\n")
        names, loaded = load_signature_library(path)
        assert names == ["alpha", "beta"]
        assert np.allclose(loaded, lib)

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("band,a\n0,-1.0\n")
        with pytest.raises(BadDims):
            load_signature_library(path)
