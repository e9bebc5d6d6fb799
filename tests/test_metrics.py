import itertools
import math

import numpy as np
import pytest

from mviefact.errors import DimMismatch, ZeroColumn
from mviefact.metrics import rms_angle_error, snr_of


def brute_force_rms(a, b):
    """Reference: explicit loops over permutations and angles."""
    n = a.shape[1]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i in range(n):
            u = a[:, i] / np.linalg.norm(a[:, i])
            v = b[:, perm[i]] / np.linalg.norm(b[:, perm[i]])
            total += math.acos(min(1.0, max(-1.0, float(u @ v)))) ** 2
        best = min(best, math.sqrt(total / n))
    return math.degrees(best)


class TestRmsAngleError:
    def test_permutation_invariance(self, rng):
        a = rng.random((16, 5)) + 0.1
        perm = rng.permutation(5)
        phi, found = rms_angle_error(a, a[:, perm])
        assert phi <= 1e-6
        # found[i] is the a_hat column matched to column i of a
        assert all(perm[found[i]] == i for i in range(5))

    def test_recovers_permutation_beyond_brute_force(self, rng):
        # N=10 has 3.6M permutations, past what a brute-force search covers
        a = rng.random((30, 10)) + 0.1
        perm = rng.permutation(10)
        phi, found = rms_angle_error(a, a[:, perm])
        assert phi <= 1e-6
        assert all(perm[found[i]] == i for i in range(10))
        assert all(type(k) is int for k in found)

    def test_self_is_zero(self, rng):
        a = rng.random((10, 4)) + 0.1
        phi, perm = rms_angle_error(a, a)
        assert phi <= 1e-6
        assert perm == (0, 1, 2, 3)

    def test_single_2deg_rotation(self, rng):
        # rotate one column by exactly 2 degrees inside a known plane
        a = rng.random((12, 4)) + 0.5
        u = a[:, 0] / np.linalg.norm(a[:, 0])
        w = rng.standard_normal(12)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        theta = math.radians(2.0)
        b = a.copy()
        b[:, 0] = (math.cos(theta) * u + math.sin(theta) * w) * np.linalg.norm(a[:, 0])
        phi, _ = rms_angle_error(a, b)
        assert abs(phi - 1.0) <= 1e-9  # sqrt(2^2 / 4)

    @pytest.mark.parametrize("s", [1e-300, 1e300])
    def test_free_of_the_units_of_the_columns(self, rng, s):
        # column norms taken directly overflow or underflow at this scale
        a = rng.random((12, 4)) + 0.5
        b = a + 0.05 * rng.standard_normal((12, 4))
        phi, perm = rms_angle_error(a, b)
        phi_s, perm_s = rms_angle_error(s * a, s * b)
        assert phi_s == pytest.approx(phi, rel=1e-12)
        assert perm_s == perm

    @pytest.mark.parametrize("theta", [1e-9, 1e-8, 1e-7])
    def test_small_rotation_is_resolved(self, rng, theta):
        # arccos of the inner product read 6.0e-7 deg for a true 2.9e-8 deg
        a = rng.random((50, 4)) + 0.5
        u = a[:, 0] / np.linalg.norm(a[:, 0])
        w = rng.standard_normal(50)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        b = a.copy()
        b[:, 0] = math.cos(theta) * u + math.sin(theta) * w
        phi, _ = rms_angle_error(a, b)
        assert phi == pytest.approx(math.degrees(theta) / 2.0, rel=1e-6)

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = rng.random((8, n)) + 0.05
            b = rng.random((8, n)) + 0.05
            phi, _ = rms_angle_error(a, b)
            assert abs(phi - brute_force_rms(a, b)) <= 1e-12

    def test_scale_invariance(self, rng):
        a = rng.random((9, 3)) + 0.1
        b = rng.random((9, 3)) + 0.1
        d = np.diag(rng.uniform(0.1, 10.0, 3))
        phi1, _ = rms_angle_error(a, b)
        phi2, _ = rms_angle_error(a @ d, b)
        assert abs(phi1 - phi2) <= 1e-9

    def test_symmetry(self, rng):
        a = rng.random((9, 3)) + 0.1
        b = rng.random((9, 3)) + 0.1
        assert abs(rms_angle_error(a, b)[0] - rms_angle_error(b, a)[0]) <= 1e-9

    def test_zero_column(self, rng):
        a = rng.random((5, 2))
        bad = a.copy()
        bad[:, 1] = 0.0
        with pytest.raises(ZeroColumn):
            rms_angle_error(a, bad)


class TestSnr:
    def test_zero_noise_is_inf(self, rng):
        x = rng.random((6, 9))
        assert snr_of(x, np.zeros_like(x)) == math.inf

    @pytest.mark.filterwarnings("error")
    def test_zero_signal_is_minus_inf(self):
        # the mirror of zero noise
        assert snr_of(np.zeros((3, 4)), np.full((3, 4), 1e-3)) == -math.inf

    def test_equal_power_is_zero_db(self, rng):
        x = rng.standard_normal((100, 200))
        assert abs(snr_of(x, x.copy())) <= 0.1

    def test_doubling_noise_drops_6db(self, rng):
        x = rng.standard_normal((80, 150))
        w = rng.standard_normal((80, 150)) * 0.3
        assert abs(snr_of(x, w) - snr_of(x, 2 * w) - 6.02) <= 0.1

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            snr_of(rng.random((3, 3)), rng.random((3, 4)))

    @pytest.mark.filterwarnings("error")
    def test_follows_no_units(self, rng):
        # at 2^+-600 and beyond the squares overflow or underflow
        x = rng.standard_normal((5, 7))
        w = 0.01 * rng.standard_normal((5, 7))
        base = snr_of(x, w)
        assert math.isfinite(base)
        for j in (-1000, -600, 600, 1000):
            assert snr_of(np.ldexp(x, j), np.ldexp(w, j)) == base
            assert snr_of(np.ldexp(x, j), np.zeros_like(x)) == math.inf
