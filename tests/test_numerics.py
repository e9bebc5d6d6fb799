import math

import numpy as np
import pytest

from mviefact.errors import NonSquare, NotFinite
from mviefact.numerics import eig_sym, rng_from_seed

from conftest import random_symmetric


# -- independent oracle: eigenvalues via bisection on the characteristic
#    polynomial, n <= 3 ---------------------------------------------------

def _charpoly_eigs_bisect(a):
    """Roots of det(lambda I - A) for symmetric 2x2/3x3 by bisection."""
    n = a.shape[0]
    tr = np.trace(a)
    if n == 2:
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]

        def p(x):
            return (x - tr) * x + det
        crit = [tr / 2.0]
    elif n == 3:
        m2 = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
              + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
              + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        det = np.linalg.det(a)

        def p(x):
            return ((x - tr) * x + m2) * x - det
        disc = tr * tr - 3.0 * m2
        if disc <= 0:
            crit = [tr / 3.0]
        else:
            crit = [(tr - math.sqrt(disc)) / 3.0, (tr + math.sqrt(disc)) / 3.0]
    else:
        raise ValueError("oracle supports n <= 3 only")

    radius = float(np.abs(a).sum(axis=1).max()) + 1.0  # Gershgorin bound
    edges = [-radius] + sorted(crit) + [radius]
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo, fhi = p(lo), p(hi)
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi > 0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = p(mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots, reverse=True))


class TestEigSym:
    def test_identity(self):
        w, u = eig_sym(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(u @ u.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, u = eig_sym(np.diag([3.0, -1.0]))
        assert np.allclose(w, [3.0, -1.0])
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)

    def test_reconstruction_random(self, rng):
        for _ in range(20):
            a = random_symmetric(rng, 5, scale=3.0)
            w, u = eig_sym(a)
            assert np.all(np.diff(w) <= 1e-12)
            recon = (u * w) @ u.T
            tol = 1e-10 * max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(recon - a) <= tol
            assert np.linalg.norm(u.T @ u - np.eye(5)) <= 1e-10

    def test_against_charpoly_bisection(self, rng):
        for n in (2, 3):
            for _ in range(50):
                a = random_symmetric(rng, n, scale=2.0)
                w, _ = eig_sym(a)
                ref = _charpoly_eigs_bisect(a)
                assert len(ref) == n
                assert np.abs(w - ref).max() < 1e-9

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(NonSquare):
            eig_sym(np.ones((2, 3)))
        with pytest.raises(NonSquare):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NotFinite):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rng_is_reproducible():
    a = rng_from_seed(5).standard_normal(8)
    b = rng_from_seed(5).standard_normal(8)
    assert np.array_equal(a, b)
