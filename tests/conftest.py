import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def square_polytope():
    """[-1, 1]^2 as an H-polytope."""
    from mviefact.hull import HPolytope
    g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return HPolytope(g, np.ones(4), np.zeros(2), 1e-9)


def regular_simplex_points(n):
    """Rows are the images of the unit vectors under any C with
    C^T C = I, C^T 1 = 0: a regular simplex centered at the origin."""
    e = np.eye(n) - np.ones((n, n)) / n
    u, _, _ = np.linalg.svd(e)
    c = u[:, :n - 1]
    return np.eye(n) @ c, c  # (n, n-1) points, and C itself


def pure_pixel_instance(n, m, seed, fillers=500):
    """Observations whose columns are the N signatures plus strictly
    interior mixtures: the reduced hull is exactly the signature simplex."""
    from mviefact import synth
    a = synth.sample_endmembers(m, n, seed)
    rng = np.random.Generator(np.random.Philox(seed + 999))
    s_fill = rng.dirichlet(np.ones(n), size=fillers).T * 0.9 + 0.1 / n
    s = np.hstack([np.eye(n), s_fill])
    return a, a @ s
