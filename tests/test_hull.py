import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from mviefact import dimred, synth
from mviefact.errors import DegenerateInput, TooFewPoints
from mviefact.hull import HPolytope, enumerate_facets


# -- independent 2-D oracle: Andrew's monotone chain ------------------------

def monotone_chain(points):
    """Hull vertices in counterclockwise order (classic textbook version)."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def chain_facets(points):
    """(g, h) facet list from the monotone-chain vertices."""
    verts = monotone_chain(points)
    out = []
    for a, b in zip(verts, verts[1:] + verts[:1]):
        edge = np.subtract(b, a)
        g = np.array([edge[1], -edge[0]])
        g /= np.linalg.norm(g)
        out.append((g, float(g @ a)))
    return out


# -- independent d >= 2 oracle: hyperplanes through every d-subset ----------

def brute_force_hull(points):
    """All facets found by checking each d-subset's hyperplane.

    Exponential, fine for <= 40 points. Returns (facets, vertex index set);
    vertices are points lying on >= d facets.
    """
    pts = np.asarray(points, float)
    l, d = pts.shape
    facets = []
    on_facet = [set() for _ in range(l)]
    for subset in itertools.combinations(range(l), d):
        base = pts[subset[0]]
        span = pts[list(subset[1:])] - base
        if d == 1:
            g = np.array([1.0])
        else:
            # normal = null space of the span
            _, sv, vt = np.linalg.svd(span)
            if sv.size and sv[-1] < 1e-10:
                continue  # degenerate subset
            g = vt[-1]
        h = float(g @ base)
        side = pts @ g - h
        if np.all(side <= 1e-9):
            pass
        elif np.all(side >= -1e-9):
            g, h, side = -g, -h, -side
        else:
            continue
        key = tuple(np.round(np.append(g, h), 7))
        if key not in {f[2] for f in facets}:
            facets.append((g, h, key))
        for i in np.nonzero(np.abs(side) <= 1e-9)[0]:
            on_facet[int(i)].add(key)
    vertices = {i for i in range(l) if len(on_facet[i]) >= d}
    return [(g, h) for g, h, _ in facets], vertices


def purity_cloud(n, l, snr=math.inf):
    """Reduced synth cloud at purity 1/sqrt(N-1) + 0.1, just above the
    recovery threshold: many pixels lie close to a face of the simplex."""
    gt = synth.make_instance(50, n, l, 1 / math.sqrt(n - 1) + 0.1, snr, 0)
    return dimred.affine_fit(gt.X, n)[1].T


def centred_cube(d):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


class TestKnownShapes:
    def test_unit_square(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        poly = enumerate_facets(pts)
        assert poly.n_facets == 4
        got = {(round(g[0]), round(g[1]), round(h, 9))
               for g, h in zip(poly.normals, poly.offsets)}
        assert got == {(1, 0, 1.0), (0, 1, 1.0), (-1, 0, 0.0), (0, -1, 0.0)}

    def test_triangle_with_interior_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
        poly = enumerate_facets(pts)
        assert poly.n_facets == 3

    def test_cube_merges_triangulated_output(self):
        # Qhull splits each square face into simplices that repeat its
        # equation row; of the centred cube's facets every offset ties
        for cube in ((centred_cube(3) + 1) / 2, centred_cube(4),
                     centred_cube(5)):
            d = cube.shape[1]
            assert ConvexHull(cube).equations.shape[0] > 2 * d
            assert enumerate_facets(cube).n_facets == 2 * d

    def test_dim_is_the_normals_width(self):
        # a dim given apart from the normals could disagree with them:
        # (3, 4 x 2 normals) was accepted, and the first-order solve then
        # failed on a bare matmul error
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        poly = HPolytope(g, np.ones(4), np.zeros(2))
        assert poly.dim == 2
        assert enumerate_facets(centred_cube(3)).dim == 3

    def test_d1_interval(self):
        pts = np.array([[0.3], [2.0], [-1.0], [0.7]])
        poly = enumerate_facets(pts)
        assert poly.n_facets == 2
        assert np.all(poly.normals @ [0.0] <= poly.offsets)
        assert not np.all(poly.normals @ [2.5] <= poly.offsets + 1e-9)


class TestAgainstOracles:
    def test_disk_matches_monotone_chain(self, rng):
        angles = rng.uniform(0, 2 * np.pi, 1000)
        radii = np.sqrt(rng.uniform(0, 1, 1000))
        pts = np.column_stack([radii * np.cos(angles),
                               radii * np.sin(angles)])
        poly = enumerate_facets(pts)
        # soundness at eps_hull
        assert np.all(pts @ poly.normals.T - poly.offsets
                      <= poly.eps_hull + 1e-15)
        verts = monotone_chain(pts)
        assert poly.n_facets == len(verts)
        ref = chain_facets(pts)
        got = sorted(map(tuple, np.column_stack([poly.normals,
                                                 poly.offsets]).round(9)))
        exp = sorted(tuple(np.append(g, h).round(9)) for g, h in ref)
        assert np.allclose(got, exp, atol=1e-9)

    @pytest.mark.parametrize("trial", range(25))
    def test_2d_random_instances(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(5, 60))
        pts = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3)
        poly = enumerate_facets(pts)
        exp = chain_facets(pts)
        assert poly.n_facets == len(exp)
        got = sorted(map(tuple, np.column_stack([poly.normals,
                                                 poly.offsets]).round(8)))
        ref = sorted(tuple(np.append(g, h).round(8)) for g, h in exp)
        for a, b in zip(got, ref):
            assert np.allclose(a, b, atol=1e-8)

    @pytest.mark.parametrize("d", [3, 4])
    def test_vertices_match_brute_force(self, d):
        rng = np.random.default_rng(55 + d)
        pts = rng.standard_normal((30, d))
        poly = enumerate_facets(pts)
        _, ref_vertices = brute_force_hull(pts)
        # vertices from the H-rep: points on >= d facets
        slack = poly.offsets[None] - pts @ poly.normals.T
        tight = (np.abs(slack) <= max(poly.eps_hull, 1e-9)).sum(axis=1)
        got_vertices = set(np.nonzero(tight >= d)[0])
        assert got_vertices == ref_vertices


class TestInvariants:
    @pytest.mark.parametrize("d,n", [(2, 50), (3, 50), (4, 80)])
    def test_soundness_and_tightness(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        pts = rng.standard_normal((n, d))
        poly = enumerate_facets(pts)
        assert np.allclose(np.linalg.norm(poly.normals, axis=1), 1.0,
                           atol=1e-12)
        slack = poly.offsets[None] - pts @ poly.normals.T
        assert slack.min() >= -poly.eps_hull  # no point outside
        support = (np.abs(slack) <= poly.eps_hull).sum(axis=0)
        assert np.all(support >= d)          # every facet is supported
        assert poly.interior is not None
        assert np.all(poly.offsets - poly.normals @ poly.interior > 0)

    @pytest.mark.parametrize("snr", [math.inf, 30.0])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_qhull_normals_are_unit(self, n, snr):
        # enumerate_facets hands Qhull's normals on without normalising
        poly = enumerate_facets(purity_cloud(n, 400, snr))
        dev = np.abs(np.linalg.norm(poly.normals, axis=1) - 1.0)
        assert dev.max() <= 4 * np.finfo(float).eps

    def test_keeps_every_distinct_qhull_row(self):
        # no facet of a data cloud is folded into a near-coplanar one
        pts = purity_cloud(6, 400)
        rows = np.unique(ConvexHull(pts).equations, axis=0)
        assert enumerate_facets(pts).n_facets == rows.shape[0]

    def test_interior_is_the_mean_of_qhull_vertices(self):
        # The interior is the mean of the hull's vertices, found from the
        # simplices without ConvexHull.vertices; it is bitwise the mean
        # over ConvexHull.vertices on the clouds of the unframed panel
        clouds = ([(6, 0.6, 400, seed, math.inf) for seed in range(2)]
                  + [(4, 0.7, 1000, seed, snr) for seed in range(8)
                     for snr in (math.inf, 30.0)])
        for n, r, l, seed, snr in clouds:
            gt = synth.make_instance(50, n, l, r, snr, seed)
            pts = dimred.affine_fit(gt.X, n)[1].T
            k = int(np.frexp(np.abs(pts).max())[1])
            scaled = np.ldexp(pts, -k)
            ref = scaled[ConvexHull(scaled).vertices].mean(axis=0)
            assert np.array_equal(enumerate_facets(pts).interior,
                                  np.ldexp(ref, k))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_power_of_two_scale_moves_no_bit(self, d):
        # the facets of 2^j pts are those of pts scaled by 2^j, bit for
        # bit, also where Qhull on 2^j pts itself would overflow or
        # underflow; the spread is that of pts
        pts = purity_cloud(max(d + 1, 3), 150 if d == 6 else 400)[:, :d]
        poly = enumerate_facets(pts)
        for j in (-1000, -300, -100, 100, 300, 1000):
            scaled = np.ldexp(pts, j)
            assert np.array_equal(np.ldexp(scaled, -j), pts)  # exact
            got = enumerate_facets(scaled)
            assert np.array_equal(got.normals, poly.normals)
            assert np.array_equal(got.offsets, np.ldexp(poly.offsets, j))
            assert np.array_equal(got.interior, np.ldexp(poly.interior, j))
            assert got.eps_hull == math.ldexp(poly.eps_hull, j)
            assert np.array_equal(got.spread, poly.spread)

    def test_degenerate_and_small_inputs(self, rng):
        flat = np.column_stack([rng.standard_normal(10),
                                rng.standard_normal(10),
                                np.zeros(10)])
        with pytest.raises(DegenerateInput):
            enumerate_facets(flat)
        with pytest.raises(TooFewPoints):
            enumerate_facets(np.zeros((2, 2)))
        with pytest.raises(DegenerateInput):
            enumerate_facets(np.ones((5, 2)))

