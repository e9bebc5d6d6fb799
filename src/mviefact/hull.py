"""Facet enumeration: irredundant half-space form of a point cloud's
convex hull.

Facets are stored as unit normals g and offsets h with g.x <= h. The
enumeration delegates to Qhull (scipy.spatial.ConvexHull), whose
equations already carry unit normals (within 2 ulps on the synth
clouds), so they are used as they come. Qhull returns simplicial facets
and splits a flat face into several, so exactly coplanar input, such as
a cube, repeats equation rows bit for bit; only those repeats are
dropped. Near-coplanar facets are kept as they are: folding a facet into
a neighbour within some tolerance can drop the tighter of the two, and
the inscribed ellipsoid would then be solved and certified in a polytope
slightly larger than the hull of the points.

The hull of the points P is taken of P / 2^k, with entries below 1 in
magnitude, and offsets, eps_hull and the interior point are scaled back
by 2^k. So the facets of 2^j P are those of P scaled by 2^j, bit for
bit, for every j at which 2^j P is exact, also where Qhull on 2^j P
itself would overflow, underflow or call the points flat. The spread,
the covariance of P / 2^k over its trace, from which the MVIE solve
takes its first guess, has the same bits for 2^j P as for P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, TooFewPoints
from .numerics import as_matrix

__all__ = ["HPolytope", "enumerate_facets"]


@dataclass(frozen=True)
class HPolytope:
    """Bounded full-dimensional polytope {x : G x <= h}, unit rows in G."""

    dim: int
    normals: np.ndarray              # K x dim, unit rows
    offsets: np.ndarray              # K
    interior: np.ndarray             # strictly feasible point
    eps_hull: float = 0.0            # slack within which a point is on a facet
    # dim x dim covariance of the points / 2^k over its trace, unit-free;
    # None when the polytope is built by hand
    spread: np.ndarray | None = None

    @property
    def n_facets(self) -> int:
        return self.normals.shape[0]


def enumerate_facets(points) -> HPolytope:
    """Irredundant H-representation of conv(points): Qhull's facets as
    they come, less the rows that repeat an earlier one bit for bit.

    points: (L, d) array, rows are points; they must affinely span R^d.
    eps_hull, 1e-9 times the cloud's diameter, is the slack within which
    a point counts as lying on a facet; no facet is merged by it. spread
    is the points' covariance over its trace.
    """
    pts = as_matrix(points, "points")
    l, d = pts.shape
    if d < 1:
        raise DegenerateInput("dimension must be >= 1")
    if l < d + 1:
        raise TooFewPoints(f"need at least d+1={d + 1} points, got {l}")
    # A power of two scales exactly, so pts / 2^k keeps every bit.
    k = int(np.frexp(max(pts.max(), -pts.min()))[1])
    pts = np.ldexp(pts, -k)

    span = pts.max(axis=0) - pts.min(axis=0)
    diam = float(np.linalg.norm(span))
    if diam <= 0.0:
        raise DegenerateInput("all points coincide")
    eps = math.ldexp(1e-9 * diam, k)
    centered = pts - pts.mean(axis=0)
    spread = centered.T.dot(centered)
    spread /= spread.trace()

    if d == 1:
        flat = pts.ravel()
        normals = np.array([[1.0], [-1.0]])
        offsets = np.ldexp([flat.max(), -flat.min()], k)
        interior = np.ldexp([0.5 * (flat.max() + flat.min())], k)
        return HPolytope(1, normals, offsets, interior, eps, spread)

    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[d - 1] < 1e-12 * max(sv[0], diam):
        raise DegenerateInput(
            f"points do not affinely span R^{d} (singular values {sv[:d]})")

    try:
        qh = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"hull construction failed: {exc}") from exc

    eq = _drop_repeats(qh.equations)
    # contiguous rows: the solve's products with all K normals are faster
    normals = np.ascontiguousarray(eq[:, :d])
    # the hull's vertices, ascending, as ConvexHull.vertices has them
    # without its np.unique over all K x d simplex entries
    vertices = np.bincount(qh.simplices.ravel(), minlength=l) > 0
    interior = np.ldexp(pts[vertices].mean(axis=0), k)
    return HPolytope(d, normals, np.ldexp(-eq[:, d], k), interior, eps,
                     spread)


def _drop_repeats(eq: np.ndarray) -> np.ndarray:
    """Rows of eq less those equal to an earlier row. A repeat has the
    offset of the row it repeats, so only rows whose offsets tie are
    compared, and eq comes back as it is when no offsets tie."""
    order = np.argsort(eq[:, -1])
    ties = np.diff(eq[order, -1]) == 0
    if not ties.any():
        return eq
    tied = np.zeros(order.size, dtype=bool)
    tied[1:] = ties
    tied[:-1] |= ties
    rows = np.sort(order[tied])
    _, first = np.unique(eq[rows], axis=0, return_index=True)
    keep = np.ones(eq.shape[0], dtype=bool)
    keep[rows] = False
    keep[rows[first]] = True
    return eq[keep]
