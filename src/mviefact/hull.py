"""Facet enumeration: irredundant half-space form of a point cloud's
convex hull.

Facets are stored as unit normals g and offsets h with g.x <= h. The
enumeration delegates to Qhull (scipy.spatial.ConvexHull), whose
equations already carry unit normals (within 2 ulps on the synth
clouds), so they are used as they come. Qhull returns simplicial facets
and splits a flat face into several, so exactly coplanar input, such as
a cube, repeats equation rows. Data clouds hardly ever do that: there the
rows to merge are near-coplanar neighbours. Many pixels lie within 1e-6
of a face of the simplex, and Qhull returns the hull over them as
distinct facets whose normals differ by less than 1e-7 rad. Both kinds
are folded into one facet by tolerance-based merging (rather than
symbolic perturbation), with eps_hull = 1e-9 times the point cloud
diameter. Duplicates are looked for only among facets whose offsets lie
within a 2*eps_hull window of each other in offset-sorted order, so the
merge costs O(K log K) plus the few candidate pairs instead of
comparing all K^2 pairs.

The hull of the points P is taken of P / 2^k, with entries below 1 in
magnitude, and offsets, eps_hull and the interior point are scaled back
by 2^k. So the facets of 2^j P are those of P scaled by 2^j, bit for
bit, for every j at which 2^j P is exact, also where Qhull on 2^j P
itself would overflow, underflow or call the points flat.
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
    eps_hull: float = 0.0            # tolerance used during enumeration

    @property
    def n_facets(self) -> int:
        return self.normals.shape[0]


def enumerate_facets(points) -> HPolytope:
    """Irredundant H-representation of conv(points).

    points: (L, d) array, rows are points; they must affinely span R^d.
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

    if d == 1:
        flat = pts.ravel()
        normals = np.array([[1.0], [-1.0]])
        offsets = np.ldexp([flat.max(), -flat.min()], k)
        interior = np.ldexp([0.5 * (flat.max() + flat.min())], k)
        return HPolytope(1, normals, offsets, interior, eps)

    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[d - 1] < 1e-12 * max(sv[0], diam):
        raise DegenerateInput(
            f"points do not affinely span R^{d} (singular values {sv[:d]})")

    try:
        qh = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"hull construction failed: {exc}") from exc

    eq = qh.equations
    normals, offsets = _merge_duplicates(eq[:, :d], np.ldexp(-eq[:, d], k),
                                         eps)
    interior = np.ldexp(pts[qh.vertices].mean(axis=0), k)
    return HPolytope(d, normals, offsets, interior, eps)


def _merge_duplicates(normals: np.ndarray, offsets: np.ndarray,
                      eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Drop facets whose normal is within 1e-7 rad and offset within eps
    of an earlier kept one, as the quadratic greedy loop over Qhull's
    order would.

    Only facets whose offsets lie within a window of 2*eps of each other
    can match, so the candidate pairs come from the facets sorted by
    offset; the window is twice the tolerance so that rounding in h + 2*eps
    cannot hide a pair with |h_i - h_j| < eps. A facet is paired with each
    one that follows it in sorted order up to its window's end; of two
    equal offsets exactly one follows the other, whichever way the sort
    breaks the tie, so the pair set does not depend on that order. The
    normals of all close pairs are tested in one matmul of 1 x d by d x 1
    blocks, which takes each cosine by the same dot product as np.dot;
    another summation order (einsum) moves the last bit of about a third
    of the cosines and flips pairs that sit on the threshold. Matching
    pairs (i, j), j < i, are walked in ascending (i, j) order: facet i is
    dropped iff it matches an earlier facet j that is itself kept.
    """
    k = offsets.shape[0]
    order = np.argsort(offsets)
    sorted_h = offsets[order]
    ends = np.searchsorted(sorted_h, sorted_h + 2.0 * eps, side="right")
    counts = ends - np.arange(k) - 1
    first = np.repeat(np.arange(k), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    second = first + 1 + np.arange(first.size) - starts
    a, b = order[first], order[second]
    i, j = np.maximum(a, b), np.minimum(a, b)
    close = np.abs(offsets[i] - offsets[j]) < eps
    i, j = i[close], j[close]
    cos = np.matmul(normals[i, None, :], normals[j, :, None]).ravel()
    match = cos >= 1.0 - 5e-15  # angle < ~1e-7 rad
    i, j = i[match], j[match]
    walk = np.lexsort((j, i))
    dropped = bytearray(k)  # a numpy scalar per pair is 10x slower
    for fi, fj in zip(i[walk].tolist(), j[walk].tolist()):
        dropped[fi] |= not dropped[fj]
    kept = ~np.frombuffer(dropped, dtype=bool)
    return normals[kept], offsets[kept]
