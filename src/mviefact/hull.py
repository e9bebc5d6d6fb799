"""Facet enumeration: irredundant half-space form of a point cloud's
convex hull.

Facets are stored as unit normals g and offsets h with g.x <= h. The
enumeration delegates to Qhull (scipy.spatial.ConvexHull); because
Qhull triangulates its output, coplanar sub-facets are merged back
into single facets here. Coordinates coming from continuous data are
generically non-degenerate, so tolerance-based merging (rather than
symbolic perturbation) is used, with eps_hull = 1e-9 times the point
cloud diameter. Duplicates are looked for only among facets whose
offsets lie within a 2*eps_hull window of each other in offset-sorted
order, so the merge costs O(K log K) plus the few candidate pairs
instead of comparing all K^2 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, DimMismatch, TooFewPoints
from .numerics import as_matrix

__all__ = ["HPolytope", "enumerate_facets", "contains"]


@dataclass(frozen=True)
class HPolytope:
    """Bounded full-dimensional polytope {x : G x <= h}, unit rows in G."""

    dim: int
    normals: np.ndarray              # K x dim, unit rows
    offsets: np.ndarray              # K
    interior: np.ndarray | None = field(default=None)  # strictly feasible point
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

    span = pts.max(axis=0) - pts.min(axis=0)
    diam = float(np.linalg.norm(span))
    if diam <= 0.0:
        raise DegenerateInput("all points coincide")
    eps = 1e-9 * diam

    if d == 1:
        flat = pts.ravel()
        normals = np.array([[1.0], [-1.0]])
        offsets = np.array([flat.max(), -flat.min()])
        interior = np.array([0.5 * (flat.max() + flat.min())])
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

    normals = qh.equations[:, :d].copy()
    offsets = -qh.equations[:, d].copy()
    scale = np.linalg.norm(normals, axis=1)
    normals /= scale[:, None]
    offsets /= scale

    normals, offsets = _merge_duplicates(normals, offsets, eps)
    interior = pts[qh.vertices].mean(axis=0)
    return HPolytope(d, normals, offsets, interior, eps)


def _merge_duplicates(normals: np.ndarray, offsets: np.ndarray,
                      eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Drop facets whose normal is within 1e-7 rad and offset within eps
    of an earlier kept one (Qhull's triangulated output repeats merged
    facets).

    Only facets whose offsets lie within a window of 2*eps of each other
    can match, so the candidate pairs come from the facets sorted by
    offset; the window is twice the tolerance so that rounding in h +- 2*eps
    cannot hide a pair with |h_i - h_j| < eps. Close pairs (i, j), j < i,
    are walked in ascending (i, j) order: facet i is dropped iff it
    matches an earlier facet j that is itself kept. The normal test is
    one np.dot per pair, so its rounding does not depend on how the
    pairs were found.
    """
    k = offsets.shape[0]
    order = np.argsort(offsets, kind="stable")
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
    walk = np.lexsort((j, i))
    dropped = np.zeros(k, dtype=bool)
    for fi, fj in zip(i[walk].tolist(), j[walk].tolist()):
        if dropped[fi] or dropped[fj]:
            continue
        if float(np.dot(normals[fi], normals[fj])) >= 1.0 - 5e-15:
            dropped[fi] = True  # angle < ~1e-7 rad
    return normals[~dropped], offsets[~dropped]


def contains(poly: HPolytope, p, slack: float) -> bool:
    """True iff g_i . p <= h_i + slack for every facet."""
    p = np.asarray(p, dtype=float).ravel()
    if p.shape[0] != poly.dim:
        raise DimMismatch(f"point has dim {p.shape[0]}, polytope {poly.dim}")
    return bool(np.all(poly.normals @ p <= poly.offsets + slack))
