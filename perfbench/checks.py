"""Correctness checks on one recovery, computed without the mviefact package.

Every check takes plain arrays and returns a list of failure messages,
empty when the answer passes. Only numpy and scipy are used, so a fault
in the program under test cannot also hide in its own check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import ConvexHull

# The paper's exact-recovery claim (r > 1/sqrt(N-1), no noise) leaves only
# the solver's stopping error in phi. The acceptance gate of the test suite
# holds the mean over trials to 0.05 deg and single N=4 instances reach
# 0.049 deg, so one instance is held to twice that.
EXACT_PHI_DEG = 0.1
# At 30 dB SNR phi measures 1.4-3.1 deg on the benchmark's eight instances.
NOISY_PHI_DEG = 6.0
# The returned ellipsoid may cross a hull facet by at most this share of
# max|h|; measured crossings are below 4e-7.
INSCRIBED_REL = 1e-5
# S_hat columns: smallest entry and distance of the column sum from 1.
SIMPLEX_TOL = 1e-9
# S_hat's least-squares objective may exceed the exact optimum by this
# share (plus the same share of ||x||^2 for pixels fitted exactly); the
# measured excess is below 1e-13 of the optimum.
FCLS_REL = 1e-9


def rms_angle_deg(a: np.ndarray, a_hat: np.ndarray
                  ) -> tuple[float, np.ndarray]:
    """Permutation-aligned RMS angle between the columns, in degrees.

    The column matching minimises the sum of squared angles, which is a
    linear assignment problem. Returns (phi, cols) with column cols[i] of
    a_hat matched to column i of a.
    """
    ua = a / np.linalg.norm(a, axis=0)
    ub = a_hat / np.linalg.norm(a_hat, axis=0)
    # 2 asin(|u - v| / 2) keeps its accuracy for tiny angles, unlike acos.
    chord = np.linalg.norm(ua[:, :, None] - ub[:, None, :], axis=0)
    ang = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    rows, cols = linear_sum_assignment(ang * ang)
    return math.degrees(math.sqrt(np.mean(ang[rows, cols] ** 2))), cols


def check_phi(phi: float, limit_deg: float) -> list[str]:
    if not phi <= limit_deg:
        return [f"phi {phi:.4g} deg exceeds {limit_deg:g} deg"]
    return []


def chart_from_contacts(reduced: np.ndarray, ambient: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The affine map u -> Phi u + b that sends each reduced point to its
    ambient image, fitted by least squares (rows are points)."""
    design = np.hstack([reduced, np.ones((reduced.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, ambient, rcond=None)
    return coef[:-1].T, coef[-1]


def reduce(x: np.ndarray, phi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reduced coordinates of the columns of x under the chart (Phi, b)."""
    coords, *_ = np.linalg.lstsq(phi, x - b[:, None], rcond=None)
    return coords.T


def hull_facets(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals and offsets (g . y <= h) of the hull of the rows."""
    eq = ConvexHull(points).equations
    return eq[:, :-1], -eq[:, -1]


def ellipsoid_crossing(f: np.ndarray, c: np.ndarray, normals: np.ndarray,
                       offsets: np.ndarray) -> float:
    """max_i (||F^T g_i|| + g_i . c - h_i) / max|h|, clipped at 0: how far
    the ellipsoid {F u + c : |u| <= 1} reaches past the facets."""
    support = np.linalg.norm(normals @ f, axis=1) + normals @ c
    worst = float((support - offsets).max()) / float(np.abs(offsets).max())
    return max(worst, 0.0)


def check_inscribed(f, c, normals, offsets, rel: float = INSCRIBED_REL
                    ) -> list[str]:
    crossing = ellipsoid_crossing(f, c, normals, offsets)
    if not crossing <= rel:
        return [f"ellipsoid crosses the hull by {crossing:.3g} of max|h| "
                f"(limit {rel:g})"]
    return []


def check_points_inside(points: np.ndarray, normals: np.ndarray,
                        offsets: np.ndarray, eps: float) -> list[str]:
    """Every point (row) satisfies every facet g . y <= h within eps."""
    excess = float((points @ normals.T - offsets).max())
    if not excess <= eps:
        return [f"a point lies {excess:.3g} outside a facet (eps {eps:.3g})"]
    return []


def check_simplex_columns(s_hat: np.ndarray, tol: float = SIMPLEX_TOL
                          ) -> list[str]:
    low = float(s_hat.min())
    off = float(np.abs(s_hat.sum(axis=0) - 1.0).max())
    if not (low >= -tol and off <= tol):
        return [f"S_hat leaves the simplex: min entry {low:.3g}, "
                f"column sum off by {off:.3g}"]
    return []


def fcls_objective(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact min over the unit simplex of ||A s - x||^2, per column of x.

    The minimiser solves the sum-to-one least-squares problem on its own
    support, so the optimum is the least objective among the nonnegative
    solutions over all 2^N - 1 supports.
    """
    n = a.shape[1]
    best = np.full(x.shape[1], np.inf)
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            sub = a[:, support]
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = sub.T @ sub
            kkt[:k, k] = kkt[k, :k] = 1.0
            rhs = np.vstack([sub.T @ x, np.ones((1, x.shape[1]))])
            s = np.linalg.solve(kkt, rhs)[:k]
            obj = np.sum((sub @ s - x) ** 2, axis=0)
            feasible = s.min(axis=0) >= -1e-12
            best = np.where(feasible & (obj < best), obj, best)
    return best


def check_fcls(a_hat: np.ndarray, x: np.ndarray, s_hat: np.ndarray,
               rel: float = FCLS_REL) -> list[str]:
    """S_hat's least-squares objective is no worse than the exact optimum."""
    got = np.sum((a_hat @ s_hat - x) ** 2, axis=0)
    best = fcls_objective(a_hat, x)
    slack = rel * (best + np.sum(x * x, axis=0))
    worst = int(np.argmax(got - best - slack))
    if got[worst] > best[worst] + slack[worst]:
        return [f"pixel {worst}: S_hat objective {got[worst]:.6g} exceeds "
                f"the constrained optimum {best[worst]:.6g}"]
    return []
