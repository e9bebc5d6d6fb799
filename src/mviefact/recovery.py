"""From the solved ellipsoid back to the factors.

The inscribed ellipsoid touches the data hull on the facets with zero
slack; each such facet contributes the tangency point
q = F (F g / ||F g||) + c. Under the recovery condition the touched
points are the N facet midpoints of the latent simplex, so the
signature columns follow from a_i = sum_j q_j - (N-1) q_i, and the
abundances from simplex-constrained least squares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dimred, hull, mvie
from .errors import (
    NoContacts,
    RankDeficientA,
    TooFewContacts,
    WrongCount,
)
from .numerics import as_matrix, kmeans, project_simplex_columns, eig_sym

__all__ = [
    "RecoveryReport",
    "find_contacts",
    "consolidate_contacts",
    "reconstruct_endmembers",
    "recover_abundances",
    "run_pipeline",
]


@dataclass
class RecoveryReport:
    A_hat: np.ndarray                     # M x N estimated signatures
    contacts_reduced: np.ndarray          # N x (N-1), one row per contact
    contacts_ambient: np.ndarray          # N x M
    raw_contact_count: int
    center_ambient: np.ndarray            # lifted ellipsoid center
    ellipsoid: mvie.Ellipsoid             # reduced-space solution
    S_hat: np.ndarray | None = None       # N x L abundances when requested
    n_facets: int = 0
    solver: mvie.SolveDiagnostics | None = None
    timings: dict[str, float] = field(default_factory=dict)
    affine_residual: float = 0.0
    max_violation: float = 0.0            # mvie.max_violation of the solve


def find_contacts(f: np.ndarray, c: np.ndarray, poly: hull.HPolytope,
                  tau: float) -> np.ndarray:
    """Tangency points of the ellipsoid (f, c) on near-active facets.

    A facet qualifies when its slack h_i - (||f g_i|| + g_i . c) is at
    most tau times its distance h_i - g_i . c from the centre, a rule
    free of the data's units; each qualifying facet yields the boundary
    point f (f g_i / ||f g_i||) + c. Returns one row per contact.
    """
    f = as_matrix(f, "F")
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = poly.normals
    h = poly.offsets
    fg = g @ f.T                     # row i = (f g_i)^T for symmetric f
    norms = np.linalg.norm(fg, axis=1)
    depth = h - g @ c
    slack = depth - norms
    active = slack <= tau * depth
    if not active.any():
        raise NoContacts(
            f"no facet within slack tolerance tau={tau} "
            f"(smallest slack {slack.min():.3e}); the solver may be "
            "under-converged or tau too tight")
    dirs = fg[active] / norms[active, None]
    return dirs @ f.T + c


def consolidate_contacts(candidates, n: int, seed: int) -> np.ndarray:
    """Reduce raw contact candidates to exactly N points.

    Up to N candidates pass through unchanged; more than N are merged
    by seeded k-means and the centroids returned.
    """
    pts = np.atleast_2d(np.asarray(candidates, dtype=float))
    if pts.shape[0] < n:
        raise TooFewContacts(
            f"only {pts.shape[0]} contact candidates for N={n}; "
            "increase the contact slack tau")
    if pts.shape[0] == n:
        return pts
    centroids, _ = kmeans(pts, n, seed)
    return centroids


def reconstruct_endmembers(contacts_ambient) -> np.ndarray:
    """Invert the facet-midpoint map: a_i = sum_j q_j - (N-1) q_i.

    contacts_ambient: exactly N ambient points, one per row.
    Returns the M x N signature matrix.
    """
    q = np.atleast_2d(np.asarray(contacts_ambient, dtype=float))
    n = q.shape[0]
    if n < 1:
        raise WrongCount("need at least one contact point")
    total = q.sum(axis=0)
    a_cols = total[None, :] - (n - 1) * q
    return a_cols.T


def recover_abundances(x: np.ndarray, a_hat: np.ndarray,
                       max_iter: int = 5000,
                       tol: float = 1e-9) -> np.ndarray:
    """Simplex-constrained least squares, every column of x at once.

    Accelerated projected gradient with step 1/lambda_max(A^T A),
    stopped on the projected-gradient fixed-point residual.
    """
    x = as_matrix(x, "X")
    a = as_matrix(a_hat, "A_hat")
    if a.shape[0] != x.shape[0]:
        raise WrongCount(
            f"A_hat has {a.shape[0]} rows, X has {x.shape[0]}")
    n, l = a.shape[1], x.shape[1]
    ata = a.T @ a
    lam = eig_sym(ata).eigenvalues
    if lam[-1] < 1e-10 * max(1.0, lam[0]):
        raise RankDeficientA(
            f"estimated signatures are rank deficient (eigs {lam})")
    atx = a.T @ x
    step = 1.0 / lam[0]
    scale = max(1.0, float(np.abs(atx).max()))

    s = np.full((n, l), 1.0 / n)
    z = s.copy()
    u_prev = 0.0
    for _ in range(max_iter):
        grad = ata @ z - atx
        s_new = project_simplex_columns(z - step * grad)
        u_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * u_prev * u_prev))
        z = s_new + ((u_prev - 1.0) / u_k) * (s_new - s)
        s = s_new
        u_prev = u_k
        grad_s = ata @ s - atx
        resid = np.linalg.norm(s - project_simplex_columns(s - grad_s),
                               axis=0).max()
        if resid <= tol * scale:
            break
    return s


def run_pipeline(x: np.ndarray, n: int,
                 cfg: mvie.FpgmConfig | None = None,
                 seed: int = 0,
                 tau: float = 1e-5,
                 high_accuracy: bool = True,
                 want_abundances: bool = False) -> RecoveryReport:
    """Blind recovery of the signature factor from observations alone.

    Steps: affine fit to N-1 dimensions, facet enumeration of the
    reduced hull, inscribed-ellipsoid solve, contact extraction and
    consolidation, lift, and signature reconstruction. The solve is the
    barrier Newton method; ``high_accuracy=False`` selects the paper's
    first-order penalty method, the only one ``cfg`` tunes.
    """
    x = as_matrix(x, "X")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    chart = dimred.affine_fit(x, n)
    reduced = dimred.reduce_points(x, chart)
    residual = dimred.fit_residual(chart, x)
    timings["dimred"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    poly = hull.enumerate_facets(reduced.T)
    timings["hull"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if high_accuracy:
        ell, diag = mvie.solve_mvie_high_accuracy(poly)
    else:
        ell, diag = mvie.solve_mvie(poly, cfg)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    raw = find_contacts(ell.F, ell.c, poly, tau)
    merged = consolidate_contacts(raw, n, seed)
    ambient = dimred.lift_points(merged.T, chart).T
    a_hat = reconstruct_endmembers(ambient)
    s_hat = recover_abundances(x, a_hat) if want_abundances else None
    timings["recover"] = time.perf_counter() - t0

    return RecoveryReport(
        A_hat=a_hat,
        contacts_reduced=merged,
        contacts_ambient=ambient,
        raw_contact_count=raw.shape[0],
        center_ambient=dimred.lift_point(ell.c, chart),
        ellipsoid=ell,
        S_hat=s_hat,
        n_facets=poly.n_facets,
        solver=diag,
        timings=timings,
        affine_residual=residual,
        max_violation=mvie.max_violation(ell, poly),
    )
