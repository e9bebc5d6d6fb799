"""From the solved ellipsoid back to the factors.

The solve names the facets the inscribed ellipsoid touches, read off
its barrier's multipliers; each such facet contributes the tangency
point q = F (F g / ||F g||) + c. Under the recovery condition the touched
points are the N facet midpoints of the latent simplex, each possibly
reached through several hull facets, so the tangency points fall into
N tight groups; a farthest-first traversal finds the groups without a
seed, and each group's mean is one contact. The signature columns
follow from a_i = sum_j q_j - (N-1) q_i. The abundances are the exact
simplex-constrained least-squares fit (FCLS) of every pixel to those
columns, found in finitely many rounds by a primal active-set method
that groups the pixels by their free sets with one sort per round;
like A_hat, they follow the units of the data.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import dimred, hull, mvie
from .errors import (
    ConvergenceFailure,
    MviefactError,
    RankDeficientA,
    TooFewContacts,
    WrongCount,
)
from .numerics import as_matrix

__all__ = [
    "RecoveryReport",
    "find_contacts",
    "consolidate_contacts",
    "reconstruct_endmembers",
    "recover_abundances",
    "run_pipeline",
]

# Bound multipliers down to -_MULTIPLIER_RTOL (lambda_max(G) + |b|) count
# as nonnegative. On a pixel that lies on a face of the simplex the true
# multipliers are 0 and rounding puts some just below; freeing an entry
# on rounding alone makes the working sets cycle (with no margin, 53 of
# 60 random degenerate test sets did; 1e-15 already sufficed).
_MULTIPLIER_RTOL = 1e-12
# Safety bound on active-set rounds; random data need 2-12 at
# N = 3..10 and at most 38 at N <= 24.
_MAX_ROUNDS = 1000


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
    noise_sigma: float = math.nan         # dimred.AffineChart.noise_sigma
    max_violation: float = 0.0            # mvie.max_violation of the solve


def find_contacts(f: np.ndarray, c: np.ndarray,
                  normals: np.ndarray) -> np.ndarray:
    """Tangency points f (f g / ||f g||) + c of the ellipsoid (f, c), its
    farthest points along the given facet normals g, one row each."""
    f = as_matrix(f, "F")
    fg = normals @ f.T              # row i = (f g_i)^T, f symmetric
    return fg / np.linalg.norm(fg, axis=1, keepdims=True) @ f.T + c


def consolidate_contacts(candidates, n: int) -> np.ndarray:
    """Merge raw contact candidates into exactly N contacts.

    Farthest-first traversal (Gonzalez, Theor. Comput. Sci. 38, 1985)
    picks N candidates: first the one farthest from the candidates'
    mean, then each time the one farthest from all picks so far. Every
    candidate joins its nearest pick, and each contact is its group's
    mean, listed in the order of the group's first candidate, so N
    distinct candidates pass through unchanged. When every group is
    narrower than the gap between groups, the groups are exactly those
    (notes/decisions.md). Raises TooFewContacts when there are fewer
    than N distinct candidates.
    """
    pts = np.atleast_2d(np.asarray(candidates, dtype=float))
    if pts.shape[0] < n:
        raise TooFewContacts(
            f"only {pts.shape[0]} contact candidates for N={n}; "
            "the ellipsoid touches too few facets of the data hull")
    start = np.linalg.norm(pts - pts.mean(axis=0), axis=1).argmax()
    gap = np.linalg.norm(pts - pts[start], axis=1)   # to the nearest pick
    label = np.zeros(pts.shape[0], dtype=int)
    for j in range(1, n):
        far = gap.argmax()
        if gap[far] == 0.0:
            raise TooFewContacts(
                f"only {j} distinct contact candidates for N={n}")
        dist = np.linalg.norm(pts - pts[far], axis=1)
        closer = dist < gap
        label[closer] = j
        gap[closer] = dist[closer]
    _, first = np.unique(label, return_index=True)
    return np.array([pts[label == label[i]].mean(axis=0)
                     for i in np.sort(first)])


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


def recover_abundances(x: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
    """Simplex-constrained least squares, every column of x at once.

    Column j of the result minimises ||A_hat s - x_j||^2 over s >= 0,
    1^T s = 1 (FCLS, Heinz & Chang, IEEE TGRS 2001), found exactly by
    the primal active-set method (Nocedal & Wright, Alg. 16.3) on the
    Gram system G = A_hat^T A_hat, b = A_hat^T x. Every pixel starts at
    s = 1/N with all N entries free. Each round solves the sum-to-one
    KKT system on each pixel's free set, one solve per distinct free
    set: one stable sort of the pixels' free-set columns puts the pixels
    of each set in a run. A pixel whose solution is nonnegative moves
    there and frees the fixed entry with the most negative bound
    multiplier, or stops when there is none; a pixel whose solution has
    a negative entry steps until the first entry reaches 0 and fixes it
    there.

    The multiplier test is relative to lambda_max(G) and |b|, so
    recover_abundances(k x, k A_hat) is recover_abundances(x, A_hat)
    for any k > 0. Raises RankDeficientA when lambda_min(G) is at most
    1e-10 lambda_max(G), and ConvergenceFailure should the working sets
    cycle past _MAX_ROUNDS.
    """
    x = as_matrix(x, "X")
    a = as_matrix(a_hat, "A_hat")
    if a.shape[0] != x.shape[0]:
        raise WrongCount(
            f"A_hat has {a.shape[0]} rows, X has {x.shape[0]}")
    n, l = a.shape[1], x.shape[1]
    gram = a.T @ a
    lam = np.linalg.eigvalsh(gram)           # ascending
    if not lam[0] > 1e-10 * lam[-1]:
        raise RankDeficientA(
            f"estimated signatures are rank deficient (eigs {lam})")
    b = a.T @ x
    # A bound multiplier is a difference of entries of G s - b, so its
    # rounding error scales with lambda_max(G) and |b|, as its value does.
    floor = _MULTIPLIER_RTOL * (lam[-1] + np.abs(b).max(axis=0))

    s = np.full((n, l), 1.0 / n)
    free = np.ones((n, l), dtype=bool)
    done = np.zeros(l, dtype=bool)
    for _ in range(_MAX_ROUNDS):
        todo = np.flatnonzero(~done)
        if todo.size == 0:
            return s
        order = todo[np.lexsort(free[::-1][:, todo])]
        sets = free[:, order]
        starts = np.flatnonzero(
            np.r_[True, (sets[:, 1:] != sets[:, :-1]).any(axis=0)])
        for cols, in_set in zip(np.split(order, starts[1:]),
                                sets[:, starts].T):
            idx = np.flatnonzero(in_set)
            k = idx.size
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = gram[np.ix_(idx, idx)]
            kkt[k, k] = 0.0
            rhs = np.vstack([b[np.ix_(idx, cols)], np.ones((1, cols.size))])
            sol = np.linalg.solve(kkt, rhs)
            target, nu = sol[:k], sol[k]
            cur = s[np.ix_(idx, cols)]

            # Step toward the target until the first free entry reaches 0;
            # a pixel so blocked fixes that entry.
            neg = target < 0
            ratio = np.full(target.shape, np.inf)
            ratio[neg] = cur[neg] / (cur[neg] - target[neg])
            first = ratio.argmin(axis=0)
            alpha = ratio[first, np.arange(cols.size)]
            blocked = alpha < 1.0
            step = np.maximum(cur + np.minimum(alpha, 1.0) * (target - cur),
                              0.0)
            step[first[blocked], np.flatnonzero(blocked)] = 0.0
            s[np.ix_(idx, cols)] = step
            free[idx[first[blocked]], cols[blocked]] = False

            # A pixel that reached its target is optimal unless a fixed
            # entry has a negative multiplier; the most negative is freed.
            fixed = np.flatnonzero(~in_set)
            reached = cols[~blocked]
            if fixed.size == 0:
                done[reached] = True
                continue
            mu = (gram[np.ix_(fixed, idx)] @ target[:, ~blocked]
                  - b[np.ix_(fixed, reached)] + nu[~blocked])
            worst = mu.argmin(axis=0)
            optimal = mu[worst, np.arange(reached.size)] >= -floor[reached]
            done[reached[optimal]] = True
            free[fixed[worst[~optimal]], reached[~optimal]] = True
    raise ConvergenceFailure(
        f"active-set FCLS did not settle in {_MAX_ROUNDS} rounds "
        f"({int((~done).sum())} of {l} pixels open)")


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Time one pipeline stage and tag a package error raised in it."""
    t0 = time.perf_counter()
    try:
        yield
    except MviefactError as exc:
        exc.stage = name
        raise
    timings[name] = time.perf_counter() - t0


def run_pipeline(x: np.ndarray, n: int,
                 want_abundances: bool = False) -> RecoveryReport:
    """Blind recovery of the signature factor from observations alone.

    Stages, each a call of public functions through their modules:
    ``dimred`` (input check and affine fit, ``dimred.affine_fit``),
    ``hull`` (``hull.enumerate_facets``), ``solve`` (the barrier Newton
    method, ``mvie.solve_mvie_high_accuracy``) and ``recover``
    (``find_contacts``, their farthest-first merge
    ``consolidate_contacts``, lift, signature reconstruction and optional
    ``recover_abundances``). Each stage's wall time goes into
    ``timings``, and a package error raised in a stage carries its name
    in ``exc.stage``. No step draws random numbers.

    X is scaled once, to X / 2^k, k the binary exponent of max|X|, and
    the fit and the abundances both work on that copy, so every stage
    sees entries below 1 in magnitude and none overflows or underflows.
    Scaling by a power of two is exact: A_hat, the ambient contacts and
    centre, the affine residual and the noise estimate are scaled back
    by 2^k, and the answer for 2^j X is 2^j times the answer for X, bit
    for bit. The reduced-space results, the contacts and the ellipsoid,
    stay in the reduced coordinates of X / 2^k, where the hull was
    enumerated.
    """
    timings: dict[str, float] = {}

    with _stage("dimred", timings):
        x = np.asarray(x, dtype=float)
        # a NaN or infinite max gives k = 0; affine_fit then rejects X
        k = int(np.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1])
        x = np.ldexp(x, -k)
        chart, reduced = dimred.affine_fit(x, n)

    with _stage("hull", timings):
        poly = hull.enumerate_facets(reduced.T)

    with _stage("solve", timings):
        ell, diag = mvie.solve_mvie_high_accuracy(poly)

    with _stage("recover", timings):
        raw = find_contacts(ell.F, ell.c, poly.normals[diag.touching])
        merged = consolidate_contacts(raw, n)
        ambient = dimred.lift_points(merged.T, chart).T
        a_hat = reconstruct_endmembers(ambient)
        s_hat = recover_abundances(x, a_hat) if want_abundances else None

    return RecoveryReport(
        A_hat=np.ldexp(a_hat, k),
        contacts_reduced=merged,
        contacts_ambient=np.ldexp(ambient, k),
        raw_contact_count=raw.shape[0],
        center_ambient=np.ldexp(
            dimred.lift_points(ell.c[:, None], chart)[:, 0], k),
        ellipsoid=ell,
        S_hat=s_hat,
        n_facets=poly.n_facets,
        solver=diag,
        timings=timings,
        affine_residual=math.ldexp(chart.residual, k),
        noise_sigma=math.ldexp(chart.noise_sigma, k),
        max_violation=mvie.max_violation(ell, poly),
    )
