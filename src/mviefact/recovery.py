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
columns, found in finitely many rounds by a primal active-set method:
the first round, where every pixel has all entries free, applies one
shared KKT inverse to all pixels, and each later round solves the few
pixels still open in one batched call; like A_hat, they follow the
units of the data.
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
from .numerics import as_matrix, binary_exponent

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
    """What run_pipeline found. contacts_reduced and ellipsoid are in the
    reduced coordinates of dimred.affine_fit(X)'s chart, where the hull
    was enumerated, and the solver's final_objective and objective_trace
    are -log det F there; A_hat, the ambient fields, the affine residual
    and noise_sigma are in X's units. S_hat, max_violation and the
    solver's other figures are free of units."""

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
    farthest points along the given facet normals g, one row each. The
    directions f g / ||f g|| are taken with f / 2^k, k =
    binary_exponent(f), so that no square in the norm overflows or
    underflows, and the same bits come out for 2^j f."""
    f = as_matrix(f, "F")
    # row i = (f g_i)^T / 2^k, f symmetric
    fg = normals @ np.ldexp(f, -binary_exponent(f)).T
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
    than N distinct candidates. The distances are taken on the
    candidates / 2^k, k their binary_exponent, and the means scaled
    back, so no square overflows or underflows and the contacts of 2^j
    times the candidates are 2^j times theirs, bit for bit.
    """
    pts = np.atleast_2d(np.asarray(candidates, dtype=float))
    if pts.shape[0] < n:
        raise TooFewContacts(
            f"only {pts.shape[0]} contact candidates for N={n}; "
            "the ellipsoid touches too few facets of the data hull")
    k = binary_exponent(pts)
    pts = np.ldexp(pts, -k)
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
    return np.ldexp([pts[label == label[i]].mean(axis=0)
                     for i in np.sort(first)], k)


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
    s = 1/N with all N entries free, so the first round shares one
    sum-to-one KKT matrix: its inverse, formed once, is applied to every
    pixel's right-hand side, and a pixel whose solution is nonnegative
    ends there. Each later round solves the pixels still open in one
    batched call, each on its own KKT matrix with the rows and columns
    of its fixed entries those of the identity, so that those entries
    stay 0. A pixel whose solution has a negative entry steps until the
    first entry reaches 0 and fixes it there; one whose solution is
    nonnegative moves there and frees the fixed entry with the most
    negative bound multiplier, or stops when there is none. Every step
    is taken pixel by pixel, so no pixel's bits depend on the others.

    x and A_hat are both divided by 2^k, k = binary_exponent(x), before
    G and b are formed, so neither overflows nor underflows, and the
    multiplier test is relative to lambda_max(G) and |b|. So
    recover_abundances(s x, s A_hat) is recover_abundances(x, A_hat)
    for any s > 0, within rounding, and bit for bit where s is a power
    of two. Raises RankDeficientA when lambda_min(G) is at most 1e-10
    lambda_max(G), and ConvergenceFailure should the working sets cycle
    past _MAX_ROUNDS, the first round counted.
    """
    x = as_matrix(x, "X")
    a = as_matrix(a_hat, "A_hat")
    if a.shape[0] != x.shape[0]:
        raise WrongCount(
            f"A_hat has {a.shape[0]} rows, X has {x.shape[0]}")
    k = binary_exponent(x)
    x, a = np.ldexp(x, -k), np.ldexp(a, -k)
    n, l = a.shape[1], x.shape[1]
    gram = a.T @ a
    lam = np.linalg.eigvalsh(gram)           # ascending
    if not lam[0] > 1e-10 * lam[-1]:
        raise RankDeficientA(
            f"estimated signatures are rank deficient (eigs {lam})")
    b = a.T @ x

    # Round 1: every pixel at s = 1/N with all entries free, one KKT matrix
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = gram
    kkt[n, n] = 0.0
    inv = np.linalg.inv(kkt)
    s = _columnwise(inv[:n, :n], b) + inv[:n, n, None]
    todo = np.flatnonzero(s.min(axis=0) < 0.0)
    free = np.ones((n, todo.size), dtype=bool)
    cur, _ = _advance(np.full((n, todo.size), 1.0 / n), s[:, todo], free)
    b = b[:, todo]
    # A bound multiplier is a difference of entries of G s - b, so its
    # rounding error scales with lambda_max(G) and |b|, as its value does.
    floor = _MULTIPLIER_RTOL * (lam[-1] + np.abs(b).max(axis=0))
    for _ in range(_MAX_ROUNDS - 1):
        if todo.size == 0:
            break
        # One KKT matrix per open pixel, identity on its fixed entries
        stack = np.tile(kkt, (todo.size, 1, 1))
        pix, fixed = np.nonzero(~free.T)
        stack[pix, fixed, :] = 0.0
        stack[pix, :, fixed] = 0.0
        stack[pix, fixed, fixed] = 1.0
        rhs = np.ones((todo.size, n + 1, 1))
        rhs[:, :n, 0] = np.where(free, b, 0.0).T
        sol = np.linalg.solve(stack, rhs)[:, :, 0].T
        target, nu = np.where(free, sol[:n], 0.0), sol[n]
        cur, blocked = _advance(cur, target, free)

        # A pixel that reached its target is optimal unless a fixed entry
        # has a negative multiplier; the most negative is freed.
        mu = np.where(free, np.inf, _columnwise(gram, target) - b + nu)
        worst = mu.argmin(axis=0)
        optimal = mu[worst, np.arange(todo.size)] >= -floor
        freed = ~blocked & ~optimal
        free[worst[freed], np.flatnonzero(freed)] = True
        done = ~blocked & optimal
        s[:, todo[done]] = cur[:, done]
        todo, cur, free, b, floor = (todo[~done], cur[:, ~done],
                                     free[:, ~done], b[:, ~done],
                                     floor[~done])
    if todo.size:
        raise ConvergenceFailure(
            f"active-set FCLS did not settle in {_MAX_ROUNDS} rounds "
            f"({todo.size} of {l} pixels open)")
    return s


def _columnwise(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v as a sum of elementwise products, so that each column of the
    result depends on that column of v alone, bit for bit."""
    out = m[:, 0, None] * v[0]
    for k in range(1, v.shape[0]):
        out += m[:, k, None] * v[k]
    return out


def _advance(cur: np.ndarray, target: np.ndarray, free: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Step each column of cur toward its target until the first free
    entry reaches 0, and fix that entry in free. Returns the new columns
    and which pixels were so blocked."""
    neg = target < 0.0
    ratio = np.full(target.shape, np.inf)
    ratio[neg] = cur[neg] / (cur[neg] - target[neg])
    first = ratio.argmin(axis=0)
    alpha = ratio[first, np.arange(cur.shape[1])]
    blocked = alpha < 1.0
    step = np.maximum(cur + np.minimum(alpha, 1.0) * (target - cur), 0.0)
    step[first[blocked], np.flatnonzero(blocked)] = 0.0
    free[first[blocked], np.flatnonzero(blocked)] = False
    return step, blocked


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

    Every stage is free of the units of X. Each function that squares
    or inverts data divides it by a power of two of its own and scales
    its results back, which is exact, and the solve divides the polytope
    by its interior point's smallest facet distance. So the answer for
    2^j X is 2^j times the answer for X, bit for bit, S_hat and the
    solve's unit-free figures are the same, and no stage overflows or
    underflows. The reduced-space results, the contacts and the
    ellipsoid, are in the reduced coordinates of affine_fit(X)'s chart,
    where the hull was enumerated.
    """
    timings: dict[str, float] = {}

    with _stage("dimred", timings):
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
        A_hat=a_hat,
        contacts_reduced=merged,
        contacts_ambient=ambient,
        raw_contact_count=raw.shape[0],
        center_ambient=dimred.lift_points(ell.c[:, None], chart)[:, 0],
        ellipsoid=ell,
        S_hat=s_hat,
        n_facets=poly.n_facets,
        solver=diag,
        timings=timings,
        affine_residual=chart.residual,
        noise_sigma=chart.noise_sigma,
        max_violation=mvie.max_violation(ell, poly),
    )
