"""Maximum-volume inscribed ellipsoid of a polytope.

The program is

    max  log det(F)   s.t.  ||F g_i|| + g_i . c <= h_i   (F symmetric PD)

for the polytope {x : g_i . x <= h_i} and the ellipsoid
{F u + c : ||u|| <= 1}. It has d(d+1)/2 + d unknowns.

The pipeline's solver, ``solve_mvie_high_accuracy``, is a log-barrier
Newton method (Boyd & Vandenberghe, Convex Optimization, 8.4.2 and 11)
on the polytope translated to an interior point and scaled by that
point's smallest facet distance, so its answer does not depend on the
units of the data and every iterate is strictly inscribed. It generates
its constraints: it solves on a subset of the facets, adds the facets
its iterate meets as it goes, and ends with an ellipsoid that is optimal
for the subset and inside every facet, hence the MVIE of the whole
polytope (Zhang & Gao, SIAM J. Optim. 14(1), 2003). It keeps a few
dozen of the thousands of facets of a data hull and names the touched ones.
Before any Newton step it guesses d+1 facets from the spread of the
points (``HPolytope.spread``), in whose metric the facets nearest the
interior point are those of the latent simplex, by d+1 masked argmins
over the K facets' distances in that metric. When the simplex they
bound has an inscribed ellipsoid, known in closed form, certified to lie
inside the polytope, the solve ends on it: on noiseless data the MVIE
touches the hull at exactly N = d+1 points (the paper's recovery
theorem), so most noiseless solves end there. The certificate is one
pass over all K facets; a guess it rejects is pivoted onto the facet
that cuts its ellipsoid deepest, one facet at a time. Otherwise the
barrier runs to its gap bound, from the largest of the rejected
simplices' inscribed ellipsoids that fits inside all K facets when there
is one, at the t its certified gap gives.

``solve_mvie`` is the paper's first-order method (FPGM). The pipeline
does not call it; it is kept as the paper's reference, against which
the tests check the Newton answer. It starts where the Newton solve
does, at ``HPolytope.interior``, and replaces the constraints by the
composite minimization

    min_{W in S_eps, y}  sum_i psi(sqrt(||W g_i||^2 + eps) + g_i . y - h_i)
                         - (1/rho) log det(W),

where psi is the one-sided Huber function and S_eps is the set of
symmetric matrices with smallest eigenvalue >= eps. The smooth part has
a Lipschitz gradient, and the log-det part admits a closed-form
proximal map through a symmetric eigendecomposition, so the fast
proximal gradient method (FISTA-style momentum plus backtracking line
search) applies. ``FpgmConfig`` holds its settings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrs, dpotrf, dsyevd

from .errors import (
    DimMismatch,
    Divergence,
    EmptyInterior,
    NotFinite,
    TooFewContacts,
)
from .hull import HPolytope
from .numerics import as_matrix, as_vector, binary_exponent, eig_sym

__all__ = [
    "Ellipsoid",
    "FpgmConfig",
    "SolveDiagnostics",
    "JohnCertificate",
    "huber",
    "huber_prime",
    "objective_and_grad",
    "prox_logdet",
    "composite_objective",
    "solve_mvie",
    "solve_mvie_high_accuracy",
    "check_john",
    "max_violation",
]


@dataclass(frozen=True)
class Ellipsoid:
    """{F a + c : ||a|| <= 1}; solver outputs have symmetric PD F."""

    F: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class FpgmConfig:
    """Settings of the first-order solver ``solve_mvie``."""

    rho: float = 150.0
    eps: float = 2.22e-16
    alpha: float = 2.0
    beta: float = 0.6
    t_max: float = 1.0
    max_iter: int = 20000
    tol_rel: float = 1e-9

    def __post_init__(self):
        if not (self.rho > 0 and self.eps > 0 and self.alpha >= 1.0
                and 0.0 < self.beta < 1.0 and self.t_max > 0):
            raise ValueError(f"invalid solver configuration: {self}")


@dataclass
class SolveDiagnostics:
    iterations: int
    final_objective: float
    objective_trace: list[float]
    backtracks: list[int]
    inv_step_trace: list[float]
    termination: str
    restarts: int = 0
    stage_iterations: list[int] | None = None
    kept_facets: int = 0      # facets the solve kept, of the polytope's K
    rounds: int = 1           # kept sets solved on
    evaluations: int = 0      # barrier objective evaluations
    touching: np.ndarray | None = None   # facets the ellipsoid touches
    gap: float = math.inf     # certified bound on the log-det gap
    pivots: int = 0           # simplex candidates a rejected one named


def huber(z):
    """One-sided Huber penalty: 0 for z<0, z^2/2 on [0,1], z-1/2 beyond."""
    z = np.asarray(z, dtype=float)
    out = np.where(z < 0.0, 0.0, np.where(z <= 1.0, 0.5 * z * z, z - 0.5))
    return out if out.ndim else float(out)


def huber_prime(z):
    """Derivative of the one-sided Huber penalty."""
    z = np.asarray(z, dtype=float)
    out = np.where(z < 0.0, 0.0, np.where(z <= 1.0, z, 1.0))
    return out if out.ndim else float(out)


def _penalty_terms(w: np.ndarray, y: np.ndarray, gt: np.ndarray,
                   gy_minus_h: np.ndarray, eps: float):
    wg = w @ gt
    norms = np.sqrt(np.einsum("ij,ij->j", wg, wg) + eps)
    resid = norms + gy_minus_h
    return wg, norms, resid


def _penalty_value(w, y, gt, g, h, eps) -> float:
    _, _, resid = _penalty_terms(w, y, gt, g @ y - h, eps)
    return float(huber(resid).sum())


def objective_and_grad(w, y, poly: HPolytope, cfg: FpgmConfig):
    """Smooth penalty value and its analytic gradients.

    grad_W is returned symmetrized, matching its use on the symmetric
    iterates; grad_y is the plain facet-weighted normal sum.
    """
    w = as_matrix(w, "W")
    y = as_vector(y, "y")
    d = poly.dim
    if w.shape != (d, d) or y.shape[0] != d:
        raise DimMismatch(
            f"W {w.shape} / y {y.shape} incompatible with dim {d}")
    g = poly.normals
    wg, norms, resid = _penalty_terms(w, y, g.T, g @ y - poly.offsets, cfg.eps)
    psi_p = huber_prime(resid)
    f = float(huber(resid).sum())
    coef = psi_p / norms
    grad_w = (wg * coef) @ g
    grad_w = 0.5 * (grad_w + grad_w.T)
    grad_y = g.T @ psi_p
    if not (np.isfinite(f) and np.all(np.isfinite(grad_w))
            and np.all(np.isfinite(grad_y))):
        raise NotFinite("objective or gradient is not finite")
    return f, grad_w, grad_y


def _prox_core(v: np.ndarray, t: float, rho: float, eps: float):
    lam, u = eig_sym(0.5 * (v + v.T))
    d = np.maximum(0.5 * (lam + np.sqrt(lam * lam + 4.0 * t / rho)), eps)
    w = (u * d) @ u.T
    return 0.5 * (w + w.T), d


def prox_logdet(v, t: float, cfg: FpgmConfig) -> np.ndarray:
    """prox of t * [-(1/rho) log det] over symmetric W with eigvals >= eps.

    Acts eigenvalue-wise on the symmetric part of v:
    d_i = max((lam_i + sqrt(lam_i^2 + 4 t / rho)) / 2, eps).
    """
    v = as_matrix(v, "prox input")
    if t <= 0:
        raise ValueError("prox step t must be positive")
    w, _ = _prox_core(v, t, cfg.rho, cfg.eps)
    return w


def _logdet_term(eigenvalues: np.ndarray, rho: float) -> float:
    return -float(np.log(eigenvalues).sum()) / rho


def composite_objective(w, y, poly: HPolytope, cfg: FpgmConfig) -> float:
    """Penalty plus -(1/rho) log det(W), evaluated through eigenvalues."""
    w = as_matrix(w, "W")
    y = as_vector(y, "y")
    lam = eig_sym(w).eigenvalues
    if lam[-1] <= 0.0:
        return math.inf
    f = _penalty_value(w, y, poly.normals.T, poly.normals, poly.offsets,
                       cfg.eps)
    return f + _logdet_term(lam, cfg.rho)


def solve_mvie(poly: HPolytope, cfg: FpgmConfig | None = None
               ) -> tuple[Ellipsoid, SolveDiagnostics]:
    """Run the accelerated proximal gradient solver on one polytope.

    Starts from y = poly.interior, W = 0.9 r0 I, r0 = min_i (h_i - g_i .
    y). As the Newton solve does, it raises EmptyInterior unless r0 > 0,
    and Divergence when a ray from y along one of that solve's seed
    directions leaves through no facet: the polytope is then unbounded.
    Returns the inscribed ellipsoid (F = W symmetric with smallest
    eigenvalue >= eps, center c = y) and per-iteration diagnostics. The
    recorded composite objective is non-increasing: whenever the
    momentum step would raise it, momentum is reset and the step is
    retried from the current iterate.
    """
    cfg = cfg or FpgmConfig()
    g, h = poly.normals, poly.offsets
    y = poly.interior.astype(float)
    depth = h - g @ y
    slack = float(depth.min())
    if not slack > 0.0:
        raise EmptyInterior(
            f"no strictly feasible center found (best slack {slack:.3e})")
    _exits(g, depth / slack, _seed_rays(poly.dim))
    w = 0.9 * slack * np.eye(poly.dim)
    trace = [composite_objective(w, y, poly, cfg)]
    backtracks: list[int] = []
    inv_t: list[float] = []
    w_cur, y_cur = w.copy(), y.copy()
    vw, vy = w.copy(), y.copy()
    u_prev = 0.0
    t = cfg.t_max
    small = 0
    stalled = 0
    restarts = 0
    reason = "max_iter"
    iterations = 0

    for _ in range(cfg.max_iter):
        iterations += 1
        restarted = False
        while True:
            f_v, gw, gy = objective_and_grad(vw, vy, poly, cfg)
            t = cfg.alpha * t
            nb = 0
            while True:
                w_new, lam_new = _prox_core(vw - t * gw, t, cfg.rho, cfg.eps)
                y_new = vy - t * gy
                f_new = _penalty_value(w_new, y_new, g.T, g, h, cfg.eps)
                dw = w_new - vw
                dy = y_new - vy
                quad = (f_v + float(np.sum(gw * dw)) + float(gy @ dy)
                        + (float(np.sum(dw * dw)) + float(dy @ dy)) / (2.0 * t))
                # slack scales with the penalty values (f can be ~1e-10)
                if f_new <= quad + 1e-12 * (abs(f_v) + abs(f_new)) or t <= 1e-18:
                    break
                t *= cfg.beta
                nb += 1
            obj_new = f_new + _logdet_term(lam_new, cfg.rho)
            if not np.isfinite(obj_new):
                raise Divergence("composite objective became non-finite")
            if obj_new <= trace[-1] or restarted:
                break
            # momentum made the composite objective rise: reset and retry
            restarts += 1
            restarted = True
            u_prev = 1.0
            vw, vy = w_cur.copy(), y_cur.copy()
        if restarted and obj_new > trace[-1]:
            # plain step cannot improve numerically: hold the iterate
            w_new, y_new = w_cur, y_cur
            obj_new = trace[-1]

        if np.array_equal(w_new, w_cur) and np.array_equal(y_new, y_cur):
            stalled += 1
        else:
            stalled = 0
        u_k = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * u_prev * u_prev))
        coef = (u_prev - 1.0) / u_k
        vw = w_new + coef * (w_new - w_cur)
        vy = y_new + coef * (y_new - y_cur)
        w_cur, y_cur = w_new, y_new
        u_prev = u_k
        trace.append(obj_new)
        backtracks.append(nb)
        inv_t.append(1.0 / t)

        if stalled >= 100:
            # iterate is bitwise stationary: a numerical fixed point
            reason = "fixed_point"
            break
        if (cfg.tol_rel > 0.0 and abs(trace[-1] - trace[-2])
                <= cfg.tol_rel * max(1.0, abs(trace[-1]))):
            small += 1
            if small >= 5:
                reason = "tol"
                break
        else:
            small = 0

    diag = SolveDiagnostics(
        iterations=iterations,
        final_objective=trace[-1],
        objective_trace=trace,
        backtracks=backtracks,
        inv_step_trace=inv_t,
        termination=reason,
        restarts=restarts,
        kept_facets=poly.n_facets,
    )
    return Ellipsoid(F=w_cur, c=y_cur), diag


@functools.lru_cache(maxsize=None)
def _sym_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis B_k of the symmetric d x d matrices: the d diagonal pairs
    (i, i) first, then the pairs i < j.

    B_k = e_i e_i^T on the diagonal and e_i e_j^T + e_j e_i^T off it, so
    the coordinates of E are its upper-triangle entries. Returns the
    basis, the same with each B_k flattened to a row, and the matrix whose
    row (k, l) is B_k B_l flattened, so that row . vec(G) = tr(B_k B_l G)
    for a symmetric G. Built once per d and shared, hence read-only.
    """
    upper, lower = np.triu_indices(d, 1)
    rows = np.concatenate([np.arange(d), upper])
    cols = np.concatenate([np.arange(d), lower])
    basis = np.zeros((rows.size, d, d))
    k = np.arange(rows.size)
    basis[k, rows, cols] = 1.0
    basis[k, cols, rows] = 1.0
    flat = basis.reshape(rows.size, d * d)
    pairs = np.einsum("kab,lbc->klac", basis, basis).reshape(rows.size ** 2, -1)
    for a in (basis, flat, pairs):
        a.flags.writeable = False
    return basis, flat, pairs


# In the solver's scaled coordinates the centre's nearest facet lies at
# distance 1. An inscribed iterate with trace(E) > 1/eps spans about
# 1/eps of that distance, and a hull that wide holds its facets, computed
# from vertex coordinates of that size, only to within about that
# distance. Iterates that grow so far grow without bound: the kept facets
# have a direction of recession, and so does the polytope unless one of
# its other facets cuts the iterate off.
_UNBOUNDED_TRACE = 1.0 / np.finfo(float).eps
# Factor on t from one barrier stage to the next.
_T_GROWTH = 100.0
# Target for the log-det gap of the solve's answer to the optimum: half
# for the path or the simplex finish, half for the margin against
# rounding. The certified gap the solve reports may exceed it by the cost
# of the path's last fit inside all K facets, -d log theta, which more
# stages cannot remove (up to 6e-11 on a simplex of condition 1472 in R^5).
_GAP = 1e-11
# Fixed seed rays per dimension, besides the 2 d coordinate rays.
_SEED_RAYS_PER_DIM = 16
# Largest number of elements in one K x (block of rays) temporary (1 MB).
_RAY_BLOCK = 1 << 17


@functools.lru_cache(maxsize=None)
def _seed_rays(d: int) -> np.ndarray:
    """16 d fixed unit directions in R^d, then +-e_1 ... +-e_d.

    The fixed directions are the points frac(1/2 + j alpha), j = 1, 2, ...,
    of the Kronecker sequence with alpha_k = phi_d^-k, phi_d the root of
    x^(d+1) = x + 1 (Roberts' R_d sequence, low-discrepancy in [0, 1)^d),
    mapped to [-1, 1)^d and normalized. No random numbers are drawn.
    Built once per d and shared, hence read-only.
    """
    phi = 2.0
    for _ in range(64):                    # contraction to phi_d
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    j = np.arange(1.0, _SEED_RAYS_PER_DIM * d + 1)[:, None]
    u = 2.0 * np.mod(0.5 + j * alpha, 1.0) - 1.0
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rays = np.vstack([u, np.eye(d), -np.eye(d)])
    rays.flags.writeable = False
    return rays


def _exit_facets(g: np.ndarray, h: np.ndarray, rays: np.ndarray
                 ) -> np.ndarray:
    """For each ray u from the origin, the facet of {x : g_i . x <= h_i}
    (h > 0) where it leaves: argmin h_i / (g_i . u) over g_i . u > 0,
    found as argmax_i (g_i . u) / h_i, or -1 when that maximum is not
    positive. Rays go in blocks, so no (rays) x K temporary exceeds
    _RAY_BLOCK elements."""
    gh = g / h[:, None]
    block = max(1, _RAY_BLOCK // g.shape[0])
    hit = np.full(rays.shape[0], -1)
    for lo in range(0, rays.shape[0], block):
        rate = rays[lo:lo + block] @ gh.T       # row j: (g_i . u_j) / h_i
        first = rate.argmax(axis=1)
        found = rate[np.arange(first.size), first] > 0.0
        hit[lo:lo + block][found] = first[found]
    return hit


def _exits(g: np.ndarray, h: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """_exit_facets of rays that must leave {x : g_i . x <= h_i} (h > 0):
    raises Divergence when one leaves through no facet, for the polytope
    then contains it. Both solves call it on the seed rays before any
    step, so neither iterates on a polytope a seed ray proves unbounded."""
    hit = _exit_facets(g, h, rays)
    if (hit < 0).any():
        raise Divergence("a ray from the interior point leaves through no "
                         "facet; the polytope is unbounded")
    return hit


def _spanning(g: np.ndarray, h: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Grow kept until its normals span R^d: while they leave a subspace
    free, add the facets where the rays from the origin along +-v leave
    the polytope, for a basis v of that subspace (``_exits``)."""
    d = g.shape[1]
    while True:
        lam, vec = np.linalg.eigh(g[kept].T @ g[kept])
        free = vec[:, lam <= d * np.finfo(float).eps * lam[-1]].T
        if not free.size:
            return kept
        kept = np.union1d(kept, _exits(g, h, np.vstack([free, -free])))


def _step_bound(gt: np.ndarray, gg: np.ndarray, delta: np.ndarray,
                b: np.ndarray, de: np.ndarray, dc: np.ndarray) -> float:
    """First alpha > 0 where some cone constraint s_i > ||E g_i|| fails
    along (E + alpha dE, c' + alpha dc), inf if none does.

    s_i - alpha sigma_i and E g_i + alpha v_i move linearly (sigma_i =
    g_i . dc, v_i = dE g_i), so Delta_i(alpha) = Delta_i - 2 b_i alpha +
    a_i alpha^2 with b_i = s_i sigma_i + (E g_i) . v_i and a_i = sigma_i^2
    - ||v_i||^2, where ||v_i||^2 = vec(dE^2) . vec(g_i g_i^T). The feasible
    part of the line is an interval, so its end is the smallest positive
    root, taken in the form without cancellation. gt holds the normals as
    columns and gg their outer products g_i g_i^T flattened as columns;
    delta holds the Delta_i of the point (E, c') the line starts from and
    b the b_i, -1/2 the rates of Delta_i along the line, which the caller
    already holds (the direction dotted with the Newton system's ``vt``).
    """
    sigma = dc.dot(gt)
    a = sigma * sigma - de.dot(de).ravel().dot(gg)
    disc = b * b - a * delta
    # a positive root: if real where b > 0; where b <= 0, iff a < 0
    fails = (disc >= 0.0) & ((b > 0.0) | (a < 0.0))
    if not fails.any():
        return math.inf
    b, a, delta = b[fails], a[fails], delta[fails]
    p = np.abs(b) + np.sqrt(disc[fails])
    # b > 0: Delta_i / (b_i + root); b <= 0: (b_i - root) / a_i = p / -a_i
    alpha = delta / p
    np.divide(p, -a, out=alpha, where=b <= 0.0)
    return float(alpha.min())


def _newton_system(e: np.ndarray, e_inv: np.ndarray, s: np.ndarray,
                   delta: np.ndarray, t: float, gt: np.ndarray,
                   gg: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hessian and gradient of the barrier objective

        -log det E - (1/t) sum_i log Delta_i,  Delta_i = s_i^2 - ||E g_i||^2,

    in the coordinates (x_k of E = sum_k x_k B_k, c') at E (inverse
    e_inv) with slacks s and Delta, and the matrix vt whose column i is
    -1/2 the gradient of Delta_i. gt holds the normals as columns and gg
    their outer products g_i g_i^T flattened as columns, so every sum over
    the facets is one product with gg: for u_i = E g_i, the rows of vt
    for E are u_i . B_k g_i = vec(E B_k) . vec(g_i g_i^T), those for c'
    are s_i g_i, and the weighted Gram matrix sum_i 2 w_i g_i g_i^T,
    w_i = 1/(t Delta_i), is gg times 2 w. The Hessian is the Gram terms of
    the second derivatives of Delta_i, tr(B_k B_l Gram) for E and -Gram
    for c', plus tr(E^-1 B_k E^-1 B_l) for E and 4 vt diag(1/(t
    Delta^2)) vt^T.

    The solve's hot code calls ndarray.dot for plain matrix products: at
    these sizes (a few dozen facets, 9-27 unknowns) it costs about half
    the call overhead of the @ operator.
    """
    d = gt.shape[0]
    basis, flat, pairs = _sym_basis(d)
    m_e = flat.shape[0]
    w2 = 2.0 / (t * delta)
    vt = np.empty((m_e + d, delta.size))
    np.dot(np.matmul(e, basis).reshape(m_e, d * d), gg, out=vt[:m_e])
    np.multiply(gt, s, out=vt[m_e:])
    gram = gg.dot(w2)
    sv = vt * (math.sqrt(t) * w2)
    hess = sv.dot(sv.T)
    ei_b = np.matmul(e_inv, basis)
    hess[:m_e, :m_e] += (
        pairs.dot(gram).reshape(m_e, m_e)
        + ei_b.reshape(m_e, -1).dot(
            ei_b.transpose(0, 2, 1).reshape(m_e, -1).T))
    hess[m_e:, m_e:] -= gram.reshape(d, d)
    grad = vt.dot(w2)
    grad[:m_e] -= flat.dot(e_inv.ravel())
    return hess, grad, vt


def _touching(q: np.ndarray, delta: np.ndarray, t: float, d: int
              ) -> np.ndarray:
    """Positions of the kept facets the iterate touches, by descending
    John weight w_i = 2 q_i / (t Delta_i), q_i = ||E g_i||^2: those above
    the largest ratio of consecutive weights sorted down, from position
    d+1 on."""
    w = 2.0 * q / (t * delta)
    order = np.argsort(-w, kind="stable")
    drop = w[order[d:-1]] / w[order[d + 1:]]
    return order[:d + 1 + (int(drop.argmax()) if drop.size else 0)]


def _simplex_candidate(rg: np.ndarray, dist: np.ndarray
                       ) -> np.ndarray | None:
    """Of the facets whose directions are the rows of rg and whose
    distances are dist, d+1 picked by masked argmins, ascending, or None
    when fewer qualify: the nearest, then each time the nearest whose
    direction meets every one picked before at a negative inner product,
    ties going to the lower index. These are the first d+1 that qualify
    in the stable ascending order of dist, found with no sort of the K
    facets. The contact
    directions of a simplex's inscribed ellipsoid meet pairwise at -1/d;
    neighbouring hull facets at one contact, at about +1."""
    left = dist.copy()
    pick = []
    while len(pick) <= rg.shape[1]:
        j = left.argmin()
        if left[j] == math.inf:
            return None
        pick.append(j)
        left[rg.dot(rg[j]) >= 0.0] = math.inf
    return np.sort(pick)


def _spread_candidate(spread: np.ndarray, g: np.ndarray, h: np.ndarray
                      ) -> np.ndarray | None:
    """The simplex guessed from the points' spread: for R^T R = spread,
    the pick of _simplex_candidate from the K facets of
    {x : g_i . x <= h_i}, with directions R g_i and distances
    h_i / ||R g_i||, from the origin in the metric of the spread; None
    when spread has no Cholesky factor or the pick finds no candidate."""
    r, info = dpotrf(spread)
    if info:
        return None
    rg = g.dot(r.T)                       # rows R g_i
    return _simplex_candidate(rg, h / np.sqrt(np.einsum("ij,ij->i", rg, rg)))


def _simplex_finish(g: np.ndarray, h: np.ndarray, idx: np.ndarray):
    """The certified end of a solve on the simplex S of the d+1 facets
    idx of {x : g_i . x <= h_i}: ((E, c', log det E, gap bound) or None,
    the rejection or None). The rejection of a bounded candidate is (the
    candidate to try next, theta, F*, c*, log det F*).

    Column j of B^-1, B = [g_idx | -h_idx], is y_j (v_j, 1) for the
    vertex v_j off facet j, with g_j . v_j - h_j = 1/y_j, so S is bounded
    iff every y_j < 0. Its maximum-volume inscribed ellipsoid is the
    affine image of the regular simplex's insphere: c* the vertex mean,
    F* the symmetric square root of sum_j (v_j - c*)(v_j - c*)^T /
    (d (d+1)).

    S contains the polytope, so no ellipsoid inside the polytope has a
    larger log det than F*; theta F* about c* lies inside it for theta =
    min_i (h_i - g_i . c*) / ||F* g_i|| over all K facets, so its log-det
    gap is at most -d log theta. The finish is taken when that is at most
    half of _GAP, and the returned E is theta exp(-_GAP/(2d)) F*: the
    whole gap stays within _GAP, and the margin keeps E inside under
    rounding. ||F* g_i|| is taken from the F* that is returned: on a
    badly conditioned simplex the vertex form ||V^T g_i|| / sqrt(d (d+1))
    differs from it by more than the margin.

    A bounded candidate rejected names the next: the most cutting facet
    j comes in for the facet i of idx whose contact direction in the
    ball of F* lies nearest j's, argmax_i g_i . F*^2 g_j / ||F* g_i||,
    with ||F* g_i|| = -1 / ((d+1) y_i) as F* touches its own facets
    (notes/decisions.md, "Pivoting a rejected simplex candidate"). Should
    j be one of them, below the floor by rounding alone, idx comes back.
    Its theta, F*, c* and log det F* go with it: log det F* bounds the
    optimum from above, and for theta > 0 theta F* about c* is an
    inscribed ellipsoid the barrier can start from (``_warm_start``).
    """
    d = g.shape[1]
    b = np.empty((d + 1, d + 1))
    b[:, :d] = g.take(idx, axis=0)
    b[:, d] = -h.take(idx)
    _, _, b_inv, info = dgesv(b, np.eye(d + 1))
    y = b_inv[d]
    if info or not y.max() < 0.0:
        return None, None
    v = b_inv[:d] / y
    c = v.sum(axis=1) / (d + 1)
    v -= c[:, None]
    f2 = v.dot(v.T) / (d * (d + 1))       # F*^2
    lam, vec, info = dsyevd(f2)
    if info or not lam[0] > 0.0:
        return None, None
    f = (vec * np.sqrt(lam)).dot(vec.T)
    w = g.dot(f)
    ratio = (h - g.dot(c)) / np.sqrt(np.einsum("ij,ij->i", w, w))
    j = int(ratio.argmin())
    low = float(ratio[j])
    floor = math.exp(-0.5 * _GAP / d)
    logdet = 0.5 * float(np.log(lam).sum())
    if not low >= floor:
        nxt = idx.copy()
        nxt[(b[:, :d].dot(f2.dot(g[j])) * -y).argmax()] = j
        return None, (np.sort(nxt), low, f, c, logdet)
    return (low * floor * f, c, d * math.log(low * floor) + logdet,
            0.5 * _GAP - d * math.log(low)), None


def _walk(g: np.ndarray, h: np.ndarray, simplex: np.ndarray | None):
    """The finish on simplex, then on the candidate each rejected one
    names, at most d+1 pivots: a simplex has d+1 facets to replace. Stops
    on a certified set, a set it rejected before, or a candidate that
    names none. Returns (the finish or None, the set it ended on or None,
    the pivots taken, each rejected set's rejection by the set as a
    tuple)."""
    rejected = {}
    while (simplex is not None and len(rejected) <= g.shape[1] + 1
           and tuple(simplex) not in rejected):
        finish, rejection = _simplex_finish(g, h, simplex)
        if finish is not None:
            return finish, simplex, len(rejected), rejected
        rejected[tuple(simplex)] = rejection
        simplex = None if rejection is None else rejection[0]
    return None, None, max(len(rejected) - 1, 0), rejected


def _warm_start(d: int, rejected: dict):
    """The barrier's start after the walk rejected the sets in rejected:
    (E, c', log det E, gap bound) or None when no set qualifies.

    Each bounded set contains the polytope, so log det F* of its finish
    bounds the optimum from above, and for theta > 0 theta F* about c*
    lies inside all K facets. Of the bounded sets of theta > 0 the start
    is the theta F* of largest log det, and its gap bound is their least
    log det F* less its own. Only the rejections the walk kept are read,
    in the order it made them: the start takes no pass over the K
    facets."""
    inner = [(d * math.log(theta) + logdet, logdet, theta * f, c)
             for _, theta, f, c, logdet in filter(None, rejected.values())
             if theta > 0.0]
    if not inner:
        return None
    logdet, _, e, c = max(inner, key=lambda start: start[0])
    return e, c, logdet, min(bound for _, bound, _, _ in inner) - logdet


def solve_mvie_high_accuracy(poly: HPolytope
                             ) -> tuple[Ellipsoid, SolveDiagnostics]:
    """Log-barrier Newton method for the constrained program itself,
    on a generated subset of the facets.

    The polytope is first moved to its interior point c0 and scaled by
    r0 = min_i (h_i - g_i . c0), so the solve sees offsets
    h' = (h - G c0) / r0 whatever the units of the data; the result maps
    back as F = r0 E, c = c0 + r0 c'. In those coordinates it minimizes,
    over the kept facets,

        -log det E - (1/t) sum_i log(s_i^2 - ||E g_i||^2),
        s_i = h'_i - g_i . c',

    from E = I/2, c' = 0, t = 1, or from the start a rejected guess gives
    (below), multiplying t by 100 per stage until the barrier's log-det
    gap bound 2 K_kept / t is at most 1e-11 / 2. Each stage runs damped
    Newton steps until t lambda^2 / 2 <= 1e-2 for the Newton decrement
    lambda: t times the stage objective is self-concordant, so the stage
    ends about where Newton's quadratic phase begins. It also ends when a
    full step's Armijo decrease lambda^2 / 4 is at most one unit in the
    last place of the objective, below which the line search would pass
    or fail by rounding alone. The line search halves from the first
    power of two below the step's distance to the cones' edge, found in
    closed form (``_step_bound``), and accepts strictly feasible points
    only. A stage that ends on the decrement predicts the next stage's
    start along the central path's tangent in 1/t, (1 - 1/100) H^-1 b for
    the stage's Hessian H and barrier gradient b, kept (1 - 1/100) of the
    way to the cones' edge (Boyd & Vandenberghe 11.3; notes/decisions.md).

    The kept facets start as those where the rays from c0 along 16 d
    fixed directions and +-e_i leave the polytope, grown until their
    normals span R^d. After every stage the iterate is tested against all
    K facets. Of the facets it meets or crosses (||E g_i|| >= s_i), the
    d(d+3)/2 most crossed (s_i <= 0 first, then by ||E g_i|| / s_i) are
    kept from then on and the stage is run again at the same t, from
    t/(t+1) of the way to the kept facets' cones' edge along the segment
    from E = 0, c' = 0 to the iterate; the facets left out are tested
    again after that stage. The last iterate is optimal for the kept
    facets, whose polytope contains the full one, and lies inside all K
    facets, so it is the maximum-volume ellipsoid inscribed in the full
    polytope (notes/decisions.md). Its E is returned scaled by theta
    exp(-1e-11 / (2 d)), theta = min(1, min_i s_i / ||E g_i||) over all K
    facets from the last scan, so rounding cannot leave it outside; the
    scaling costs -d log theta + 1e-11 / 2 in log det.

    The guess from the spread: when poly.spread is set, before any
    Newton step, with R^T R = spread, the facet nearest c0 by h'_i /
    ||R g_i||, its distance in the metric of the spread, is picked, then
    d times the nearest whose direction R g_i meets every one picked
    before at a negative inner product, ties going to the lower index:
    the first d+1 such facets in the stable ascending order of those
    distances, found by argmins with no sort (``_simplex_candidate``;
    notes/decisions.md, "The guess by argmins"). When they bound a
    simplex whose inscribed ellipsoid, scaled to fit all K facets in one
    pass, is certified within 1e-11 / 2 of the optimum in log det, the
    solve ends on it (``_simplex_finish``; notes/decisions.md, "A simplex
    guessed from the points' spread" and "A certified simplex finish"). A
    bounded set rejected names the next: the facet of the K that cuts
    its inscribed ellipsoid deepest, in place of the set's facet whose
    contact lies nearest it. The walk stops on a certified set, a set it
    rejected before, a set that names none, or after d+1 pivots
    (notes/decisions.md, "Pivoting a rejected simplex candidate"). This
    is the only way a solve ends on a simplex: without a spread, or when
    the walk certifies no set, the barrier runs to its gap bound
    (notes/decisions.md, "One finish site").

    A rejected guess starts the barrier. Each bounded set it tried
    contains the polytope, so log det F* of its inscribed ellipsoid
    bounds the optimum from above, and where theta > 0 its theta F*
    about c* lies inside all K facets. The barrier starts from the theta
    F* of largest log det, whose gap to the optimum is at most gamma, the
    least such log det F* less its own, at t = max(1, 2 K_kept / gamma),
    where the barrier's bound meets that gap (Boyd & Vandenberghe
    11.3.1), entered t/(t+1) of the way to the kept facets' cones' edge
    along the segment from E = 0, c' = 0, as constraint generation
    re-enters. The kept facets are then also those of every set the
    walk tried. When no set has theta > 0, the barrier starts as it does
    without a guess (notes/decisions.md, "A rejected guess as the
    barrier's start").

    Raises Divergence when the polytope is unbounded: when a seed ray or
    a ray along a direction the kept normals leave free leaves through no
    facet (``_exits``), or when the iterates grow without bound and no
    facet cuts them off. ``solve_mvie`` is the paper's first-order
    method, kept as the reference the tests check this solve against.

    Diagnostics: ``iterations`` counts Newton steps over all rounds,
    ``stage_iterations`` the steps of every stage run (a stage run again
    after facets were added has one entry per run), ``backtracks`` the
    step halvings per Newton step (levels skipped by the bound included),
    ``inv_step_trace`` the inverse accepted step length,
    ``evaluations`` the barrier objective's evaluations (line-search and
    predictor trials, and the start of each round and of a stage run
    without a prediction), ``objective_trace`` -log det F after every
    step, ``final_objective`` -log det F of the returned ellipsoid,
    ``termination`` "simplex" when the spread's guess ended the solve and
    "tol" when the barrier's gap bound did, ``gap`` the certified bound on
    the log-det gap (2 K_kept / t plus the scaling's cost on the path, -d
    log theta + 1e-11 / 2 on the guess); on the path it may exceed 1e-11
    by the rounding cost -d log theta of the last fit, which more stages
    cannot remove (up to 6e-11 on a badly conditioned simplex in R^5,
    where min_i s_i / ||E g_i|| = 1 - 1.1e-11), ``kept_facets`` the
    number of facets kept at the end, ``rounds`` the number of kept sets
    solved on (1 when no facet had to be added) and ``pivots`` the number
    of sets the guess's walk tried after the guess. When the guess ends
    the solve, ``iterations``, ``evaluations``, ``rounds`` and
    ``kept_facets`` are 0,
    ``stage_iterations``, ``backtracks`` and ``inv_step_trace`` are empty
    and ``objective_trace`` holds ``final_objective`` alone.
    ``touching`` lists, ascending, the facets the ellipsoid touches: the
    last stage's multiplier w_i = 2 ||E g_i||^2 / (t (s_i^2 - ||E g_i||^2))
    is facet i's John weight (8.4.2, 11.2.2), about d/N if it touches and
    1/(t s_i) if not, so they are those above the largest ratio of
    consecutive weights sorted down, from position d+1 on. When the guess
    ends the solve they are the d+1 facets of the simplex it ended on,
    guessed or pivoted to; more facets may touch the ellipsoid, as every
    side of a regular hexagon touches its incircle, the inscribed ellipse
    of the triangle of every other side.
    """
    return _barrier_solve(poly, None)


def _barrier_solve(poly: HPolytope, seed: np.ndarray | None
                   ) -> tuple[Ellipsoid, SolveDiagnostics]:
    """solve_mvie_high_accuracy from the kept facets seed (indices into
    poly's facets), or, when seed is None, from the spread's guess and
    then the ray-exit facets, with the start and the facets the rejected
    guess gives."""
    g = poly.normals
    c0 = poly.interior.astype(float)
    depth = poly.offsets - g @ c0
    r0 = float(depth.min())
    if not r0 > 0.0:
        raise EmptyInterior(
            f"no strictly feasible center found (best slack {r0:.3e})")
    h = depth / r0
    d = g.shape[1]
    logdet_shift = d * math.log(r0)
    pivots = 0        # simplex candidates a rejected one named
    start = None      # the barrier's start from a rejected guess
    if seed is None:
        if poly.spread is not None:
            # The simplex guessed from the spread, certified or not before
            # any Newton step: the one place a solve ends on a simplex
            finish, simplex, pivots, rejected = _walk(
                g, h, _spread_candidate(poly.spread, g, h))
            if finish is not None:
                e, cc, logdet, gap = finish
                objective = -(logdet + logdet_shift)
                diag = SolveDiagnostics(
                    iterations=0, final_objective=objective,
                    objective_trace=[objective], backtracks=[],
                    inv_step_trace=[], termination="simplex",
                    stage_iterations=[], kept_facets=0, rounds=0,
                    evaluations=0, touching=simplex, gap=gap, pivots=pivots)
                return Ellipsoid(F=r0 * e, c=c0 + r0 * cc), diag
            start = _warm_start(d, rejected)
        seed = _exits(g, h, _seed_rays(d))
        if start is not None:
            # the facets the guess's walk tried lie nearest the contacts
            seed = np.concatenate([seed, np.ravel(list(rejected))])
    kept = _spanning(g, h, np.unique(seed))
    _, flat, _ = _sym_basis(d)
    m_e = flat.shape[0]
    eye = np.eye(d)

    def unpack(x):
        return x[:m_e].dot(flat).reshape(d, d), x[m_e:]

    def facets(kept):
        """The kept facets' normals as columns, their outer products
        g_i g_i^T flattened as columns, and their offsets."""
        gt = np.ascontiguousarray(g[kept].T)
        return gt, (gt[:, None] * gt).reshape(d * d, -1), h[kept]

    def objective(e, cc, t):
        """Barrier objective, log det E and the slacks s_i, ||E g_i||^2
        and Delta_i; inf outside the strict interior."""
        chol, info = dpotrf(e)
        if info:
            return math.inf, 0.0, None
        s = hk - cc.dot(gt)
        q = e.dot(e).ravel().dot(gg)          # ||E g_i||^2 = vec(E^2) . gg_i
        delta = s * s - q
        if s.min() <= 0.0 or delta.min() <= 0.0:
            return math.inf, 0.0, None
        logdet = 2.0 * float(np.log(chol.diagonal()).sum())
        return -logdet - float(np.log(delta).sum()) / t, logdet, (s, q, delta)

    gt, gg, hk = facets(kept)
    if start is None:
        x = np.concatenate([np.full(d, 0.5), np.zeros(m_e)])  # E = I/2, c' = 0
        t = 1.0
        logdet = d * math.log(0.5)
    else:
        # Start at the t where the barrier's bound 2 K_kept / t meets the
        # start's certified gap, and enter as constraint generation does,
        # t/(t+1) of the way to the kept facets' cones' edge from E = 0
        e, cc, logdet, gap = start
        t = max(1.0, 2.0 * kept.size / gap)
        x = np.concatenate([e.diagonal(), e[np.triu_indices(d, 1)], cc])
        fit = min(1.0, t / (t + 1.0) * _step_bound(
            gt, gg, hk * hk, hk * cc.dot(gt), *unpack(x)))
        x *= fit
        logdet += d * math.log(fit)
    trace = [-(logdet + logdet_shift)]
    backtracks: list[int] = []
    inv_step: list[float] = []
    stage_iters: list[int] = []
    rounds = 1
    evaluations = 0
    sl = None         # slacks of x on the kept facets, once evaluated at t
    while True:
        e, cc = unpack(x)
        if sl is None:
            f, logdet, sl = objective(e, cc, t)
            evaluations += 1
        steps = 0
        unbounded = False
        tangent = None
        while True:
            s, _, delta = sl
            _, _, e_inv, info = dgesv(e, eye)
            if info:          # E has a Cholesky factor: singular by rounding
                break
            hess, grad, vt = _newton_system(e, e_inv, s, delta, t, gt, gg)
            lu, piv, step, info = dgesv(hess, -grad)
            if info:
                # positive definite while the kept normals span R^d, so
                # singular only by rounding: the stage can go no further
                break
            slope = float(grad.dot(step))      # -(Newton decrement)^2
            # t times the objective is self-concordant; its decrement
            # at 0.14 is about where Newton's quadratic phase begins.
            # Past a full step's Armijo decrease below f's last place,
            # the line search can only pass or fail by rounding.
            if -slope * t / 2.0 <= 1e-2 or -0.25 * slope <= math.ulp(f):
                tangent, _ = dgetrs(lu, piv, vt.dot(2.0 / (t * delta)))
                break
            # halve from 1, skipping the levels beyond the cones' edge
            cap = (1.0 + 1e-9) * _step_bound(gt, gg, delta, step.dot(vt),
                                             *unpack(step))
            alpha, halvings, f_new = 1.0, 0, math.inf
            while halvings <= 60:
                if alpha <= cap:
                    trial = x + alpha * step
                    new_e, new_cc = unpack(trial)
                    f_new, new_logdet, new_sl = objective(new_e, new_cc, t)
                    evaluations += 1
                    if f_new <= f + 0.25 * alpha * slope:
                        break
                alpha *= 0.5
                halvings += 1
            if not f_new < f:
                break
            x, gain, f, sl = trial, f - f_new, f_new, new_sl
            logdet, e, cc = new_logdet, new_e, new_cc
            steps += 1
            backtracks.append(halvings)
            inv_step.append(1.0 / alpha)
            trace.append(-(logdet + logdet_shift))
            if e.trace() > _UNBOUNDED_TRACE:
                unbounded = True
                break
            if gain <= 1e-15 * abs(f):
                break
        stage_iters.append(steps)
        s = h - g @ cc
        ge = g @ e
        reach = np.sqrt(np.einsum("ij,ij->i", ge, ge))     # ||E g_i||
        met = reach >= s
        met[kept] = False
        if met.any():
            # Keep the most-crossed facets the iterate meets, at most as
            # many as the program has unknowns: those whose s_i <= 0
            # first, then by ||E g_i|| / s_i. Re-enter along the segment
            # from E = 0, c' = 0, where every s_i = h'_i >= 1 and
            # E g_i = 0, to the iterate, t/(t+1) of the way to the cones'
            # edge: the facet that sets the bound keeps about 1/t of its
            # Delta_i, as an active facet does on the central path at t.
            new = np.flatnonzero(met)
            crossing = np.full(new.size, np.inf)
            inside = s[new] > 0.0
            crossing[inside] = reach[new[inside]] / s[new[inside]]
            new = new[np.argsort(-crossing, kind="stable")[:m_e + d]]
            kept = np.union1d(kept, new)
            rounds += 1
            gt, gg, hk = facets(kept)
            bound = _step_bound(gt, gg, hk * hk, hk * cc.dot(gt), e, cc)
            x *= min(1.0, t / (t + 1.0) * bound)
            sl = None
            continue
        if unbounded:
            raise Divergence(
                f"inscribed ellipsoid grew past {_UNBOUNDED_TRACE:.1e} "
                "times the centre's facet distance after "
                f"{sum(stage_iters)} Newton steps, and no facet cuts it "
                "off; the polytope is unbounded")
        # half of _GAP for the path, half for the margin it ends with
        gap = 2.0 * kept.size / t
        if gap <= 0.5 * _GAP:
            break
        t *= _T_GROWTH
        last, sl = sl, None
        if tangent is not None:
            # Predict the next centre. Along the central path
            # dx/d(1/t) = -t H^-1 b, so 1/t falling by (1 - 1/mu)/t moves
            # x by about (1 - 1/mu) H^-1 b. Where that leaves the cones,
            # go (1 - 1/mu) of the way to their edge: about the share of
            # its Delta_i a facet that stays active gives up.
            pred = (1.0 - 1.0 / _T_GROWTH) * tangent
            alpha = min(1.0, (1.0 - 1.0 / _T_GROWTH) * _step_bound(
                gt, gg, last[2], pred.dot(vt), *unpack(pred)))
            trial = x + alpha * pred
            f_new, new_logdet, new_sl = objective(*unpack(trial), t)
            evaluations += 1
            if new_sl is not None:           # else E lost definiteness
                x, f, sl, logdet = trial, f_new, new_sl, new_logdet
    # Inside all K facets by the last scan's s_i and ||E g_i||, with the
    # finish's margin against rounding; gap pays for both
    fit = min(1.0, float((s / reach).min())) * math.exp(-0.5 * _GAP / d)
    e = fit * e
    logdet += d * math.log(fit)
    gap -= d * math.log(fit)
    diag = SolveDiagnostics(
        iterations=sum(stage_iters),
        final_objective=-(logdet + logdet_shift),
        objective_trace=trace,
        backtracks=backtracks,
        inv_step_trace=inv_step,
        termination="tol",
        stage_iterations=stage_iters,
        kept_facets=int(kept.size),
        rounds=rounds,
        evaluations=evaluations,
        touching=np.sort(kept[_touching(*sl[1:], t, d)]),
        gap=gap,
        pivots=pivots,
    )
    return Ellipsoid(F=r0 * e, c=c0 + r0 * cc), diag


def max_violation(ellipsoid: Ellipsoid, poly: HPolytope) -> float:
    """Worst constraint value max_i (||F g_i|| + g_i . c - h_i), divided
    by the largest facet distance max_i (h_i - g_i . c) from the centre.

    Not positive for an inscribed ellipsoid; free of the data's units.
    Taken on F / 2^k and the facet distances / 2^k, k =
    binary_exponent(F), so no square in the norms overflows or
    underflows, and the same bits come out for the polytope and
    ellipsoid scaled by 2^j.
    """
    g, k = poly.normals, binary_exponent(ellipsoid.F)
    depth = np.ldexp(poly.offsets - g @ ellipsoid.c, -k)
    excess = np.linalg.norm(g @ np.ldexp(ellipsoid.F, -k), axis=1) - depth
    return float(excess.max() / depth.max())


@dataclass(frozen=True)
class JohnCertificate:
    residual: float
    weights: np.ndarray


def check_john(ellipsoid: Ellipsoid, contacts,
               weights=None) -> JohnCertificate:
    """Optimality certificate from the weighted contact-point conditions.

    Contacts are mapped into the ellipsoid's ball coordinates
    u_i = F^{-1}(q_i - c); the certificate residual is

        sqrt(|| sum_i w_i u_i ||^2 + || sum_i w_i u_i u_i^T - I ||_F^2)

    minimized over nonnegative weights when none are supplied. A small
    residual witnesses that the ellipsoid is the maximum-volume
    ellipsoid inscribed in any convex body touching it at the contacts.

    Neither the pipeline nor the CLI calls it: a run reports the solve's
    certified ``gap`` and ``max_violation``. It is the reference the
    tests and the benchmark's traced runs apply to the merged contacts.
    """
    pts = np.atleast_2d(np.asarray(contacts, dtype=float))
    d = ellipsoid.F.shape[0]
    if pts.shape[1] != d:
        raise DimMismatch(f"contacts have dim {pts.shape[1]}, expected {d}")
    if pts.shape[0] < d + 1:
        raise TooFewContacts(
            f"need at least d+1={d + 1} contacts, got {pts.shape[0]}")
    u = np.linalg.solve(ellipsoid.F, (pts - ellipsoid.c).T)  # d x r
    r = u.shape[1]
    design = np.empty((d + d * d, r))
    design[:d] = u
    for i in range(r):
        design[d:, i] = np.outer(u[:, i], u[:, i]).ravel()
    target = np.concatenate([np.zeros(d), np.eye(d).ravel()])
    if weights is None:
        from scipy.optimize import nnls   # on use, as in metrics
        lam, rnorm = nnls(design, target)
        return JohnCertificate(residual=float(rnorm), weights=lam)
    lam = as_vector(weights, "weights")
    if lam.shape[0] != r:
        raise DimMismatch("one weight per contact point required")
    resid = float(np.linalg.norm(design @ lam - target))
    return JohnCertificate(residual=resid, weights=lam)
