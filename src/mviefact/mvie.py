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

``solve_mvie`` is the paper's first-order method (FPGM). The pipeline
does not call it; it is kept as the paper's reference, against which
the tests check the Newton answer. It replaces the constraints by the
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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    Divergence,
    EmptyInterior,
    NotFinite,
    TooFewContacts,
)
from .hull import HPolytope
from .numerics import as_matrix, as_vector, eig_sym

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


def _chebyshev_style_center(poly: HPolytope, steps: int = 200) -> np.ndarray:
    """Maximize the minimum facet slack by projected subgradient ascent,
    started from the polytope's interior point."""
    g, h = poly.normals, poly.offsets
    y = poly.interior.astype(float).copy()
    best_y = y.copy()
    best_slack = float((h - g @ y).min())
    step0 = max(float(np.abs(h).max()), 1e-6)
    for k in range(1, steps + 1):
        slacks = h - g @ y
        i = int(np.argmin(slacks))
        y = y - (step0 / math.sqrt(k)) * g[i]
        s = float((h - g @ y).min())
        if s > best_slack:
            best_slack = s
            best_y = y.copy()
    return best_y


def solve_mvie(poly: HPolytope, cfg: FpgmConfig | None = None
               ) -> tuple[Ellipsoid, SolveDiagnostics]:
    """Run the accelerated proximal gradient solver on one polytope.

    Returns the inscribed ellipsoid (F = W symmetric with smallest
    eigenvalue >= eps, center c = y) and per-iteration diagnostics. The
    recorded composite objective is non-increasing: whenever the
    momentum step would raise it, momentum is reset and the step is
    retried from the current iterate.
    """
    cfg = cfg or FpgmConfig()
    g = poly.normals
    h = poly.offsets
    gt = g.T
    d = poly.dim

    y = _chebyshev_style_center(poly)
    slack = float((h - g @ y).min())
    if slack <= 0.0:
        raise EmptyInterior(
            f"no strictly feasible center found (best slack {slack:.3e})")
    w = 0.9 * slack * np.eye(d)

    def pen(wm, yv):
        return _penalty_value(wm, yv, gt, g, h, cfg.eps)

    lam0 = eig_sym(w).eigenvalues
    obj = pen(w, y) + _logdet_term(np.maximum(lam0, cfg.eps), cfg.rho)
    trace = [obj]
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
                f_new = pen(w_new, y_new)
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


def _sym_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis B_k of the symmetric d x d matrices: the d diagonal pairs
    (i, i) first, then the pairs i < j.

    B_k = e_i e_i^T on the diagonal and e_i e_j^T + e_j e_i^T off it, so
    the coordinates of E are its upper-triangle entries. Returns the
    basis and the off-diagonal index pairs.
    """
    upper, lower = np.triu_indices(d, 1)
    rows = np.concatenate([np.arange(d), upper])
    cols = np.concatenate([np.arange(d), lower])
    basis = np.zeros((rows.size, d, d))
    k = np.arange(rows.size)
    basis[k, rows, cols] = 1.0
    basis[k, cols, rows] = 1.0
    return basis, upper, lower


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
# Fixed seed rays per dimension, besides the 2 d coordinate rays.
_SEED_RAYS_PER_DIM = 16
# Largest number of elements in one K x (block of rays) temporary (1 MB).
_RAY_BLOCK = 1 << 17


def _seed_rays(d: int) -> np.ndarray:
    """16 d fixed unit directions in R^d, then +-e_1 ... +-e_d.

    The fixed directions are the points frac(1/2 + j alpha), j = 1, 2, ...,
    of the Kronecker sequence with alpha_k = phi_d^-k, phi_d the root of
    x^(d+1) = x + 1 (Roberts' R_d sequence, low-discrepancy in [0, 1)^d),
    mapped to [-1, 1)^d and normalized. No random numbers are drawn.
    """
    phi = 2.0
    for _ in range(64):                    # contraction to phi_d
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    j = np.arange(1.0, _SEED_RAYS_PER_DIM * d + 1)[:, None]
    u = 2.0 * np.mod(0.5 + j * alpha, 1.0) - 1.0
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.vstack([u, np.eye(d), -np.eye(d)])


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


def _spanning(g: np.ndarray, h: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Grow kept until its normals span R^d: while they leave a subspace
    free, add the facets where the rays from the origin along +-v leave
    the polytope, for a basis v of that subspace. Raises Divergence when
    a ray never leaves, for the polytope then contains it."""
    d = g.shape[1]
    while True:
        lam, vec = np.linalg.eigh(g[kept].T @ g[kept])
        free = vec[:, lam <= d * np.finfo(float).eps * lam[-1]].T
        if not free.size:
            return kept
        hit = _exit_facets(g, h, np.vstack([free, -free]))
        if (hit < 0).any():
            raise Divergence("no facet bounds the polytope along a "
                             "direction its kept facets leave free; the "
                             "polytope is unbounded")
        kept = np.union1d(kept, hit)


def _step_bound(gt: np.ndarray, s: np.ndarray, ut: np.ndarray,
                delta: np.ndarray, de: np.ndarray, dc: np.ndarray) -> float:
    """First alpha > 0 where some cone constraint s_i > ||E g_i|| fails
    along (E + alpha dE, c' + alpha dc), inf if none does.

    s_i - alpha sigma_i and E g_i + alpha v_i move linearly (sigma_i =
    g_i . dc, v_i = dE g_i), so Delta_i(alpha) = Delta_i - 2 b_i alpha +
    a_i alpha^2 with b_i = s_i sigma_i + (E g_i) . v_i and a_i = sigma_i^2
    - ||v_i||^2. The feasible part of the line is an interval, so its end
    is the smallest positive root, taken in the form without cancellation.
    gt holds the normals as columns; s, ut (E g_i as columns) and delta
    are the ``slacks`` of the point (E, c') the line starts from.
    """
    sigma = dc @ gt
    vt = de @ gt
    b = s * sigma + np.einsum("ij,ij->j", ut, vt)
    a = sigma * sigma - np.einsum("ij,ij->j", vt, vt)
    root = np.sqrt(np.maximum(b * b - a * delta, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # b > 0: Delta_i / (b_i + root) if real; b <= 0: a root iff a < 0
        alpha = np.where(b > 0.0, delta / (b + root), (b - root) / a)
    fails = np.where(b > 0.0, b * b >= a * delta, a < 0.0)
    return float(alpha[fails].min()) if fails.any() else math.inf


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

    from E = I/2, c' = 0, t = 1, multiplying t by 100 per stage until the
    barrier's log-det gap bound 2 K_kept / t is at most 1e-11. Each stage
    runs damped Newton steps until t lambda^2 / 2 <= 1e-2 for the Newton
    decrement lambda: t times the stage objective is self-concordant, so
    the stage ends about where Newton's quadratic phase begins. The line
    search halves from the first power of two below the step's distance
    to the cones' edge, found in closed form (``_step_bound``), and
    accepts strictly feasible points only. A stage that ends on the
    decrement predicts the next stage's start along the central path's
    tangent in 1/t, (1 - 1/100) H^-1 b for the stage's Hessian H and
    barrier gradient b, kept (1 - 1/100) of the way to the cones' edge
    (Boyd & Vandenberghe 11.3; notes/decisions.md).

    The kept facets start as those where the rays from c0 along 16 d
    fixed directions and +-e_i leave the polytope, grown until their
    normals span R^d. After every stage the iterate is tested against all
    K facets. Of the facets it meets or crosses (||E g_i|| >= s_i), the
    d(d+3)/2 most crossed (s_i <= 0 first, then by ||E g_i|| / s_i) are
    kept from then on and the stage is run again at the same t, from
    t/(t+1) of the way to the kept facets' cones' edge along the segment
    from E = 0, c' = 0 to the iterate; the facets left out are tested
    again after that stage. The returned ellipsoid is optimal for the
    kept facets, whose polytope contains the full one, and lies inside
    all K facets, so it is the maximum-volume ellipsoid inscribed in the
    full polytope (notes/decisions.md). Raises Divergence when the
    polytope is unbounded: when a ray from c0 leaves through no facet, or
    when the iterates grow without bound and no facet cuts them off.
    ``solve_mvie`` is the paper's first-order method, kept as the
    reference the tests check this solve against.

    Diagnostics: ``iterations`` counts Newton steps over all rounds,
    ``stage_iterations`` the steps of every stage run (a stage run again
    after facets were added has one entry per run), ``backtracks`` the
    step halvings per Newton step (levels skipped by the bound included),
    ``inv_step_trace`` the inverse accepted step length,
    ``evaluations`` the barrier objective's evaluations (line-search and
    predictor trials, and the start of each round and of a stage run
    without a prediction), ``objective_trace`` -log det F after every
    step, ``final_objective`` -log det F of the returned ellipsoid,
    ``kept_facets`` the number of facets kept at the end and ``rounds``
    the number of kept sets solved on (1 when no facet had to be added).
    ``touching`` lists, ascending, the facets the ellipsoid touches: the
    last stage's multiplier w_i = 2 ||E g_i||^2 / (t (s_i^2 - ||E g_i||^2))
    is facet i's John weight (8.4.2, 11.2.2), about d/N if it touches and
    1/(t s_i) if not, so they are those above the largest ratio of
    consecutive weights sorted down, from position d+1 on.
    """
    return _barrier_solve(poly, None)


def _barrier_solve(poly: HPolytope, seed: np.ndarray | None
                   ) -> tuple[Ellipsoid, SolveDiagnostics]:
    """solve_mvie_high_accuracy from the kept facets seed (indices into
    poly's facets), or from the ray-exit facets when seed is None."""
    g = poly.normals
    c0 = poly.interior.astype(float)
    depth = poly.offsets - g @ c0
    r0 = float(depth.min())
    if not r0 > 0.0:
        raise EmptyInterior(
            f"no strictly feasible center found (best slack {r0:.3e})")
    h = depth / r0
    d = g.shape[1]
    if seed is None:
        seed = _exit_facets(g, h, _seed_rays(d))
    kept = _spanning(g, h, np.unique(seed[seed >= 0]))
    basis, upper, lower = _sym_basis(d)
    m_e = basis.shape[0]
    flat = basis.reshape(m_e, d * d)
    # row (k, l) holds B_k B_l: sum_ac (B_k B_l)_ac G_ac = tr(B_k B_l G)
    pairs = np.einsum("kab,lbc->klac", basis, basis).reshape(m_e * m_e, -1)

    def unpack(x):
        return (x[:m_e] @ flat).reshape(d, d), x[m_e:]

    # gt and hk are the kept facets' normals (transposed) and offsets,
    # rebound below whenever facets join.
    def slacks(e, cc):
        s = hk - cc @ gt
        ut = e @ gt                            # column i = E g_i
        return s, ut, s * s - np.einsum("ij,ij->j", ut, ut)

    def objective(e, cc, t):
        """Barrier objective, log det E and the slacks; inf outside the
        strict interior."""
        try:
            chol = np.linalg.cholesky(e)
        except np.linalg.LinAlgError:
            return math.inf, 0.0, None
        sl = slacks(e, cc)
        if sl[0].min() <= 0.0 or sl[2].min() <= 0.0:
            return math.inf, 0.0, None
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        return -logdet - float(np.log(sl[2]).sum()) / t, logdet, sl

    x = np.concatenate([np.full(d, 0.5), np.zeros(m_e)])   # E = I/2, c' = 0
    t = 1.0
    logdet_shift = d * math.log(r0)
    trace = [-(d * math.log(0.5) + logdet_shift)]
    backtracks: list[int] = []
    inv_step: list[float] = []
    stage_iters: list[int] = []
    rounds = 1
    evaluations = 0
    sl = None         # slacks of x on the kept facets, once evaluated at t
    while True:
        gt = np.ascontiguousarray(g[kept].T)
        hk = h[kept]
        e, cc = unpack(x)
        if sl is None:
            f, logdet, sl = objective(e, cc, t)
            evaluations += 1
        steps = 0
        unbounded = False
        tangent = None
        while True:
            e_inv = np.linalg.inv(e)
            s, ut, delta = sl
            w = 1.0 / (t * delta)
            # column i of vt = -(1/2) grad of Delta_i in (B_k, c')
            vt = np.empty((m_e + d, kept.size))
            np.multiply(ut, gt, out=vt[:d])
            np.multiply(ut[upper], gt[lower], out=vt[d:m_e])
            vt[d:m_e] += ut[lower] * gt[upper]
            np.multiply(gt, s, out=vt[m_e:])
            gram = (gt * (2.0 * w)) @ gt.T
            hess = (vt * (4.0 / (t * delta * delta))) @ vt.T
            ei_b = e_inv @ basis
            hess[:m_e, :m_e] += (
                (pairs @ gram.ravel()).reshape(m_e, m_e)
                + ei_b.reshape(m_e, -1)
                @ ei_b.transpose(0, 2, 1).reshape(m_e, -1).T)
            hess[m_e:, m_e:] -= gram
            grad = 2.0 * (vt @ w)
            grad[:m_e] -= np.einsum("kaa->k", ei_b)
            try:
                step = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                # positive definite while the kept normals span R^d, so
                # singular only by rounding: the stage can go no further
                break
            slope = float(grad @ step)         # -(Newton decrement)^2
            # t times the objective is self-concordant; its decrement
            # at 0.14 is about where Newton's quadratic phase begins
            if -slope * t / 2.0 <= 1e-2:
                tangent = np.linalg.solve(hess, 2.0 * (vt @ w))
                break
            # halve from 1, skipping the levels beyond the cones' edge
            cap = (1.0 + 1e-9) * _step_bound(gt, s, ut, delta, *unpack(step))
            alpha, halvings, f_new = 1.0, 0, math.inf
            while halvings <= 60:
                if alpha <= cap:
                    trial = x + alpha * step
                    f_new, new_logdet, new_sl = objective(*unpack(trial), t)
                    evaluations += 1
                    if f_new <= f + 0.25 * alpha * slope:
                        break
                alpha *= 0.5
                halvings += 1
            if not f_new < f:
                break
            x, gain, f, sl = trial, f - f_new, f_new, new_sl
            logdet = new_logdet
            e, cc = unpack(x)
            steps += 1
            backtracks.append(halvings)
            inv_step.append(1.0 / alpha)
            trace.append(-(logdet + logdet_shift))
            if np.trace(e) > _UNBOUNDED_TRACE:
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
            # from E = 0, c' = 0, where every s_i = h'_i >= 1, to the
            # iterate, t/(t+1) of the way to the cones' edge: the facet
            # that sets the bound keeps about 1/t of its Delta_i, as an
            # active facet does on the central path at this t.
            new = np.flatnonzero(met)
            crossing = np.full(new.size, np.inf)
            inside = s[new] > 0.0
            crossing[inside] = reach[new[inside]] / s[new[inside]]
            new = new[np.argsort(-crossing, kind="stable")[:m_e + d]]
            kept = np.union1d(kept, new)
            rounds += 1
            hk = h[kept]
            bound = _step_bound(g[kept].T, hk, np.zeros((d, kept.size)),
                                hk * hk, e, cc)
            x *= min(1.0, t / (t + 1.0) * bound)
            sl = None
            continue
        if unbounded:
            raise Divergence(
                f"inscribed ellipsoid grew past {_UNBOUNDED_TRACE:.1e} "
                "times the centre's facet distance after "
                f"{sum(stage_iters)} Newton steps, and no facet cuts it "
                "off; the polytope is unbounded")
        if 2.0 * kept.size / t <= 1e-11:
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
            alpha = min(1.0, (1.0 - 1.0 / _T_GROWTH)
                        * _step_bound(gt, *last, *unpack(pred)))
            trial = x + alpha * pred
            f_new, new_logdet, new_sl = objective(*unpack(trial), t)
            evaluations += 1
            if new_sl is not None:           # else E lost definiteness
                x, f, sl, logdet = trial, f_new, new_sl, new_logdet
    _, ut, delta = sl
    w = 2.0 * np.einsum("ij,ij->j", ut, ut) / (t * delta)
    order = np.argsort(-w, kind="stable")
    drop = w[order[d:-1]] / w[order[d + 1:]]
    n_touch = d + 1 + (int(drop.argmax()) if drop.size else 0)
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
        touching=np.sort(kept[order[:n_touch]]),
    )
    return Ellipsoid(F=r0 * e, c=c0 + r0 * cc), diag


def max_violation(ellipsoid: Ellipsoid, poly: HPolytope) -> float:
    """Worst constraint value max_i (||F g_i|| + g_i . c - h_i), divided
    by the largest facet distance max_i (h_i - g_i . c) from the centre.

    Not positive for an inscribed ellipsoid; free of the data's units.
    """
    g, h = poly.normals, poly.offsets
    depth = h - g @ ellipsoid.c
    excess = np.linalg.norm(g @ ellipsoid.F, axis=1) - depth
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
