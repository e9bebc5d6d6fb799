"""Maximum-volume inscribed ellipsoid of a polytope via a smoothed
penalty formulation and an accelerated proximal gradient method.

The constrained program

    max  log det(F)   s.t.  ||F g_i|| + g_i . c <= h_i   (F symmetric PSD)

is replaced by the composite minimization

    min_{W in S_eps, y}  sum_i psi(sqrt(||W g_i||^2 + eps) + g_i . y - h_i)
                         - (1/rho) log det(W),

where psi is the one-sided Huber function and S_eps is the set of
symmetric matrices with smallest eigenvalue >= eps. The smooth part has
a Lipschitz gradient, and the log-det part admits a closed-form
proximal map through a symmetric eigendecomposition, so the fast
proximal gradient method (FISTA-style momentum plus backtracking line
search) applies. Larger rho tightens the penalty; a warm-started rho
ladder gives a high-accuracy substitute for an interior-point solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import nnls

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
    "load_config",
    "save_config",
]

RHO_MAX = 1e7  # ceiling of the high-accuracy penalty ladder


@dataclass(frozen=True)
class Ellipsoid:
    """{F a + c : ||a|| <= 1}; solver outputs have symmetric PD F."""

    F: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class FpgmConfig:
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


def load_config(path) -> FpgmConfig:
    """Read solver settings from JSON; missing keys keep their defaults."""
    with open(path) as fh:
        raw = json.load(fh)
    allowed = {"rho", "eps", "alpha", "beta", "t_max", "max_iter", "tol_rel"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
    return FpgmConfig(**raw)


def save_config(cfg: FpgmConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump({"rho": cfg.rho, "eps": cfg.eps, "alpha": cfg.alpha,
                   "beta": cfg.beta, "t_max": cfg.t_max,
                   "max_iter": cfg.max_iter, "tol_rel": cfg.tol_rel},
                  fh, indent=2)
        fh.write("\n")


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
    """Maximize the minimum facet slack by projected subgradient ascent.

    Started from the hull-vertex centroid when the polytope carries one.
    """
    g, h = poly.normals, poly.offsets
    y = (poly.interior.astype(float).copy() if poly.interior is not None
         else np.zeros(poly.dim))
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


def solve_mvie(poly: HPolytope, cfg: FpgmConfig | None = None,
               init: tuple[np.ndarray, np.ndarray] | None = None
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

    if init is not None:
        w0 = np.asarray(init[0], dtype=float)
        lam, u = eig_sym(0.5 * (w0 + w0.T))
        w = (u * np.maximum(lam, cfg.eps)) @ u.T
        w = 0.5 * (w + w.T)
        y = np.asarray(init[1], dtype=float).copy()
    else:
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
    )
    return Ellipsoid(F=w_cur, c=y_cur), diag


def solve_mvie_high_accuracy(poly: HPolytope,
                             cfg: FpgmConfig | None = None,
                             polish_iters: int = 0
                             ) -> tuple[Ellipsoid, SolveDiagnostics]:
    """Warm-started penalty ladder: rho grows tenfold per stage up to RHO_MAX.

    Each stage runs at tol_rel = 1e-12; the final stage's solution
    approaches the constrained optimum since the penalty dominates.

    The objective-change stopping rule cannot see flat directions of
    the high-rho landscape (the objective scales like 1/rho), so an
    optional polish stage reruns the final rho with that rule disabled
    for up to polish_iters iterations, sharpening contact geometry and
    optimality certificates.
    """
    cfg = cfg or FpgmConfig()
    rho = cfg.rho
    init = None
    ell: Ellipsoid | None = None
    trace: list[float] = []
    backtracks: list[int] = []
    inv_t: list[float] = []
    stage_iters: list[int] = []
    restarts = 0
    reason = "max_iter"
    while True:
        stage_cfg = replace(cfg, rho=rho, tol_rel=min(cfg.tol_rel, 1e-12))
        ell, diag = solve_mvie(poly, stage_cfg, init)
        init = (ell.F, ell.c)
        trace.extend(diag.objective_trace)
        backtracks.extend(diag.backtracks)
        inv_t.extend(diag.inv_step_trace)
        stage_iters.append(diag.iterations)
        restarts += diag.restarts
        reason = diag.termination
        if rho >= RHO_MAX:
            break
        rho = min(rho * 10.0, RHO_MAX)
    if polish_iters > 0:
        stage_cfg = replace(cfg, rho=RHO_MAX, tol_rel=0.0,
                            max_iter=polish_iters)
        ell, diag = solve_mvie(poly, stage_cfg, init)
        trace.extend(diag.objective_trace)
        backtracks.extend(diag.backtracks)
        inv_t.extend(diag.inv_step_trace)
        stage_iters.append(diag.iterations)
        restarts += diag.restarts
        reason = diag.termination
    diag = SolveDiagnostics(
        iterations=sum(stage_iters),
        final_objective=trace[-1],
        objective_trace=trace,
        backtracks=backtracks,
        inv_step_trace=inv_t,
        termination=reason,
        restarts=restarts,
        stage_iterations=stage_iters,
    )
    return ell, diag


@dataclass(frozen=True)
class JohnCertificate:
    residual: float
    weights: np.ndarray
    fitted: bool


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
        lam, rnorm = nnls(design, target)
        return JohnCertificate(residual=float(rnorm), weights=lam, fitted=True)
    lam = as_vector(weights, "weights")
    if lam.shape[0] != r:
        raise DimMismatch("one weight per contact point required")
    resid = float(np.linalg.norm(design @ lam - target))
    return JohnCertificate(residual=resid, weights=lam, fitted=False)
