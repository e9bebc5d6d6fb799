"""Affine set fitting and the coordinate maps between ambient and
reduced space.

For data spanning an (N-1)-dimensional affine set, the chart (Phi, b)
with semi-orthonormal Phi maps reduced coordinates u to Phi u + b, and
Phi^T (x - b) inverts it on the affine hull. Volumes are preserved
because det(Phi^T Phi) = 1.

The fit starts from the principal eigenvectors of the M x M Gram matrix
C C^T of the centred data C, as MVES does (Chan, Chi, Huang & Ma, IEEE
TSP 57(11), 2009), and makes them as accurate as an SVD of C with one
Rayleigh-Ritz step on the data: the eigenvectors alone carry an error
that grows with the square of C's condition, and one product with C
brings it back to the first power (notes/decisions.md). No L-long
singular vectors and no L x M factor are formed. affine_fit centres a
copy of X and leaves X as it was; it returns the chart together with
the data in the chart's reduced coordinates, Phi^T (X - b), which its
residual needs anyway.

Each function here that squares the data works on it divided by 2^k,
k = binary_exponent of the data, and scales its results back: no
square overflows or underflows, and the results for 2^j X are 2^j
times those for X, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr

from .errors import BadDims, ConvergenceFailure, DimMismatch, RankDeficientData
from .numerics import as_matrix, binary_exponent

__all__ = [
    "AffineChart",
    "affine_fit",
    "reduce_points",
    "lift_points",
    "fit_residual",
]


@dataclass(frozen=True)
class AffineChart:
    Phi: np.ndarray  # M x (N-1), Phi^T Phi = I
    b: np.ndarray    # M
    residual: float = math.nan   # fit_residual of the fitted data; nan
                                 # for a chart not made by affine_fit
    noise_sigma: float = math.nan    # the fit's noise estimate sigma; nan
                                     # likewise, or with no discarded value


def affine_fit(x: np.ndarray, n: int) -> tuple[AffineChart, np.ndarray]:
    """Fit the (N-1)-dimensional affine hull of the data columns, and map
    the data into the fitted chart: returns the chart and the reduced
    points Phi^T C, C the centered data. x is not modified.

    Its one data-sized copy is x / 2^e, e = binary_exponent(x), centred
    in place; the fit runs on it, and b, the reduced points, the
    residual and sigma are scaled back by 2^e into x's units. So Phi is
    the same, and the rest 2^j times as large, bit for bit, for 2^j x.

    b is the column mean and Phi holds the top N-1 left singular
    vectors of C, up to sign: the Ritz vectors of one Rayleigh-Ritz step
    from the top eigenvectors of C C^T. With p = min(N, M) and V the top
    p eigenvectors of G = C C^T, Q = orth(C^T V) comes from dgeqrf and
    dorgqr, and the SVD of C Q = U S W^T from dgesdd; Phi is U's first
    N-1 columns, each u_j turned so that u_j . v_j > 0, so the signs
    follow V. Raises RankDeficientData when the centered data does not
    carry N-1 directions (relative singular value S[N-2] below 1e-10),
    and ConvergenceFailure when LAPACK's eigensolver or SVD fails. The
    chart carries the fit's residual, the largest distance of a column
    from the fitted affine set, and its noise estimate sigma, whose
    square is the mean square per pixel of the residual, spread over the
    k = min(M, L-1) - (N-1) discarded singular values: sigma^2 =
    ||C - Phi Phi^T C||_F^2 / (L k) = sum_{j>=N} s_j^2 / (L k), as in
    HySime (Bioucas-Dias & Nascimento, IEEE TGRS 46(8), 2008); nan when
    k = 0.

    It warns when the residual exceeds 1e-8 relative and the first
    discarded singular value s_N stands out from the others: s_N^2 >
    1.5 sigma^2 (sqrt(L) + sqrt(k))^2, 1.5 times the Marchenko-Pastur
    edge of isotropic noise (notes/decisions.md). With k = 1 it cannot.
    """
    x = as_matrix(x, "X")
    m, l = x.shape
    if l < n:
        raise BadDims(f"need L >= N, got L={l}, N={n}")
    if m < n - 1:
        raise BadDims(f"need M >= N-1, got M={m}, N={n}")
    if n < 2:
        raise BadDims("need N >= 2 for a nontrivial affine fit")
    e = binary_exponent(x)
    centered = np.ldexp(x, -e)
    b = centered.mean(axis=1)
    centered -= b[:, None]
    p = min(n, m)
    try:
        v = np.linalg.eigh(centered @ centered.T)[1][:, :-p - 1:-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Gram eigensolver failed: {exc}") from exc
    qr, tau, _, _ = dgeqrf((v.T @ centered).T, overwrite_a=1)
    q, _, _ = dorgqr(qr, tau, overwrite_a=1)
    u, s, _, info = dgesdd(centered @ q, full_matrices=0)
    if info:
        raise ConvergenceFailure(f"SVD did not converge (dgesdd info {info})")
    phi, v = u[:, :n - 1], v[:, :n - 1]
    phi = phi * np.where(np.einsum("ij,ij->j", phi, v) < 0, -1.0, 1.0)
    if s[0] <= 0.0 or s[n - 2] < 1e-10 * s[0]:
        raise RankDeficientData(
            f"centered data is rank deficient: singular values {s[:n - 1]}")
    reduced = phi.T @ centered
    off2 = _offsets_squared(centered, phi, reduced)
    res = math.sqrt(float(off2.max()))
    k = min(m, l - 1) - (n - 1)
    sigma2 = float(off2.sum()) / (l * k) if k else math.nan
    # ||c_j||^2 = ||c_j - Phi u_j||^2 + ||u_j||^2, Phi semi-orthonormal
    if (k > 0 and s[n - 1] ** 2 > 1.5 * sigma2
            * (math.sqrt(l) + math.sqrt(k)) ** 2
            and res > 1e-8 * max(math.sqrt(float(
                (off2 + np.einsum("ij,ij->j", reduced, reduced)).max())),
                1e-300)):
        warnings.warn(
            f"affine fit residual {math.ldexp(res, e):.3e} exceeds 1e-8 "
            "relative and the first discarded direction stands above the "
            f"noise; the data may hold more than N={n} signatures",
            stacklevel=2)
    chart = AffineChart(phi, np.ldexp(b, e), math.ldexp(res, e),
                        math.ldexp(math.sqrt(sigma2), e))
    return chart, np.ldexp(reduced, e)


def fit_residual(chart: AffineChart, x: np.ndarray) -> float:
    """Largest distance of any column from the chart's affine set, taken
    on x / 2^k and b / 2^k, k = binary_exponent(x), and scaled back; for
    the data the chart was fitted to it is the chart's residual."""
    x = as_matrix(x, "data")
    k = binary_exponent(x)
    centered = np.ldexp(x, -k) - np.ldexp(chart.b, -k)[:, None]
    off2 = _offsets_squared(centered, chart.Phi, chart.Phi.T @ centered)
    return math.ldexp(math.sqrt(float(off2.max())), k)


def _offsets_squared(centered: np.ndarray, phi: np.ndarray,
                     reduced: np.ndarray) -> np.ndarray:
    """||c_j - Phi u_j||^2 for the columns c_j of centered and u_j of
    reduced = Phi^T centered."""
    off = phi @ reduced
    np.subtract(centered, off, out=off)
    return np.einsum("ij,ij->j", off, off)


def reduce_points(x: np.ndarray, chart: AffineChart) -> np.ndarray:
    """Map data columns into reduced coordinates: Phi^T (x - b)."""
    x = as_matrix(x, "data")
    if x.shape[0] != chart.Phi.shape[0]:
        raise DimMismatch(
            f"data has {x.shape[0]} rows, chart expects {chart.Phi.shape[0]}")
    return chart.Phi.T @ (x - chart.b[:, None])


def lift_points(q: np.ndarray, chart: AffineChart) -> np.ndarray:
    """Columnwise lift of reduced points."""
    q = as_matrix(q, "reduced points")
    if q.shape[0] != chart.Phi.shape[1]:
        raise DimMismatch(
            f"points have dim {q.shape[0]}, chart expects {chart.Phi.shape[1]}")
    return chart.Phi @ q + chart.b[:, None]
