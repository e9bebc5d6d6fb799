"""Affine set fitting and the coordinate maps between ambient and
reduced space.

For data spanning an (N-1)-dimensional affine set, the chart (Phi, b)
with semi-orthonormal Phi maps reduced coordinates u to Phi u + b, and
Phi^T (x - b) inverts it on the affine hull. Volumes are preserved
because det(Phi^T Phi) = 1.

The fit takes Phi from the small triangular factor of the centred data
rather than from the data itself (Chan's R-SVD, ACM TOMS 8(1), 1982):
with C^T = Q R, C = R^T Q^T has the left singular vectors and singular
values of R^T, an M x min(M, L) matrix, and no L-long right singular
vectors are formed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd

from .errors import BadDims, DimMismatch, RankDeficientData
from .numerics import as_matrix

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


def affine_fit(x: np.ndarray, n: int) -> AffineChart:
    """Fit the (N-1)-dimensional affine hull of the data columns.

    b is the column mean and Phi holds the top N-1 left singular
    vectors of the centered data C, taken from the SVD of R^T for the
    triangular factor R of C^T. Raises RankDeficientData when the
    centered data does not carry N-1 directions (relative singular
    value below 1e-10). The chart carries the fit's residual, the
    largest distance of a column from the fitted affine set.

    It warns when the residual exceeds 1e-8 relative and the first
    discarded singular value s_N stands out from all k = min(M, L-1) -
    (N-1) discarded ones: s_N^2 > 1.5 sigma^2 (sqrt(L) + sqrt(k))^2 for
    sigma^2 = sum_{j>=N} s_j^2 / (L k), 1.5 times the Marchenko-Pastur
    edge of isotropic noise (notes/decisions.md). With k = 1 it cannot.
    """
    return _fit(x, n)[0]


def _fit(x: np.ndarray, n: int) -> tuple[AffineChart, np.ndarray]:
    """affine_fit, and the data in the chart's reduced coordinates,
    Phi^T C for the centered data C: the residual needs that product, so
    reduce_points need not center the data again. R comes from LAPACK's
    dgeqrf on C^T, a Fortran-ordered view of C, and the SVD of R^T from
    dgesdd."""
    x = as_matrix(x, "data")
    m, l = x.shape
    if l < n:
        raise BadDims(f"need L >= N, got L={l}, N={n}")
    if m < n - 1:
        raise BadDims(f"need M >= N-1, got M={m}, N={n}")
    if n < 2:
        raise BadDims("need N >= 2 for a nontrivial affine fit")
    b = x.mean(axis=1)
    centered = x - b[:, None]
    qr, _, _, _ = dgeqrf(centered.T)
    u, s, _, info = dgesdd(np.triu(qr[:min(m, l)]).T, full_matrices=0)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    phi, tail, s = u[:, :n - 1], s[n - 1:min(m, l - 1)], s[:n - 1]
    if s[0] <= 0.0 or s[-1] < 1e-10 * s[0]:
        raise RankDeficientData(
            f"centered data is rank deficient: singular values {s}")
    reduced = phi.T @ centered
    res = _largest_offset(centered, phi, reduced)
    k = tail.size
    if (k > 0 and tail[0] ** 2 > 1.5 * float(tail @ tail) / (l * k)
            * (math.sqrt(l) + math.sqrt(k)) ** 2
            and res > 1e-8 * max(
                float(np.linalg.norm(centered, axis=0).max()), 1e-300)):
        warnings.warn(
            f"affine fit residual {res:.3e} exceeds 1e-8 relative and the "
            "first discarded direction stands above the noise; the data "
            f"may hold more than N={n} signatures",
            stacklevel=3)
    return AffineChart(Phi=phi, b=b, residual=res), reduced


def fit_residual(chart: AffineChart, x: np.ndarray) -> float:
    """Largest distance of any column from the chart's affine set."""
    x = as_matrix(x, "data")
    centered = x - chart.b[:, None]
    return _largest_offset(centered, chart.Phi, chart.Phi.T @ centered)


def _largest_offset(centered: np.ndarray, phi: np.ndarray,
                    reduced: np.ndarray) -> float:
    """max_j ||c_j - Phi u_j|| for the columns c_j of centered and u_j of
    reduced = Phi^T centered, computed in one buffer: a fresh array of
    the data's size costs more than the arithmetic on it."""
    off = phi @ reduced
    np.subtract(centered, off, out=off)
    np.multiply(off, off, out=off)
    return math.sqrt(float(np.add.reduce(off, axis=0).max()))


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
