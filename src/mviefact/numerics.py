"""Dense linear-algebra primitives shared across the package.

Matrices throughout the package are plain float64 ``numpy.ndarray``
objects in row-major layout; every public operation validates shape and
finiteness on entry. This module provides the shared primitives: a
symmetric eigendecomposition and the package-wide random generator.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BadRank, ConvergenceFailure, NonSquare, NotFinite

__all__ = [
    "EigSymResult",
    "as_matrix",
    "as_vector",
    "eig_sym",
    "rng_from_seed",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    """Package-wide RNG: Philox (counter-based, 64-bit), portable streams."""
    return np.random.Generator(np.random.Philox(seed))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries.

    One max and one min see them all: NaN reaches both, +inf the max and
    -inf the min, and no array of the input's size is formed."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise BadRank(f"{name} must be 2-D, got ndim={a.ndim}")
    if not (math.isfinite(a.max(initial=0.0))
            and math.isfinite(a.min(initial=0.0))):
        raise NotFinite(f"{name} contains NaN or Inf")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise NotFinite(f"{name} contains NaN or Inf")
    return v


class EigSymResult(NamedTuple):
    eigenvalues: np.ndarray   # sorted descending
    eigenvectors: np.ndarray  # orthogonal, column i pairs with eigenvalue i


def eig_sym(a) -> EigSymResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (A + A^T)/2 before factorization;
    asymmetry beyond 1e-8 * max(1, ||A||) is rejected.
    """
    a = as_matrix(a, "eig_sym input")
    n, m = a.shape
    if n != m:
        raise NonSquare(f"eig_sym needs a square matrix, got {n}x{m}")
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.linalg.norm(a - a.T) > 1e-8 * scale:
        raise NonSquare("matrix is not symmetric within tolerance")
    sym = 0.5 * (a + a.T)
    try:
        w, u = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    return EigSymResult(w[order], u[:, order])
