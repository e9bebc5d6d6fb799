"""Evaluation metrics: permutation-aligned RMS angle error and SNR."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, ZeroColumn
from .numerics import as_matrix, binary_exponent

__all__ = ["TrialResult", "rms_angle_error", "snr_of"]


@dataclass
class TrialResult:
    """One bench trial: parameters, error, and per-stage runtimes."""

    seed: int
    N: int
    M: int
    L: int
    r: float
    snr_db: float
    status: str = "ok"
    rms_angle_deg: float = math.nan
    permutation: tuple[int, ...] = ()
    K_facets: int = 0
    # the solve's figures, as in the run JSON; empty on a failed trial
    diagnostics: dict = field(default_factory=dict)
    runtimes_sec: dict[str, float] = field(default_factory=dict)


def rms_angle_error(a, a_hat) -> tuple[float, tuple[int, ...]]:
    """Permutation-minimized RMS of the column angles, in degrees.

    phi = min over permutations pi of
          sqrt( (1/N) sum_i angle^2(a_i, ahat_{pi(i)}) ),

    each angle taken as 2 arcsin(||u - v|| / 2) between the unit columns:
    arccos of their inner product cannot resolve angles below about 1e-8
    rad, where the cosine rounds to 1.

    The minimizing permutation solves a linear assignment problem on
    the squared angles. Returns (phi_deg, permutation), where
    permutation[i] is the column of a_hat matched to column i of a.
    """
    a = as_matrix(a, "A")
    b = as_matrix(a_hat, "A_hat")
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[1]
    # each column is divided by its largest entry before its norm is
    # taken, so the norm neither overflows nor underflows at any scale
    peak_a = np.abs(a).max(axis=0)
    peak_b = np.abs(b).max(axis=0)
    if peak_a.min() <= 0.0 or peak_b.min() <= 0.0:
        raise ZeroColumn("angle error undefined for zero columns")
    ua = a / peak_a
    ub = b / peak_b
    ua /= np.linalg.norm(ua, axis=0)
    ub /= np.linalg.norm(ub, axis=0)
    # ang2[i, j]: squared angle between a_i and ahat_j
    chord = np.linalg.norm(ua[:, :, None] - ub[:, None, :], axis=0)
    ang2 = (2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))) ** 2

    # imported on use: scipy.optimize adds about 0.15 s to the package import
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(ang2)
    best = ang2[rows, cols].sum()
    return math.degrees(math.sqrt(best / n)), tuple(cols.tolist())


def snr_of(x_clean, w_noise) -> float:
    """Realized signal-to-noise ratio in dB: ||X||^2 / ||W||^2.

    Matches the generator's definition with the empirical noise second
    moment in place of the nominal variance. Returns +inf for zero noise
    and -inf for a zero signal with nonzero noise.
    Both are divided by one power of two, from the larger peak, before
    they are squared, so the ratio neither overflows nor underflows at
    any scale and snr_of(2^j x, 2^j w) is snr_of(x, w).
    """
    x = as_matrix(x_clean, "X_clean")
    w = as_matrix(w_noise, "W_noise")
    if x.shape != w.shape:
        raise DimMismatch(f"shape mismatch: {x.shape} vs {w.shape}")
    k = binary_exponent(x, w)
    x, w = np.ldexp(x, -k), np.ldexp(w, -k)
    noise = float(np.sum(w * w))
    if noise == 0.0:
        return math.inf
    signal = float(np.sum(x * x))
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / noise)
