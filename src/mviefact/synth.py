"""Synthetic problem instances for blind simplex-factor recovery.

Observations follow X = A S + W: nonnegative spectral-like signature
columns in A, abundance columns of S drawn from a Dirichlet(1/N) and
rejected to a maximum Euclidean norm r (the purity knob), and optional
i.i.d. Gaussian noise at a target SNR in dB.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadDims,
    DimMismatch,
    InfeasiblePurity,
    LibraryTooSmall,
    ParameterError,
    RejectionStall,
)
from .numerics import as_matrix, rng_from_seed

__all__ = [
    "GroundTruth",
    "sample_endmembers",
    "check_purity",
    "check_snr",
    "sample_abundances",
    "assemble_dataset",
    "make_instance",
    "load_signature_library",
]

_MIN_PAIRWISE_ANGLE_DEG = 5.0


@dataclass(frozen=True)
class GroundTruth:
    """A generated instance together with everything used to make it."""

    A: np.ndarray          # M x N signatures
    S: np.ndarray          # N x L abundances, columns on the unit simplex
    X: np.ndarray          # M x L observations (A S plus noise)
    purity_r: float
    snr_db: float
    seed: int

    @property
    def noise(self) -> np.ndarray:
        return self.X - self.A @ self.S


def _min_pairwise_angle_deg(a: np.ndarray) -> float:
    norms = np.linalg.norm(a, axis=0)
    unit = a / norms
    cos = np.clip(unit.T @ unit, -1.0, 1.0)
    np.fill_diagonal(cos, -1.0)
    return math.degrees(math.acos(float(cos.max())))


def _smooth_signatures(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sums of 5-10 Gaussian bumps per column, rescaled into [0.05, 1]."""
    bands = np.arange(m, dtype=float)
    a = np.empty((m, n))
    for j in range(n):
        nb = int(rng.integers(5, 11))
        centers = rng.uniform(0.0, m - 1.0, size=nb)
        widths = rng.uniform(0.03 * m, 0.15 * m, size=nb)
        amps = rng.uniform(0.2, 1.0, size=nb)
        col = (amps[None, :] * np.exp(
            -0.5 * ((bands[:, None] - centers[None, :]) / widths[None, :]) ** 2
        )).sum(axis=1)
        lo, hi = col.min(), col.max()
        span = hi - lo if hi > lo else 1.0
        a[:, j] = 0.05 + 0.95 * (col - lo) / span
    return a


def sample_endmembers(m: int, n: int, seed: int,
                      library: np.ndarray | None = None) -> np.ndarray:
    """Draw N nonnegative signature columns, pairwise angle >= 5 degrees.

    With a library (M x K array, K >= N) the columns are a seeded random
    selection; without one, smooth synthetic signatures are generated.
    Candidate sets violating the minimum pairwise angle are redrawn.
    """
    if n > m:
        raise BadDims(f"need N <= M, got N={n}, M={m}")
    if n < 1:
        raise BadDims("need at least one signature")
    rng = rng_from_seed(seed)

    if library is not None:
        lib = as_matrix(library, "signature library")
        if lib.shape[0] != m:
            raise BadDims(f"library has {lib.shape[0]} bands, expected {m}")
        if lib.shape[1] < n:
            raise LibraryTooSmall(
                f"library has {lib.shape[1]} signatures, need {n}")

    for _ in range(1000):
        a = (_smooth_signatures(m, n, rng) if library is None
             else lib[:, rng.permutation(lib.shape[1])[:n]])
        if n == 1 or _min_pairwise_angle_deg(a) >= _MIN_PAIRWISE_ANGLE_DEG:
            return a
    if library is None:
        raise BadDims("could not generate sufficiently distinct signatures")
    raise LibraryTooSmall(
        "library does not contain N signatures separated by >= 5 degrees")


def check_purity(n: int, r: float) -> None:
    """Raise BadDims unless N >= 1 and InfeasiblePurity unless 1/sqrt(N)
    < r <= 1: any simplex point has norm >= 1/sqrt(N), r = 1 any draw."""
    if n < 1:
        raise BadDims(f"need N >= 1, got N={n}")
    lo = 1.0 / math.sqrt(n)
    if not (lo < r <= 1.0):
        raise InfeasiblePurity(
            f"purity r={r} outside ({lo:.6f}, 1] for N={n}")


def check_snr(snr_db: float) -> None:
    """Raise ParameterError unless the SNR is finite (dB) or +inf
    (noiseless): NaN would make X all NaN, and -inf is no noise level."""
    if not (math.isfinite(snr_db) or snr_db == math.inf):
        raise ParameterError(f"SNR must be finite dB or +inf, got {snr_db}")


def sample_abundances(n: int, l: int, r: float, seed: int) -> np.ndarray:
    """Dirichlet(1/N) columns rejected to Euclidean norm <= r."""
    if l < 1:
        raise BadDims(f"need L >= 1, got L={l}")
    check_purity(n, r)
    rng = rng_from_seed(seed)
    alpha = np.full(n, 1.0 / n)

    cols: list[np.ndarray] = []
    window_draws = 0
    window_accepts = 0
    batch = 4096
    while sum(c.shape[0] for c in cols) < l:
        draws = rng.dirichlet(alpha, size=batch)
        keep = draws[np.linalg.norm(draws, axis=1) <= r]
        cols.append(keep)
        window_draws += batch
        window_accepts += keep.shape[0]
        if window_draws >= 1_000_000:
            if window_accepts < 1e-4 * window_draws:
                raise RejectionStall(
                    f"acceptance rate {window_accepts / window_draws:.2e} "
                    f"below 1e-4 for r={r}, N={n}")
            window_draws = 0
            window_accepts = 0
    return np.concatenate(cols, axis=0)[:l].T


def assemble_dataset(a: np.ndarray, s: np.ndarray, snr_db: float,
                     seed: int, purity_r: float = 1.0) -> GroundTruth:
    """Form X = A S + W with white Gaussian W at the requested SNR.

    The noise variance is sigma^2 = sum_i ||A s_i||^2 / (M L 10^(SNR/10));
    snr_db = +inf yields W = 0 and X = A S exactly; any other SNR must be
    finite (check_snr).
    """
    check_snr(snr_db)
    a = as_matrix(a, "A")
    s = as_matrix(s, "S")
    if a.shape[1] != s.shape[0]:
        raise DimMismatch(
            f"inner dimensions disagree: A is {a.shape}, S is {s.shape}")
    x_clean = a @ s
    if math.isinf(snr_db):
        x = x_clean
    else:
        m, l = x_clean.shape
        signal = float(np.sum(x_clean * x_clean))
        sigma2 = signal / (m * l * 10.0 ** (snr_db / 10.0))
        rng = rng_from_seed(seed)
        x = x_clean + math.sqrt(sigma2) * rng.standard_normal((m, l))
    return GroundTruth(A=a, S=s, X=x, purity_r=purity_r,
                       snr_db=snr_db, seed=seed)


def make_instance(m: int, n: int, l: int, r: float, snr_db: float, seed: int,
                  library: np.ndarray | None = None) -> GroundTruth:
    """Full generator: signatures, purity-controlled abundances, noise.

    S is re-drawn (with a shifted sub-seed) in the unlikely event its
    smallest singular value falls below 1e-8, so the full-row-rank
    assumption holds on every returned instance; L < N raises BadDims,
    as no N x L matrix then has full row rank, and a negative seed
    ParameterError.
    """
    if l < n:
        raise BadDims(f"need L >= N for S of full row rank, got L={l}, N={n}")
    if seed < 0:
        raise ParameterError(f"need seed >= 0, got seed={seed}")
    sub = np.random.SeedSequence(seed).generate_state(3)
    a = sample_endmembers(m, n, int(sub[0]), library=library)
    s_seed = int(sub[1])
    for _ in range(100):
        s = sample_abundances(n, l, r, s_seed)
        if np.linalg.svd(s, compute_uv=False)[-1] > 1e-8:
            break
        s_seed += 1
    else:  # pragma: no cover - essentially impossible for L >= N
        raise RejectionStall("could not draw a full-row-rank abundance matrix")
    gt = assemble_dataset(a, s, snr_db, int(sub[2]), purity_r=r)
    return replace(gt, seed=seed)


def load_signature_library(path) -> tuple[list[str], np.ndarray]:
    """Read a signature CSV: header ``band,name1,...,nameK``, one band per row.

    Returns (names, M x K array of nonnegative reflectances). An empty
    file, a non-numeric or non-finite cell or a ragged row raises OSError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = [c.strip() for c in next(reader)[1:]]
            rows = [[float(v) for v in row[1:]] for row in reader if row]
            lib = np.asarray(rows, dtype=float)
            if not np.isfinite(lib).all():
                raise ValueError("non-finite cell")
        except (StopIteration, ValueError) as exc:
            raise OSError(f"malformed signature library {path}: "
                          f"{exc or 'empty file'}") from exc
    if not names or not rows:
        raise LibraryTooSmall(f"signature library {path} is empty")
    if lib.shape[1] != len(names):
        raise BadDims("library rows disagree with header width")
    if (lib < 0).any():
        raise BadDims("library reflectances must be nonnegative")
    return names, lib
