"""Blind simplex-structured matrix factorization via the maximum-volume
inscribed ellipsoid of the data convex hull."""

from . import cli, dimred, errors, hull, metrics, mvie, numerics, recovery, synth
from .dimred import AffineChart, affine_fit, reduce_points
from .hull import HPolytope, enumerate_facets
from .metrics import rms_angle_error, snr_of
from .mvie import (
    Ellipsoid,
    FpgmConfig,
    check_john,
    solve_mvie,
    solve_mvie_high_accuracy,
)
from .recovery import RecoveryReport, recover_abundances, run_pipeline
from .synth import GroundTruth, make_instance

__version__ = "0.1.0"

__all__ = [
    "AffineChart",
    "Ellipsoid",
    "FpgmConfig",
    "GroundTruth",
    "HPolytope",
    "RecoveryReport",
    "affine_fit",
    "check_john",
    "cli",
    "dimred",
    "enumerate_facets",
    "errors",
    "hull",
    "make_instance",
    "metrics",
    "mvie",
    "numerics",
    "recover_abundances",
    "recovery",
    "reduce_points",
    "rms_angle_error",
    "run_pipeline",
    "snr_of",
    "solve_mvie",
    "solve_mvie_high_accuracy",
    "synth",
]
