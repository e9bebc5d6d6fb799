"""The names the benchmark in perfbench/ looks up in the package.

perfbench/probe.py wraps the (module, attribute) pairs it lists, and
perfbench/run.py calls the functions and reads the fields below.
Renaming any of them breaks the benchmark, not the package, so they are
held here.
"""

import dataclasses
import importlib
import os
import sys

import pytest

import mviefact

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

# what perfbench/run.py calls, beside what probe.py wraps
CALLED = [("cli", "read_matrix_csv"), ("cli", "write_matrix_csv"),
          ("synth", "make_instance"), ("recovery", "run_pipeline"),
          ("mvie", "check_john"), ("errors", "MviefactError")]


@pytest.fixture(scope="module")
def probe():
    # probe.py only defines names; run.py is not imported, as it sets
    # BLAS environment variables on import
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("probe")
    finally:
        sys.path.remove(PERFBENCH)


def test_looked_up_attributes_exist(probe):
    pairs = [(mod, attr) for mod, attr, _ in probe.SPANS + probe.COUNTERS]
    assert ("mvie", "eig_sym") in pairs
    missing = [f"{mod}.{attr}" for mod, attr in pairs + CALLED
               if not hasattr(getattr(mviefact, mod), attr)]
    assert missing == []


@pytest.mark.parametrize("cls,names", [
    (mviefact.recovery.RecoveryReport,
     {"A_hat", "S_hat", "center_ambient", "contacts_ambient",
      "contacts_reduced", "ellipsoid", "n_facets", "raw_contact_count",
      "solver"}),
    (mviefact.mvie.SolveDiagnostics,
     {"iterations", "backtracks", "restarts", "termination"}),
    (mviefact.mvie.JohnCertificate, {"residual"}),
    (mviefact.mvie.Ellipsoid, {"F", "c"}),
    (mviefact.hull.HPolytope, {"normals", "offsets", "eps_hull"}),
], ids=lambda v: getattr(v, "__name__", ""))
def test_fields_read_by_the_benchmark(cls, names):
    assert names <= {f.name for f in dataclasses.fields(cls)}
