"""Spans and counters around the public functions run_pipeline calls.

The probe replaces module attributes at the places where the pipeline
looks them up (``mviefact.hull.enumerate_facets``,
``mviefact.mvie.eig_sym`` and so on) and puts the originals back on
``close``. Nothing inside the package changes. Spans stay in memory
until the benchmark writes them out at its end.

Untraced, the probe wraps only ``enumerate_facets``, to keep the facets
the checks need; that adds one Python call per pipeline run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# (module, attribute, span name). Calls nested in a span of the same
# layer (affine_fit calls fit_residual) are not counted twice.
SPANS = [
    ("dimred", "affine_fit", "dimred.affine_fit"),
    ("dimred", "reduce_points", "dimred.reduce_points"),
    ("dimred", "fit_residual", "dimred.fit_residual"),
    ("hull", "enumerate_facets", "hull.enumerate"),
    ("hull", "ConvexHull", "hull.qhull"),
    ("mvie", "solve_mvie_high_accuracy", "mvie.solve"),
    ("mvie", "solve_mvie", "mvie.stage"),
    ("recovery", "find_contacts", "recovery.contacts"),
    ("recovery", "consolidate_contacts", "recovery.contacts"),
    ("recovery", "recover_abundances", "recovery.abundances"),
]
# (module, attribute, counter name): called thousands of times per run,
# so only counted.
COUNTERS = [
    ("mvie", "eig_sym", "eigh_calls"),
    ("mvie", "objective_and_grad", "grad_calls"),
]


@dataclass
class Op:
    """What the probe saw during one pipeline run."""

    op_id: int
    spans: list[tuple[int, int | None, str, float, float]] = field(
        default_factory=list)         # (span id, parent id, name, t0, t1)
    counts: dict[str, int] = field(default_factory=dict)
    poly: object = None               # enumerate_facets' return value
    qhull_facets: int = 0
    stage_terminations: list[str] = field(default_factory=list)

    def layer_seconds(self, prefix: str) -> float:
        """Total time in spans named ``prefix``* whose parent is not."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        return sum(t1 - t0 for _, parent, name, t0, t1 in self.spans
                   if name.startswith(prefix)
                   and not names.get(parent, "").startswith(prefix))


class Probe:
    def __init__(self, package, trace: bool):
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._next_span = 0
        self.op: Op | None = None
        self.ops: list[Op] = []
        if not trace:
            self._patch(package.hull, "enumerate_facets",
                        self._capture(package.hull.enumerate_facets))
            return
        for mod, attr, name in SPANS:
            module = getattr(package, mod)
            self._patch(module, attr, self._span(getattr(module, attr), name))
        for mod, attr, name in COUNTERS:
            module = getattr(package, mod)
            self._patch(module, attr, self._count(getattr(module, attr), name))

    def _patch(self, module, attr, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin(self, op_id: int) -> Op:
        self.op = Op(op_id)
        self.ops.append(self.op)
        return self.op

    def _capture(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.op.poly = result
            return result
        return wrapper

    def _count(self, fn, name):
        def wrapper(*args, **kwargs):
            counts = self.op.counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, name):
        def wrapper(*args, **kwargs):
            sid = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.op.spans.append((sid, parent, name, t0, t1))
            self._observe(name, result)
            return result
        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "hull.enumerate":
            self.op.poly = result
        elif name == "hull.qhull":
            self.op.qhull_facets += result.equations.shape[0]
        elif name == "mvie.stage":
            self.op.stage_terminations.append(result[1].termination)

    def spans_json(self) -> list[dict]:
        return [{"op": op.op_id, "id": sid, "parent": parent, "name": name,
                 "start": t0, "end": t1}
                for op in self.ops for sid, parent, name, t0, t1 in op.spans]
