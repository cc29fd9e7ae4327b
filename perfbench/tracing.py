"""In-memory span tracer and the wrappers that time calls into carlemanlab.

The benchmark measures every layer from outside: ``instrument`` replaces the
public functions of each carlemanlab module (and a few methods on their
classes) with wrappers that open and close spans, and undoes every
replacement when the returned callable is invoked.  A name imported into
several modules is replaced in each of them, so ``from .x import f`` callers
are traced too.  Nothing under ``src/`` is edited.

Spans record name, start, end and parent index; all spans of one child run
share the tracer's ``run_id``.  They stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import time
from collections import defaultdict
from typing import Callable

#: layers in the order they appear in reports; ``setup`` and ``bench`` are the
#: benchmark's own spans (process start to inputs built, and its glue)
LAYERS = (
    "setup", "propagator", "carleman", "nonlinear_ode", "bounds",
    "pde", "stencil", "cost", "cli", "bench",
)

#: (module, attribute) -> span name, for plain functions
FUNCTION_SPANS = {
    ("stencil", "build_laplacian_1d"): "stencil.laplacian",
    ("stencil", "build_laplacian_dd"): "stencil.laplacian",
    ("pde", "discretize"): "pde.discretize",
    ("pde", "stability_report"): "pde.stability_report",
    ("nonlinear_ode", "lambda0"): "nonlinear_ode.lambda0",
    ("nonlinear_ode", "operator_spectral_norm"): "nonlinear_ode.spectral_norm",
    ("nonlinear_ode", "fm_spectral_norm"): "nonlinear_ode.spectral_norm",
    ("nonlinear_ode", "reference_solve"): "nonlinear_ode.reference",
    ("propagator", "taylor_step"): "propagator.step",
    ("bounds", "make_bound_report"): "bounds.report",
    ("bounds", "component_error_bound"): "bounds.component",
    ("cost", "pde_cost_estimate"): "cost.estimate",
    ("cost", "ode_cost_estimate"): "cost.estimate",
    ("cost", "prior_work_comparison"): "cost.prior_work",
    ("cli", "main"): "cli.main",
    ("cli", "write_csv"): "cli.write",
    ("cli", "write_json"): "cli.write",
}

#: (module, class, method) -> span name
METHOD_SPANS = {
    ("stencil", "LaplacianOperator", "sparse"): "stencil.laplacian",
    ("stencil", "LaplacianOperator", "dense"): "stencil.laplacian",
    ("carleman", "CarlemanMatrix", "apply"): "carleman.apply",
}


class Tracer:
    """Spans and counters of one child run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.fallback_cases: set[tuple] = set()
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic() if start is None else start, None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def timed(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


def _has_ancestor(spans: list, idx: int, names: tuple[str, ...]) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans: list) -> dict[str, dict]:
    """Per span name: call count, outermost inclusive total, per-call median.

    ``total`` counts only calls with no ancestor of the same name, so a
    recursive or nested call is not timed twice.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    totals: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        durations[name].append(end - start)
        if not _has_ancestor(spans, idx, (name,)):
            totals[name] += end - start
    return {
        name: {"calls": len(d), "total": totals[name], "median": statistics.median(d)}
        for name, d in durations.items()
    }


def layer_self_times(spans: list) -> dict[str, float]:
    """Self time summed per layer (the span name up to its first dot)."""
    out = {layer: 0.0 for layer in LAYERS}
    for (name, *_), value in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + value
    return out


def operator_applications_in_evolve(spans: list) -> int:
    """Matvecs (assembled or structured) made inside ``propagator.evolve``."""
    return sum(
        1 for idx, (name, *_) in enumerate(spans)
        if name in ("carleman.matvec", "carleman.apply")
        and _has_ancestor(spans, idx, ("propagator.evolve",))
    )


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def _package_modules() -> dict[str, object]:
    package = importlib.import_module("carlemanlab")
    modules = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"carlemanlab.{info.name}")
    return modules


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public calls of every layer; returns the function that undoes it."""
    from carlemanlab.errors import NumericFailure

    modules = _package_modules()
    undo: list[tuple[object, str, object]] = []

    def replace(owner: object, attr: str, new: object) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_everywhere(module: str, attr: str, make: Callable) -> None:
        original = getattr(modules[module], attr)
        wrapped = make(original)
        for mod in modules.values():
            if getattr(mod, attr, None) is original:
                replace(mod, attr, wrapped)

    for (module, attr), span in FUNCTION_SPANS.items():
        replace_everywhere(module, attr, functools.partial(tracer.timed, span))
    for (module, cls_name, attr), span in METHOD_SPANS.items():
        cls = getattr(modules[module], cls_name)
        replace(cls, attr, tracer.timed(span, getattr(cls, attr)))

    def wrap_assemble(original):
        @functools.wraps(original)
        def assemble(*args, **kwargs):
            idx = tracer.open("carleman.assemble")
            try:
                mat = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.record_max("carleman.total_dimension", mat.total_dimension)
            return mat

        return assemble

    def wrap_evolve(original):
        @functools.wraps(original)
        def evolve(*args, **kwargs):
            idx = tracer.open("propagator.evolve")
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            norms = result.step_norms
            tracer.counts["propagator.steps"] += result.n_steps
            tracer.record_max("propagator.growth_max", float(norms.max() / norms[0]))
            return result

        return evolve

    def wrap_f_closed(original):
        @functools.wraps(original)
        def f_closed(j, k, M, tau):
            try:
                return original(j, k, M, tau)
            except NumericFailure:
                tracer.fallback_cases.add((j, k, M))
                raise

        return f_closed

    replace_everywhere("carleman", "assemble", wrap_assemble)
    replace_everywhere("propagator", "evolve", wrap_evolve)
    replace_everywhere("bounds", "f_closed", wrap_f_closed)

    timed_classes: dict[type, type] = {}

    def timed_operator(op):
        """Swap the class of an assembled operator so each ``@`` is a span."""
        base = type(op)
        if base not in timed_classes:
            def matmul(self, other):
                idx = tracer.open("carleman.matvec")
                try:
                    return base.__matmul__(self, other)
                finally:
                    tracer.close(idx)

            timed_classes[base] = type(f"Timed{base.__name__}", (base,), {"__matmul__": matmul})
        op.__class__ = timed_classes[base]
        return op

    matrix_cls = modules["carleman"].CarlemanMatrix
    original_to_sparse = matrix_cls.to_sparse

    @functools.wraps(original_to_sparse)
    def to_sparse(self, *args, **kwargs):
        idx = tracer.open("carleman.to_sparse")
        try:
            op = original_to_sparse(self, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.record_max("carleman.nnz", op.nnz)
        # CSR arrays read once plus the input and output vectors
        moved = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes + 2 * 8 * op.shape[0]
        tracer.record_max("carleman.matvec_bytes", moved)
        return timed_operator(op)

    replace(matrix_cls, "to_sparse", to_sparse)

    ode_cls = modules["nonlinear_ode"].NonlinearODE
    original_rhs = ode_cls.rhs

    @functools.wraps(original_rhs)
    def rhs(self, u):
        tracer.counts["nonlinear_ode.rhs_evals"] += 1
        return original_rhs(self, u)

    replace(ode_cls, "rhs", rhs)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
