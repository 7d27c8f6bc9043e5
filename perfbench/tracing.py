"""Layer tracing for the traced benchmark run.

``Tracer.install()`` replaces module attributes that ``framefieldops`` and the
benchmark already look up at call time with timing wrappers, and
``Tracer.uninstall()`` puts the originals back.  Nothing inside the package is
edited: the wrappers sit at the boundary between the benchmark and a public
function, or between two package modules (for example ``framefieldops.solve``
calling scipy through its ``spla`` name).

Spans are kept in memory as (name, start, end, parent) and turned into
per-layer totals by :meth:`Tracer.layer_metrics`.  A span's self time is its
duration minus the durations of its direct child spans.
"""

import inspect
import time
from collections import Counter, defaultdict

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as scipy_spla

import framefieldops
import framefieldops.apps
import framefieldops.fem
import framefieldops.framefield
import framefieldops.solve

# (module, attribute, span name).  Package-level names are the ones the
# benchmark calls; the others are the names package modules call each other by.
WRAPPED = [
    (framefieldops, "apply_dirichlet_partition", "fem.apply_dirichlet_partition"),
    (framefieldops.fem, "build_mixed_system", "fem.build_mixed_system"),
    (framefieldops.fem, "projected_middle_blocks", "fem.projected_middle_blocks"),
    (framefieldops.fem, "gradient_matrix", "fem.gradient_matrix"),
    (framefieldops.fem, "compute_measures", "geometry.compute_measures"),
    (framefieldops.framefield, "compute_measures", "geometry.compute_measures"),
    (framefieldops, "refine_uniform", "geometry.refine_uniform"),
    (framefieldops, "harmonic_cross_field_2d", "framefield.harmonic_cross_field_2d"),
    (framefieldops, "resample_field", "framefield.resample_field"),
    (framefieldops, "helical_field_3d", "framefield.helical_field_3d"),
    (framefieldops, "build_embedding", "apps.build_embedding"),
    (framefieldops, "distance_field", "apps.distance_field"),
    (framefieldops, "trace_descent_path", "apps.trace_descent_path"),
    (framefieldops, "color_by_boundary", "apps.color_by_boundary"),
    (framefieldops.solve, "solve_spd", "solve.solve_spd"),
    (framefieldops.solve, "eigh", "solve.eigh"),
]

# Inclusive span totals reported per layer, by span name.
SPAN_METRICS = {
    "solve.eigs_generalized": "solve.eigs_generalized_s",
    "solve.eigh": "solve.eigh_s",
    "solve.splu": "solve.splu_s",
    "solve.solve_spd": "solve.solve_spd_s",
    "solve.spilu": "solve.spilu_s",
    "solve.cg": "solve.cg_s",
    "solve.solve_box_qp": "solve.solve_box_qp_s",
    "fem.assemble_operator": "fem.assemble_operator_s",
    "fem.build_mixed_system": "fem.build_mixed_system_s",
    "fem.gradient_matrix": "fem.gradient_matrix_s",
    "fem.projected_middle_blocks": "fem.projected_middle_blocks_s",
    "fem.apply_dirichlet_partition": "fem.apply_dirichlet_partition_s",
    "geometry.refine_uniform": "geometry.refine_uniform_s",
    "geometry.compute_measures": "geometry.compute_measures_s",
    "framefield.harmonic_cross_field_2d": "framefield.harmonic_cross_field_2d_s",
    "framefield.resample_field": "framefield.resample_field_s",
    "framefield.helical_field_3d": "framefield.helical_field_3d_s",
    "apps.build_embedding": "apps.build_embedding_s",
    "apps.distance_field": "apps.distance_field_s",
    "apps.trace_descent_path": "apps.trace_descent_path_s",
    "apps.color_by_boundary": "apps.color_by_boundary_s",
}

# Self times (span minus direct child spans), by span name.
SELF_METRICS = {
    "solve.eigs_generalized": "solve.eigs_self_s",
    "fem.assemble_operator": "fem.assemble_self_s",
}

# Number of spans, by span name.
CALL_METRICS = {
    "solve.eigh": "solve.eigh_calls",
    "solve.splu": "solve.splu_calls",
    "solve.lu_solve": "solve.lu_solves",
}

# Work counted by the wrappers.
COUNT_METRICS = (
    "fem.operator_nnz",
    "solve.lu_fill_nnz",
    "solve.cg_iterations",
    "solve.cg_fallbacks",
    "solve.qp_iterations",
    "solve.qp_capped",
)

_VALIDATE_RTOL = inspect.signature(
    framefieldops.EigenResult.validate
).parameters["rtol"].default


def residual_ratio(result, A, M_diag):
    """Worst eigenpair residual over the bound ``EigenResult.validate`` applies."""
    A = getattr(A, "matrix", A)
    norm_a = scipy_spla.norm(A, np.inf) if sparse.issparse(A) else np.linalg.norm(A, np.inf)
    norm_m = float(np.max(np.abs(M_diag)))
    bound = _VALIDATE_RTOL * (norm_a + np.abs(result.values) * norm_m)
    return float(np.max(result.residuals / bound))


class _Factor:
    """SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solve.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSparseLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``framefieldops.solve``."""

    def __init__(self, tracer):
        self._tracer = tracer

    def splu(self, *args, **kwargs):
        t = self._tracer
        with t.span("solve.splu"):
            lu = scipy_spla.splu(*args, **kwargs)
        t.counts["solve.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz
        return _Factor(lu, t)

    def spilu(self, *args, **kwargs):
        with self._tracer.span("solve.spilu"):
            return scipy_spla.spilu(*args, **kwargs)

    def cg(self, *args, callback=None, **kwargs):
        t = self._tracer

        def count(xk):
            t.counts["solve.cg_iterations"] += 1
            if callback is not None:
                callback(xk)

        with t.span("solve.cg"):
            x, info = scipy_spla.cg(*args, callback=count, **kwargs)
        if info != 0:
            t.counts["solve.cg_fallbacks"] += 1
        return x, info

    def __getattr__(self, name):
        return getattr(scipy_spla, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


class Tracer:
    """Timing wrappers around package boundaries, with in-memory spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.residual_ratios = []
        self._saved = []

    def span(self, name):
        return _Span(self, name)

    def reset(self):
        """Drop the spans and counts of the previous pass."""
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.residual_ratios = []

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _eigs(self, fn):
        def wrapper(A, M_diag, k, *args, **kwargs):
            with self.span("solve.eigs_generalized"):
                result = fn(A, M_diag, k, *args, **kwargs)
            self.residual_ratios.append(residual_ratio(result, A, M_diag))
            return result

        return wrapper

    def _assemble(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("fem.assemble_operator"):
                op = fn(*args, **kwargs)
            self.counts["fem.operator_nnz"] += op.matrix.nnz
            return op

        return wrapper

    def _box_qp(self, fn):
        def wrapper(*args, return_info=False, **kwargs):
            with self.span("solve.solve_box_qp"):
                x, info = fn(*args, return_info=True, **kwargs)
            self.counts["solve.qp_iterations"] += info["iterations"]
            self.counts["solve.qp_capped"] += not info["converged"]
            return (x, info) if return_info else x

        return wrapper

    def _replace(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPPED:
            self._replace(module, attr, self._timed(name, getattr(module, attr)))
        assemble = self._assemble(framefieldops.assemble_operator)
        self._replace(framefieldops, "assemble_operator", assemble)
        eigs = self._eigs(framefieldops.solve.eigs_generalized)
        self._replace(framefieldops, "eigs_generalized", eigs)
        self._replace(framefieldops.apps, "eigs_generalized", eigs)
        box_qp = self._box_qp(framefieldops.solve.solve_box_qp)
        self._replace(framefieldops.apps, "solve_box_qp", box_qp)
        self._replace(framefieldops.solve, "spla", _TracedSparseLinalg(self))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self):
        """Per-layer totals of the spans and counts recorded since ``reset``."""
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        out = {metric: total[name] for name, metric in SPAN_METRICS.items()}
        out.update({metric: self_time[name] for name, metric in SELF_METRICS.items()})
        out.update({metric: calls[name] for name, metric in CALL_METRICS.items()})
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        if self.residual_ratios:
            out["solve.eigs_worst_residual_ratio"] = max(self.residual_ratios)
        return out
