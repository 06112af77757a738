"""Span tracer for traced benchmark runs, installed from outside the program.

`Tracer.install()` wraps every public function of the ergodica layer
modules, a few methods, and the SciPy SuperLU entry points the program
calls (`splu`, `spsolve`, `SuperLU.solve`). Each wrapper is put in place of
the original object under every name that refers to it, in every
`ergodica.*` namespace and in `scipy.sparse.linalg`, so `from .x import f`
and `sparse.linalg.spsolve` are both covered and a function that moves
between modules is still found. Spans are timed only inside `run_sweep`.

A span's self time is its duration minus the time of the spans it called,
so the self times of all spans partition the `run_sweep` span exactly.

Each entry of LAYER_METRICS names a per-layer metric, its unit, which way
is better, and the end-to-end metric and workload it should move.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict, namedtuple

LAYERS = ("coeff", "stencils", "torus", "effective", "domain", "eigen",
          "corrector", "cli")
ROOT = "cli.run_sweep"
# span name -> (module, class, method)
METHODS = {
    "coeff.sample": ("ergodica.coeff", "CoefficientField", "sample"),
    "stencils.interp.build": ("ergodica.stencils", "TorusInterpolant",
                              "__init__"),
    "stencils.interp.eval": ("ergodica.stencils", "TorusInterpolant",
                             "__call__"),
}
SCIPY = {"superlu.factor": "splu", "superlu.spsolve": "spsolve"}
# nested-span counters: counter -> (span, enclosing span)
NESTED = {
    "torus.howard_sweeps": ("torus.solve_cell", "torus.solve_nonlinear_cell"),
    "eigen.howard_outer": ("eigen.principal_eigenpair",
                           "eigen.principal_eigenpair_bellman"),
}
LINEAR_ROW_SPANS = ("corrector.pivot_problem", "corrector.boundary_correctors",
                    "corrector.second_corrector", "corrector.third_corrector")


class _SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class _TracedLU:
    """SuperLU factor whose `solve` is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_SpanStats)
        self.counters = defaultdict(float)
        self.wrapped = set()
        self.missing = []
        self._stack = []  # child time accumulated by each open span
        self._open = defaultdict(int)  # open spans per name

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Traced version of `fn`; `after(result, args)` may replace the result."""
        tracer = self
        nested = [counter for counter, (inner, _) in NESTED.items()
                  if inner == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack and name != ROOT:
                return fn(*args, **kwargs)
            for counter in nested:
                if tracer._open[NESTED[counter][1]]:
                    tracer.counters[counter] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._open[name] -= 1
                tracer._stack.pop()
                st = tracer.stats[name]
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if after is not None:
                result = after(result, args)
            return result

        self.wrapped.add(name)
        return traced

    def _after_factor(self, lu, args):
        self.counters["superlu.factor_nnz"] += lu.nnz
        self.counters["superlu.matrix_nnz"] += args[0].nnz
        return _TracedLU(lu, self.wrap("superlu.solve", lu.solve))

    def _after_eigenpair(self, pair, args):
        self.counters["eigen.iterations"] += getattr(pair, "iterations", 0)
        return pair

    def _after_sweep(self, report, args):
        self.counters["cli.rows_s"] += sum(row.get("seconds", 0.0)
                                           for row in report.rows)
        return report

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layers in place; returns the names of missing spans."""
        import ergodica
        import scipy.sparse.linalg as spla

        after = {ROOT: self._after_sweep,
                 "eigen.principal_eigenpair": self._after_eigenpair,
                 "superlu.factor": self._after_factor}
        originals = {}  # id -> (original, wrapper)

        def add(name, fn):
            originals[id(fn)] = (fn, self.wrap(name, fn, after.get(name)))

        # the benchmark calls ergodica.run_sweep, wherever it is defined
        add(ROOT, ergodica.run_sweep)
        for layer in LAYERS:
            mod = importlib.import_module(f"ergodica.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and id(obj) not in originals):
                    add(f"{layer}.{attr}", obj)
        for name, attr in SCIPY.items():
            add(name, getattr(spla, attr))

        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "ergodica" or key.startswith("ergodica.")]
        for mod in namespaces + [spla]:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        for name, (module, cls, method) in METHODS.items():
            owner = getattr(sys.modules.get(module), cls, None)
            fn = getattr(owner, method, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, method, self.wrap(name, fn))

        self.missing = sorted(required_spans() - self.wrapped)
        return self.missing

    # -- results ----------------------------------------------------------

    def module_self(self):
        """Self time per layer (the span-name prefix), superlu included."""
        out = defaultdict(float)
        for name, st in self.stats.items():
            out[name.split(".")[0]] += st.self_time
        return out

    def metrics(self):
        """Every per-layer metric except trace.overhead_s, by name."""
        return {m.name: float(m.value(self)) for m in LAYER_METRICS
                if m.value is not None}


def _calls(span):
    return lambda t: t.stats[span].calls if span in t.stats else 0


def _total(span):
    return lambda t: t.stats[span].total if span in t.stats else 0.0


def _self(span):
    return lambda t: t.stats[span].self_time if span in t.stats else 0.0


def _counter(key):
    return lambda t: t.counters.get(key, 0.0)


def _module_self(layer):
    return lambda t: t.module_self().get(layer, 0.0)


def _fill(t):
    a = t.counters.get("superlu.matrix_nnz", 0.0)
    return t.counters.get("superlu.factor_nnz", 0.0) / a if a else 0.0


def _solves_per_factor(t):
    factors = _calls("superlu.factor")(t) + _calls("superlu.spsolve")(t)
    solves = _calls("superlu.solve")(t) + _calls("superlu.spsolve")(t)
    return solves / factors if factors else 0.0


# value(tracer) -> number; moves: the end-to-end metric and workload it
# should move; spans: the spans it reads, each must exist after install()
LayerMetric = namedtuple("LayerMetric", "name unit better value moves spans",
                         defaults=((),))
NLX = "corrector.nonlinear_expansion"

LAYER_METRICS = [
    LayerMetric(
        "cli.rows_s", "s", "lower", _counter("cli.rows_s"),
        "sweep_s on sin-abc-1d and bellman-1d (>= 90% of it there)", (ROOT,)),
    LayerMetric(
        "cli.effective_stage_s", "s", "lower",
        lambda t: _total(ROOT)(t) - _counter("cli.rows_s")(t),
        "sweep_s on sep-2d (cell hierarchy + effective eigenpair)", (ROOT,)),
    LayerMetric(
        "cli.self_s", "s", "lower", _module_self("cli"),
        "nothing visible; run_sweep outside other layers", (ROOT,)),
    LayerMetric(
        "coeff.sample.calls", "count", "lower", _calls("coeff.sample"),
        "nothing visible (< 1% everywhere)", ("coeff.sample",)),
    LayerMetric(
        "coeff.sample.s", "s", "lower", _total("coeff.sample"),
        "nothing visible (< 1% everywhere)", ("coeff.sample",)),
    LayerMetric(
        "coeff.self_s", "s", "lower", _module_self("coeff"),
        "nothing visible"),
    LayerMetric(
        "stencils.interp.builds", "count", "lower",
        _calls("stencils.interp.build"), "sweep_s on sin-abc-1d",
        ("stencils.interp.build",)),
    LayerMetric(
        "stencils.interp.eval_s", "s", "lower", _total("stencils.interp.eval"),
        "sweep_s on sin-abc-1d; ~0 on sep-2d", ("stencils.interp.eval",)),
    LayerMetric(
        "stencils.self_s", "s", "lower", _module_self("stencils"),
        "sweep_s on sin-abc-1d"),
    LayerMetric(
        "torus.solve_cell.calls", "count", "lower", _calls("torus.solve_cell"),
        "sweep_s and cli.effective_stage_s on sep-2d", ("torus.solve_cell",)),
    LayerMetric(
        "torus.solve_cell.s", "s", "lower", _total("torus.solve_cell"),
        "sweep_s and cli.effective_stage_s on sep-2d", ("torus.solve_cell",)),
    LayerMetric(
        "torus.solve_nonlinear_cell.calls", "count", "lower",
        _calls("torus.solve_nonlinear_cell"), "sweep_s on bellman-1d",
        ("torus.solve_nonlinear_cell",)),
    LayerMetric(
        "torus.howard_sweeps", "count", "lower",
        _counter("torus.howard_sweeps"), "sweep_s on bellman-1d",
        ("torus.solve_cell", "torus.solve_nonlinear_cell")),
    LayerMetric(
        "torus.self_s", "s", "lower", _module_self("torus"),
        "sweep_s on sep-2d"),
    LayerMetric(
        "effective.build_corrector_set.s", "s", "lower",
        _total("effective.build_corrector_set"), "sweep_s on sep-2d",
        ("effective.build_corrector_set",)),
    LayerMetric(
        "effective.effective_nonlinear.calls", "count", "lower",
        _calls("effective.effective_nonlinear"),
        "sweep_s on bellman-1d (eps-independent, repeated per row)",
        ("effective.effective_nonlinear",)),
    LayerMetric(
        "effective.linearize_effective.calls", "count", "lower",
        _calls("effective.linearize_effective"),
        "sweep_s on bellman-1d (eps-independent, repeated per row)",
        ("effective.linearize_effective",)),
    LayerMetric(
        "effective.self_s", "s", "lower", _module_self("effective"),
        "nothing visible"),
    LayerMetric(
        "domain.assemble.calls", "count", "lower",
        _calls("domain.assemble_linear"), "sweep_s, 2-6% on every workload",
        ("domain.assemble_linear",)),
    LayerMetric(
        "domain.assemble.s", "s", "lower", _total("domain.assemble_linear"),
        "sweep_s, 2-6% on every workload", ("domain.assemble_linear",)),
    LayerMetric(
        "domain.is_monotone.s", "s", "lower", _total("domain.is_monotone"),
        "sweep_s, small on every workload", ("domain.is_monotone",)),
    LayerMetric(
        "domain.dirichlet_solve.calls", "count", "lower",
        _calls("domain.dirichlet_solve"), "sweep_s on sin-abc-1d",
        ("domain.dirichlet_solve",)),
    LayerMetric(
        "domain.dirichlet_solve.s", "s", "lower",
        _total("domain.dirichlet_solve"),
        "sweep_s on sin-abc-1d (about half of it); 0 on sep-2d",
        ("domain.dirichlet_solve",)),
    LayerMetric(
        "domain.self_s", "s", "lower", _module_self("domain"),
        "sweep_s on every workload"),
    LayerMetric(
        "eigen.principal_eigenpair.calls", "count", "lower",
        _calls("eigen.principal_eigenpair"), "sweep_s on sep-2d",
        ("eigen.principal_eigenpair",)),
    LayerMetric(
        "eigen.principal_eigenpair.s", "s", "lower",
        _total("eigen.principal_eigenpair"),
        "sweep_s on sep-2d and sin-abc-1d", ("eigen.principal_eigenpair",)),
    LayerMetric(
        "eigen.iterations", "count", "lower", _counter("eigen.iterations"),
        "sweep_s on every workload (one solve per iteration)",
        ("eigen.principal_eigenpair",)),
    LayerMetric(
        "eigen.bellman.calls", "count", "lower",
        _calls("eigen.principal_eigenpair_bellman"), "sweep_s on bellman-1d",
        ("eigen.principal_eigenpair_bellman",)),
    LayerMetric(
        "eigen.howard_outer", "count", "lower", _counter("eigen.howard_outer"),
        "sweep_s on bellman-1d",
        ("eigen.principal_eigenpair", "eigen.principal_eigenpair_bellman")),
    LayerMetric(
        "eigen.self_s", "s", "lower", _module_self("eigen"),
        "sweep_s on every workload"),
    LayerMetric(
        f"{NLX}.s", "s", "lower", _total(NLX),
        "sweep_s and peak_rss_mb on bellman-1d", (NLX,)),
    LayerMetric(
        f"{NLX}.self_s", "s", "lower", _self(NLX),
        "sweep_s on bellman-1d (Python solve loop, dense w2 rows)", (NLX,)),
    LayerMetric(
        "corrector.linear_row.s", "s", "lower",
        lambda t: sum(_total(s)(t) for s in LINEAR_ROW_SPANS),
        "sweep_s on sin-abc-1d", LINEAR_ROW_SPANS),
    LayerMetric(
        "corrector.self_s", "s", "lower", _module_self("corrector"),
        "sweep_s on bellman-1d and sin-abc-1d"),
    LayerMetric(
        "superlu.factor.calls", "count", "lower", _calls("superlu.factor"),
        "sweep_s on sep-2d", ("superlu.factor",)),
    LayerMetric(
        "superlu.factor.s", "s", "lower", _total("superlu.factor"),
        "sweep_s on sep-2d", ("superlu.factor",)),
    LayerMetric(
        "superlu.fill", "ratio", "lower", _fill,
        "sweep_s and peak_rss_mb on sep-2d; ~1.6 in 1D", ("superlu.factor",)),
    LayerMetric(
        "superlu.spsolve.calls", "count", "lower", _calls("superlu.spsolve"),
        "sweep_s on sep-2d (cells) and sin-abc-1d (Dirichlet)",
        ("superlu.spsolve",)),
    LayerMetric(
        "superlu.spsolve.s", "s", "lower", _total("superlu.spsolve"),
        "sweep_s on sep-2d and sin-abc-1d", ("superlu.spsolve",)),
    LayerMetric(
        "superlu.solve.calls", "count", "lower", _calls("superlu.solve"),
        "sweep_s on bellman-1d (many tiny solves)", ("superlu.factor",)),
    LayerMetric(
        "superlu.solve.s", "s", "lower", _total("superlu.solve"),
        "sweep_s on bellman-1d and sep-2d", ("superlu.factor",)),
    LayerMetric(
        "superlu.solves_per_factor", "ratio", "higher", _solves_per_factor,
        "sweep_s on sep-2d (factor once, solve many)",
        ("superlu.factor", "superlu.spsolve")),
    LayerMetric(
        "superlu.self_s", "s", "lower", _module_self("superlu"),
        "sweep_s on sep-2d"),
    LayerMetric(
        "trace.sweep_s", "s", "lower", _total(ROOT),
        "none; the traced run_sweep span, the sum of every *.self_s",
        (ROOT,)),
    LayerMetric(
        "trace.overhead_s", "s", "lower", None,
        "none; traced sweep_s minus untraced sweep_s (run.py)"),
    LayerMetric(
        "trace.missing_spans", "count", "lower", lambda t: len(t.missing),
        "none; spans the metrics read that no longer exist"),
]
SELF_METRICS = [f"{layer}.self_s" for layer in LAYERS + ("superlu",)]
# deterministic metrics: they must repeat exactly across runs
COUNT_METRICS = [m.name for m in LAYER_METRICS
                 if m.unit != "s" and m.value is not None]


def required_spans():
    return {s for m in LAYER_METRICS for s in m.spans}
