"""Per-layer tracing from outside the program.

`Tracer.install` rebinds public functions of the oswr modules to wrappers
that record spans (name, start, end, parent) and counts; `uninstall` puts
the original objects back.  Each function is wrapped at the name its
caller looks up: `oswr.driver` and `oswr.analysis` import `solve_window`,
`build_multidomain` and others by name, so those module attributes are
rebound, not only the defining module's.

A span's parent is the innermost open span of its thread.  Subdomain
solves that run in the driver's pool threads have no open span of their
own thread, so their parent is the innermost open span of the thread that
installed the tracer, which is the enclosing `iterate`.

Spans are kept in memory; `write` dumps them as JSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import oswr.analysis
import oswr.dgsolver
import oswr.driver
import oswr.femspace
import oswr.problem

# (owner, attribute, layer metric).  Several names may feed one metric.
SPANNED = [
    (oswr.problem, "parse_config", "problem.parse"),
    (oswr.problem, "validate_problem", "problem.validate"),
    (oswr.driver, "build_projection_matrices", "timeproject.build"),
    (oswr.driver, "apply_projection", "timeproject.apply"),
    (oswr.driver, "hat_cross_matrix", "timeproject.hat_cross"),
    (oswr.femspace, "hat_cross_matrix", "timeproject.hat_cross"),
    (oswr.analysis, "hat_cross_matrix", "timeproject.hat_cross"),
    (oswr.femspace, "assemble_mass", "femspace.assemble"),
    (oswr.femspace, "assemble_atilde", "femspace.assemble"),
    (oswr.femspace, "assemble_interface_ops", "femspace.assemble"),
    (oswr.femspace, "assemble_exterior_robin", "femspace.assemble"),
    (oswr.femspace, "assemble_load", "femspace.assemble"),
    (oswr.femspace, "assemble_space_load", "femspace.assemble"),
    (oswr.femspace.Mesh, "eval_p1", "femspace.eval_p1"),
    (oswr.driver, "solve_window", "dgsolver.window"),
    (oswr.driver, "solve_window_mortar", "dgsolver.window"),
    (oswr.analysis, "solve_window", "dgsolver.window"),
    (oswr.driver, "build_multidomain", "driver.build"),
    (oswr.analysis, "build_multidomain", "driver.build"),
    (oswr.driver, "iterate", "driver.iterate"),
    (oswr.analysis, "iterate", "driver.iterate"),
    (oswr.driver, "transmission_update", "driver.exchange"),
    (oswr.driver, "trajectory_norm", "driver.history_norm"),
    (oswr.driver, "run_windows", "driver.run_windows"),
    (oswr.analysis, "solve_monodomain", "analysis.monodomain"),
    (oswr.analysis, "error_norms", "analysis.error_norms"),
    (oswr.analysis, "convergence_study", "analysis.convergence_study"),
    (oswr.analysis, "sweep_parameters", "analysis.sweep_parameters"),
]

# Called once per time step or more: counted, not timed.
COUNTED = [
    (oswr.dgsolver, "build_interval_basis", "timebasis.interval_basis"),
    (oswr.driver, "lift_rate_modes", "timebasis.lift_rate"),
]

FACTOR_GET = (oswr.dgsolver.FactorCache, "get")

TARGETS = [(o, a) for o, a, _ in SPANNED + COUNTED] + [FACTOR_GET]


def snapshot():
    """The objects currently bound at every traced name."""
    return {(owner, attr): vars(owner)[attr] for owner, attr in TARGETS}


def changed_names(before):
    """Names whose binding differs from `before`."""
    now = snapshot()
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), obj in before.items() if now[(owner, attr)] is not obj
    ]


class _TimedFactor:
    """Stands in for a SuperLU object and times its solves."""

    def __init__(self, tracer, factor):
        self._tracer = tracer
        self._factor = factor

    def solve(self, *args, **kwargs):
        with self._tracer.span("dgsolver.lu_solve", "SuperLU.solve"):
            return self._factor.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class _Span:
    __slots__ = ("tracer", "key", "name", "sid", "parent", "t0", "stack", "nested")

    def __init__(self, tracer, key, name):
        self.tracer, self.key, self.name = tracer, key, name

    def __enter__(self):
        tr = self.tracer
        stack = tr._stack()
        # A span of a metric already open on this thread is not recorded
        # again, so each metric sums time once.
        self.nested = any(k == self.key for _, k in stack)
        if self.nested:
            return self
        if stack:
            self.parent = stack[-1][0]
        else:
            main = tr._main_stack
            self.parent = main[-1][0] if main else 0
        self.sid = next(tr._ids)
        self.stack = stack
        stack.append((self.sid, self.key))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.nested:
            return False
        t1 = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.key, self.name, threading.get_ident(), self.t0, t1)
        )
        return False


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, metric, function, thread, start, end)
        self.counts = Counter()
        self.nnz_lu = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._saved = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, key, name):
        return _Span(self, key, name)

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, key):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        after = _AFTER.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(key, name) as s:
                out = fn(*args, **kwargs)
            if not s.nested:
                self.count(key)
                if after is not None:
                    after(self, args, kwargs, out)
            return out

        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _factor_get(self, get):
        @functools.wraps(get)
        def wrapper(cache, key, build):
            if key in cache.factors:
                self.count("dgsolver.factor_hits")
                factor = get(cache, key, build)
            else:
                with self.span("dgsolver.factorize", "FactorCache.get"):
                    factor = get(cache, key, build)
                self.count("dgsolver.factorize")
                with self._lock:
                    self.nnz_lu += factor.L.nnz + factor.U.nnz
            self.count("dgsolver.factor_lookups")
            return _TimedFactor(self, factor)

        return wrapper

    def install(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        self._saved = snapshot()
        self._main_stack = self._stack()
        for owner, attr, key in SPANNED:
            setattr(owner, attr, self._spanned(vars(owner)[attr], key))
        for owner, attr, key in COUNTED:
            setattr(owner, attr, self._counted(vars(owner)[attr], key))
        owner, attr = FACTOR_GET
        setattr(owner, attr, self._factor_get(vars(owner)[attr]))

    def uninstall(self):
        for (owner, attr), obj in self._saved.items():
            setattr(owner, attr, obj)
        self._saved = None

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer totals of one traced case."""
        total = defaultdict(float)
        by_id = {}
        for sid, parent, key, _, _, t0, t1 in self.spans:
            total[key] += t1 - t0
            by_id[sid] = (parent, key, t1 - t0)
        iterate_ids = {sid for sid, (_, key, _) in by_id.items() if key == "driver.iterate"}
        window_ids = {sid for sid, (_, key, _) in by_id.items() if key == "dgsolver.window"}
        in_window = defaultdict(float)
        iterate_windows = 0.0
        for parent, key, dt in by_id.values():
            if parent in window_ids:
                in_window[key] += dt
            if key == "dgsolver.window" and parent in iterate_ids:
                iterate_windows += dt
        c = self.counts
        sweeps = c["driver.sweeps"]
        lookups = c["dgsolver.factor_lookups"]
        solve_phase = total["driver.iterate"] - total["driver.exchange"] - total["driver.history_norm"]
        return {
            "dgsolver.lu_solve_s": (total["dgsolver.lu_solve"], "s", "lower"),
            "dgsolver.nnz_lu": (self.nnz_lu, "count", "lower"),
            "dgsolver.factorizations": (c["dgsolver.factorize"], "count", "lower"),
            "dgsolver.factorize_s": (total["dgsolver.factorize"], "s", "lower"),
            "dgsolver.factor_lookups": (lookups, "count", "lower"),
            "dgsolver.factor_hit_ratio": (
                c["dgsolver.factor_hits"] / lookups if lookups else 0.0, "ratio", "higher"),
            "dgsolver.window_s": (total["dgsolver.window"], "s", "lower"),
            "dgsolver.window_calls": (c["dgsolver.window"], "count", "lower"),
            "dgsolver.steps": (c["dgsolver.steps"], "count", "lower"),
            "dgsolver.step_self_s": (
                total["dgsolver.window"] - in_window["dgsolver.lu_solve"]
                - in_window["dgsolver.factorize"], "s", "lower"),
            "timebasis.interval_basis_calls": (c["timebasis.interval_basis"], "count", "lower"),
            "timebasis.lift_rate_calls": (c["timebasis.lift_rate"], "count", "lower"),
            "driver.iterate_s": (total["driver.iterate"], "s", "lower"),
            "driver.sweeps": (sweeps, "count", "lower"),
            "driver.sweep_ms": (
                1e3 * total["driver.iterate"] / sweeps if sweeps else 0.0, "ms", "lower"),
            "driver.exchange_s": (total["driver.exchange"], "s", "lower"),
            "driver.history_norm_s": (total["driver.history_norm"], "s", "lower"),
            "driver.solve_overlap": (
                iterate_windows / solve_phase if solve_phase > 0 else 0.0, "ratio", "higher"),
            "driver.build_s": (total["driver.build"], "s", "lower"),
            "timeproject.build_s": (total["timeproject.build"], "s", "lower"),
            "timeproject.apply_s": (total["timeproject.apply"], "s", "lower"),
            "timeproject.apply_calls": (c["timeproject.apply"], "count", "lower"),
            "timeproject.hat_cross_s": (total["timeproject.hat_cross"], "s", "lower"),
            "analysis.error_norms_s": (total["analysis.error_norms"], "s", "lower"),
            "analysis.monodomain_s": (total["analysis.monodomain"], "s", "lower"),
            "femspace.eval_p1_s": (total["femspace.eval_p1"], "s", "lower"),
            "femspace.eval_p1_calls": (c["femspace.eval_p1"], "count", "lower"),
            "femspace.assemble_s": (total["femspace.assemble"], "s", "lower"),
            "femspace.assemble_calls": (c["femspace.assemble"], "count", "lower"),
            "problem.validate_s": (total["problem.validate"], "s", "lower"),
        }

    def write(self, path):
        fields = ["id", "parent", "metric", "function", "thread", "start", "end"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "counts": dict(self.counts),
                       "nnz_lu": self.nnz_lu}, fh)


def _count_steps(tracer, args, kwargs, out):
    partition = args[2] if len(args) > 2 else kwargs["partition"]
    tracer.count("dgsolver.steps", partition.n_intervals)


def _count_sweeps(tracer, args, kwargs, out):
    tracer.count("driver.sweeps", out[3].iterations)


# Extra counts taken from a call's arguments or result.
_AFTER = {
    "dgsolver.window": _count_steps,
    "driver.iterate": _count_sweeps,
}
