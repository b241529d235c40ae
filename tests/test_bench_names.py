"""The benchmark's tracer (bench/tracing.py) rebinds library functions by
name, so renaming one must fail here, not only in a benchmark run."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import oswr.analysis
import oswr.driver
from oswr.dgsolver import FactorCache
from oswr.problem import parse_config

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Two windows on matching 1D meshes.
CONFORMING = """
[domain]
box = 0 1
T = 0.5
windows = 2
tolerance = 1e-8
max_iterations = 100
u0 = "exp(-30*(x-0.5)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.5
nu = "0.1"
bx = "0.5"
c = "1"
nx = 6
nt = 3
degree = 1

[subdomain]
id = 2
box = 0.5 1
nu = "0.05"
nx = 4
nt = 2
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
"""

# Nonmatching interface meshes in 2D: one mortar interface.
MORTAR = """
[domain]
box = 0 1 0 1
T = 0.25
tolerance = 1e-8
max_iterations = 100
u0 = "exp(-20*((x-0.5)^2+(y-0.5)^2))"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 1
nu = "0.1"
nx = 2
ny = 4
nt = 3
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 1
nu = "0.04"
nx = 2
ny = 3
nt = 2
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
q = 0.05
"""


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    bound = tracing.snapshot()
    assert bound and all(callable(obj) for obj in bound.values())


def _traced_run(monkeypatch, text, cpus):
    """A traced run_windows of `text` with `cpus` CPUs: the tracer, the
    config and the sweeps."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(oswr.driver, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(oswr.driver, "_MIN_GROUP_WORK", 0)  # the configs are small
    import tracing

    cfg = parse_config(text)
    md = oswr.driver.build_multidomain(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sol = oswr.driver.run_windows(cfg, md=md)
    finally:
        tracer.uninstall()
    sweeps = sum(h.iterations for h in sol.histories)
    assert sweeps > len(sol.histories)
    return tracer, cfg, sweeps


@pytest.mark.parametrize("text", [CONFORMING, MORTAR], ids=["conforming", "mortar"])
def test_tracer_sees_every_window_solve(monkeypatch, text):
    # the layer metrics read 0 if the driver stops calling the traced names
    tracer, cfg, sweeps = _traced_run(monkeypatch, text, 1)
    assert tracer.counts["dgsolver.window"] == sweeps * len(cfg.subdomains)
    assert tracer.counts["dgsolver.steps"] == sweeps * sum(s.nt for s in cfg.subdomains)


@pytest.mark.parametrize("text", [CONFORMING, MORTAR], ids=["conforming", "mortar"])
def test_tracer_sees_the_parents_window_solves(monkeypatch, text):
    # with two CPUs subdomain 2 marches in a forked worker, whose spans
    # and counts stay in the worker: the tracer sees subdomain 1 alone
    tracer, cfg, sweeps = _traced_run(monkeypatch, text, 2)
    assert tracer.counts["dgsolver.window"] == sweeps
    assert tracer.counts["dgsolver.steps"] == sweeps * cfg.subdomain(1).nt


def test_tracer_sees_the_reference_solve(monkeypatch):
    # the reference assembles through oswr.femspace, not through the
    # oswr.analysis.hat_cross_matrix name the tracer also wraps
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    cfg = parse_config(MORTAR)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        oswr.analysis.solve_monodomain(cfg, oswr.analysis.RefGrid(nx={1: 2, 2: 2}, ny=12, nt=3))
    finally:
        tracer.uninstall()
    assert tracer.counts["dgsolver.window"] == 1
    assert tracer.counts["timeproject.hat_cross"] > 0
    assert tracer.counts["femspace.assemble"] > 0


def test_tracer_factor_metrics_equal_cache_statistics(monkeypatch):
    # the tracer's factor counts come from wrapping FactorCache.get, the
    # cache's own from inside it; each DG(1) step is one complex solve
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    cfg = parse_config(MORTAR)
    md = oswr.driver.build_multidomain(cfg)
    # in-process: a forked worker's lookups do not reach the tracer
    monkeypatch.setattr(oswr.driver, "_cpu_count", lambda: 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        oswr.driver.run_windows(cfg, md=md)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    caches = [asm.cache for asm in md.assemblies.values()]
    assert metrics["dgsolver.nnz_lu"][0] == sum(c.nnz_lu for c in caches) > 0
    assert metrics["dgsolver.factorizations"][0] == sum(c.factorizations for c in caches)
    assert tracer.counts["dgsolver.factor_hits"] == sum(c.hits for c in caches)
    assert all(f.L.dtype == complex for c in caches for f in c.factors.values())
    solves = sum(1 for span in tracer.spans if span[2] == "dgsolver.lu_solve")
    assert solves >= tracer.counts["dgsolver.steps"] > 0


def test_factor_exposes_solve_and_triangles():
    # the tracer times `solve` and counts nnz(L+U) of each new factor
    factor = FactorCache().get((1, 0.5), lambda: 2.0 * sp.identity(3, format="csc"))
    assert np.array_equal(factor.solve(np.full(3, 2.0)), np.ones(3))
    assert factor.L.nnz + factor.U.nnz == 6


def test_study_sweep_counter_sees_every_level(monkeypatch):
    # bench/workloads.py counts a study's sweeps by wrapping the name
    # convergence_study calls, oswr.analysis.run_windows
    original = oswr.analysis.run_windows
    calls = []

    def counted(*args, **kwargs):
        sol = original(*args, **kwargs)
        calls.append((kwargs.get("traces"), sum(h.iterations for h in sol.histories)))
        return sol

    monkeypatch.setattr(oswr.analysis, "run_windows", counted)
    table = oswr.analysis.convergence_study(parse_config(CONFORMING), "time", 3)
    assert len(calls) == 3
    assert calls[0][0] is None
    assert all(traces is not None for traces, _ in calls[1:])
    assert [n for _, n in calls] == [sum(h.iterations for h in level) for level in table.histories]
