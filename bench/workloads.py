"""Benchmark workloads: configurations, one case each, and output checks.

Every workload is a function of the seed that returns a `Workload`: the
config text of its base problem and a `run` callable that executes one
case through the public library API and checks its outputs.  Library
functions are looked up through their modules at call time, so a traced
run sees the wrapped names.

The seed drives the random interface guess of `sweep-grid`; the inputs of
the other workloads are fixed, so that their outputs can be checked
against recorded values.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oswr.analysis
import oswr.dgsolver
import oswr.driver
import oswr.problem

# Two subdomains with discontinuous diffusion and advection (the config of
# demos/heterogeneous.cfg, with the horizon, grid, tolerance and
# transmission parameters left as fields).
HETEROGENEOUS = """
[domain]
box = 0 1 0 2
T = {T}
windows = 1
tolerance = {tol}
max_iterations = {budget}
initial_guess = from_u0
u0 = "{u0}"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.001*sqrt(y)"
bx = "0"
by = "-1"
c = "0"
nx = {nx}
ny = {ny}
nt = {nt1}
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.1*sin(x*y)"
bx = "-0.1"
by = "0"
c = "0"
nx = {nx}
ny = {ny}
nt = {nt2}
degree = 1

[transmission]
from = 1
to = 2
p = {p}
q = {q}
r = "-1"
s = 0.046

[transmission]
from = 2
to = 1
p = {p}
q = {q}
r = "0"
s = 0.001
"""

WIDE_GAUSSIAN = "0.25*exp(-15*((x-0.55)^2+(y-1.3)^2))"

# Porosity jumping 0.1 vs 1 under a rotating advection field, with
# interface meshes that match neither in space nor in time.
POROSITY = """
[domain]
box = 0 1 0 2
T = 1.0
windows = 4
tolerance = 1e-8
max_iterations = 300
initial_guess = from_u0
u0 = "0.5*exp(-10*(x-0.5)^2-3*(y-1)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.05"
bx = "-sin(1.5707963267948966*(y-1))*cos(3.141592653589793*(x-0.5))"
by = "cos(1.5707963267948966*(y-1))*sin(3.141592653589793*(x-0.5))"
c = "0"
omega = "0.1"
nx = 16
ny = 40
nt = 48
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.15"
bx = "-sin(1.5707963267948966*(y-1))*cos(3.141592653589793*(x-0.5))"
by = "cos(1.5707963267948966*(y-1))*sin(3.141592653589793*(x-0.5))"
c = "0"
omega = "1"
nx = 16
ny = 32
nt = 32
degree = 1

[transmission]
from = 1
to = 2
p = 0.5
q = 0.05
r = "0"
s = 0.15

[transmission]
from = 2
to = 1
p = 0.5
q = 0.05
r = "0"
s = 0.05
"""

# Final-state L2 norms sqrt(u^T M u) per subdomain of the converged runs.
# The runs stop once the relative change of the interface data is below
# 1e-8, and the final state moves far less than that: stopping at 1e-11
# instead changes these norms by under 1e-13 relative.  A tolerance of ten
# times the stopping tolerance passes any correct solver, whatever its
# rounding or the sweep it stops at, and still catches a change of the
# discretization, which moves the norms by 1e-4 or more.
FINAL_NORMS = {
    "run-4x": {1: 0.04677505815929497, 2: 0.04728019790674438},
    "run-mortar": {1: 0.01093426825590138, 2: 0.03855731132752417},
}
FINAL_NORM_RTOL = 1e-7

# Criterion 2 and 3 windows for the DG(1) time study.
E_INF_SLOPES = (1.7, 2.3)
E_T_L2_SLOPES = (2.6, 3.4)

# The README quick-start grid and its best (p, q) cell, which is the same
# for seeds 0 to 9.
SWEEP_P = (0.5, 1.0, 2.0, 4.0)
SWEEP_Q = (0.0, 0.05, 0.1)
SWEEP_TARGET = 1e-6
SWEEP_BEST = (0.5, 0.05)

SOLVER_ERRORS = (oswr.dgsolver.SolverError, oswr.driver.DivergenceError)


@dataclass
class Outcome:
    """Result of one case: what the output checks saw, and what to compare
    between a traced and an untraced run."""

    attempted: int
    failed: int
    sweeps: int
    fingerprint: list  # arrays that must match bit for bit
    problems: list     # one line per failed check


@dataclass
class Workload:
    name: str
    config_text: str
    cases: int  # cases one call of `run` attempts
    run: Callable[[], Outcome]


def setup(text):
    """The set-up a user pays before solving: parse and build."""
    cfg = oswr.problem.parse_config(text)
    return cfg, oswr.driver.build_multidomain(cfg)


def _final_norm(md, sid, u):
    return math.sqrt(float(u @ (md.assemblies[sid].M_vol @ u)))


def _run_case(name, text):
    cfg = oswr.problem.parse_config(text)
    md = oswr.driver.build_multidomain(cfg)
    try:
        sol = oswr.driver.run_windows(cfg, md=md)
    except SOLVER_ERRORS as e:
        return Outcome(1, 1, 0, [], [f"{name}: {type(e).__name__}: {e}"])
    problems = []
    for w, hist in enumerate(sol.histories):
        if not hist.converged or hist.residuals[-1] > cfg.tolerance:
            problems.append(
                f"{name}: window {w} not converged "
                f"(last residual {hist.residuals[-1]:.3e}, tol {cfg.tolerance:.0e})"
            )
    finals = {sid: sol.view(sid).final_value() for sid in sorted(md.assemblies)}
    for sid, u in finals.items():
        want = FINAL_NORMS[name][sid]
        got = _final_norm(md, sid, u)
        if not abs(got - want) <= FINAL_NORM_RTOL * abs(want):
            problems.append(f"{name}: subdomain {sid} final L2 norm {got!r} != recorded {want!r}")
    sweeps = sum(h.iterations for h in sol.histories)
    return Outcome(1, int(bool(problems)), sweeps, list(finals.values()), problems)


def run_4x(seed):
    """demos/heterogeneous.cfg with nx, ny and the time step four times
    finer, over the first half of its horizon (T = 0.25)."""
    text = HETEROGENEOUS.format(
        T=0.25, tol="1e-8", budget=200, u0=WIDE_GAUSSIAN, nx=32, ny=128, nt1=48, nt2=64,
        p=0.5, q=0.02,
    )
    return Workload("run-4x", text, 1, lambda: _run_case("run-4x", text))


def run_mortar(seed):
    """Porosity problem on nonmatching interface meshes, 4 windows."""
    return Workload("run-mortar", POROSITY, 1, lambda: _run_case("run-mortar", POROSITY))


STUDY_LEVELS = 4


@contextmanager
def _counting_sweeps():
    """Sum the iterations of every run a study makes.

    convergence_study keeps no histories, so for the length of one case
    the name it calls, `oswr.analysis.run_windows`, is bound to a function
    that adds up the histories of each solution.  The tracer does not wrap
    that name, and the counter is in place with tracing on and off alike.
    """
    original = oswr.analysis.run_windows
    total = [0]

    def counted(*args, **kwargs):
        sol = original(*args, **kwargs)
        total[0] += sum(h.iterations for h in sol.histories)
        return sol

    oswr.analysis.run_windows = counted
    try:
        yield total
    finally:
        oswr.analysis.run_windows = original


def study_time(seed):
    """Criterion-2 DG(1) time study on nonconforming time grids."""
    text = HETEROGENEOUS.format(
        T=0.5, tol="1e-10", budget=600, u0=WIDE_GAUSSIAN, nx=8, ny=32, nt1=24, nt2=32,
        p=0.5, q=0.02,
    )

    def run():
        cfg = oswr.problem.parse_config(text)
        try:
            with _counting_sweeps() as sweeps:
                table = oswr.analysis.convergence_study(cfg, "time", STUDY_LEVELS, tol=1e-10)
        except SOLVER_ERRORS as e:
            return Outcome(STUDY_LEVELS, STUDY_LEVELS, 0, [],
                           [f"study-time: {type(e).__name__}: {e}"])
        problems = []
        failed_levels = set()
        for row in table.rows:
            for name in table.NORMS:
                for sid in table.sids:
                    v = row[(name, sid)]
                    if not (math.isfinite(v) and v > 0.0):
                        failed_levels.add(row["level"])
                        problems.append(f"study-time: level {row['level']} {name}[{sid}] = {v!r}")
        bad_slope = False
        for norm, (lo, hi) in (("e_inf", E_INF_SLOPES), ("e_T_l2", E_T_L2_SLOPES)):
            for sid in table.sids:
                s = table.slopes[(norm, sid)]
                if not lo <= s <= hi:
                    bad_slope = True
                    problems.append(f"study-time: {norm}[{sid}] slope {s:.3f} not in [{lo}, {hi}]")
        # A slope is fitted over every level, so a bad one fails them all.
        failed = STUDY_LEVELS if bad_slope else len(failed_levels)
        fingerprint = [
            np.array([row[(name, sid)] for name in table.NORMS for sid in table.sids])
            for row in table.rows
        ]
        return Outcome(STUDY_LEVELS, failed, sweeps[0], fingerprint, problems)

    return Workload("study-time", text, STUDY_LEVELS, run)


def sweep_grid(seed):
    """README quick-start sweep in error mode with a seeded random guess."""
    text = HETEROGENEOUS.format(
        T=0.5, tol="1e-8", budget=200, u0=WIDE_GAUSSIAN, nx=8, ny=32, nt1=24, nt2=32,
        p=0.5, q=0.02,
    )

    cells = len(SWEEP_P) * len(SWEEP_Q)

    def run():
        cfg = oswr.problem.parse_config(text)
        try:
            table = oswr.analysis.sweep_parameters(
                cfg, list(SWEEP_P), list(SWEEP_Q), SWEEP_TARGET, mode="error", seed=seed,
            )
        except SOLVER_ERRORS as e:
            return Outcome(cells, cells, 0, [], [f"sweep-grid: {type(e).__name__}: {e}"])
        problems = [
            f"sweep-grid: cell p={r['p']} q={r['q']} not converged in {r['iterations']}"
            for r in table.rows if not r["converged"]
        ]
        failed = len(problems)
        best = table.rows[table.best]
        if (best["p"], best["q"]) != SWEEP_BEST:
            failed += 1
            problems.append(f"sweep-grid: best cell p={best['p']} q={best['q']} != {SWEEP_BEST}")
        sweeps = sum(r["iterations"] for r in table.rows)
        fingerprint = [np.array([r["iterations"] for r in table.rows])]
        return Outcome(cells, min(failed, cells), sweeps, fingerprint, problems)

    return Workload("sweep-grid", text, cells, run)


WORKLOADS = {
    "run-4x": run_4x,
    "study-time": study_time,
    "sweep-grid": sweep_grid,
    "run-mortar": run_mortar,
}
