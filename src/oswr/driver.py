"""Waveform-relaxation driver.

Builds the multidomain set-up in one pass: meshes and trace spaces
first, then every subdomain's volume operators and, once per directed
interface i <- j, the one `femspace.InterfaceBlocks` record that holds
i's own blocks and the mortar cross blocks the exchange applies to j's
data.  How an interface enters a subdomain's step system is
decided by `dgsolver._step_operator` alone: every interface carries a
discrete flux unknown, on matching and nonmatching meshes alike.  Each
time window is one frozen `Window` record, built once by `md.window`.
`sweep` is one Jacobi sweep over it: every subdomain solves against the
previous iterate's traces, then every directed pair gets new data.
`iterate` loops `sweep` under the residual, divergence and stopping
rules, and `run_windows` runs the windows in turn and chains each
subdomain's into one `DGTrajectory` over [0, T].

The subdomain solves of a Jacobi sweep are independent, so `iterate`
deals the subdomain ids round-robin into the most groups, at most
min(CPUs, subdomains), of which each marches at least _MIN_GROUP_WORK
unknowns x steps per sweep (a sweep in lockstep with a second process
waits for the slower one, so small groups gain little and follow the
machine's load).  Each group but the first marches in a worker of a
process pool forked once per window, into window arrays in shared
memory; the parent marches the first group, then alone runs every
exchange and the rules, so the results are bit-identical to one
process.  Workers are forked because the SuperLU factors, made in the
parent, cannot be pickled; threads would not help, as SuperLU's solve
holds the interpreter lock.

The exchange never extracts a normal derivative from the solution: the
new data is the algebraic combination

    g_new(i<-j) = P_i [ -M_x Q_j + (M_bx + q_ij B_rx + K_sx) u_j
                         + q_ij d/dt(I_j M_x u_j) ],

all in weak (functional) form against the interface test functions,
with Q_j the flux unknown of j and the cross blocks M_x and
T_x = M_bx + q_ij B_rx + K_sx of i's record coupling j's trace functions
to i's.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from oswr import femspace as fes
from oswr import problem as prb
from oswr.dgsolver import (
    DGTrajectory,
    InterfaceTrace,
    Operators,
    SolverError,
    prepare_march,
    solve_window,  # unused here; bench/tracing.py wraps oswr.driver.solve_window
    solve_window_mortar,
    trajectory_norm,  # unused here; bench/tracing.py wraps oswr.driver.trajectory_norm
    window_views,
)
from oswr.timebasis import TimePartition, lift_rate_modes
from oswr.timeproject import (
    apply_projection,
    build_projection_matrices,
    hat_cross_matrix,
)

__all__ = [
    "DivergenceError",
    "SubdomainAssembly",
    "Multidomain",
    "Window",
    "IterationHistory",
    "MultidomainSolution",
    "build_multidomain",
    "initial_guess",
    "transmission_update",
    "transfer_trace",
    "interface_residual",
    "sweep",
    "iterate",
    "run_windows",
]

DIVERGENCE_FACTOR = 1e6

# The least work, in unknowns x steps per sweep, of a group of subdomains
# that a process of a parallel sweep marches (module docstring): about
# 27 ms of march per sweep on a 2-vCPU Xeon at 0.27 us per unknown-step.
_MIN_GROUP_WORK = 100_000


class DivergenceError(RuntimeError):
    """Residual or data blow-up, or a non-finite residual; carries the
    history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass(kw_only=True)
class SubdomainAssembly(Operators):
    """A subdomain's system (M_vol the omega-weighted mass, A_vol the
    skew volume form plus the exterior Robin closure, one
    femspace.InterfaceBlocks per neighbor) with its spec, mesh and
    trace spaces."""

    spec: prb.SubdomainSpec
    mesh: fes.Mesh
    space: fes.FemSpace


def _build_space(spec, interfaces):
    """Mesh and trace spaces of one subdomain of a validated problem.

    Each interface of the subdomain is a whole face of its box (the band
    rule of `validate_problem`), at the high end of `itf.axis` exactly
    when `normal_i` points out of this subdomain.
    """
    mesh = fes.build_mesh(spec.box, (spec.nx, spec.ny)[: spec.dim])
    sides = {}
    for itf in interfaces:
        if spec.id in (itf.i, itf.j):
            mine = spec.id == itf.i
            high = (itf.normal_i[itf.axis] > 0) == mine  # n_i points out of i, into j
            sides[itf.j if mine else itf.i] = fes.SIDES[2 * itf.axis + high]
    return fes.build_space(mesh, sides)


def _volume_operators(spec, space):
    """(M_vol, A_vol) of one subdomain: the omega-weighted mass, and the
    skew volume form plus the exterior Robin closure."""
    mesh = space.mesh
    atilde = fes.assemble_atilde(mesh, spec.nu, spec.b, spec.c, spec.div_b())
    ext = fes.assemble_exterior_robin(space, spec.b)
    return fes.assemble_mass(mesh, spec.omega), (atilde + ext).tocsr()


def build_subdomain_assembly(cfg, spec, spaces):
    """All time-independent operators of one subdomain, given the trace
    spaces of every subdomain (sid -> FemSpace).  The step system is
    folded from them when the system first marches."""
    space = spaces[spec.id]
    M_vol, A_vol = _volume_operators(spec, space)
    iface = {
        nb: fes.assemble_interface_ops(space, nb, cfg.transmission[(spec.id, nb)], spec.b,
                                       spaces[nb].traces[spec.id], cfg.subdomain(nb).b)
        for nb in sorted(space.traces)
    }
    return SubdomainAssembly(M_vol, A_vol, spec.degree, iface,
                             spec=spec, mesh=space.mesh, space=space)


@dataclass(frozen=True)
class Window:
    """One time window: per subdomain its partition and per-interval loads,
    per directed pair (i, j) the time projection from j's partition onto i's."""

    partitions: dict
    projections: dict
    loads: dict


@dataclass
class Multidomain:
    cfg: prb.ExperimentConfig
    assemblies: dict
    pairs: list          # directed (i, j) pairs

    @property
    def degree(self):
        return next(iter(self.assemblies.values())).degree

    def window(self, t_a, t_b):
        """The record of the time window [t_a, t_b]."""
        parts = {sid: TimePartition.uniform(t_a, t_b, asm.spec.nt)
                 for sid, asm in self.assemblies.items()}
        projections = {(i, j): build_projection_matrices(parts[j], parts[i], self.degree)
                       for (i, j) in self.pairs}
        loads = {}
        for sid, asm in self.assemblies.items():
            per = fes.IntervalLoads(asm.mesh, self.cfg.f, parts[sid], asm.degree)
            try:
                loads[sid] = [per[n] for n in range(parts[sid].n_intervals)]
            except (prb.EvalError, ValueError) as e:
                raise ValueError(f"subdomain {sid}, window [{t_a:g}, {t_b:g}]: {e}") from e
        return Window(partitions=parts, projections=projections, loads=loads)


def _check_problem(cfg):
    """Raise ValueError naming every error `validate_problem` finds."""
    errors = [d for d in prb.validate_problem(cfg) if d.severity == "error"]
    if errors:
        raise ValueError("invalid problem: " + "; ".join(d.message for d in errors))


def build_multidomain(cfg):
    _check_problem(cfg)
    interfaces = cfg.interfaces()
    spaces = {s.id: _build_space(s, interfaces) for s in cfg.subdomains}
    assemblies = {}
    for s in cfg.subdomains:
        try:
            assemblies[s.id] = build_subdomain_assembly(cfg, s, spaces)
        except (prb.EvalError, ValueError) as e:
            raise ValueError(f"subdomain {s.id}: {e}") from e
    pairs = sorted([(itf.i, itf.j) for itf in interfaces] + [(itf.j, itf.i) for itf in interfaces])
    return Multidomain(cfg=cfg, assemblies=assemblies, pairs=pairs)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def initial_guess(strategy, md, win, u_init):
    """Initial transmission data g_{i,j} of a window for every directed
    pair, in `md.pairs` order: zero, or the transmission operator applied
    to i's initial value u_init[i] with the flux term dropped (constant
    in time, mode 0)."""
    out = {}
    for (i, j) in md.pairs:
        asm, part = md.assemblies[i], win.partitions[i]
        ia = asm.iface[j]
        coeffs = np.zeros((part.n_intervals, asm.degree + 1, ia.nodes.size))
        if strategy == "from_u0":
            tru = np.asarray(u_init[i], dtype=float)[ia.nodes]
            g0 = ia.p * (ia.M_gamma @ tru) + ia.q * (ia.B_r @ tru) + ia.K_s @ tru
            coeffs[:, 0, :] = g0[None, :]
        elif strategy != "zero":
            raise ValueError(f"unknown initial-guess strategy {strategy!r}")
        out[(i, j)] = InterfaceTrace(partition=part, coeffs=coeffs)
    return out


def _apply_rows(B, arr):
    """Apply a sparse operator to the trailing axis of (N, d+1, n) data."""
    shp = arr.shape
    flat = arr.reshape(-1, shp[-1])
    out = (B @ flat.T).T
    return out.reshape(shp[:-1] + (B.shape[0],))


def transmission_update(md, win, i, j, traj_j, flux_j):
    """New data g_{i,j} from neighbor j's iterate (directed i <- j) over
    the window `win`: its trajectory, which holds u_j(t_a), and its flux
    modes (neighbor id -> modes), as `solve_window_mortar` returns them.

    traj_j and flux_j live on T_j; the result is projected onto T_i.
    """
    ia = md.assemblies[i].iface[j]
    nodes = md.assemblies[j].iface[i].nodes
    RU = traj_j.coeffs[:, :, nodes]
    gtil = _apply_rows(ia.T_x, RU) - _apply_rows(ia.M_x, flux_j[i])
    if ia.q != 0.0:
        W = _apply_rows(ia.M_x, RU)
        w_init = ia.M_x @ traj_j.u_init[nodes]
        gtil += ia.q * _lift_rate_window(W, w_init, win.partitions[j].lengths)

    new = apply_projection(win.projections[(i, j)], gtil)
    return InterfaceTrace(partition=win.partitions[i], coeffs=new)


def _lift_rate_window(W, w_init, lengths):
    """Modes of d/dt(I W) interval by interval across a window, each
    interval lifted from the right-end value of the one before."""
    prev = np.concatenate([w_init[None], W[:-1].sum(axis=1)])
    modes = lift_rate_modes(W.swapaxes(0, 1), prev, np.asarray(lengths)[:, None])
    return modes.swapaxes(0, 1)


def transfer_trace(trace, along, partition, along_new):
    """Map the directed trace g_{i,j} of one window onto refined grids.

    trace lives on i's time partition of the window and on i's interface
    nodes at coordinates `along` (None for a 1D point interface); the
    result lives on `partition` (the same window) and on the nodes at
    `along_new`.  In time the Legendre modes are L2-projected, which is
    exact when `partition` refines the old one.  In space the
    coefficients are functionals (load rows) against the interface hats,
    so they map as g_new = C M^-1 g with M the old interface mass and C
    the cross mass of the new hats against the old ones; on nested
    meshes this keeps every old functional: P^T g_new = g for the
    prolongation P.  Equal coordinates skip the space step.
    """
    coeffs = apply_projection(
        build_projection_matrices(trace.partition, partition, trace.coeffs.shape[1] - 1),
        trace.coeffs,
    )
    if along is not None and not np.array_equal(along, along_new):
        M = hat_cross_matrix(along, along)
        C = hat_cross_matrix(along_new, along)
        shp = coeffs.shape
        rep = spla.splu(M.tocsc()).solve(coeffs.reshape(-1, shp[-1]).T)
        coeffs = (C @ rep).T.reshape(shp[:-1] + (C.shape[0],))
    return InterfaceTrace(partition=partition, coeffs=coeffs)


def interface_residual(g_new, g_old, scale):
    """Discrete L2((0,T) x Gamma) change of transmission data, relative to
    the larger of the new data's norm and `scale` (`iterate` passes the
    norm of the window's starting data, so data that decays towards zero
    is not measured against its own vanishing size)."""
    if g_new.coeffs.shape != g_old.coeffs.shape:
        raise ValueError("trace dimension mismatch")
    dn = InterfaceTrace(g_new.partition, g_new.coeffs - g_old.coeffs).norm()
    den = max(g_new.norm(), scale)
    return dn / den if den > 0 else dn


# ---------------------------------------------------------------------------
# Iteration and windows
# ---------------------------------------------------------------------------


@dataclass
class IterationHistory:
    residuals: list = field(default_factory=list)
    pair_residuals: list = field(default_factory=list)  # per sweep: directed pair -> residual
    converged: bool = False

    @property
    def iterations(self):
        return len(self.residuals)


@contextlib.contextmanager
def _named(sid, part):
    """Prefix a SolverError raised inside with the subdomain and window."""
    try:
        yield
    except SolverError as e:
        raise SolverError(f"subdomain {sid}, window [{part.start:g}, {part.end:g}], {e}") from e


def _cpu_count():
    """The CPUs this process may run on; 1 where the OS cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _groups(md, win):
    """The subdomain ids of `md` dealt round-robin into the most groups,
    at most min(CPUs, subdomains), of which each marches at least
    _MIN_GROUP_WORK unknowns x steps per sweep of `win`; else one."""
    sids = sorted(md.assemblies)
    work = {sid: md.assemblies[sid].n_dofs * win.partitions[sid].n_intervals for sid in sids}
    for n in range(min(_cpu_count(), len(sids)), 1, -1):
        groups = [sids[g::n] for g in range(n)]
        if min(sum(work[sid] for sid in group) for group in groups) >= _MIN_GROUP_WORK:
            return groups
    return [sids]


def _window_arrays(md, win):
    """Set every subdomain up for the window (`prepare_march`) and give it
    one zeroed (N, d+1, rows) window array in anonymous shared memory,
    which a forked worker writes and the parent reads."""
    arrays = {}
    for sid, asm in md.assemblies.items():
        part = win.partitions[sid]
        with _named(sid, part):
            mass = prepare_march(asm, part)[0]
        shape = (part.n_intervals, asm.degree + 1, mass.shape[0])
        buffer = mmap.mmap(-1, 8 * math.prod(shape))
        arrays[sid] = np.frombuffer(buffer, dtype=np.float64).reshape(shape)
    return arrays


_window = None  # a worker's (md, win, u_init, arrays); assigned only in workers


def _start_worker(*window):
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the workers
    global _window
    _window = window
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()


def _exit_with_parent(parent):
    # a pool worker waits for tasks on a queue whose writing end it holds
    # too, so it would outlive a parent that was killed
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def _march(md, win, traces, u_init, arrays, sids):
    """Solve the subdomains `sids` of the window `win` from u_init[sid]
    against `traces`, each into its window array."""
    for sid in sids:
        asm, part = md.assemblies[sid], win.partitions[sid]
        with _named(sid, part):
            solve_window_mortar(asm, {nb: traces[(sid, nb)] for nb in asm.iface}, part,
                                u_init[sid], win.loads[sid], out=arrays[sid])


def _counters(cache):
    return np.array([cache.factorizations, cache.hits, cache.nnz_lu])


def _march_group(traces, group):
    """A worker's task: march `group` of its window into the shared
    arrays.  Returns what the march added to each subdomain's factor-cache
    counters (any worker may march a group), which the parent adds to its
    own."""
    md, win, u_init, arrays = _window
    before = {sid: _counters(md.assemblies[sid].cache) for sid in group}
    _march(md, win, traces, u_init, arrays, group)
    return {sid: _counters(md.assemblies[sid].cache) - before[sid] for sid in group}


def sweep(md, win, traces, u_init, shared=None):
    """One Jacobi sweep over the window `win`: every subdomain solves
    from u_init[sid] against `traces` (directed pair -> InterfaceTrace),
    then every directed pair i <- j gets new data from j's solution.
    `shared`, what the window's sweeps share, is (window arrays, groups,
    pool): the pool's workers march every group but the first into the
    arrays.  Without it the sweep runs in this process, into new arrays.

    Returns (trajectories, fluxes, new_traces), the first two keyed by
    subdomain id and viewing the window arrays."""
    arrays, groups, pool = shared or (_window_arrays(md, win), [sorted(md.assemblies)], None)
    futures = [(group, pool.submit(
                    _march_group, {pair: tr for pair, tr in traces.items() if pair[0] in group},
                    group))
               for group in groups[1:]]
    _march(md, win, traces, u_init, arrays, groups[0])
    for group, future in futures:
        try:
            counts = future.result()
        except BrokenProcessPool as e:
            part = win.partitions[group[0]]
            raise SolverError(
                f"subdomains {', '.join(map(str, group))}, window [{part.start:g}, "
                f"{part.end:g}]: worker process ended ({type(e).__name__}: {e})") from e
        for sid, added in counts.items():
            cache = md.assemblies[sid].cache
            cache.factorizations, cache.hits, cache.nnz_lu = map(int, _counters(cache) + added)
    trajectories, fluxes = {}, {}
    for sid in sorted(md.assemblies):
        trajectories[sid], fluxes[sid] = window_views(
            md.assemblies[sid], win.partitions[sid], u_init[sid], arrays[sid])
    new_traces = {
        (i, j): transmission_update(md, win, i, j, trajectories[j], fluxes[j])
        for (i, j) in md.pairs
    }
    return trajectories, fluxes, new_traces


def iterate(md, win, u_init, budget, tol, traces=None):
    """Sweep the window `win` until the interface residual reaches `tol`,
    from `traces` or else from the configured initial guess.

    Raises DivergenceError on a non-finite residual, on a residual more
    than DIVERGENCE_FACTOR times the first sweep's, and on a directed
    pair's data whose norm exceeds DIVERGENCE_FACTOR times the largest
    norm of any pair's data over the start and the first two sweeps.
    The peak is taken over all pairs because a sweep carries data one
    subdomain further: a pair far from every source may start from data
    of 1e-100 and rightly rise to the size of its neighbours' a few
    sweeps later.

    Returns (trajectories, fluxes, traces, history); trajectories are the
    last computed iterate (solved against the pre-update traces).
    """
    if traces is None:
        traces = initial_guess(md.cfg.initial_guess, md, win, u_init)
    scale = {pair: traces[pair].norm() for pair in md.pairs}
    peak = max([0.0, *scale.values()])
    arrays, groups = _window_arrays(md, win), _groups(md, win)
    pool = None
    if len(groups) > 1:
        pool = ProcessPoolExecutor(len(groups) - 1, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start_worker, initargs=(md, win, u_init, arrays))

    history = IterationHistory()
    trajectories, fluxes = {}, {}
    r0 = None
    with pool or contextlib.nullcontext():
        for k in range(budget):
            trajectories, fluxes, new_traces = sweep(md, win, traces, u_init, (arrays, groups, pool))
            r_pair = {
                pair: interface_residual(new_traces[pair], traces[pair], scale[pair])
                for pair in md.pairs
            }
            r_k = float(np.max([*r_pair.values(), 0.0]))  # a NaN propagates
            history.residuals.append(r_k)
            history.pair_residuals.append(r_pair)
            traces = new_traces
            if not np.isfinite(r_k):
                raise DivergenceError(
                    f"{_worst(r_pair, win)}: non-finite interface residual", history
                )
            if r0 is None:
                r0 = r_k
            elif r_k > DIVERGENCE_FACTOR * max(r0, 1e-300):
                raise DivergenceError(
                    f"{_worst(r_pair, win)}: interface residual grew by more than "
                    f"{DIVERGENCE_FACTOR:.0e}", history
                )
            norms = {pair: traces[pair].norm() for pair in md.pairs}
            if k < 2:
                peak = max([peak, *norms.values()])
            grown = {pair: norm / peak for pair, norm in norms.items()
                     if norm > DIVERGENCE_FACTOR * peak > 0.0}
            if grown:
                raise DivergenceError(
                    f"{_worst(grown, win)}: interface data norm grew by more than "
                    f"{DIVERGENCE_FACTOR:.0e}", history
                )
            if r_k <= tol:
                history.converged = True
                break
    return trajectories, fluxes, traces, history


def _worst(r_pair, win):
    """Where the iteration blew up: the directed interface with the
    largest (or a non-finite) value of `r_pair`, and the window."""
    (i, j), _ = max(r_pair.items(), key=lambda kv: np.nan_to_num(kv[1], nan=np.inf))
    return f"interface {i}->{j}, window [{win.partitions[i].start:g}, {win.partitions[i].end:g}]"


@dataclass
class MultidomainSolution:
    cfg: prb.ExperimentConfig
    trajectories: dict  # sid -> DGTrajectory over [0, T], the windows chained
    traces: list        # per window: final transmission data per directed pair
    histories: list     # IterationHistory per window
    meshes: dict        # sid -> subdomain Mesh

    def view(self, sid):
        """Subdomain sid's trajectory."""
        return self.trajectories[sid]


def _extrapolate(trace, partition):
    """The linear continuation of a trace past its end, as modes on
    `partition`: g(t) = c_0 + s (t - t_mid) about the midpoint of the last
    interval, whose mode 0 is c_0.  A DG(1) trace has its own slope there,
    s = 2 c_1 / k; a DG(0) trace is constant on each interval, so s runs
    through the means of its last two intervals (0 with only one)."""
    c, k = trace.coeffs, trace.partition.lengths
    if c.shape[1] > 1:
        s = 2.0 * c[-1, 1] / k[-1]
    elif k.size > 1:
        s = (c[-1, 0] - c[-2, 0]) / (0.5 * (k[-1] + k[-2]))
    else:
        s = 0.0
    bp = partition.breakpoints
    shift = 0.5 * (bp[:-1] + bp[1:]) - (trace.partition.end - 0.5 * k[-1])
    out = np.zeros((partition.n_intervals,) + c.shape[1:])
    out[:, 0] = c[-1, 0] + shift[:, None] * s
    if c.shape[1] > 1:
        out[:, 1] = 0.5 * partition.lengths[:, None] * s
    return InterfaceTrace(partition=partition, coeffs=out)


def run_windows(cfg, md=None, tol=None, traces=None):
    """Sequential time windows; each window's endpoint seeds the next.

    traces, if given, holds one dict of starting transmission data per
    window (directed pair -> InterfaceTrace on the window's partitions).
    Without it the first window starts from the configured initial guess
    and every later one from the previous window's converged traces,
    continued linearly past their end (`_extrapolate`) onto the new
    window's partitions.  A multi-window run therefore stops at another
    point than cold-started windows would, within the tolerance."""
    if md is None:
        md = build_multidomain(cfg)
    tol = cfg.tolerance if tol is None else tol
    bounds = np.linspace(0.0, cfg.T, cfg.windows + 1)
    u_cur = {sid: fes.nodal_interpolate(asm.mesh, cfg.u0, t=0.0)
             for sid, asm in md.assemblies.items()}
    windows, histories, final_traces = [], [], []
    for w in range(cfg.windows):
        win = md.window(bounds[w], bounds[w + 1])
        if traces is not None:
            start = traces[w]
        elif w > 0:
            start = {(i, j): _extrapolate(tr, win.partitions[i])
                     for (i, j), tr in final_traces[-1].items()}
        else:
            start = None
        trajectories, _, final, hist = iterate(md, win, u_cur, cfg.max_iterations, tol, start)
        windows.append(trajectories)
        histories.append(hist)
        final_traces.append(final)
        u_cur = {sid: traj.final_value() for sid, traj in trajectories.items()}
    return MultidomainSolution(
        cfg=cfg, trajectories={sid: DGTrajectory.chain([ws[sid] for ws in windows])
                               for sid in md.assemblies},
        traces=final_traces, histories=histories,
        meshes={sid: asm.mesh for sid, asm in md.assemblies.items()},
    )
