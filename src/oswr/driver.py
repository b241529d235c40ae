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
runs them in parallel processes.  With c the number of CPUs the process
may run on (`os.sched_getaffinity`) and m subdomains, it deals the
subdomain ids round-robin into the most groups, at most min(c, m), in
which every group marches at least _MIN_GROUP_WORK unknowns x steps per
sweep; one group means in-process.  A smaller group saves a few
milliseconds per sweep, and a sweep in lockstep with a second process
takes as long as the slower of the two, so its time follows the load
of the machine more than the work: two subdomains of a few hundred
unknowns gained 3-11% in wall time, while the spread of their run
times grew up to 2.4-fold.  It factors every step system of the window
in the parent (`dgsolver.prepare_march`), then forks one worker per
group but the first, which the parent keeps.  Each
sweep sends every worker the traces its group reads; each process
marches its group and computes the new data g(i<-j) of every j in it,
and the parent gathers that data and alone applies the residual,
divergence and stopping rules.  At the end of the window the workers
return their last trajectories and fluxes and their factor-cache
counters.  The processes compute exactly what one process would, so
the results are bit-identical to a serial run.  Workers are forked,
not spawned, because the SuperLU factors they solve with cannot be
pickled.  Where `os.sched_getaffinity` does not exist (outside Linux),
with one CPU, with one subdomain or with too little work per group, the
sweep runs in-process.  Threads would not help: SuperLU's solve holds
the interpreter lock.

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
import multiprocessing
import os
import signal
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


def _march(md, win, traces, u_init, sids):
    """Solve the subdomains `sids` of the window `win` from u_init[sid]
    against `traces`, then give new data to every directed pair i <- j
    with j among them.

    Returns (trajectories, fluxes, new_traces), the first two keyed by
    subdomain id."""
    trajectories, fluxes = {}, {}
    for sid in sids:
        asm, part = md.assemblies[sid], win.partitions[sid]
        mine = {nb: traces[(sid, nb)] for nb in asm.iface}
        with _named(sid, part):
            trajectories[sid], fluxes[sid] = solve_window_mortar(
                asm, mine, part, u_init[sid], win.loads[sid])
    new_traces = {
        (i, j): transmission_update(md, win, i, j, trajectories[j], fluxes[j])
        for (i, j) in md.pairs if j in trajectories
    }
    return trajectories, fluxes, new_traces


def sweep(md, win, traces, u_init):
    """One Jacobi sweep over the window `win`: every subdomain solves
    from u_init[sid] against `traces` (directed pair -> InterfaceTrace),
    then every directed pair i <- j gets new data from j's solution.

    Returns (trajectories, fluxes, new_traces), the first two keyed by
    subdomain id."""
    return _march(md, win, traces, u_init, sorted(md.assemblies))


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


def _serve(md, win, u_init, group, conn, parent_end):
    """A worker's loop over one window: march `group` against each traces
    dict received and send back its new data, or the exception that
    stopped it.  On None, send the group's last trajectories and fluxes
    and the counters of its factor caches, and return."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the workers
    parent_end.close()
    trajectories, fluxes = {}, {}
    try:
        while (traces := conn.recv()) is not None:
            try:
                trajectories, fluxes, new_traces = _march(md, win, traces, u_init, group)
            except Exception as e:
                conn.send(e)
                return
            conn.send(new_traces)
    except EOFError:  # the parent is gone
        return
    caches = {sid: md.assemblies[sid].cache for sid in group}
    conn.send((trajectories, fluxes,
               {sid: (c.factorizations, c.hits, c.nnz_lu) for sid, c in caches.items()}))


class _Sweeper:
    """The Jacobi sweeps of one window: the subdomain ids dealt by
    `_groups`, the first group marched by this process and each other
    one by a forked worker, which `close` stops."""

    def __init__(self, md, win, u_init):
        self.md, self.win, self.u_init = md, win, u_init
        groups = _groups(md, win)
        self.own = groups[0]
        self.workers = []  # (process, connection, group)
        ctx = multiprocessing.get_context("fork")
        try:
            for group in groups[1:]:
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(md, win, u_init, group, there, here),
                                   daemon=True)
                proc.start()
                there.close()
                self.workers.append((proc, here, group))
        except BaseException:
            self.close()
            raise

    def close(self):
        for proc, conn, _ in self.workers:
            proc.terminate()
            proc.join()
            conn.close()
        self.workers = []

    @contextlib.contextmanager
    def _talking(self, group):
        """Turn a pipe that a worker left, by dying or by failing to send
        its exception, into a SolverError that names its group."""
        try:
            yield
        except (EOFError, OSError) as e:
            part = self.win.partitions[group[0]]
            raise SolverError(
                f"subdomains {', '.join(map(str, group))}, window [{part.start:g}, "
                f"{part.end:g}]: worker process ended ({type(e).__name__}: {e})") from e

    def sweep(self, traces):
        """`sweep` of the window from `traces`, each group in its own
        process."""
        for _, conn, group in self.workers:
            with self._talking(group):
                conn.send({pair: tr for pair, tr in traces.items() if pair[0] in group})
        trajectories, fluxes, new = _march(self.md, self.win, traces, self.u_init, self.own)
        for _, conn, group in self.workers:
            with self._talking(group):
                got = conn.recv()
            if isinstance(got, Exception):
                raise got
            new.update(got)
        return trajectories, fluxes, {pair: new[pair] for pair in self.md.pairs}

    def finish(self, trajectories, fluxes):
        """The last sweep's trajectories and fluxes of every subdomain,
        from the parent's own (`trajectories`, `fluxes`) and the
        workers'.  The parent's caches of the workers' subdomains take
        the workers' counters, which began from theirs at the fork."""
        trajectories, fluxes = dict(trajectories), dict(fluxes)
        for _, conn, group in self.workers:
            with self._talking(group):
                conn.send(None)
                trajs, flux, counts = conn.recv()
            trajectories.update(trajs)
            fluxes.update(flux)
            for sid, (factorizations, hits, nnz_lu) in counts.items():
                cache = self.md.assemblies[sid].cache
                cache.factorizations, cache.hits, cache.nnz_lu = factorizations, hits, nnz_lu
        order = sorted(trajectories)
        return {sid: trajectories[sid] for sid in order}, {sid: fluxes[sid] for sid in order}


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
    for sid, asm in md.assemblies.items():
        with _named(sid, win.partitions[sid]):
            prepare_march(asm, win.partitions[sid])

    history = IterationHistory()
    trajectories, fluxes = {}, {}
    r0 = None
    with contextlib.closing(_Sweeper(md, win, u_init)) as sweeper:
        for k in range(budget):
            trajectories, fluxes, new_traces = sweeper.sweep(traces)
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
        trajectories, fluxes = sweeper.finish(trajectories, fluxes)
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
