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


class DivergenceError(RuntimeError):
    """Residual blow-up or non-finite residual; carries the history."""

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


def sweep(md, win, traces, u_init):
    """One Jacobi sweep over the window `win`: every subdomain solves
    from u_init[sid] against `traces` (directed pair -> InterfaceTrace),
    then every directed pair i <- j gets new data from j's solution.

    Returns (trajectories, fluxes, new_traces), the first two keyed by
    subdomain id."""
    trajectories, fluxes = {}, {}
    for sid, asm in sorted(md.assemblies.items()):
        part = win.partitions[sid]
        mine = {nb: traces[(sid, nb)] for nb in asm.iface}
        try:
            trajectories[sid], fluxes[sid] = solve_window_mortar(
                asm, mine, part, u_init[sid], win.loads[sid])
        except SolverError as e:
            raise SolverError(f"subdomain {sid}, window [{part.start:g}, {part.end:g}], {e}") from e
    new_traces = {
        (i, j): transmission_update(md, win, i, j, trajectories[j], fluxes[j])
        for (i, j) in md.pairs
    }
    return trajectories, fluxes, new_traces


def iterate(md, win, u_init, budget, tol, traces=None):
    """Sweep the window `win` until the interface residual reaches `tol`,
    from `traces` or else from the configured initial guess.

    Returns (trajectories, fluxes, traces, history); trajectories are the
    last computed iterate (solved against the pre-update traces).
    """
    if traces is None:
        traces = initial_guess(md.cfg.initial_guess, md, win, u_init)
    scale = {pair: traces[pair].norm() for pair in md.pairs}

    history = IterationHistory()
    trajectories, fluxes = {}, {}
    r0 = None
    for _ in range(budget):
        trajectories, fluxes, new_traces = sweep(md, win, traces, u_init)
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
        if r_k <= tol:
            history.converged = True
            break
    return trajectories, fluxes, traces, history


def _worst(r_pair, win):
    """Where the residual blew up: the directed interface with the largest
    (or a non-finite) residual, and the window."""
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
