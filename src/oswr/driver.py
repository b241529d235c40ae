"""Waveform-relaxation driver.

Builds the per-subdomain assemblies, exchanges transmission data between
neighbors (Jacobi style: every subdomain solves against the previous
iterate's traces), projects traces between nonconforming time
grids, monitors interface residuals, and chains time windows.

The conforming-trace exchange never extracts a normal derivative from
the solution: the new data is the algebraic combination

    g_new(i<-j) = P_i [ -g_old(j<-i) + (p_ij + p_ji) M_G u_j
                         + (q_ij + q_ji) d/dt(I_j M_G u_j)
                         + (tangential advection + diffusion) u_j ],

all in weak (functional) form against the interface test functions; the
mortar exchange carries the discrete flux unknown instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from oswr import femspace as fes
from oswr import problem as prb
from oswr.dgsolver import (
    DGTrajectory,
    FactorCache,
    InterfaceTrace,
    SolverError,
    solve_window,  # unused here; bench/tracing.py wraps oswr.driver.solve_window
    solve_window_mortar,
    trajectory_norm,
    trajectory_values,
)
from oswr.timebasis import TimePartition, lift_rate_modes
from oswr.timeproject import apply_projection, build_projection_matrices, hat_cross_matrix

__all__ = [
    "DivergenceError",
    "SubdomainAssembly",
    "Multidomain",
    "IterationHistory",
    "MultidomainSolution",
    "TrajectoryView",
    "build_multidomain",
    "initial_guess",
    "transmission_update",
    "interface_residual",
    "iterate",
    "run_windows",
]

DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Residual blow-up or non-finite residual; carries the history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass
class IfaceAssembly:
    """One subdomain's view of one directed interface (self -> neighbor)."""

    neighbor: int
    nodes: np.ndarray
    along: np.ndarray | None
    p: float
    q: float
    M_gamma: sp.csr_matrix
    M_pbn: sp.csr_matrix       # (p - b.n/2) mass
    M_pbn_full: sp.csr_matrix  # (p - b.n) mass (mortar interface line)
    M_bn2: sp.csr_matrix       # (b.n/2) mass (mortar volume line)
    B_r: sp.csr_matrix
    K_s: sp.csr_matrix
    restrict: sp.csr_matrix    # selection (n_iface x ndof)
    is_mortar: bool = False


@dataclass
class SubdomainAssembly:
    spec: prb.SubdomainSpec
    mesh: fes.Mesh
    space: fes.FemSpace
    degree: int
    M_vol: sp.csr_matrix
    A_vol: sp.csr_matrix       # atilde + exterior Robin closure
    M_full: sp.csr_matrix = None
    A_full: sp.csr_matrix = None
    iface: dict = field(default_factory=dict)
    cache: FactorCache = field(default_factory=FactorCache)
    _load_cache: dict = field(default_factory=dict)
    f: object = None

    @property
    def n_dofs(self):
        return self.mesh.n_nodes

    @property
    def mortar_neighbors(self):
        return [nb for nb, ia in sorted(self.iface.items()) if ia.is_mortar]

    def window_loads(self, partition):
        key = (round(partition.start, 14), round(partition.end, 14), partition.n_intervals)
        if key not in self._load_cache:
            bp = partition.breakpoints
            self._load_cache[key] = [
                fes.assemble_load(self.mesh, self.f, (bp[n], bp[n + 1] - bp[n]), self.degree)
                for n in range(partition.n_intervals)
            ]
        return self._load_cache[key]


def _interface_side(spec, itf):
    tol = 1e-12
    if itf.axis == 0:
        if abs(itf.position - spec.box[1]) < tol:
            return "xmax"
        if abs(itf.position - spec.box[0]) < tol:
            return "xmin"
    else:
        if abs(itf.position - spec.box[3]) < tol:
            return "ymax"
        if abs(itf.position - spec.box[2]) < tol:
            return "ymin"
    raise ValueError(f"interface at {itf.position} not on the boundary of subdomain {spec.id}")


def _restriction(nodes, ndof):
    n = nodes.size
    return sp.coo_matrix((np.ones(n), (np.arange(n), nodes)), shape=(n, ndof)).tocsr()


def build_subdomain_assembly(cfg, spec, interfaces, p_ext=1.0):
    """Mesh, space and all time-independent operators for one subdomain."""
    counts = (spec.nx,) if spec.dim == 1 else (spec.nx, spec.ny)
    mesh = fes.build_mesh(spec.box, counts)
    sides = {}
    for itf in interfaces:
        if spec.id not in (itf.i, itf.j):
            continue
        nb = itf.j if itf.i == spec.id else itf.i
        side = _interface_side(spec, itf)
        if spec.dim == 2:
            lo, hi = itf.span
            ax = 1 - itf.axis
            sext = (spec.box[2], spec.box[3]) if ax == 1 else (spec.box[0], spec.box[1])
            if abs(lo - sext[0]) > 1e-12 or abs(hi - sext[1]) > 1e-12:
                raise ValueError(
                    f"interface ({itf.i},{itf.j}) covers only part of a face of "
                    f"subdomain {spec.id}; only full-face (band) decompositions are supported"
                )
        sides[nb] = side
    space = fes.build_space(mesh, sides)

    atilde = fes.assemble_atilde(mesh, spec.nu, spec.b, spec.c, spec.div_b())
    ext = fes.assemble_exterior_robin(space, spec.b, p_ext=p_ext)
    asm = SubdomainAssembly(
        spec=spec, mesh=mesh, space=space, degree=spec.degree,
        M_vol=fes.assemble_mass(mesh, spec.omega), A_vol=(atilde + ext).tocsr(), f=cfg.f,
    )
    n = asm.n_dofs
    for nb in sorted(sides):
        params = cfg.transmission[(spec.id, nb)]
        blocks = fes.assemble_interface_ops(space, nb, params, spec.b)
        m_bn2 = (params.p * blocks.M_gamma - blocks.M_pbn).tocsr()
        asm.iface[nb] = IfaceAssembly(
            neighbor=nb,
            nodes=blocks.nodes,
            along=space.traces[nb].along,
            p=params.p,
            q=params.q,
            M_gamma=blocks.M_gamma,
            M_pbn=blocks.M_pbn,
            M_pbn_full=(blocks.M_pbn - m_bn2).tocsr(),
            M_bn2=m_bn2,
            B_r=blocks.B_r,
            K_s=blocks.K_s,
            restrict=_restriction(blocks.nodes, n),
        )
    _finalize_operators(asm)
    return asm


def _finalize_operators(asm):
    """Fold the interface blocks into the volume operators M_full, A_full.

    A conforming interface adds its whole transmission operator; a mortar
    interface only the (b.n/2) interface mass of the volume line, the
    rest lives in the flux rows of the step system."""
    M_full = asm.M_vol.copy()
    A_full = asm.A_vol.copy()
    for nb, ia in sorted(asm.iface.items()):
        R = ia.restrict
        if ia.is_mortar:
            A_full = A_full + R.T @ ia.M_bn2 @ R
        else:
            A_full = A_full + R.T @ (ia.M_pbn + ia.q * ia.B_r + ia.K_s) @ R
            if ia.q != 0.0:
                M_full = M_full + ia.q * (R.T @ ia.M_gamma @ R)
    asm.M_full = M_full.tocsr()
    asm.A_full = A_full.tocsr()


@dataclass
class CrossMatrices:
    """Mortar coupling from neighbor j's trace space into i's (rows: i).

    M_x:  int psi_i chi_j            (also couples the flux Q_j)
    M_bx: int (b_j.n_j + p_ij) psi_i chi_j
    B_rx: int grad_G.(r_ij chi_j) psi_i   (by parts)
    K_sx: int q_ij s_ij dchi_j dpsi_i
    """

    M_x: sp.csr_matrix
    M_bx: sp.csr_matrix
    B_rx: sp.csr_matrix
    K_sx: sp.csr_matrix


def _build_cross(md, i, j):
    """Cross matrices for the directed mortar exchange i <- j."""
    ai, aj = md.assemblies[i], md.assemblies[j]
    ti, tj = ai.space.traces[j], aj.space.traces[i]
    params = md.cfg.transmission[(i, j)]
    if ai.mesh.dim == 1:
        bnj = fes._bn_along(tj, aj.spec.b)(np.zeros(1))[0]
        one = sp.csr_matrix(np.array([[1.0]]))
        zero = sp.csr_matrix((1, 1))
        return CrossMatrices(
            M_x=one,
            M_bx=sp.csr_matrix(np.array([[bnj + params.p]])),
            B_rx=zero,
            K_sx=zero.copy(),
        )
    bnj = fes._bn_along(tj, aj.spec.b)
    M_x = hat_cross_matrix(ti.along, tj.along, None, "mass")
    M_bx = hat_cross_matrix(ti.along, tj.along, lambda s: bnj(s) + params.p, "mass")
    if params.r.is_zero():
        B_rx = sp.csr_matrix(M_x.shape)
    else:
        def rw(s):
            x, y = ti.points(s)
            return fes._eval_coeff(params.r, x, y, 0.0)
        B_rx = -hat_cross_matrix(ti.along, tj.along, rw, "dtarget")
    qs = params.q * params.s
    if qs == 0.0:
        K_sx = sp.csr_matrix(M_x.shape)
    else:
        K_sx = hat_cross_matrix(ti.along, tj.along, lambda s: qs * np.ones_like(s), "grad_both")
    return CrossMatrices(M_x=M_x, M_bx=M_bx, B_rx=B_rx, K_sx=K_sx)


@dataclass
class Multidomain:
    cfg: prb.ExperimentConfig
    assemblies: dict
    interfaces: list
    pairs: list          # directed (i, j) pairs
    tang: dict           # unordered pair -> combined tangential operator
    cross: dict          # directed pair -> CrossMatrices (mortar only)
    partitions: dict = field(default_factory=dict)
    projections: dict = field(default_factory=dict)
    loads: dict = field(default_factory=dict)

    @property
    def degree(self):
        return next(iter(self.assemblies.values())).degree

    def set_window(self, t_a, t_b):
        """Per-window time partitions, loads and time projections."""
        self.partitions = {
            sid: TimePartition.uniform(t_a, t_b, asm.spec.nt)
            for sid, asm in self.assemblies.items()
        }
        self.projections = {
            (i, j): build_projection_matrices(
                self.partitions[j], self.partitions[i], self.degree
            )
            for (i, j) in self.pairs
        }
        self.loads = {
            sid: asm.window_loads(self.partitions[sid])
            for sid, asm in self.assemblies.items()
        }


def build_multidomain(cfg, force_mortar=False, p_ext=1.0):
    diags = prb.validate_problem(cfg)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ValueError("invalid problem: " + "; ".join(d.message for d in errors))
    interfaces = cfg.interfaces()
    assemblies = {
        s.id: build_subdomain_assembly(cfg, s, interfaces, p_ext=p_ext)
        for s in cfg.subdomains
    }
    pairs = []
    for itf in interfaces:
        pairs.append((itf.i, itf.j))
        pairs.append((itf.j, itf.i))
    pairs.sort()

    # decide conforming vs mortar per interface
    for itf in interfaces:
        ai, aj = assemblies[itf.i], assemblies[itf.j]
        al_i, al_j = ai.space.traces[itf.j].along, aj.space.traces[itf.i].along
        if ai.mesh.dim == 1:
            conforming = True
        else:
            conforming = al_i.size == al_j.size and np.allclose(al_i, al_j, atol=1e-12)
        mortar = force_mortar or not conforming
        ai.iface[itf.j].is_mortar = mortar
        aj.iface[itf.i].is_mortar = mortar
    for asm in assemblies.values():
        _finalize_operators(asm)

    md = Multidomain(
        cfg=cfg, assemblies=assemblies, interfaces=interfaces, pairs=pairs,
        tang={}, cross={},
    )
    for itf in interfaces:
        i, j = itf.i, itf.j
        ai, aj = assemblies[i], assemblies[j]
        if ai.iface[j].is_mortar:
            md.cross[(i, j)] = _build_cross(md, i, j)
            md.cross[(j, i)] = _build_cross(md, j, i)
        else:
            qi = ai.iface[j].q
            qj = aj.iface[i].q
            md.tang[(min(i, j), max(i, j))] = (
                qi * ai.iface[j].B_r + qj * aj.iface[i].B_r
                + ai.iface[j].K_s + aj.iface[i].K_s
            ).tocsr()
    return md


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def initial_guess(strategy, md, sid, u_init):
    """Initial transmission data g_{sid, nb} for every interface of one
    subdomain: zero, or the transmission operator applied to the initial
    value with the flux term dropped (constant in time, mode 0)."""
    asm = md.assemblies[sid]
    part = md.partitions[sid]
    d = asm.degree
    out = {}
    for nb, ia in sorted(asm.iface.items()):
        coeffs = np.zeros((part.n_intervals, d + 1, ia.nodes.size))
        if strategy == "from_u0":
            tru = np.asarray(u_init, dtype=float)[ia.nodes]
            g0 = ia.p * (ia.M_gamma @ tru) + ia.q * (ia.B_r @ tru) + ia.K_s @ tru
            coeffs[:, 0, :] = g0[None, :]
        elif strategy != "zero":
            raise ValueError(f"unknown initial-guess strategy {strategy!r}")
        out[nb] = InterfaceTrace(partition=part, coeffs=coeffs)
    return out


def _apply_rows(B, arr):
    """Apply a sparse operator to the trailing axis of (N, d+1, n) data."""
    shp = arr.shape
    flat = arr.reshape(-1, shp[-1])
    out = (B @ flat.T).T
    return out.reshape(shp[:-1] + (B.shape[0],))


def transmission_update(md, i, j, traj_j, flux_j, g_old, u_init_j):
    """New data g_{i,j} from neighbor j's iterate (directed i <- j).

    traj_j lives on T_j; g_old is g_{j,i} (the data j received, also on
    T_j); the result is projected onto T_i.
    """
    aj = md.assemblies[j]
    ia_j = aj.iface[i]
    part_j = md.partitions[j]
    lengths = part_j.lengths
    RU = traj_j.coeffs[:, :, ia_j.nodes]
    ru_init = np.asarray(u_init_j, dtype=float)[ia_j.nodes]

    if ia_j.is_mortar:
        cm = md.cross[(i, j)]
        params_ij = md.cfg.transmission[(i, j)]
        W = _apply_rows(cm.M_x, RU)
        w_init = cm.M_x @ ru_init
        gtil = -_apply_rows(cm.M_x, flux_j.coeffs[i])
        gtil += _apply_rows(cm.M_bx + params_ij.q * cm.B_rx + cm.K_sx, RU)
        if params_ij.q != 0.0:
            gtil += params_ij.q * _lift_rate_window(W, w_init, lengths)
    else:
        ia_i = md.assemblies[i].iface[j]
        psum = ia_i.p + ia_j.p
        qsum = ia_i.q + ia_j.q
        W = _apply_rows(ia_j.M_gamma, RU)
        w_init = ia_j.M_gamma @ ru_init
        gtil = -g_old.coeffs + psum * W
        tang = md.tang[(min(i, j), max(i, j))]
        gtil += _apply_rows(tang, RU)
        if qsum != 0.0:
            gtil += qsum * _lift_rate_window(W, w_init, lengths)

    new = apply_projection(md.projections[(i, j)], gtil)
    return InterfaceTrace(partition=md.partitions[i], coeffs=new)


def _lift_rate_window(W, w_init, lengths):
    """Modes of d/dt(I W) interval by interval across a window."""
    out = np.empty_like(W)
    prev = w_init
    for n in range(W.shape[0]):
        out[n] = lift_rate_modes(W[n], prev, lengths[n])
        prev = W[n].sum(axis=0)
    return out


def interface_residual(g_new, g_old):
    """Relative discrete L2((0,T) x Gamma) change of transmission data."""
    if g_new.coeffs.shape != g_old.coeffs.shape:
        raise ValueError("trace dimension mismatch")
    delta = InterfaceTrace(g_new.partition, g_new.coeffs - g_old.coeffs)
    dn = delta.norm()
    nn = g_new.norm()
    return dn / nn if nn > 0 else dn


# ---------------------------------------------------------------------------
# Iteration and windows
# ---------------------------------------------------------------------------


@dataclass
class IterationHistory:
    residuals: list = field(default_factory=list)
    solution_norms: dict = field(default_factory=dict)  # sid -> list
    change_norms: dict = field(default_factory=dict)    # sid -> list
    wall_times: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self):
        return len(self.residuals)


def _solve_one(md, sid, traces, u_init):
    asm = md.assemblies[sid]
    part = md.partitions[sid]
    mine = {nb: traces[(sid, nb)] for nb in asm.iface}
    try:
        return solve_window_mortar(asm, mine, part, u_init, md.loads[sid], cache=asm.cache)
    except SolverError as e:
        raise SolverError(f"subdomain {sid}, window [{part.start:g}, {part.end:g}], {e}") from e


def iterate(md, window, u_init, budget, tol, guess="from_u0", traces=None):
    """Run the Jacobi waveform-relaxation loop on one window.

    Returns (trajectories, fluxes, traces, history); trajectories are the
    last computed iterate (solved against the pre-update traces).
    """
    t_a, t_b = window
    md.set_window(t_a, t_b)
    sids = sorted(md.assemblies)
    if traces is None:
        traces = {}
        for sid in sids:
            for nb, tr in initial_guess(guess, md, sid, u_init[sid]).items():
                traces[(sid, nb)] = tr
    scale = {pair: max(traces[pair].norm(), 0.0) for pair in md.pairs}

    history = IterationHistory(
        solution_norms={s: [] for s in sids}, change_norms={s: [] for s in sids}
    )
    prev_traj = None
    trajectories, fluxes = {}, {}
    r0 = None
    for it in range(1, budget + 1):
        tic = time.perf_counter()
        results = {sid: _solve_one(md, sid, traces, u_init[sid]) for sid in sids}
        trajectories = {sid: r[0] for sid, r in results.items()}
        fluxes = {sid: r[1] for sid, r in results.items()}

        new_traces = {}
        for (i, j) in md.pairs:
            new_traces[(i, j)] = transmission_update(
                md, i, j, trajectories[j], fluxes[j], traces[(j, i)], u_init[j]
            )
        r_pair = {}
        for pair in md.pairs:
            delta = InterfaceTrace(
                new_traces[pair].partition,
                new_traces[pair].coeffs - traces[pair].coeffs,
            ).norm()
            den = max(new_traces[pair].norm(), scale[pair])
            r_pair[pair] = delta / den if den > 0 else delta
        r_k = float(np.max([*r_pair.values(), 0.0]))  # a NaN propagates
        history.residuals.append(r_k)
        history.wall_times.append(time.perf_counter() - tic)
        for sid in sids:
            nrm = trajectory_norm(trajectories[sid], md.assemblies[sid].M_vol)
            history.solution_norms[sid].append(nrm)
            if prev_traj is None:
                history.change_norms[sid].append(nrm)
            else:
                diff = DGTrajectory(
                    trajectories[sid].partition,
                    trajectories[sid].coeffs - prev_traj[sid].coeffs,
                    trajectories[sid].u_init,
                )
                history.change_norms[sid].append(
                    trajectory_norm(diff, md.assemblies[sid].M_vol)
                )
        prev_traj = trajectories
        traces = new_traces
        if not np.isfinite(r_k):
            raise DivergenceError(
                f"{_worst(r_pair, window)}: non-finite interface residual", history
            )
        if r0 is None:
            r0 = r_k
        elif r_k > DIVERGENCE_FACTOR * max(r0, 1e-300):
            raise DivergenceError(
                f"{_worst(r_pair, window)}: interface residual grew by more than "
                f"{DIVERGENCE_FACTOR:.0e}", history
            )
        if r_k <= tol:
            history.converged = True
            break
    return trajectories, fluxes, traces, history


def _worst(r_pair, window):
    """Where the residual blew up: the directed interface with the largest
    (or a non-finite) residual, and the window."""
    (i, j), _ = max(r_pair.items(), key=lambda kv: np.nan_to_num(kv[1], nan=np.inf))
    return f"interface {i}->{j}, window [{window[0]:g}, {window[1]:g}]"


@dataclass
class TrajectoryView:
    """Evaluate one subdomain's solution across chained windows."""

    windows: list  # of DGTrajectory
    mesh: fes.Mesh | None = None  # the space the dof vectors live in

    @property
    def t_start(self):
        return self.windows[0].partition.start

    @property
    def t_end(self):
        return self.windows[-1].partition.end

    def breakpoints(self):
        out = [self.windows[0].partition.breakpoints]
        for w in self.windows[1:]:
            out.append(w.partition.breakpoints[1:])
        return np.concatenate(out)

    def value(self, t, left=False):
        return self.values([t], left)[0]

    def values(self, times, left=False):
        """Values at an array of times, (n_times, ndof); see
        `trajectory_values`."""
        return trajectory_values(self.windows, times, left)

    def final_value(self):
        return self.windows[-1].final_value()


@dataclass
class MultidomainSolution:
    cfg: prb.ExperimentConfig
    trajectories: dict  # sid -> list of DGTrajectory (one per window)
    traces: dict        # final transmission data per directed pair
    histories: list     # IterationHistory per window
    meshes: dict        # sid -> subdomain Mesh

    def view(self, sid):
        return TrajectoryView(self.trajectories[sid], mesh=self.meshes[sid])


def run_windows(cfg, md=None, budget=None, tol=None, guess=None, force_mortar=False):
    """Sequential time windows; each window's endpoint seeds the next."""
    if md is None:
        md = build_multidomain(cfg, force_mortar=force_mortar)
    budget = cfg.max_iterations if budget is None else budget
    tol = cfg.tolerance if tol is None else tol
    guess = cfg.initial_guess if guess is None else guess
    bounds = np.linspace(0.0, cfg.T, cfg.windows + 1)
    u_cur = {
        sid: fes.nodal_interpolate(asm.mesh, cfg.u0, t=0.0)
        for sid, asm in md.assemblies.items()
    }
    all_traj = {sid: [] for sid in md.assemblies}
    histories = []
    traces = None
    for w in range(cfg.windows):
        trajectories, fluxes, traces, hist = iterate(
            md, (bounds[w], bounds[w + 1]), u_cur, budget, tol, guess=guess
        )
        histories.append(hist)
        for sid, traj in trajectories.items():
            all_traj[sid].append(traj)
        u_cur = {sid: traj.final_value() for sid, traj in trajectories.items()}
    return MultidomainSolution(
        cfg=cfg, trajectories=all_traj, traces=traces, histories=histories,
        meshes={sid: asm.mesh for sid, asm in md.assemblies.items()},
    )
