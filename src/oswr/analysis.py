"""Reference solves, error norms, convergence studies and parameter sweeps.

The monodomain reference is assembled region by region, one region per
subdomain, with the code the subdomain solves use: a region is the
subdomain's mesh at the reference grid counts, its volume operators
(mass, skew-symmetrized volume form and exterior Robin closure) are the
subdomain's own, and each interface adds the face block

    - int_Gamma ((b_i.n_i + b_j.n_j)/2) u v

that encodes continuity of the total flux (b u - nu grad u).n across a
coefficient discontinuity.  With that, the converged OSWR iterate and the
monodomain solution coincide on conforming grids up to solver tolerance.

Error norms follow a nested-refinement discipline: every study grid is a
coarsening of the reference grid, so interpolating P1 fields onto the
reference mesh is exact and measured slopes carry no interpolation bias.
Each region's unit mass and stiffness are assembled with the reference;
each call of `error_norms` builds the reference times and the P1
interpolation onto each subdomain's reference nodes, and applies them to
blocks of times.  A multidomain solution and the reference are read
alike: `view(sid)` is one DGTrajectory over [0, T] on `meshes[sid]`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from oswr import femspace as fes
from oswr import problem as prb
from oswr.dgsolver import DGTrajectory, Operators, SolverError, solve_window
from oswr.driver import (
    DivergenceError,
    _build_space,
    _check_problem,
    _volume_operators,
    build_multidomain,
    initial_guess,
    iterate,
    run_windows,
    transfer_trace,
)
from oswr.timebasis import TimePartition, gauss_radau
from oswr.timeproject import (
    hat_cross_matrix,  # unused here; bench/tracing.py wraps oswr.analysis.hat_cross_matrix
)

__all__ = [
    "RefGrid",
    "Reference",
    "ErrorReport",
    "StudyTable",
    "SweepTable",
    "solve_monodomain",
    "error_norms",
    "max_nodal_difference",
    "convergence_study",
    "sweep_parameters",
    "fit_slope",
]


@dataclass(frozen=True)
class RefGrid:
    """Reference grid sizes: per-subdomain cell counts and time steps."""

    nx: dict            # sid -> cells across the subdomain's x-extent
    ny: int | None      # cells across every subdomain's y-extent (2D)
    nt: int


@dataclass(frozen=True)
class Reference:
    """Monodomain reference solution on the tensor mesh of the union of
    the subdomains' reference grid lines.

    regions: sid -> (the region's reference node ids, its unit mass, its
    unit stiffness), the operators of the error norms."""

    mesh: fes.Mesh
    trajectory: DGTrajectory
    cfg: prb.ExperimentConfig
    regions: dict

    def view(self, sid=None):
        """The monodomain trajectory, the same for every subdomain."""
        return self.trajectory

    @property
    def meshes(self):
        """Every subdomain id -> the reference mesh."""
        return dict.fromkeys(self.regions, self.mesh)


def _reference_operators(cfg, ref):
    """The reference mesh, its regions (sid -> (node ids, unit mass, unit
    stiffness)) and the operators M = sum_s M_vol_s, A = sum_s A_vol_s -
    sum_Gamma G, with G the interface face block of weight
    (b_i.n_i + b_j.n_j)/2.  The mesh is the tensor mesh of the union of
    the regions' grid lines; a region's lines must be a run of them."""
    interfaces = cfg.interfaces()
    specs = {s.id: replace(s, nx=ref.nx[s.id], ny=ref.ny) for s in cfg.subdomains}
    spaces = {sid: _build_space(spec, interfaces) for sid, spec in specs.items()}
    axes = zip(*(space.mesh.lines for space in spaces.values()))
    mesh = fes.build_tensor_mesh(*(np.unique(np.concatenate(lines)) for lines in axes))
    n, regions = mesh.n_nodes, {}
    M = A = sp.csr_matrix((n, n))
    for sid, space in spaces.items():
        try:
            ids = mesh.grid_nodes(space.mesh.lines)
        except ValueError as e:
            raise ValueError(f"reference grid of subdomain {sid}: {e}; the subdomains' "
                             "counts must agree along every shared grid line") from None
        regions[sid] = (ids, fes.assemble_mass(space.mesh, 1.0),
                        fes.assemble_atilde(space.mesh, 1.0, (0.0,) * mesh.dim, 0.0, 0.0))
        try:
            M_vol, A_vol = _volume_operators(specs[sid], space)
        except (prb.EvalError, ValueError) as e:
            raise ValueError(f"subdomain {sid}: {e}") from e
        M = M + fes.scatter_matrix(M_vol, ids, ids, n, n)
        A = A + fes.scatter_matrix(A_vol, ids, ids, n, n)
    if sum(space.mesh.elems.shape[0] for space in spaces.values()) != mesh.elems.shape[0]:
        raise ValueError("the subdomains' reference grid lines leave reference cells uncovered")

    for itf in interfaces:
        ids_i, ti = regions[itf.i][0], spaces[itf.i].traces[itf.j]
        G = fes.assemble_flux_jump(ti, spaces[itf.j].traces[itf.i], specs[itf.i].b,
                                   specs[itf.j].b)
        A = A - fes.scatter_matrix(G, ids_i[ti.nodes], ids_i[ti.nodes], n, n)
    return mesh, regions, M, A


def solve_monodomain(cfg, ref):
    """DG(d)-in-time, P1-in-space solve on the whole box, one window.

    The reference mesh is split into one region per subdomain, in any
    layout `validate_problem` accepts: the subdomain's mesh at the
    reference counts ref.nx[sid] (and ref.ny).  Each region contributes
    its subdomain's volume operators, the skew form plus the exterior
    Robin closure, and each interface subtracts the correction
    gamma = (b_i.n_i + b_j.n_j)/2 (zero when b is continuous).  Rejects
    the problems `build_multidomain` rejects, nx keys that are not the
    subdomain ids, and counts that differ along a shared grid line.  A
    failure to interpolate u0, to load or to solve names the reference.
    """
    _check_problem(cfg)
    sids = {s.id for s in cfg.subdomains}
    if set(ref.nx) != sids:
        raise ValueError(f"reference grid nx has keys {sorted(ref.nx)}, not the subdomain ids "
                         f"{sorted(sids)} (missing {sorted(sids - set(ref.nx))})")
    mesh, regions, M, A = _reference_operators(cfg, ref)
    degree = cfg.subdomains[0].degree
    part = TimePartition.uniform(0.0, cfg.T, ref.nt)
    where = f"monodomain reference, window [0, {cfg.T:g}]"
    try:
        u0 = fes.nodal_interpolate(mesh, cfg.u0, t=0.0)
        traj = solve_window(Operators(M, A, degree), {}, part, u0,
                            fes.IntervalLoads(mesh, cfg.f, part, degree))
    except (prb.EvalError, ValueError) as e:
        raise ValueError(f"{where}: {e}") from e
    except SolverError as e:
        raise SolverError(f"{where}, {e}") from e
    return Reference(mesh=mesh, trajectory=traj, cfg=cfg, regions=regions)


# ---------------------------------------------------------------------------
# Error norms
# ---------------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Per-subdomain error norms against the reference."""

    e_inf: dict
    e_l2: dict
    e_T_l2: dict
    e_T_h1: dict


def _check_nested(coarse_n, fine_n, what):
    if fine_n % coarse_n != 0:
        raise ValueError(f"non-nested grids rejected: {what} ({fine_n} vs {coarse_n})")


# Times evaluated at once.  All reference times at once would hold several
# (times x reference nodes) arrays and raise the peak memory of a study;
# one time at a time is a Python-level loop.  A block holds at most
# BLOCK_VALUES doubles in each (times x reference nodes) array: 58 times
# on the 561-node mesh of the criterion-2 study, where larger blocks
# measured no faster and raised the peak resident memory.
BLOCK_VALUES = 1 << 15


def _blocks(n_times, n_values):
    size = max(1, BLOCK_VALUES // n_values)
    for a in range(0, n_times, size):
        yield slice(a, min(a + size, n_times))


def _norm_times(partition, degree):
    """The reference times of the error norms: for the L-inf(L2) norm the
    breakpoints (left limits), then the interior Radau points (from the
    right), with their left-limit flags; for the L2(L2) norm two Gauss
    points per interval with their quadrature weights."""
    bp = partition.breakpoints
    a, k = bp[:-1, None], (bp[1:] - bp[:-1])[:, None]
    interior = (a + gauss_radau(degree).nodes[:-1][None, :] * k).ravel()
    return (np.concatenate([bp, interior]), np.arange(bp.size + interior.size) < bp.size,
            (a + fes._G2[None, :] * k).ravel(), np.repeat(0.5 * k, fes._G2.size, axis=1).ravel())


def _sq_norms(D, M):
    """d @ (M @ d) for every row d of D."""
    return np.einsum("ti,ti->t", D, (M @ D.T).T)


def error_norms(sol, reference):
    """Errors of a multidomain (or monodomain) solution vs the reference.

    sol is a MultidomainSolution or a Reference, read alike: sol.view(sid)
    is a DGTrajectory over [0, T] on the mesh sol.meshes[sid].  Evaluates
    the solution at the reference times (left limits at breakpoints, plus
    the interior Radau points for the sup norm, and two Gauss points per
    interval), interpolates P1 fields onto the reference mesh (exact for
    nested meshes) and assembles the norms with reference-mesh
    operators, a block of times at a time.
    """
    ref_traj = reference.trajectory
    ref_part = ref_traj.partition
    sup_times, sup_left, gauss_times, gauss_weights = _norm_times(ref_part, ref_traj.degree)
    n_ref = reference.mesh.n_nodes

    parts = {}  # sid -> (its trajectory, reference nodes, M, K, P1 interpolation)
    for s in reference.cfg.subdomains:
        traj = sol.view(s.id)
        _check_nested(traj.partition.n_intervals, ref_part.n_intervals,
                      f"time grid of subdomain {s.id}")
        nodes, M, K = reference.regions[s.id]
        parts[s.id] = (traj, nodes, M, K,
                       sol.meshes[s.id].p1_operator(reference.mesh.coords[nodes]))

    def diffs_at(times, left):
        """(sid, M, K, the times x its reference nodes error) of every
        subdomain; the reference is evaluated once for all of them."""
        ref = ref_traj.values(times, left)
        for sid, (traj, nodes, M, K, P) in parts.items():
            yield sid, M, K, (P @ traj.values(times, left).T).T - ref[:, nodes]

    sup2 = dict.fromkeys(parts, 0.0)
    for b in _blocks(sup_times.size, n_ref):
        for sid, M, _, D in diffs_at(sup_times[b], sup_left[b]):
            sup2[sid] = max(sup2[sid], float(_sq_norms(D, M).max()))
    acc = dict.fromkeys(parts, 0.0)
    for b in _blocks(gauss_times.size, n_ref):
        for sid, M, _, D in diffs_at(gauss_times[b], False):
            acc[sid] += float(gauss_weights[b] @ _sq_norms(D, M))

    e_inf, e_l2, e_T_l2, e_T_h1 = {}, {}, {}, {}
    for sid, M, K, (dT,) in diffs_at([ref_part.end], True):
        l2T = float(dT @ (M @ dT))
        e_inf[sid] = math.sqrt(sup2[sid])
        e_l2[sid] = math.sqrt(acc[sid])
        e_T_l2[sid] = math.sqrt(l2T)
        e_T_h1[sid] = math.sqrt(l2T + float(dT @ (K @ dT)))
    return ErrorReport(e_inf=e_inf, e_l2=e_l2, e_T_l2=e_T_l2, e_T_h1=e_T_h1)


def max_nodal_difference(solution, reference):
    """Max over subdomains, their nodes, and their time breakpoints of
    the pointwise difference to the reference trajectory."""
    out = 0.0
    for sid, traj in solution.trajectories.items():
        P = reference.mesh.p1_operator(solution.meshes[sid].coords)
        ts = traj.partition.breakpoints
        for b in _blocks(ts.size, reference.mesh.n_nodes):
            U = traj.values(ts[b], True)
            R = (P @ reference.trajectory.values(ts[b], True).T).T
            out = max(out, float(np.max(np.abs(U - R))))
    return out


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

# Each study level refines the last by REFINE_RATIO along the study axis;
# the reference is at least REF_FACTOR times finer than the finest level.
REFINE_RATIO = 2
REF_FACTOR = 4

# Study axis -> (refines space, refines time).
AXES = {"time": (False, True), "space": (True, False), "spacetime": (True, True)}


@dataclass
class StudyTable:
    axis: str
    rows: list        # dicts: level, h/k per subdomain, norms per subdomain
    slopes: dict      # (norm, sid) -> fitted slope
    sids: list
    histories: list = field(default_factory=list)  # per level: IterationHistory per window

    NORMS = ("e_inf", "e_l2", "e_T_l2", "e_T_h1")


def fit_slope(sizes, errors):
    """Least-squares slope of log(error) against log(size)."""
    sizes = np.asarray(sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if sizes.size < 3:
        raise ValueError("slope fit needs at least 3 rows")
    mask = errors > 0
    if mask.sum() < 3:
        raise ValueError("not enough positive errors to fit a slope")
    return float(np.polyfit(np.log(sizes[mask]), np.log(errors[mask]), 1)[0])


def _scaled_cfg(cfg, axis, factor):
    in_space, in_time = AXES[axis]
    fx, ft = (factor if in_space else 1), (factor if in_time else 1)
    return replace(cfg, subdomains=[
        replace(s, nx=s.nx * fx, ny=None if s.ny is None else s.ny * fx, nt=s.nt * ft)
        for s in cfg.subdomains
    ])


def _nested(counts, fine):
    """The least common multiple of the (positive) grid counts; along a
    refined axis (fine, the finest level's factor, not None) the lcm of
    the refined counts times the least integer >= 1 that reaches
    REF_FACTOR times the largest of them."""
    if fine is None:
        return math.lcm(*counts)
    refined = [n * fine for n in counts]
    lcm = math.lcm(*refined)
    return math.ceil(REF_FACTOR * max(refined) / lcm) * lcm


def _shared_count(counts, fine):
    """One reference count for subdomains that share grid lines: `_nested`
    of their counts along a refined axis; along an unrefined one (fine
    None) their common count, which must exist."""
    if fine is None and len(set(counts)) != 1:
        # space grids must already conform across the interfaces
        raise ValueError("time studies need trace-conforming space grids")
    return _nested(counts, fine)


def reference_grid(cfg, axis, levels):
    """Reference grid obeying the nesting discipline: at least REF_FACTOR
    finer than the finest level along the refined axis, an exact common
    refinement of every level's grids, and equal to the study grids along
    unrefined axes (so unrefined-axis discretization error cancels).
    Subdomains with the same x-extent share their x grid lines, and every
    subdomain shares its y-count."""
    in_space, in_time = AXES[axis]
    fine = REFINE_RATIO ** (levels - 1)
    fx = fine if in_space else None
    subs = cfg.subdomains
    nt = _nested([s.nt for s in subs], fine if in_time else None) * cfg.windows
    nx = {s.id: _shared_count([t.nx for t in subs if t.box[:2] == s.box[:2]], fx)
          for s in subs}
    if cfg.dim == 1:
        return RefGrid(nx=nx, ny=None, nt=nt)
    return RefGrid(nx=nx, ny=_shared_count([s.ny for s in subs], fx), nt=nt)


def _warm_traces(md, traces, along):
    """A coarser level's final traces of every window (directed pair ->
    InterfaceTrace) with their interface coordinates (directed pair ->
    `along`), mapped onto the grids of md."""
    out = []
    for window in traces:
        mapped = {}
        for (i, j), tr in window.items():
            asm = md.assemblies[i]
            part = TimePartition.uniform(tr.partition.start, tr.partition.end, asm.spec.nt)
            mapped[(i, j)] = transfer_trace(tr, along[(i, j)], part, asm.iface[j].along)
        out.append(mapped)
    return out


def convergence_study(cfg, axis, levels, tol=1e-10, reference=None):
    """Refine `levels` times along the given axis, run OSWR to a tight
    tolerance per level, and fit log-log slopes of the error norms.

    Level 0 runs as `run_windows` does, from the configured initial guess
    and then from each window's converged traces; every window of a later
    level starts from the previous level's converged traces, mapped onto its
    grids (nested iteration).  Only the traces and their interface
    coordinates are carried from one level to the next."""
    if levels < 3:
        raise ValueError("a study needs at least 3 levels")
    if axis not in AXES:
        raise ValueError(f"unknown study axis {axis!r}")
    if reference is None:
        reference = solve_monodomain(cfg, reference_grid(cfg, axis, levels))
    sids = [s.id for s in cfg.subdomains]
    rows, histories = [], []
    warm = None
    for lev in range(levels):
        cl = _scaled_cfg(cfg, axis, REFINE_RATIO**lev)
        md = build_multidomain(cl)
        solution = run_windows(
            cl, md=md, tol=tol,
            traces=None if warm is None else _warm_traces(md, *warm),
        )
        warm = solution.traces, {(i, j): md.assemblies[i].iface[j].along for (i, j) in md.pairs}
        histories.append(solution.histories)
        rep = error_norms(solution, reference)
        row = {"level": lev}
        for s in cl.subdomains:
            ext = s.box[1] - s.box[0]
            row[("h", s.id)] = ext / s.nx
            row[("k", s.id)] = cfg.T / cfg.windows / s.nt
            for name in StudyTable.NORMS:
                row[(name, s.id)] = getattr(rep, name)[s.id]
        rows.append(row)
    size_key = "h" if AXES[axis][0] else "k"
    slopes = {}
    for name in StudyTable.NORMS:
        for sid in sids:
            slopes[(name, sid)] = fit_slope(
                [r[(size_key, sid)] for r in rows], [r[(name, sid)] for r in rows]
            )
    return StudyTable(axis=axis, rows=rows, slopes=slopes, sids=sids, histories=histories)


# ---------------------------------------------------------------------------
# Transmission-parameter sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepTable:
    rows: list       # dicts: p, q, iterations, converged
    best: int | None


def sweep_parameters(cfg, p_values, q_values, target_residual, mode="error",
                     seed=0, budget=None):
    """Iteration counts to a target residual over a (p, q) grid, on the
    first time window of the configured run.

    mode='error' runs the homogeneous problem (f = u0 = 0) with a seeded
    random initial guess; mode='full' runs the configured problem with
    its configured initial-guess strategy.  budget=None takes the
    config's max_iterations.  Budget exhaustion and divergence are
    recorded as saturation (converged=False, with the sweeps run), not
    as a failure.
    """
    if not p_values:
        raise ValueError("empty p list")
    q_values = list(q_values) or [0.0]
    budget = cfg.max_iterations if budget is None else budget
    if budget < 1:
        raise ValueError(f"iteration budget must be at least 1, got {budget}")
    zero = prb.const_expr(0.0)
    base = replace(cfg, u0=zero, f=zero, initial_guess="zero") if mode == "error" else cfg
    t_a, t_b = np.linspace(0.0, cfg.T, cfg.windows + 1)[:2]
    rows = []
    for p in p_values:
        for q in q_values:
            trans = {
                key: prb.TransmissionParams(p=float(p), q=float(q), r=tp.r, s=tp.s)
                for key, tp in base.transmission.items()
            }
            md = build_multidomain(replace(base, transmission=trans))
            win = md.window(t_a, t_b)
            u_init = {sid: fes.nodal_interpolate(asm.mesh, base.u0, t=0.0)
                      for sid, asm in md.assemblies.items()}
            traces = None
            if mode == "error":
                traces = initial_guess("zero", md, win, u_init)
                rng = np.random.default_rng(seed)
                for tr in traces.values():
                    tr.coeffs[...] = rng.standard_normal(tr.coeffs.shape)
            try:
                hist = iterate(md, win, u_init, budget, target_residual, traces=traces)[3]
            except DivergenceError as e:
                hist = e.history
            rows.append({
                "p": float(p), "q": float(q),
                "iterations": hist.iterations, "converged": hist.converged,
            })
    conv = [i for i, r in enumerate(rows) if r["converged"]]
    pool = conv if conv else range(len(rows))
    best = min(pool, key=lambda i: rows[i]["iterations"]) if rows else None
    return SweepTable(rows=rows, best=best)
