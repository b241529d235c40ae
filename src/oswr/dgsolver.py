"""Local subdomain solver: DG(d) time stepping over one window.

The per-interval scheme is assembled from the Legendre coupling tables:
with mass-like operator Mm and stiffness-like operator Aa, the unknown
modes U_0..U_d on interval I_n solve

    sum_k A[k][j] Mm U_k + gram[j] Aa U_j = (-1)^j Mm U(t_n^-) + F_j,

which for d=0 is the modified backward Euler step
    (Mm + k Aa) U = Mm U^n + F_0,
and for d=1 the 2x2 block system
    [[Mm + k Aa,  Mm], [-Mm,  Mm + (k/3) Aa]] (U_0, U_1).

Two interface treatments are supported: the conforming-trace path folds
the interface operators into Aa and the transmission data into the load,
while the mortar path carries a discrete flux unknown Q per interface
and solves a coupled (U, Q) system, enabling nonmatching spatial meshes.

Both step systems are affine in the step length, S(k) = S_mass + k S_stiff
(tab.A does not depend on k, tab.gram is proportional to it).  A
FactorCache keeps the two parts per path and one sparse LU factor per
step class, so a uniform grid factors each path once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oswr.timebasis import TimePartition, build_interval_basis

__all__ = [
    "SolverError",
    "DGTrajectory",
    "InterfaceTrace",
    "MortarFlux",
    "FactorCache",
    "linear_solve",
    "dg_step_matrix",
    "step_d0",
    "step_d1",
    "solve_window",
    "solve_window_mortar",
    "trajectory_norm",
    "trajectory_values",
]

RESIDUAL_TOL = 1e-12

# Step lengths within this relative distance share one factorization: the
# interval lengths of a uniform grid differ only in their last bits.
STEP_CLASS_RTOL = 1e-12


class SolverError(Exception):
    """Linear solve failure; carries the achieved residual."""


def _factorize(matrix):
    """Sparse LU with the fill-reducing MMD ordering of A^T + A."""
    try:
        return spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as e:  # exactly singular factorization
        raise SolverError(f"factorization breakdown: {e}") from None


@dataclass
class FactorCache:
    """LU factorizations keyed by (path, degree, step class), and the two
    k-independent parts S_mass, S_stiff of each path's step system
    S(k) = S_mass + k S_stiff, keyed by (path, degree)."""

    factors: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)

    def key(self, path, d, k):
        """Key of k's step class: the cached (path, d, k_rep) with k within
        STEP_CLASS_RTOL of k_rep, else (path, d, k)."""
        for key in self.factors:
            if key[:2] == (path, d) and abs(key[2] - k) <= STEP_CLASS_RTOL * key[2]:
                return key
        return (path, d, k)

    def get(self, key, build):
        if key not in self.factors:
            self.factors[key] = _factorize(build())
        return self.factors[key]

    def operator(self, path, d, build):
        if (path, d) not in self.operators:
            self.operators[(path, d)] = build()
        return self.operators[(path, d)]


def _relative_residual(r, rhs):
    nb = np.linalg.norm(rhs)
    return np.linalg.norm(r) / nb if nb > 0 else np.linalg.norm(r)


def _check_residual(rel, where=""):
    if not np.isfinite(rel) or rel > RESIDUAL_TOL:
        raise SolverError(f"{where}linear solve residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e}")


def linear_solve(matrix, rhs, factor=None):
    """Direct sparse solve with a residual contract of 1e-12 relative."""
    rhs = np.asarray(rhs, dtype=float)
    if factor is None:
        factor = _factorize(matrix)
    x = factor.solve(rhs)
    _check_residual(_relative_residual(matrix @ x - rhs, rhs))
    return x


@dataclass
class DGTrajectory:
    """Piecewise-polynomial-in-time field of spatial dof vectors."""

    partition: TimePartition
    coeffs: np.ndarray  # (N, d+1, ndof)
    u_init: np.ndarray  # value at the window start (left limit)

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    def endpoint(self, n):
        """Right-endpoint value on interval n (Legendre values are all 1)."""
        return self.coeffs[n].sum(axis=0)

    def final_value(self):
        return self.endpoint(self.partition.n_intervals - 1)

    def left_limit(self, n):
        """Value at t_n^-: previous endpoint, or the window initial value."""
        return self.u_init if n == 0 else self.endpoint(n - 1)

    def value(self, t, left=False):
        """Evaluate at time t; left=True takes the limit from below at
        breakpoints (and the initial value at the window start)."""
        return trajectory_values([self], [t], left)[0]


def trajectory_values(windows, times, left=False):
    """Values of a chain of windows at an array of times, (n_times, ndof).

    left (one flag, or one per time) takes the limit from below at a
    breakpoint, the initial value at the first window's start, and the
    previous window's endpoint at a later window's start.  A time in
    (t_n, t_{n+1}] evaluates interval n; the first window's start, with
    left=False, evaluates interval 0.
    """
    t = np.asarray(times, dtype=float)
    left = np.broadcast_to(np.asarray(left, dtype=bool), t.shape)
    starts = np.array([w.partition.start for w in windows])
    w_of = np.where(
        left, np.searchsorted(starts, t, side="left"), np.searchsorted(starts, t, side="right")
    ) - 1
    w_of = np.clip(w_of, 0, len(windows) - 1)
    out = np.empty((t.size, windows[0].coeffs.shape[2]))
    for w, traj in enumerate(windows):
        sel = np.nonzero(w_of == w)[0]
        if sel.size:
            out[sel] = _window_values(traj, t[sel], left[sel])
    return out


def _window_values(traj, t, left):
    """trajectory_values on one window: u = c0 + theta c1 on the
    interval, with theta the time's position in [-1, 1]."""
    bp = traj.partition.breakpoints
    n = np.searchsorted(bp, t, side="left") - 1
    m = np.clip(n, 0, traj.partition.n_intervals - 1)
    theta = 2.0 * (t - 0.5 * (bp[m] + bp[m + 1])) / (bp[m + 1] - bp[m])
    out = traj.coeffs[m, 0]
    if traj.degree >= 1:
        out += theta[:, None] * traj.coeffs[m, 1]
    at_end = left & (n >= 0) & (t == bp[m + 1])
    if at_end.any():
        out[at_end] = traj.coeffs[m[at_end]].sum(axis=1)
    out[left & (n < 0)] = traj.u_init
    return out


@dataclass
class InterfaceTrace:
    """Transmission data on one directed interface, owner's time grid.

    coeffs[n, beta, :] are per-interval Legendre modes of the interface
    functionals (one real per interface test function)."""

    partition: TimePartition
    coeffs: np.ndarray  # (N, d+1, n_iface)

    def copy(self):
        return InterfaceTrace(self.partition, self.coeffs.copy())

    def norm(self):
        """Discrete L2((0,T) x Gamma)-style coefficient norm."""
        gram = self.partition.lengths[:, None] / (
            2.0 * np.arange(self.coeffs.shape[1])[None, :] + 1.0
        )
        return float(np.sqrt(np.sum(gram[:, :, None] * self.coeffs**2)))


@dataclass
class MortarFlux:
    """Discrete interface flux modes per interface (mortar path)."""

    partition: TimePartition
    coeffs: dict  # neighbor id -> (N, d+1, n_iface)


def _step_parts(mass, stiff, d):
    """The k-independent parts of one DG(d) step system,
    S(k) = S_mass + k S_stiff.

    mass and stiff are square grids of spatial blocks (None where zero)
    of the mass-like and stiffness-like operators; every diagonal
    stiffness block is given.  tab.A does not depend on k and
    tab.gram[j] = k/(2j+1), so the table of k = 1 gives both parts.
    """
    tab = build_interval_basis(d, 1.0)
    nblk = len(mass)
    size = nblk * (d + 1)
    S_mass = [[None] * size for _ in range(size)]
    S_stiff = [[None] * size for _ in range(size)]
    for j in range(d + 1):
        for kk in range(d + 1):
            for r in range(nblk):
                for c in range(nblk):
                    row, col = j * nblk + r, kk * nblk + c
                    if mass[r][c] is not None:
                        S_mass[row][col] = tab.A[kk, j] * mass[r][c]
                    elif r == c:  # an empty block fixes the block size
                        S_mass[row][col] = sp.csr_matrix(stiff[r][r].shape)
                    if kk == j and stiff[r][c] is not None:
                        S_stiff[row][col] = tab.gram[j] * stiff[r][c]
    return sp.bmat(S_mass, format="csr"), sp.bmat(S_stiff, format="csr")


def dg_step_matrix(Mm, Aa, k, d):
    """Block system of one DG(d) step for mass-like Mm, stiffness-like Aa."""
    S_mass, S_stiff = _step_parts([[Mm]], [[Aa]], d)
    return (S_mass + k * S_stiff).tocsc(), build_interval_basis(d, k)


def step_d0(M, A, u_prev, k, F0, factor=None):
    """One DG(0) (modified backward Euler) step."""
    rhs = M @ u_prev + F0
    if factor is not None:
        return factor.solve(rhs)
    return linear_solve((M + k * A).tocsc(), rhs)


def step_d1(M, A, u_prev, k, F0, F1, factor=None):
    """One DG(1) step; returns the Legendre modes (U_0, U_1)."""
    n = M.shape[0]
    if factor is None:
        S, _ = dg_step_matrix(M, A, k, 1)
    else:
        S = None
    rhs = np.concatenate([M @ u_prev + F0, -(M @ u_prev) + F1])
    if factor is not None:
        x = factor.solve(rhs)
    else:
        x = linear_solve(S, rhs)
    return x[:n], x[n:]


def _gather_trace_load(assembly, traces_in, n, tab):
    """Interface data contribution to the volume rhs per mode.

    int_{I_n} L_beta (g, v)_Gamma dt = gram[beta] * G_{n,beta}, scattered
    to the interface dofs.
    """
    d = tab.gram.size - 1
    out = np.zeros((d + 1, assembly.n_dofs))
    for nb, trace in traces_in.items():
        nodes = assembly.iface[nb].nodes
        for beta in range(d + 1):
            out[beta, nodes] += tab.gram[beta] * trace.coeffs[n, beta]
    return out


def _solve_step(cache, path, d, op, k, rhs, n):
    """Solve S(k) x = rhs for step n with the factor of k's step class.

    op = (S_mass, S_stiff) of the path.  The 1e-12 residual contract is
    checked against the step's own S(k), never against the class
    representative the factor was built from."""
    S_mass, S_stiff = op
    factor = cache.get(cache.key(path, d, k), lambda: S_mass + k * S_stiff)
    x = factor.solve(rhs)
    r = S_mass @ x + k * (S_stiff @ x) - rhs
    if _relative_residual(r, rhs) > RESIDUAL_TOL:
        # k may differ from the representative in its last digits, which
        # one refinement step with the same factor corrects.
        x = x - factor.solve(r)
        r = S_mass @ x + k * (S_stiff @ x) - rhs
    _check_residual(_relative_residual(r, rhs), f"interval {n}: ")
    return x


def solve_window(assembly, traces_in, partition, u_init, loads, cache=None):
    """March one subdomain over a window (conforming-trace path).

    traces_in maps neighbor id -> InterfaceTrace on this subdomain's
    partition; loads is the per-interval array list from the assembly.
    """
    d = assembly.degree
    n_int = partition.n_intervals
    ndof = assembly.n_dofs
    coeffs = np.zeros((n_int, d + 1, ndof))
    u_prev = np.asarray(u_init, dtype=float)
    if cache is None:
        cache = FactorCache()
    bp = partition.breakpoints
    op = cache.operator(
        "conf", d, lambda: _step_parts([[assembly.M_full]], [[assembly.A_full]], d)
    )
    for n in range(n_int):
        k = float(bp[n + 1] - bp[n])
        tab = build_interval_basis(d, k)
        G = _gather_trace_load(assembly, traces_in, n, tab)
        F = loads[n] + G
        rhs = np.concatenate([
            ((-1.0) ** j) * (assembly.M_full @ u_prev) + F[j] for j in range(d + 1)
        ])
        x = _solve_step(cache, "conf", d, op, k, rhs, n)
        for j in range(d + 1):
            coeffs[n, j] = x[j * ndof : (j + 1) * ndof]
        u_prev = coeffs[n].sum(axis=0)
    return DGTrajectory(partition=partition, coeffs=coeffs, u_init=np.asarray(u_init, float).copy())


def solve_window_mortar(assembly, traces_in, partition, u_init, loads, cache=None):
    """March one subdomain over a window with flux unknowns Q on every
    mortar interface (nonmatching-grid path).

    Returns (DGTrajectory, MortarFlux)."""
    d = assembly.degree
    n_int = partition.n_intervals
    ndof = assembly.n_dofs
    nbs = assembly.mortar_neighbors
    sizes = [ndof] + [assembly.iface[nb].nodes.size for nb in nbs]
    offs = np.cumsum([0] + sizes)
    coeffs = np.zeros((n_int, d + 1, ndof))
    qmodes = {nb: np.zeros((n_int, d + 1, assembly.iface[nb].nodes.size)) for nb in nbs}
    u_prev = np.asarray(u_init, dtype=float)
    if cache is None:
        cache = FactorCache()
    bp = partition.breakpoints
    op = cache.operator("mortar", d, lambda: _step_parts(*_mortar_blocks(assembly), d))

    for n in range(n_int):
        k = float(bp[n + 1] - bp[n])
        tab = build_interval_basis(d, k)
        rhs_modes = []
        for j in range(d + 1):
            sgn = (-1.0) ** j
            rv = sgn * (assembly.M_mortar_vol @ u_prev) + loads[n][j]
            parts = [rv]
            for nb in nbs:
                ia = assembly.iface[nb]
                ru_prev = u_prev[ia.nodes]
                rb = sgn * ia.q * (ia.M_gamma @ ru_prev)
                if nb in traces_in:
                    rb = rb + tab.gram[j] * traces_in[nb].coeffs[n, j]
                parts.append(rb)
            rhs_modes.append(np.concatenate(parts))
        rhs = np.concatenate(rhs_modes)
        x = _solve_step(cache, "mortar", d, op, k, rhs, n)
        blk = offs[-1]
        for j in range(d + 1):
            xj = x[j * blk : (j + 1) * blk]
            coeffs[n, j] = xj[: ndof]
            for inb, nb in enumerate(nbs):
                qmodes[nb][n, j] = xj[offs[inb + 1] : offs[inb + 2]]
        u_prev = coeffs[n].sum(axis=0)
    traj = DGTrajectory(partition=partition, coeffs=coeffs, u_init=np.asarray(u_init, float).copy())
    return traj, MortarFlux(partition=partition, coeffs=qmodes)


def _mortar_blocks(assembly):
    """Spatial blocks of the coupled (U, Q) step system.

    Volume line:    d/dt(I U) 'mass' with plain volume mass, plus
                    Aa_vol = atilde + exterior + (b.n/2) interface mass,
                    coupled to Q through -M_Gamma (scattered);
    interface line: q-weighted interface mass under the lift tables, plus
                    M_Gamma Q + ((p - b.n) mass + q B_r + K_s) U = data.
    Returns the (mass, stiff) block grids for `_step_parts`.
    """
    ifaces = [assembly.iface[nb] for nb in assembly.mortar_neighbors]
    nblk = 1 + len(ifaces)
    mass = [[None] * nblk for _ in range(nblk)]
    stiff = [[None] * nblk for _ in range(nblk)]
    mass[0][0] = assembly.M_mortar_vol
    stiff[0][0] = assembly.A_mortar_vol
    for r, ia in enumerate(ifaces, start=1):
        mass[r][0] = ia.q * (ia.M_gamma @ ia.restrict)
        stiff[0][r] = -(ia.restrict.T @ ia.M_gamma)
        stiff[r][r] = ia.M_gamma
        stiff[r][0] = (ia.M_pbn_full + ia.q * ia.B_r + ia.K_s) @ ia.restrict
    return mass, stiff


def trajectory_norm(traj, M):
    """Discrete L2(window; L2) norm with mass matrix M."""
    gram = traj.partition.lengths[:, None] / (
        2.0 * np.arange(traj.coeffs.shape[1])[None, :] + 1.0
    )
    total = 0.0
    for n in range(traj.partition.n_intervals):
        for j in range(traj.coeffs.shape[1]):
            v = traj.coeffs[n, j]
            total += gram[n, j] * float(v @ (M @ v))
    return np.sqrt(total)
