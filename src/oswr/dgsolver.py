"""Local subdomain solver: DG(d) time stepping over one window.

On interval I_n of length k the Legendre modes x = (X_0, .., X_d) of
all unknowns solve the Kronecker system

    S(k) x = (A^T (x) MM + k diag(gram) (x) KK) x
           = ((-1)^j P u(t_n^-) + F_j)_j,

with A and gram the Legendre coupling tables of `build_interval_basis`
at k = 1 (A does not depend on k, the gram of length k is k gram), MM
and KK the spatial mass-like and stiffness-like block matrices, and P
the first block column of MM, the rows that the previous endpoint
u(t_n^-) enters.  For d = 0 this is the modified backward Euler step
(M + k A) U = M u(t_n^-) + F_0; for d = 1 the 2x2 block system
[[M + k A, M], [-M, M + (k/3) A]] (U_0, U_1).

The step is never formed.  Scaling row j by 1/gram_j turns S(k) into
B (x) MM + I (x) k KK with B = diag(gram)^-1 A^T = V Lambda V^-1, so
one eigenvalue lam of B decouples the modes (Richter, Springer &
Vexler, Numer. Math. 124 (2013); Smears, IMA J. Numer. Anal. 37 (2017)):

    w = (V^-1 diag(gram)^-1)_0 rhs,   (lam MM + k KK) y = w,
    x = c Re(V[:, 0] (x) y).

For d = 0, B = [[1]]: lam = 1, c = 1, and the factor is the real
MM + k KK.  For d = 1 the eigenvalues of B are 2 +- i sqrt(2); the
second eigenpair is the conjugate of the first, so c = 2 and one
complex n x n solve replaces the real 2n x 2n one.  The 1e-12 residual
contract is checked against the real S(k) of each step's own k with one
sparse product: the stacked SS = [A^T (x) MM; diag(gram) (x) KK] gives
y = SS x, and S(k) x is the first half of y plus k times the second.

One march serves every system.  Every interface is a mortar
interface: it adds a block of discrete flux unknowns Q, loaded by its
transmission data, which couples matching and nonmatching spatial
meshes alike (the space-time nonconforming decomposition of Hoang,
Jaffre, Japhet, Kern & Roberts, SINUM 51 (2013)).  A flux row has no
mass, yet lam MM + k KK keeps its k M_Gamma diagonal block.

One record, `Operators`, is the system a march takes: its volume
blocks, its degree, its interfaces (none for the monodomain reference)
and a FactorCache.  At the system's first march the cache gets its step
operator (MM, KK, P, rows) and the stacked SS of its residual check;
it keeps one sparse LU factor of lam MM + k KK per step class, so a
uniform grid factors once and no other system can be handed its
operator.

A march returns a `DGTrajectory` on its window.  `DGTrajectory.chain`
joins consecutive windows into one trajectory over [0, T], the shape of
every solution, and `DGTrajectory.values` is its one evaluator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oswr.timebasis import TimePartition, build_interval_basis

__all__ = [
    "SolverError",
    "DGTrajectory",
    "InterfaceTrace",
    "FactorCache",
    "Operators",
    "solve_window",
    "solve_window_mortar",
    "trajectory_norm",
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
    """One system's LU factorizations keyed by step class, its step
    operator (MM, KK, P, rows) and the stacked residual operator SS of
    `_stacked_operator`, both set at the system's first march, and how
    often `get` factored (`factorizations`, adding nnz(L+U) to `nnz_lu`)
    or found a factor (`hits`)."""

    factors: dict = field(default_factory=dict)
    step: tuple | None = None
    stacked: sp.csr_matrix | None = None
    factorizations: int = 0
    hits: int = 0
    nnz_lu: int = 0

    def key(self, k):
        """Key of k's step class: the cached k_rep with k within
        STEP_CLASS_RTOL of k_rep, else k."""
        for key in self.factors:
            if abs(key - k) <= STEP_CLASS_RTOL * key:
                return key
        return k

    def get(self, key, build):
        factor = self.factors.get(key)
        if factor is None:
            factor = self.factors[key] = _factorize(build())
            self.factorizations += 1
            self.nnz_lu += factor.L.nnz + factor.U.nnz
        else:
            self.hits += 1
        return factor


def _relative_residual(r, b):
    """||r|| / ||b|| of 1-D arrays, or ||r|| when b = 0."""
    nb = math.sqrt(b @ b)
    nr = math.sqrt(r @ r)
    return nr / nb if nb > 0 else nr


def _check_residual(rel, where=""):
    if not np.isfinite(rel) or rel > RESIDUAL_TOL:
        raise SolverError(f"{where}linear solve residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e}")


@dataclass
class Operators:
    """The system one march takes: mass-like M_vol, stiffness-like
    A_vol, DG degree, its interfaces (neighbor -> femspace.InterfaceBlocks;
    none for a system without interfaces, such as the monodomain
    reference), and the factor cache of its step operator."""

    M_vol: sp.csr_matrix
    A_vol: sp.csr_matrix
    degree: int
    iface: dict = field(default_factory=dict)
    cache: FactorCache = field(default_factory=FactorCache, init=False)

    @property
    def n_dofs(self):
        return self.M_vol.shape[0]


@dataclass
class DGTrajectory:
    """Piecewise-polynomial-in-time field of spatial dof vectors."""

    partition: TimePartition
    coeffs: np.ndarray  # (N, d+1, ndof)
    u_init: np.ndarray  # value at the start (left limit)

    @classmethod
    def chain(cls, windows):
        """One trajectory over consecutive windows: their breakpoints with
        each later window's first one dropped (it is the previous window's
        last), their coefficients, and the first window's u_init.  A
        single window is returned as is."""
        if len(windows) == 1:
            return windows[0]
        bp = [windows[0].partition.breakpoints] + [w.partition.breakpoints[1:] for w in windows[1:]]
        return cls(TimePartition(np.concatenate(bp)),
                   np.concatenate([w.coeffs for w in windows]), windows[0].u_init)

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    def endpoint(self, n):
        """Right-endpoint value on interval n (Legendre values are all 1)."""
        return self.coeffs[n].sum(axis=0)

    def final_value(self):
        return self.endpoint(self.partition.n_intervals - 1)

    def values(self, times, left=False):
        """Values at an array of times, (n_times, ndof).  A time in
        (t_n, t_{n+1}] evaluates interval n, u = c0 + theta c1 with theta
        its position in [-1, 1], and the start interval 0; left (one flag,
        or one per time) takes the limit from below at a breakpoint, the
        mode sum, and u_init at the start."""
        t = np.asarray(times, dtype=float)
        left = np.broadcast_to(np.asarray(left, dtype=bool), t.shape)
        bp = self.partition.breakpoints
        n = np.searchsorted(bp, t, side="left") - 1
        m = np.clip(n, 0, self.partition.n_intervals - 1)
        theta = 2.0 * (t - 0.5 * (bp[m] + bp[m + 1])) / (bp[m + 1] - bp[m])
        out = self.coeffs[m, 0]
        if self.degree >= 1:
            out += theta[:, None] * self.coeffs[m, 1]
        at_end = left & (n >= 0) & (t == bp[m + 1])
        if at_end.any():
            out[at_end] = self.coeffs[m[at_end]].sum(axis=1)
        out[left & (n < 0)] = self.u_init
        return out


@dataclass
class InterfaceTrace:
    """Transmission data on one directed interface, owner's time grid.

    coeffs[n, beta, :] are per-interval Legendre modes of the interface
    functionals (one real per interface test function)."""

    partition: TimePartition
    coeffs: np.ndarray  # (N, d+1, n_iface)

    def norm(self):
        """Discrete L2((0,T) x Gamma)-style coefficient norm."""
        gram = self.partition.gram(self.coeffs.shape[1] - 1)
        return float(np.sqrt(np.sum(gram[:, :, None] * self.coeffs**2)))


@dataclass(frozen=True)
class _StepTables:
    """The DG(d) time tables at k = 1 (A^T, gram) and one eigenpair of
    B = diag(gram)^-1 A^T: eigenvalue lam, w = (V^-1 diag(gram)^-1)_0,
    and v = c V[:, 0], with c = 2 when the other eigenpair is the
    conjugate of this one."""

    AT: np.ndarray
    gram: np.ndarray
    lam: complex
    w: np.ndarray
    v: np.ndarray


@functools.cache
def _step_tables(d):
    """The _StepTables of DG(d), from the tables of `build_interval_basis`."""
    tab = build_interval_basis(d, 1.0)
    lam, V = np.linalg.eig(tab.A.T / tab.gram[:, None])
    i = int(np.argmax(lam.imag))
    w = np.linalg.inv(V)[i] / tab.gram
    if lam[i].imag == 0.0:  # d = 0: B = [[1]], a real step
        return _StepTables(tab.A.T, tab.gram, lam[i].real, w.real, V[:, i].real)
    return _StepTables(tab.A.T, tab.gram, lam[i], w, 2.0 * V[:, i])


def _step_operator(system):
    """Step operator (MM, KK, P) of one system for the DG(d) march, and
    the rows that each interface's transmission data loads.  The blocks
    are the same for every degree; the time tables carry d.

    Spatial blocks, volume U first, then the flux Q of each interface in
    neighbor order, R the restriction to the interface nodes: the volume
    line is M_vol, A_vol plus R^T (b.n/2) mass R and the coupling
    -R^T M_Gamma to Q; the interface line is q M_Gamma R under the time
    tables, plus M_Gamma Q + ((p - b.n) mass + q B_r + K_s) R U; the
    data loads the flux rows.
    A flux row has no mass of its own; its empty diagonal block fixes the
    block size.  P is the first block column of MM: P @ u(t_n^-) is what
    the previous endpoint contributes to every row of one mode.  It is
    stacked from the blocks, not sliced from MM, because slicing sorts
    the column indices of a row and so reorders the sums of P @ u.
    """
    ndof = system.n_dofs
    ifaces = sorted(system.iface.items())
    nblk = 1 + len(ifaces)
    mass = [[None] * nblk for _ in range(nblk)]
    stiff = [[None] * nblk for _ in range(nblk)]
    A, rows, offset = system.A_vol, {}, ndof
    for r, (nb, ia) in enumerate(ifaces, start=1):
        n = ia.nodes.size
        R = sp.coo_matrix((np.ones(n), (np.arange(n), ia.nodes)), shape=(n, ndof)).tocsr()
        M_bn2 = (ia.p * ia.M_gamma - ia.M_pbn).tocsr()
        A = A + R.T @ M_bn2 @ R
        mass[r][0] = ia.q * (ia.M_gamma @ R)
        mass[r][r] = sp.csr_matrix(ia.M_gamma.shape)
        stiff[0][r] = -(R.T @ ia.M_gamma)
        stiff[r][r] = ia.M_gamma
        stiff[r][0] = ((ia.M_pbn - M_bn2).tocsr() + ia.q * ia.B_r + ia.K_s) @ R
        rows[nb] = slice(offset, offset + n)
        offset += n
    mass[0][0] = system.M_vol.tocsr()
    stiff[0][0] = A.tocsr()
    P = sp.vstack([row[0] for row in mass], format="csr")
    return sp.bmat(mass, format="csr"), sp.bmat(stiff, format="csr"), P, rows


def _stacked_operator(mass, stiff, d):
    """SS = [A^T (x) MM; diag(gram) (x) KK] in CSR, the DG(d) tables at
    k = 1: S(k) x is the first half of SS x plus k times the second."""
    tab = _step_tables(d)
    return sp.vstack([sp.kron(tab.AT, mass, format="csr"),
                      sp.kron(np.diag(tab.gram), stiff, format="csr")], format="csr")


def _step_residual(SS, k, x, flat_rhs):
    """S(k) x - rhs, flat, from the stacked SS of `_stacked_operator`."""
    y = SS @ x.ravel()
    m = y.size // 2
    return y[:m] + k * y[m:] - flat_rhs


def _solve_step(cache, d, mass, stiff, k, rhs, n):
    """Solve S(k) x = rhs for step n, rhs and x of shape (d+1, size),
    with the factor of lam MM + k KK of k's step class.

    The 1e-12 residual contract is checked against the step's own real
    S(k), with the cache's stacked SS, never against the class
    representative the factor was built from."""
    tab = _step_tables(d)
    factor = cache.get(cache.key(k), lambda: tab.lam * mass + k * stiff)
    SS = cache.stacked
    flat_rhs = rhs.ravel()

    def solve(b):
        return (tab.v[:, None] * factor.solve(tab.w @ b)).real

    x = solve(rhs)
    r = _step_residual(SS, k, x, flat_rhs)
    rel = _relative_residual(r, flat_rhs)
    if rel > RESIDUAL_TOL:
        # k may differ from the representative in its last digits, which
        # one refinement step with the same factor corrects.
        x = x - solve(r.reshape(rhs.shape))
        rel = _relative_residual(_step_residual(SS, k, x, flat_rhs), flat_rhs)
    _check_residual(rel, f"interval {n}: ")
    return x


def solve_window(system, traces_in, partition, u_init, loads):
    """The trajectory of `solve_window_mortar`, without the flux."""
    return solve_window_mortar(system, traces_in, partition, u_init, loads)[0]


def solve_window_mortar(system, traces_in, partition, u_init, loads):
    """March one system (Operators, or a SubdomainAssembly) over a window.

    traces_in maps neighbor id -> InterfaceTrace on the system's
    partition; each trace loads the flux rows `_step_operator` gives its
    interface.  loads[n] is the (d+1, ndof) volume load of interval n.
    Returns the DGTrajectory and the flux modes, neighbor id ->
    (N, d+1, n_iface) on the trajectory's partition.  Both are views of
    one window array, so the flux columns are not copied.  The step
    operator and SS are built at the system's first march and live in
    system.cache with its factors.
    """
    d = system.degree
    ndof = system.n_dofs
    cache = system.cache
    if cache.step is None:
        cache.step = _step_operator(system)
        cache.stacked = _stacked_operator(cache.step[0], cache.step[1], d)
    mass, stiff, P, rows = cache.step

    # int_{I_n} L_j (g, v)_Gamma dt = gram[n, j] g_{n,j}, for all n at once.
    # X[n] holds step n's data until the step overwrites it with its
    # solution.
    gram = partition.gram(d)
    X = np.zeros((partition.n_intervals, d + 1, P.shape[0]))
    for nb, tr in traces_in.items():
        X[:, :, rows[nb]] += gram[:, :, None] * tr.coeffs
    sign = ((-1.0) ** np.arange(d + 1))[:, None]
    u_prev = np.asarray(u_init, dtype=float)
    for n, k in enumerate(partition.lengths):
        X[n, :, :ndof] += loads[n]
        rhs = sign * (P @ u_prev) + X[n]
        X[n] = _solve_step(cache, d, mass, stiff, float(k), rhs, n)
        u_prev = X[n, :, :ndof].sum(axis=0)
    traj = DGTrajectory(partition=partition, coeffs=X[:, :, :ndof],
                        u_init=np.asarray(u_init, float).copy())
    return traj, {nb: X[:, :, r] for nb, r in rows.items()}


def trajectory_norm(traj, M):
    """Discrete L2(window; L2) norm with mass matrix M: the sum over
    intervals n and modes j of gram[n, j] v^T M v, v = coeffs[n, j]."""
    V = traj.coeffs.reshape(-1, traj.coeffs.shape[2]).T
    return np.sqrt(float(traj.partition.gram(traj.degree).ravel()
                         @ np.einsum("ij,ij->j", V, M @ V)))
