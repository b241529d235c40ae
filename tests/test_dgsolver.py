from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oswr.dgsolver as dg
from oswr.dgsolver import (
    RESIDUAL_TOL,
    DGTrajectory,
    FactorCache,
    InterfaceTrace,
    Operators,
    SolverError,
    _solve_step,
    _stacked_operator,
    _step_operator,
    _step_residual,
    solve_window,
    solve_window_mortar,
    trajectory_norm,
)
from oswr.driver import build_multidomain, run_windows
from oswr.femspace import IntervalLoads
from oswr.problem import parse_config
from oswr.timebasis import TimePartition, build_interval_basis

ONE = sp.csr_matrix(np.array([[1.0]]))


def pade12(z):
    """Stability function of the DG(1) endpoint: (1,2) Pade of exp(-z)."""
    return (1.0 - z / 3.0) / (1.0 + 2.0 * z / 3.0 + z**2 / 6.0)


def one_step(a, k, d, u0=0.0, F=None):
    """Modes of one DG(d) step of u' + a u = f of length k from u0, with
    F[j] = int L_j f."""
    F = np.zeros(d + 1) if F is None else np.asarray(F, dtype=float)
    part = TimePartition.uniform(0.0, k, 1)
    traj = solve_window(Operators(ONE, a * ONE, d), {}, part, np.array([u0]), [F[:, None]])
    return traj.coeffs[0, :, 0]


class TestScalarSteps:
    def test_d0_decay(self):
        (u1,) = one_step(1.0, 0.1, 0, u0=1.0)
        assert u1 == pytest.approx(1.0 / 1.1, abs=1e-14)

    def test_d0_zero_data(self):
        (u1,) = one_step(2.0, 0.3, 0)
        assert u1 == 0.0

    def test_d0_constant_source(self):
        # u' = 1, u0 = 0, k = 0.5: F0 = int_In 1 = 0.5
        (u1,) = one_step(0.0, 0.5, 0, F=[0.5])
        assert u1 == pytest.approx(0.5, abs=1e-15)

    def test_d0_equals_backward_euler_with_averaged_source(self):
        # for f constant in time the two coincide exactly
        k, c, f = 0.2, 0.7, 1.3
        u0 = 0.4
        (u_dg,) = one_step(c, k, 0, u0=u0, F=[k * f])
        u_be = (u0 + k * f) / (1.0 + c * k)
        assert u_dg == pytest.approx(u_be, abs=1e-15)

    def test_d1_exact_on_linear(self):
        U0, U1 = one_step(0.0, 1.0, 1, F=[1.0, 0.0])
        assert U0 == pytest.approx(0.5, abs=1e-14)
        assert U1 == pytest.approx(0.5, abs=1e-14)

    def test_d1_zero_data(self):
        U0, U1 = one_step(1.0, 1.0, 1)
        assert U0 == 0.0 and U1 == 0.0

    @pytest.mark.parametrize("lam,k", [(1.0, 1.0), (2.5, 0.3), (0.1, 0.05), (10.0, 0.2)])
    def test_d1_endpoint_is_pade(self, lam, k):
        U0, U1 = one_step(lam, k, 1, u0=1.0)
        assert U0 + U1 == pytest.approx(pade12(lam * k), abs=1e-12)

    def test_d1_third_order_endpoint(self):
        errs = []
        for n in (5, 10, 20):
            part = TimePartition.uniform(0.0, 1.0, n)
            loads = [np.zeros((2, 1))] * n
            traj = solve_window(Operators(ONE, ONE, 1), {}, part, np.array([1.0]), loads)
            errs.append(abs(traj.final_value()[0] - np.exp(-1.0)))
        rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert rate[0] == pytest.approx(3.0, abs=0.15)
        assert rate[1] == pytest.approx(3.0, abs=0.15)


class TestLinearSolve:
    def test_singular_reports(self):
        # S(k) = M for A = 0, d = 0: the step system is exactly singular
        M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        asm = Operators(M, sp.csr_matrix((2, 2)), 0)
        part = TimePartition.uniform(0.0, 1.0, 2)
        with pytest.raises(SolverError, match="factorization breakdown"):
            solve_window(asm, {}, part, np.zeros(2), [np.array([[1.0, 0.0]])] * 2)


def _step_parts(mass, stiff, d):
    """Oracle: the real Kronecker step system S(k) = S_mass + k S_stiff
    from the spatial block matrices MM, KK, with S_mass = A^T (x) MM and
    S_stiff = diag(gram) (x) KK, the time tables of k = 1."""
    tab = build_interval_basis(d, 1.0)
    return (sp.kron(tab.A.T, mass, format="csr"),
            sp.kron(np.diag(tab.gram), stiff, format="csr"))


def _step_parts_loop(mass, stiff, d):
    """Oracle: the step parts placed block by block from square grids of
    spatial blocks (None where zero; every diagonal stiffness block is
    given, a missing diagonal mass block is empty)."""
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
                    elif r == c:
                        S_mass[row][col] = sp.csr_matrix(stiff[r][r].shape)
                    if kk == j and stiff[r][c] is not None:
                        S_stiff[row][col] = tab.gram[j] * stiff[r][c]
    return sp.bmat(S_mass, format="csr"), sp.bmat(S_stiff, format="csr")


def _same_csr(a, b):
    return a.shape == b.shape and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("indptr", "indices", "data")
    )


@st.composite
def block_grids(draw):
    """(mass, stiff) square grids of 1-3 random sparse blocks: stiffness
    diagonal always given, mass diagonal of a later block sometimes
    missing (a flux row), off-diagonal blocks sometimes None."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(r, c):
        return sp.random(sizes[r], sizes[c], density=rng.uniform(0.2, 1.0), format="csr",
                         random_state=rng)

    n = len(sizes)
    mass = [[block(r, c) if draw(st.booleans()) or (r == c == 0) else None for c in range(n)]
            for r in range(n)]
    stiff = [[block(r, c) if r == c or draw(st.booleans()) else None for c in range(n)]
             for r in range(n)]
    return mass, stiff


def _one_block_grid(size, grid_seed):
    """The block_grids draw of one size x size block from the given seed."""
    rng = np.random.default_rng(grid_seed)
    mass = sp.random(size, size, density=rng.uniform(0.2, 1.0), format="csr", random_state=rng)
    stiff = sp.random(size, size, density=rng.uniform(0.2, 1.0), format="csr", random_state=rng)
    return [[mass]], [[stiff]]


class TestKroneckerStepParts:
    @settings(max_examples=60, deadline=None)
    @given(grids=block_grids(), d=st.sampled_from([0, 1]))
    def test_equals_block_loop(self, grids, d):
        mass, stiff = grids
        full = [[sp.csr_matrix(stiff[r][r].shape) if b is None and r == c else b
                 for c, b in enumerate(row)] for r, row in enumerate(mass)]
        S_mass, S_stiff = _step_parts(sp.bmat(full, format="csr"),
                                      sp.bmat(stiff, format="csr"), d)
        O_mass, O_stiff = _step_parts_loop(mass, stiff, d)
        assert _same_csr(S_mass, O_mass)
        assert _same_csr(S_stiff, O_stiff)

    @pytest.mark.parametrize("d", [0, 1])
    def test_mortar_step_operator_equals_block_loop(self, d):
        # the spatial blocks are the block loop of the DG(0) table [[1]];
        # their Kronecker system is the block loop of degree d
        asm = _mortar_assembly()
        mass, stiff = _mortar_blocks(asm)
        MM, KK, P, rows = _step_operator(asm)
        assert rows == {2: slice(asm.n_dofs, asm.n_dofs + asm.iface[2].nodes.size)}
        O_mass, O_stiff = _step_parts_loop(mass, stiff, 0)
        assert _same_csr(MM, O_mass)
        assert _same_csr(KK, O_stiff)
        assert _same_csr(P, sp.vstack([row[0] for row in mass], format="csr"))
        for a, b in zip(_step_parts(MM, KK, d), _step_parts_loop(mass, stiff, d)):
            assert _same_csr(a, b)


class TestComplexStep:
    @settings(max_examples=80, deadline=None)
    @given(grids=block_grids(), k=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_equals_dense_real_kronecker_solve(self, grids, k, seed):
        # one complex solve with lam MM + k KK against a dense solve of the
        # real A^T (x) MM + k diag(gram) (x) KK, flux rows without mass too
        mass, stiff = grids
        full = [[sp.csr_matrix(stiff[r][r].shape) if b is None and r == c else b
                 for c, b in enumerate(row)] for r, row in enumerate(mass)]
        MM, KK = sp.bmat(full, format="csr"), sp.bmat(stiff, format="csr")
        S_mass, S_stiff = _step_parts(MM, KK, 1)
        S = (S_mass + k * S_stiff).toarray()
        # two solves agree to about cond(S) eps, so draws near a singular
        # S(k) compare nothing
        assume(np.linalg.cond(S) < 1e3)
        rhs = np.random.default_rng(seed).standard_normal((2, MM.shape[0]))
        x = _solve_step(FactorCache(stacked=_stacked_operator(MM, KK, 1)), 1, MM, KK, k, rhs, 0)
        ref = np.linalg.solve(S, rhs.ravel())
        assert np.linalg.norm(x.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


class TestStackedResidual:
    @staticmethod
    def _spatial(grids):
        mass, stiff = grids
        full = [[sp.csr_matrix(stiff[r][r].shape) if b is None and r == c else b
                 for c, b in enumerate(row)] for r, row in enumerate(mass)]
        return sp.bmat(full, format="csr"), sp.bmat(stiff, format="csr")

    @settings(max_examples=60, deadline=None)
    @given(grids=block_grids(), d=st.sampled_from([0, 1]), k=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**32 - 1))
    # entries of y near 2000 round to 2.35e-13 against 1e-13 ||rhs|| = 2.03e-13
    @example(grids=_one_block_grid(4, 636), d=1, k=920.0, seed=136)
    def test_equals_blockwise_residual(self, grids, d, k, seed):
        # oracle: A^T (MM x) + k gram (KK x) - rhs, one spatial product per
        # mode, flux rows without mass included
        MM, KK = self._spatial(grids)
        rng = np.random.default_rng(seed)
        x, rhs = rng.standard_normal((2, d + 1, MM.shape[0]))
        tab = build_interval_basis(d, 1.0)
        want = tab.A.T @ (MM @ x.T).T + k * tab.gram[:, None] * (KK @ x.T).T - rhs
        got = _step_residual(_stacked_operator(MM, KK, d), k, x, rhs.ravel())
        # rounding scales with the terms being summed, not with rhs alone
        ax = np.abs(x)
        scale = (np.linalg.norm(np.abs(tab.A).T @ (abs(MM) @ ax.T).T)
                 + k * np.linalg.norm(tab.gram[:, None] * (abs(KK) @ ax.T).T)
                 + np.linalg.norm(rhs))
        assert np.linalg.norm(got - want.ravel()) <= 1e-13 * scale

    @settings(max_examples=30, deadline=None)
    @given(grids=block_grids(), d=st.sampled_from([0, 1]), seed=st.integers(0, 2**32 - 1))
    def test_steps_of_different_k_share_one_stacked_operator(self, grids, d, seed):
        MM, KK = self._spatial(grids)
        tab = build_interval_basis(d, 1.0)
        for k in (0.5, 2.0):
            S = (sp.kron(tab.A.T, MM) + k * sp.kron(np.diag(tab.gram), KK)).toarray()
            assume(np.linalg.cond(S) < 1e3)
        rhs = np.random.default_rng(seed).standard_normal((d + 1, MM.shape[0]))
        cache = FactorCache(stacked=_stacked_operator(MM, KK, d))
        SS = cache.stacked
        _solve_step(cache, d, MM, KK, 0.5, rhs, 0)
        _solve_step(cache, d, MM, KK, 2.0, rhs, 1)
        assert len(cache.factors) == 2
        assert cache.stacked is SS
        assert _same_csr(SS, _stacked_operator(MM, KK, d))


def _window_loads(M, A, w, partition, degree):
    """Loads for the manufactured solution u(t) = t*w: f = M w + t A w."""
    loads = []
    for n in range(partition.n_intervals):
        t0 = partition.breakpoints[n]
        k = partition.lengths[n]
        F = np.zeros((degree + 1, M.shape[0]))
        Mw, Aw = M @ w, A @ w
        # int L_0 (Mw + s Aw) ds and int L_1 (...) ds on (t0, t0+k)
        F[0] = k * Mw + (k * t0 + k * k / 2.0) * Aw
        if degree == 1:
            F[1] = (k * k / 6.0) * Aw
        loads.append(F)
    return loads


class TestSolveWindow:
    def test_zero_everywhere(self):
        M = sp.identity(3, format="csr")
        A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        asm = Operators(M, A, 1)
        part = TimePartition.uniform(0.0, 1.0, 4)
        loads = [np.zeros((2, 3))] * 4
        traj = solve_window(asm, {}, part, np.zeros(3), loads)
        assert np.all(traj.coeffs == 0)

    def test_manufactured_linear_in_time_exact(self):
        rng = np.random.default_rng(7)
        n = 6
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix(B @ B.T / 10 + np.eye(n))
        M = sp.csr_matrix(np.diag(rng.uniform(0.5, 2.0, n)))
        w = rng.standard_normal(n)
        asm = Operators(M, A, 1)
        part = TimePartition.uniform(0.0, 1.0, 3)
        loads = _window_loads(M, A, w, part, 1)
        traj = solve_window(asm, {}, part, np.zeros(n), loads)
        assert np.allclose(traj.final_value(), w, atol=1e-11)
        # interior values exact too: u(t) = t w
        assert np.allclose(traj.values([0.5])[0], 0.5 * w, atol=1e-11)

    def test_window_chaining_equals_single_window(self):
        rng = np.random.default_rng(8)
        n = 5
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix(B @ B.T / 5 + np.eye(n))
        M = sp.identity(n, format="csr")
        u0 = rng.standard_normal(n)
        asm = Operators(M, A, 1)
        whole = TimePartition.uniform(0.0, 1.0, 4)
        loads = [np.zeros((2, n))] * 4
        traj = solve_window(asm, {}, whole, u0, loads)
        first = TimePartition.uniform(0.0, 0.5, 2)
        second = TimePartition.uniform(0.5, 1.0, 2)
        t1 = solve_window(asm, {}, first, u0, loads[:2])
        t2 = solve_window(asm, {}, second, t1.final_value(), loads[:2])
        assert np.allclose(t2.final_value(), traj.final_value(), atol=1e-12)
        assert np.allclose(t1.final_value(), traj.values([0.5], left=True)[0], atol=1e-12)

    @pytest.mark.parametrize("d", [0, 1])
    def test_dissipativity(self, d):
        # f = 0, g = 0, coercive operator: endpoint norms nonincreasing
        rng = np.random.default_rng(9)
        n = 8
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix(B @ B.T / 8 + 0.5 * np.eye(n))
        M = sp.identity(n, format="csr")
        asm = Operators(M, A, d)
        part = TimePartition.uniform(0.0, 2.0, 10)
        loads = [np.zeros((d + 1, n))] * 10
        traj = solve_window(asm, {}, part, rng.standard_normal(n), loads)
        norms = [np.linalg.norm(traj.u_init)]
        norms += [np.linalg.norm(traj.endpoint(m)) for m in range(10)]
        assert np.all(np.diff(norms) <= 1e-14)


class TestTrajectory:
    def test_endpoint_is_mode_sum(self):
        part = TimePartition.uniform(0.0, 1.0, 2)
        coeffs = np.zeros((2, 2, 3))
        coeffs[0, 0] = [1.0, 2.0, 3.0]
        coeffs[0, 1] = [0.5, -1.0, 0.25]
        traj = DGTrajectory(part, coeffs, np.zeros(3))
        assert np.allclose(traj.endpoint(0), [1.5, 1.0, 3.25])

    def test_left_limits(self):
        part = TimePartition.uniform(0.0, 1.0, 2)
        coeffs = np.ones((2, 1, 1))
        traj = DGTrajectory(part, coeffs, np.array([5.0]))
        assert traj.values([0.0], left=True)[0, 0] == 5.0
        assert traj.values([0.5], left=True)[0, 0] == 1.0
        assert traj.values([0.5], left=False)[0, 0] == 1.0

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("N", [1, 7, 8, 9, 48])
    def test_blocked_norm_equals_interval_loop(self, N, d):
        # oracle: the per-interval, per-mode loop; the coefficients are a
        # view that skips flux columns, as `solve_window_mortar` returns
        rng = np.random.default_rng(N + 100 * d)
        ndof = 13
        B = rng.standard_normal((ndof, ndof))
        M = sp.csr_matrix(B @ B.T + np.eye(ndof))
        part = TimePartition(np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, N)]))
        X = rng.standard_normal((N, d + 1, ndof + 4))
        traj = DGTrajectory(part, X[:, :, :ndof], np.zeros(ndof))
        gram = part.gram(d)
        total = 0.0
        for n in range(N):
            for j in range(d + 1):
                v = traj.coeffs[n, j]
                total += gram[n, j] * float(v @ (M @ v))
        want = np.sqrt(total)
        assert abs(trajectory_norm(traj, M) - want) <= 1e-14 * want


def _dg1_matrix(Ms, As, k):
    """Exact DG(1) step matrix [[Ms + k As, Ms], [-Ms, Ms + (k/3) As]]."""
    return sp.bmat([[Ms + k * As, Ms], [-Ms, Ms + (k / 3.0) * As]], format="csc")


def _solve_checked(matrix, rhs):
    """Fresh sparse LU solve held to the 1e-12 relative residual."""
    x = spla.splu(sp.csc_matrix(matrix)).solve(rhs)
    assert np.linalg.norm(matrix @ x - rhs) <= RESIDUAL_TOL * np.linalg.norm(rhs)
    return x


def _march_reference(Ms, As, part, u_init, data):
    """DG(1) march with a fresh factorization of each step's exact-k matrix.

    Ms, As are the spatial blocks with the solution dofs first; data[n] is
    the (2, size) load part of step n's rhs.  Returns the (N, 2, size)
    modes of all unknowns."""
    size, ndof = Ms.shape[0], u_init.size
    u = np.zeros(size)
    u[:ndof] = u_init
    out = np.zeros((part.n_intervals, 2, size))
    for n, k in enumerate(part.lengths):
        Mu = Ms @ u
        rhs = np.concatenate([Mu + data[n][0], -Mu + data[n][1]])
        out[n] = _solve_checked(_dg1_matrix(Ms, As, float(k)), rhs).reshape(2, size)
        u[:ndof] = out[n, 0, :ndof] + out[n, 1, :ndof]
    return out


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


uniform_windows = st.builds(
    lambda t_a, length, n: TimePartition.uniform(t_a, t_a + length, n),
    st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.integers(1, 64),
)

MORTAR_CFG = """
[domain]
box = 0 1 0 1
T = 1
tolerance = 1e-9
max_iterations = 10
u0 = "exp(-20*((x-0.5)^2+(y-0.5)^2))"
f = "x*(1+t)"

[subdomain]
id = 1
box = 0 0.5 0 1
nu = "0.1"
bx = "0.3"
by = "-0.2"
c = "0.5"
nx = 2
ny = 3
nt = 4
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 1
nu = "0.04"
bx = "0.3"
by = "0"
c = "0.5"
nx = 2
ny = 3
nt = 4
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
q = 0.05
s = 0.04

[transmission]
from = 2
to = 1
p = 1.0
q = 0.05
s = 0.1
"""


# subdomain 2 with 5 cells along the interface against subdomain 1's 3
NONMATCHING_CFG = MORTAR_CFG.replace('by = "0"\nc = "0.5"\nnx = 2\nny = 3',
                                     'by = "0"\nc = "0.5"\nnx = 2\nny = 5')
assert NONMATCHING_CFG != MORTAR_CFG


@lru_cache(maxsize=None)
def _mortar_assembly():
    md = build_multidomain(parse_config(MORTAR_CFG))
    return md.assemblies[1]


def _mortar_blocks(asm):
    """Spatial (mass, stiff) block grids of a subdomain whose one
    interface, to neighbor 2, is a mortar interface: volume line
    M_vol, A_vol + R^T (b.n/2) mass R; flux line q M_Gamma R, and
    M_Gamma Q + ((p - b.n) mass + q B_r + K_s) R U."""
    ia = asm.iface[2]
    n = ia.nodes.size
    R = sp.csr_matrix((np.ones(n), (np.arange(n), ia.nodes)), shape=(n, asm.n_dofs))
    M_bn2 = (ia.p * ia.M_gamma - ia.M_pbn).tocsr()
    mass = [[asm.M_vol, None], [ia.q * (ia.M_gamma @ R), None]]
    stiff = [[(asm.A_vol + R.T @ M_bn2 @ R).tocsr(), -(R.T @ ia.M_gamma)],
             [((ia.M_pbn - M_bn2).tocsr() + ia.q * ia.B_r + ia.K_s) @ R, ia.M_gamma]]
    return mass, stiff


class TestStepClassCache:
    @settings(max_examples=25, deadline=None)
    @given(part=uniform_windows)
    # Its lengths round to two different 12-digit values.
    @example(part=TimePartition.uniform(0.0, 0.55, 59))
    def test_conforming_one_factorization_exact_steps(self, part):
        rng = np.random.default_rng(11)
        n = 6
        B, C = rng.standard_normal((2, n, n))
        A = sp.csr_matrix(B @ B.T / 5 + np.eye(n) + (C - C.T) / 2)
        M = sp.csr_matrix(np.diag(rng.uniform(0.5, 2.0, n)))
        u0 = rng.standard_normal(n)
        loads = list(rng.standard_normal((part.n_intervals, 2, n)))
        asm = Operators(M, A, 1)
        traj = solve_window(asm, {}, part, u0, loads)
        assert len(asm.cache.factors) == 1
        ref = _march_reference(M, A, part, u0, loads)
        assert _relative_gap(traj.coeffs, ref) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(part=uniform_windows)
    def test_mortar_one_factorization_exact_steps(self, part):
        asm = replace(_mortar_assembly())
        ia = asm.iface[2]
        ndof, ni = asm.n_dofs, ia.nodes.size
        rng = np.random.default_rng(12)
        g = rng.standard_normal((part.n_intervals, 2, ni))
        u0 = rng.standard_normal(ndof)
        loads = IntervalLoads(asm.mesh, parse_config(MORTAR_CFG).f, part, asm.degree)
        traj, flux = solve_window_mortar(asm, {2: InterfaceTrace(part, g)}, part, u0, loads)
        assert len(asm.cache.factors) == 1

        mass, stiff = _mortar_blocks(asm)
        mass[1][1] = sp.csr_matrix((ni, ni))
        Ms, As = sp.bmat(mass), sp.bmat(stiff)
        data = [
            [np.concatenate([loads[n][j], k / (2 * j + 1) * g[n, j]]) for j in range(2)]
            for n, k in enumerate(part.lengths)
        ]
        ref = _march_reference(Ms, As, part, u0, data)
        assert _relative_gap(traj.coeffs, ref[:, :, :ndof]) <= 1e-12
        assert _relative_gap(flux[2], ref[:, :, ndof:]) <= 1e-12

    def test_subdomain_marches_as_its_operators(self):
        # a subdomain is one Operators record with a spec, mesh and space:
        # the record of its blocks alone marches to the same bytes
        asm = _mortar_assembly()
        part = TimePartition.uniform(0.0, 0.5, 5)
        rng = np.random.default_rng(13)
        g = rng.standard_normal((part.n_intervals, 2, asm.iface[2].nodes.size))
        traces = {2: InterfaceTrace(part, g)}
        u0 = rng.standard_normal(asm.n_dofs)
        loads = list(rng.standard_normal((part.n_intervals, 2, asm.n_dofs)))
        traj, flux = solve_window_mortar(asm, traces, part, u0, loads)
        system = Operators(asm.M_vol, asm.A_vol, asm.degree, asm.iface)
        traj_o, flux_o = solve_window_mortar(system, traces, part, u0, loads)
        assert traj.coeffs.tobytes() == traj_o.coeffs.tobytes()
        assert list(flux) == list(flux_o) == [2]
        assert flux[2].tobytes() == flux_o[2].tobytes()

    def test_same_size_systems_keep_their_own_operators(self):
        # Two 2x2 systems marched in turn: each trajectory is its own.
        part = TimePartition.uniform(0.0, 1.0, 4)
        u0 = np.array([1.0, -0.5])
        loads = [np.array([[0.2, 0.1], [0.0, -0.3]])] * 4
        M = sp.identity(2, format="csr")
        systems = [Operators(M, sp.csr_matrix(a), 1)
                   for a in ([[1.0, 0.2], [0.0, 2.0]], [[3.0, -1.0], [1.0, 0.5]])]
        trajs = [solve_window(asm, {}, part, u0, loads) for asm in systems]
        for asm, traj in zip(systems, trajs):
            ref = _march_reference(M, asm.A_vol, part, u0, loads)
            assert _relative_gap(traj.coeffs, ref) <= 1e-12
        assert _relative_gap(trajs[0].coeffs, trajs[1].coeffs) > 1e-2

    @pytest.mark.parametrize("text", [MORTAR_CFG, NONMATCHING_CFG], ids=["conforming", "mortar"])
    def test_statistics_one_factor_per_system(self, text):
        # equal windows and steps, on matching and nonmatching interface
        # meshes: each system factors once and finds that factor at every
        # later step, and the complex n x n factor of lam MM + k KK fills
        # less than the real Kronecker one
        cfg = replace(parse_config(text), windows=2)
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        sweeps = sum(h.iterations for h in sol.histories)
        for sid, asm in md.assemblies.items():
            cache = asm.cache
            assert (cache.factorizations, cache.hits) == (1, sweeps * cfg.subdomain(sid).nt - 1)
            (factor,) = cache.factors.values()
            assert factor.L.dtype == complex
            assert cache.nnz_lu == factor.L.nnz + factor.U.nnz
            MM, KK, _, _ = _step_operator(asm)
            S_mass, S_stiff = _step_parts(MM, KK, 1)
            (k,) = cache.factors
            real = spla.splu(sp.csc_matrix(S_mass + k * S_stiff), permc_spec="MMD_AT_PLUS_A")
            assert cache.nnz_lu < real.L.nnz + real.U.nnz

    def test_cache_cannot_be_shared(self):
        # No constructor takes a cache, and a copy starts with a fresh one.
        with pytest.raises(TypeError):
            Operators(ONE, ONE, 1, cache=FactorCache())
        for asm in (Operators(ONE, ONE, 1), _mortar_assembly()):
            assert replace(asm).cache is not asm.cache
        with pytest.raises(ValueError):
            replace(Operators(ONE, ONE, 1), cache=FactorCache())

    def test_merged_step_class_meets_residual_contract(self, monkeypatch):
        # Lengths 1 and 1 + 8e-13 share one factor.  With reaction -3 the
        # representative's solution misses the second step's 1e-12 residual
        # until it is refined against the exact step matrix: the factor
        # solves three times for two steps, the third from the residual.
        factors = []

        class Counting:
            def __init__(self, factor):
                self.factor, self.L, self.U, self.solves = factor, factor.L, factor.U, 0

            def solve(self, b):
                self.solves += 1
                return self.factor.solve(b)

        factorize = dg._factorize
        monkeypatch.setattr(dg, "_factorize", lambda m: factors.append(Counting(factorize(m)))
                            or factors[-1])
        M, A = ONE, -3.0 * ONE
        part = TimePartition(np.array([0.0, 1.0, 2.0 + 8e-13]))
        u0 = np.array([1.0])
        loads = [np.array([[0.3], [-0.7]]), np.array([[0.3], [-0.7]])]
        asm = Operators(M, A, 1)
        traj = solve_window(asm, {}, part, u0, loads)
        assert len(asm.cache.factors) == 1
        assert [f.solves for f in factors] == [3]
        ref = _march_reference(M, A, part, u0, loads)
        assert _relative_gap(traj.coeffs, ref) <= 1e-12
