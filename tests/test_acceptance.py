"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -s`.

The heterogeneous benchmark (discontinuous sqrt/sine diffusion, advection
tangential on one side and normal on the other) and the porosity
benchmark (omega jumping 0.1 vs 1 under a rotating advection field) are
exercised at desk scale; studies run the waveform iteration to a 1e-10
interface residual so iteration error never pollutes the measured
discretization orders.
"""

import time

import numpy as np
import pytest

from oswr.analysis import (
    RefGrid,
    convergence_study,
    max_nodal_difference,
    solve_monodomain,
    sweep_parameters,
)
from oswr.dgsolver import trajectory_norm
from oswr.driver import build_multidomain, initial_guess, iterate, run_windows, sweep
from oswr.problem import parse_config

# ---------------------------------------------------------------------------
# Benchmark configurations
# ---------------------------------------------------------------------------

HETEROGENEOUS = """
[domain]
box = 0 1 0 2
T = {T}
tolerance = 1e-10
max_iterations = 600
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
nx = 8
ny = 32
nt = {nt1}
degree = {d}

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.1*sin(x*y)"
bx = "-0.1"
by = "0"
c = "0"
nx = 8
ny = 32
nt = {nt2}
degree = {d}

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

SHARP_GAUSSIAN = "0.25*exp(-100*((x-0.55)^2+(y-1.7)^2))"
WIDE_GAUSSIAN = "0.25*exp(-15*((x-0.55)^2+(y-1.3)^2))"

POROSITY = """
[domain]
box = 0 1 0 2
T = 1.0
windows = {windows}
tolerance = {tol}
max_iterations = {budget}
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
nx = {nx1}
ny = {ny1}
nt = {nt1}
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.15"
bx = "-sin(1.5707963267948966*(y-1))*cos(3.141592653589793*(x-0.5))"
by = "cos(1.5707963267948966*(y-1))*sin(3.141592653589793*(x-0.5))"
c = "0"
omega = "1"
nx = {nx2}
ny = {ny2}
nt = {nt2}
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

DIFFUSIVE = """
[domain]
box = 0 1 0 2
T = 0.5
tolerance = 1e-8
max_iterations = 100
initial_guess = zero
u0 = "0"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.2"
bx = "0.5"
by = "0"
c = "0.5"
nx = 4
ny = 16
nt = {nt1}
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.05"
bx = "0.5"
by = "0"
c = "0.5"
nx = 4
ny = 16
nt = {nt2}
degree = 1

[transmission]
from = 1
to = 2
p = {p}
q = {q}
r = "0"
s = 0.05

[transmission]
from = 2
to = 1
p = {p}
q = {q}
r = "0"
s = 0.2
"""


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def in_window(value, lo, hi):
    return lo <= value <= hi


# ---------------------------------------------------------------------------
# Shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crit2_study_d1():
    cfg = parse_config(
        HETEROGENEOUS.format(T=0.5, u0=WIDE_GAUSSIAN, nt1=24, nt2=32, d=1, p=0.5, q=0.02)
    )
    t0 = time.perf_counter()
    table = convergence_study(cfg, "time", 5, tol=1e-10)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit4_study():
    cfg = parse_config(
        POROSITY.format(windows=1, tol="1e-10", budget=300,
                        nx1=2, ny1=5, nt1=6, nx2=2, ny2=4, nt2=4)
    )
    t0 = time.perf_counter()
    table = convergence_study(cfg, "spacetime", 4, tol=1e-10)
    return table, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_fixed_point_equivalence():
    """Converged OSWR equals the monodomain DG solution on conforming grids."""
    t0 = time.perf_counter()
    cfg = parse_config(
        HETEROGENEOUS.format(T=1.0, u0=SHARP_GAUSSIAN, nt1=32, nt2=32, d=1, p=1.0, q=0.0)
    )
    sol = run_windows(cfg, tol=1e-10)
    assert sol.histories[0].converged
    ref = solve_monodomain(cfg, RefGrid(nx={1: 8, 2: 8}, ny=32, nt=32))
    diff = max_nodal_difference(sol, ref)
    wall = time.perf_counter() - t0
    report(
        1,
        diff <= 1e-8 and wall <= 30.0,
        f"max nodal diff {diff:.2e} <= 1e-8 after residual <= 1e-10 "
        f"({sol.histories[0].iterations} iterations, {wall:.1f}s <= 30s)",
    )


def test_criterion_2_time_order(crit2_study_d1):
    """L-inf(I; L2) time order d+1 on nonconforming grids, d = 1 and d = 0."""
    table1, wall1 = crit2_study_d1
    s1 = [table1.slopes[("e_inf", sid)] for sid in (1, 2)]

    cfg0 = parse_config(
        HETEROGENEOUS.format(T=0.5, u0=WIDE_GAUSSIAN, nt1=24, nt2=32, d=0, p=0.5, q=0.02)
    )
    t0 = time.perf_counter()
    table0 = convergence_study(cfg0, "time", 5, tol=1e-10)
    wall = wall1 + (time.perf_counter() - t0)
    s0 = [table0.slopes[("e_inf", Sid)] for Sid in (1, 2)]
    ok = (
        all(in_window(s, 1.7, 2.3) for s in s1)
        and all(in_window(s, 0.7, 1.3) for s in s0)
        and wall <= 600.0
    )
    report(
        2, ok,
        f"d=1 slopes {s1[0]:.2f}/{s1[1]:.2f} in [1.7, 2.3]; "
        f"d=0 slopes {s0[0]:.2f}/{s0[1]:.2f} in [0.7, 1.3] ({wall:.0f}s <= 600s)",
    )


def test_criterion_3_nodal_superconvergence(crit2_study_d1):
    """Final-time L2 error of the d=1 study converges at third order."""
    table1, _ = crit2_study_d1
    slopes = [table1.slopes[("e_T_l2", sid)] for sid in (1, 2)]
    ok = all(in_window(s, 2.6, 3.4) for s in slopes)
    report(3, ok, f"final-time L2 slopes {slopes[0]:.2f}/{slopes[1]:.2f} in [2.6, 3.4]")


def test_criterion_4_space_time_order(crit4_study):
    """Simultaneous h,k halving on the porosity problem with nonmatching
    space-time grids (mortar coupling)."""
    table, wall = crit4_study
    l2 = [table.slopes[("e_l2", sid)] for sid in (1, 2)]
    tl2 = [table.slopes[("e_T_l2", sid)] for sid in (1, 2)]
    th1 = [table.slopes[("e_T_h1", sid)] for sid in (1, 2)]
    ok = (
        all(in_window(s, 1.7, 2.3) for s in l2)
        and all(in_window(s, 1.7, 2.3) for s in tl2)
        and all(in_window(s, 0.7, 1.3) for s in th1)
        and wall <= 900.0
    )
    report(
        4, ok,
        f"L2(I;L2) {l2[0]:.2f}/{l2[1]:.2f} and final L2 {tl2[0]:.2f}/{tl2[1]:.2f} "
        f"in [1.7, 2.3]; final H1 {th1[0]:.2f}/{th1[1]:.2f} in [0.7, 1.3] "
        f"({wall:.0f}s <= 900s)",
    )


def test_criterion_5_robin_vs_order2():
    """Best swept Order-2 pair beats the best swept Robin p strictly."""
    cfg = parse_config(DIFFUSIVE.format(nt1=16, nt2=16, p=1.0, q=0.0))
    robin = sweep_parameters(cfg, [1.0, 2.0, 3.0, 4.0, 6.0], [0.0],
                             1e-6, mode="error", seed=0, budget=100)
    order2 = sweep_parameters(cfg, [0.5, 1.0, 2.0], [0.02, 0.05, 0.1],
                              1e-6, mode="error", seed=0, budget=100)
    best_r = min(r["iterations"] for r in robin.rows if r["converged"])
    best_o = min(r["iterations"] for r in order2.rows if r["converged"])
    report(
        5, best_o < best_r,
        f"best Order2 {best_o} iterations < best Robin {best_r} iterations",
    )


def _homogeneous_run(cfg, seed=42, budget=60, tol=1e-8):
    """`iterate` from a seeded random guess, then its sweeps replayed one
    by one from the same guess: (history, subdomain id -> the solution
    norm of every sweep)."""
    md = build_multidomain(cfg)
    win = md.window(0.0, cfg.T)
    u_init = {sid: np.zeros(md.assemblies[sid].n_dofs) for sid in md.assemblies}
    rng = np.random.default_rng(seed)
    start = initial_guess("zero", md, win, u_init)
    for tr in start.values():
        tr.coeffs[...] = rng.standard_normal(tr.coeffs.shape)
    last, _, _, hist = iterate(md, win, u_init, budget, tol, traces=start)
    norms = {sid: [] for sid in md.assemblies}
    traces = start
    for _ in range(hist.iterations):
        trajectories, _, traces = sweep(md, win, traces, u_init)
        for sid, traj in trajectories.items():
            norms[sid].append(trajectory_norm(traj, md.assemblies[sid].M_vol))
    # iterate is a loop of sweep: the replay ends on iterate's own iterate
    assert all(np.array_equal(trajectories[sid].coeffs, last[sid].coeffs) for sid in last)
    return hist, norms


def test_criterion_6_homogeneous_decay():
    """f = u0 = 0 with a seeded random initial guess: the iterates decay."""
    cases = [
        ("robin/conforming", DIFFUSIVE.format(nt1=16, nt2=16, p=3.0, q=0.0)),
        ("robin/nonconforming", DIFFUSIVE.format(nt1=12, nt2=16, p=3.0, q=0.0)),
        ("order2/conforming", DIFFUSIVE.format(nt1=16, nt2=16, p=0.5, q=0.05)),
        ("order2/nonconforming", DIFFUSIVE.format(nt1=12, nt2=16, p=0.5, q=0.05)),
    ]
    details = []
    ok = True
    for label, text in cases:
        hist, norms = _homogeneous_run(parse_config(text))
        conv = hist.converged and hist.residuals[-1] < 1e-8 and hist.iterations <= 60
        mono = all(
            np.all(np.diff(norms[sid][-10:]) < 0) for sid in (1, 2)
        )
        ok = ok and conv and mono
        details.append(f"{label}: {hist.iterations} its, monotone={mono}")
    report(6, ok, "; ".join(details))


def test_criterion_7_invariant_suites():
    """Exact-tolerance property checks of the discrete building blocks."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    from oswr.timebasis import (
        GAUSS4_NODES, GAUSS4_WEIGHTS, build_interval_basis, gauss_radau,
        legendre_eval, lift_rate_modes,
    )
    from oswr.timeproject import apply_projection, build_projection_matrices
    from oswr.dgsolver import Operators, solve_window
    from oswr.timebasis import TimePartition
    import scipy.sparse as sp

    checks = []

    # scheme tables for d = 0, 1
    ib0, ib1 = build_interval_basis(0, 0.3), build_interval_basis(1, 0.5)
    checks.append(("tables", ib0.A.tolist() == [[1.0]]
                   and ib1.A.tolist() == [[1.0, -1.0], [1.0, 1.0]]
                   and ib1.D.tolist() == [[0.0, 0.0], [2.0, 0.0]]
                   and abs(ib1.gram[1] - 0.5 / 3.0) < 1e-15))

    # Gauss-Radau exactness on P_{2d}
    ok = True
    for d in (0, 1):
        r = gauss_radau(d)
        for m in range(2 * d + 1):
            ok = ok and abs(np.sum(r.weights * r.nodes**m) - 1.0 / (m + 1)) < 1e-14
    checks.append(("gauss-radau", ok))

    # lift identity and the decay inequality on 100 random polynomials
    def poly(c, interval, t):
        return sum(ci * legendre_eval(j, interval, t) for j, ci in enumerate(c))

    interval, k = (0.0, 0.8), 0.8
    ts = k * GAUSS4_NODES
    w = k * GAUSS4_WEIGHTS
    ok_id, ok_ineq = True, True
    for d in (0, 1):
        for _ in range(100):
            chi = rng.standard_normal(d + 1)
            psi = rng.standard_normal(d + 1)
            left = rng.standard_normal()
            rate = lift_rate_modes(chi, left, k)
            lhs = np.sum(w * poly(rate, interval, ts) * poly(psi, interval, ts))
            dchi = 0.0 if d == 0 else 2.0 * chi[1] / k
            lhs -= np.sum(w * dchi * poly(psi, interval, ts))
            jump = (poly(chi, interval, 0.0) - left) * poly(psi, interval, 0.0)
            ok_id = ok_id and abs(lhs - jump) < 1e-12 * max(1.0, abs(jump))
            rate_p = lift_rate_modes(psi, left, k)
            lhs2 = np.sum(w * poly(rate_p, interval, ts) * poly(psi, interval, ts))
            rhs2 = 0.5 * (np.sum(psi) ** 2 - left**2)
            ok_ineq = ok_ineq and lhs2 >= rhs2 - 1e-12
    checks.append(("radau-lift identity", ok_id))
    checks.append(("inequality (decay)", ok_ineq))

    # projection: contraction, merged-grid oracle, row sums on 100 pairs
    from test_timeproject import brute_force_blocks, coeff_norm, random_partition

    ok_c, ok_o, ok_r = True, True, True
    for _ in range(100):
        src = random_partition(rng, 0.0, 1.0, int(rng.integers(2, 8)))
        tgt = random_partition(rng, 0.0, 1.0, int(rng.integers(2, 8)))
        pm = build_projection_matrices(src, tgt, 1)
        oracle = brute_force_blocks(src, tgt, 1)
        for al in range(2):
            for be in range(2):
                ok_o = ok_o and np.allclose(
                    pm.blocks[al][be].toarray(), oracle[al][be], atol=1e-14
                )
        rows = np.asarray(pm.blocks[0][0].sum(axis=1)).ravel()
        ok_r = ok_r and np.allclose(rows, tgt.lengths, atol=1e-14)
        coeffs = rng.standard_normal((src.n_intervals, 2))
        out = apply_projection(pm, coeffs)
        ok_c = ok_c and coeff_norm(tgt, out) <= coeff_norm(src, coeffs) + 1e-12
    checks.append(("projection contraction", ok_c))
    checks.append(("merged-grid oracle", ok_o))
    checks.append(("row-sum partition", ok_r))

    # energy identity on 1e4 random tuples
    ok_e = True
    for _ in range(10_000):
        nudu, u, bn, pij, pji = rng.standard_normal(5)
        if pij + pji <= 0:
            pij, pji = abs(pij) + 0.1, abs(pji)
        X = nudu - bn * u
        lhs = (X + pij * u) ** 2 - (X - pji * u) ** 2
        rhs = (2.0 * (pij + pji) * (X + 0.5 * bn * u) * u
               + (pij + pji) * (pij - pji - bn) * u**2)
        ok_e = ok_e and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    checks.append(("energy identity", ok_e))

    # DG(1) endpoint equals the (1,2) Pade approximant
    one = sp.csr_matrix(np.array([[1.0]]))
    ok_p = True
    for lam, kk in ((1.0, 1.0), (3.0, 0.2), (0.5, 0.7)):
        traj = solve_window(Operators(one, lam * one, 1), {}, TimePartition.uniform(0.0, kk, 1),
                            np.array([1.0]), [np.zeros((2, 1))])
        z = lam * kk
        pade = (1.0 - z / 3.0) / (1.0 + 2.0 * z / 3.0 + z**2 / 6.0)
        ok_p = ok_p and abs(traj.final_value()[0] - pade) < 1e-12
    checks.append(("DG(1) Pade endpoint", ok_p))

    # skew-symmetry of the assembled advection block
    from oswr.femspace import assemble_atilde, build_mesh
    from oswr.problem import const_expr

    mesh = build_mesh((0.0, 1.0, 0.0, 2.0), (5, 9))
    A = assemble_atilde(mesh, 0.0, (const_expr(0.7), const_expr(-0.4)), 0.0, 0.0)
    ok_s = True
    for _ in range(10):
        x = rng.standard_normal(mesh.n_nodes)
        ok_s = ok_s and abs(x @ (A @ x)) <= 1e-12 * max(1.0, abs(A).max() * (x @ x))
    checks.append(("advection skew", ok_s))

    wall = time.perf_counter() - t0
    ok = all(flag for _, flag in checks) and wall <= 10.0
    report(7, ok, ", ".join(f"{n}={'ok' if f else 'FAIL'}" for n, f in checks)
           + f" ({wall:.1f}s <= 10s)")


def _sup_l2_difference(sol_a, sol_b, md):
    """L-inf in time of the L2(Omega_i) difference of two solutions on the
    same subdomain grids, sampled at every breakpoint t_n from below,
    u(t_n^-), and from above, u(t_n^+) = sum_j (-1)^j c_{n,j}, and at the
    interior Radau nodes."""
    from oswr.timebasis import gauss_radau

    out = 0.0
    for sid, asm in md.assemblies.items():
        a, b = sol_a.trajectories[sid], sol_b.trajectories[sid]
        bps = a.partition.breakpoints
        radau = gauss_radau(asm.degree).nodes[:-1]
        interior = (bps[:-1, None] + radau[None, :] * (bps[1:] - bps[:-1])[:, None]).ravel()
        sign = (-1.0) ** np.arange(asm.degree + 1)
        D = np.concatenate([
            a.values(bps, True) - b.values(bps, True),
            np.einsum("j,njk->nk", sign, a.coeffs - b.coeffs),
            a.values(interior) - b.values(interior),
        ])
        out = max(out, float(np.sqrt(np.einsum("ti,ti->t", D, (asm.M_vol @ D.T).T).max())))
    return out


def test_criterion_8_window_consistency(crit4_study):
    """One converged window vs ten windows of five iterations each."""
    table, _ = crit4_study
    e_disc = max(table.rows[0][("e_inf", sid)] for sid in (1, 2))

    one = parse_config(POROSITY.format(windows=1, tol="1e-10", budget=300,
                                       nx1=4, ny1=10, nt1=60, nx2=4, ny2=8, nt2=40))
    ten = parse_config(POROSITY.format(windows=10, tol="1e-30", budget=5,
                                       nx1=4, ny1=10, nt1=6, nx2=4, ny2=8, nt2=4))
    md = build_multidomain(one)
    sol_one = run_windows(one, md=md)
    md_ten = build_multidomain(ten)
    sol_ten = run_windows(ten, md=md_ten)
    diff = _sup_l2_difference(sol_one, sol_ten, md)
    report(
        8, diff < e_disc,
        f"one-window vs 10x5-window difference {diff:.2e} < coarsest "
        f"discretization error {e_disc:.2e}",
    )
