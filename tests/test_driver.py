import dataclasses
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import oswr.dgsolver as dg
import oswr.driver as drv
import oswr.femspace as fes
from oswr.dgsolver import (
    DGTrajectory,
    InterfaceTrace,
    RESIDUAL_TOL,
    SolverError,
    solve_window_mortar,
)
from oswr.driver import (
    DivergenceError,
    MultidomainSolution,
    build_multidomain,
    initial_guess,
    interface_residual,
    iterate,
    run_windows,
    transfer_trace,
    transmission_update,
)
from oswr.cli import main
from oswr.problem import const_expr, parse_config, validate_problem
from oswr.timebasis import TimePartition, build_interval_basis, legendre_eval
from oswr.timeproject import apply_projection, build_projection_matrices
from test_cli import NEGATIVE_NU, SINGULAR_F, SINGULAR_NU
from test_timebasis import locate

CFG_1D = """
[domain]
box = 0 1
T = 0.5
tolerance = 1e-10
max_iterations = 200
initial_guess = from_u0
u0 = "exp(-30*(x-0.5)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.5
nu = "0.1"
bx = "0.5"
c = "1"
nx = 12
nt = 6
degree = 1

[subdomain]
id = 2
box = 0.5 1
nu = "0.05"
bx = "0.2"
c = "0.3"
nx = 8
nt = 4
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
"""

CFG_2D = """
[domain]
box = 0 1 0 1
T = 0.25
tolerance = 1e-9
max_iterations = 200
initial_guess = from_u0
u0 = "exp(-20*((x-0.5)^2+(y-0.5)^2))"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 1
nu = "0.1"
bx = "0.3"
by = "-0.2"
c = "0.5"
nx = 4
ny = 8
nt = 4
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 1
nu = "0.04"
bx = "0.3"
by = "0"
c = "0.5"
nx = 4
ny = 8
nt = 3
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


# A band of three: subdomain 2 meets 1 on matching interface meshes and
# 3 on nonmatching ones.
CFG_MIXED = """
[domain]
box = 0 0.75 0 1
T = 0.25
tolerance = 1e-9
max_iterations = 200
initial_guess = from_u0
u0 = "exp(-20*((x-0.375)^2+(y-0.5)^2))"
f = "x*(1+t)"

[subdomain]
id = 1
box = 0 0.25 0 1
nu = "0.1"
bx = "0.3"
by = "-0.2"
c = "0.5"
nx = 2
ny = 8
nt = 4
degree = 1

[subdomain]
id = 2
box = 0.25 0.5 0 1
nu = "0.04"
bx = "0.3"
by = "0"
c = "0.5"
nx = 2
ny = 8
nt = 3
degree = 1

[subdomain]
id = 3
box = 0.5 0.75 0 1
nu = "0.07"
bx = "0.3"
by = "0.1"
c = "0.5"
nx = 2
ny = 6
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
to = 3
p = 1.0
q = 0.05
s = 0.1
"""

# Four subdomains around a cross point: the corner node of each lies on
# two of its interfaces.  The cross point slows the Jacobi sweep; the
# cases that use it need only a few sweeps.
CFG_2X2 = """
[domain]
box = 0 1 0 1
T = 0.25
tolerance = 1e-9
max_iterations = 8
initial_guess = from_u0
u0 = "exp(-20*((x-0.5)^2+(y-0.5)^2))"
f = "1+x*y+t"

[subdomain]
id = 1
box = 0 0.5 0 0.5
nu = "0.1"
bx = "0.3"
by = "-0.2"
c = "0.5"
nx = 3
ny = 4
nt = 4
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 0.5
nu = "0.04"
bx = "0.3"
by = "0.1"
c = "0.5"
nx = 4
ny = 4
nt = 3
degree = 1

[subdomain]
id = 3
box = 0 0.5 0.5 1
nu = "0.07"
bx = "-0.1"
by = "0.2"
c = "0.5"
nx = 3
ny = 4
nt = 4
degree = 1

[subdomain]
id = 4
box = 0.5 1 0.5 1
nu = "0.05"
bx = "0.2"
by = "0"
c = "0.5"
nx = 4
ny = 4
nt = 4
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
q = 0.05
s = 0.04

[transmission]
from = 1
to = 3
p = 1.0
q = 0.05

[transmission]
from = 2
to = 4
p = 1.0
q = 0.05

[transmission]
from = 3
to = 4
p = 1.0
q = 0.05
"""


def test_energy_identity():
    # the algebraic identity behind the Robin convergence proof:
    # with X = nu du - (b.n) u,
    # (X + p_ij u)^2 - (X - p_ji u)^2
    #   = 2 (p_ij + p_ji)(X + (b.n/2) u) u + (p_ij + p_ji)(p_ij - p_ji - b.n) u^2
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        nudu, u, bn, pij, pji = rng.standard_normal(5)
        if pij + pji <= 0:
            pij, pji = abs(pij) + 0.1, abs(pji)
        X = nudu - bn * u
        lhs = (X + pij * u) ** 2 - (X - pji * u) ** 2
        rhs = (
            2.0 * (pij + pji) * (X + 0.5 * bn * u) * u
            + (pij + pji) * (pij - pji - bn) * u**2
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestInitialGuess:
    def test_zero(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        out = initial_guess("zero", md, win, {s: np.zeros(a.n_dofs) for s, a in md.assemblies.items()})
        assert all(np.all(tr.coeffs == 0) for tr in out.values())

    def test_from_u0_with_zero_u0(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        out = initial_guess("from_u0", md, win,
                            {s: np.zeros(a.n_dofs) for s, a in md.assemblies.items()})
        assert all(np.all(tr.coeffs == 0) for tr in out.values())

    def test_from_u0_constant_robin(self):
        # p = 1, u0 = 1 on the interface: mode 0 equals M_Gamma . 1, mode 1 zero
        cfg = parse_config(CFG_2D.replace("q = 0.05", "q = 0.0"))
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        ones = {s: np.ones(a.n_dofs) for s, a in md.assemblies.items()}
        out = initial_guess("from_u0", md, win, ones)
        tr = out[(1, 2)]
        mg_row = np.asarray(md.assemblies[1].iface[2].M_gamma.sum(axis=1)).ravel()
        for n in range(tr.coeffs.shape[0]):
            assert tr.coeffs[n, 0] == pytest.approx(mg_row, abs=1e-14)
            assert np.all(tr.coeffs[n, 1] == 0)


class TestResidual:
    def _trace(self, win, coeffs):
        return InterfaceTrace(win.partitions[1], coeffs)

    def test_equal_traces(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        c = np.random.default_rng(0).standard_normal((6, 2, 1))
        assert interface_residual(self._trace(win, c), self._trace(win, c.copy()), 0.0) == 0.0

    def test_zero_old(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        c = np.random.default_rng(1).standard_normal((6, 2, 1))
        z = np.zeros_like(c)
        assert interface_residual(self._trace(win, c), self._trace(win, z), 0.0) == pytest.approx(1.0)

    def test_homogeneous_scaling(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        rng = np.random.default_rng(2)
        g = rng.standard_normal((6, 2, 1))
        d = rng.standard_normal((6, 2, 1))
        r1 = interface_residual(self._trace(win, g + d), self._trace(win, g), 0.0)
        tr1 = self._trace(win, g + d)
        delta1 = InterfaceTrace(tr1.partition, d).norm()
        delta2 = InterfaceTrace(tr1.partition, 2 * d).norm()
        assert delta2 == pytest.approx(2 * delta1, rel=1e-12)
        assert r1 == pytest.approx(delta1 / tr1.norm(), rel=1e-12)


class TestTransmissionUpdate:
    def test_constant_robin_update(self):
        # constants u = mu, Q = gamma: g_new = M_x (-gamma + (b.n + p) mu),
        # with b.n = -0.3 on subdomain 2's xmin side and p = 1
        cfg = parse_config(CFG_2D.replace("q = 0.05", "q = 0.0"))
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        asm = md.assemblies[2]
        part = win.partitions[2]
        mu, gamma = 0.7, -0.3
        coeffs = np.zeros((part.n_intervals, 2, asm.n_dofs))
        coeffs[:, 0, :] = mu
        traj = DGTrajectory(part, coeffs, mu * np.ones(asm.n_dofs))
        nI = asm.iface[1].nodes.size
        Q = np.zeros((part.n_intervals, 2, nI))
        Q[:, 0, :] = gamma
        out = transmission_update(md, win, 1, 2, traj, {1: Q})
        mx = md.assemblies[1].iface[2].M_x
        expect = (-gamma + 0.7 * mu) * np.asarray(mx.sum(axis=1)).ravel()
        for n in range(out.coeffs.shape[0]):
            assert out.coeffs[n, 0] == pytest.approx(expect, abs=1e-12)
            assert np.abs(out.coeffs[n, 1]).max() < 1e-12

    def test_zero_maps_to_zero(self):
        cfg = parse_config(CFG_2D)
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        asm = md.assemblies[2]
        part = win.partitions[2]
        traj = DGTrajectory(part, np.zeros((part.n_intervals, 2, asm.n_dofs)),
                            np.zeros(asm.n_dofs))
        nI = asm.iface[1].nodes.size
        flux = {1: np.zeros((part.n_intervals, 2, nI))}
        out = transmission_update(md, win, 1, 2, traj, flux)
        assert np.all(out.coeffs == 0)

    def test_converged_traces_are_fixed_point(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        u_init = {sid: np.zeros(md.assemblies[sid].n_dofs) for sid in md.assemblies}
        import oswr.femspace as fes

        u_init = {
            sid: fes.nodal_interpolate(md.assemblies[sid].mesh, cfg.u0)
            for sid in md.assemblies
        }
        win = md.window(0.0, cfg.T)
        trajs, fluxes, traces, hist = iterate(md, win, u_init, 300, 1e-13)
        assert hist.converged
        for (i, j) in md.pairs:
            new = transmission_update(md, win, i, j, trajs[j], fluxes[j])
            rel = interface_residual(new, traces[(i, j)], 0.0)
            assert rel < 1e-10


class TestIterate:
    def test_homogeneous_decay_1d(self):
        cfg = parse_config(CFG_1D.replace('u0 = "exp(-30*(x-0.5)^2)"', 'u0 = "0"'))
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        u_init = {sid: np.zeros(md.assemblies[sid].n_dofs) for sid in md.assemblies}
        rng = np.random.default_rng(6)
        traces = initial_guess("zero", md, win, u_init)
        for tr in traces.values():
            tr.coeffs[...] = rng.standard_normal(tr.coeffs.shape)
        _, _, _, hist = iterate(md, win, u_init, 100, 1e-8, traces=traces)
        assert hist.converged
        assert hist.residuals[-1] < 1e-8

    def test_relabeling_symmetry(self):
        cfg = parse_config(CFG_2D)
        swapped = (
            CFG_2D.replace("id = 1", "id = 9")
            .replace("id = 2", "id = 1")
            .replace("id = 9", "id = 2")
            .replace("from = 1\nto = 2", "from = 9\nto = 1")
            .replace("from = 2\nto = 1", "from = 1\nto = 2")
            .replace("from = 9\nto = 1", "from = 2\nto = 1")
        )
        cfg2 = parse_config(swapped)
        sol1 = run_windows(replace(cfg, max_iterations=3), tol=0.0)
        sol2 = run_windows(replace(cfg2, max_iterations=3), tol=0.0)
        for sid, sid2 in ((1, 2), (2, 1)):
            a = sol1.trajectories[sid].coeffs
            b = sol2.trajectories[sid2].coeffs
            assert np.array_equal(a, b)

    def test_run_windows_single_equals_iterate(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        import oswr.femspace as fes

        md2 = build_multidomain(cfg)
        u_init = {
            sid: fes.nodal_interpolate(md2.assemblies[sid].mesh, cfg.u0)
            for sid in md2.assemblies
        }
        trajs, _, _, _ = iterate(md2, md2.window(0.0, cfg.T), u_init, cfg.max_iterations,
                                 cfg.tolerance)
        for sid in trajs:
            assert np.array_equal(sol.trajectories[sid].coeffs, trajs[sid].coeffs)


    def test_run_windows_keeps_every_window_and_restarts_from_it(self):
        cfg = parse_config(CFG_1D.replace("T = 0.5", "T = 0.5\nwindows = 3"))
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        assert len(sol.traces) == cfg.windows
        for w, window in enumerate(sol.traces):
            assert sorted(window) == md.pairs
            assert window[(1, 2)].partition.start == pytest.approx(w * cfg.T / cfg.windows)
        # restarted from its own converged traces, each window is done at once
        again = run_windows(cfg, md=md, traces=sol.traces)
        assert all(h.converged and h.iterations <= 2 for h in again.histories)
        assert max(h.iterations for h in sol.histories) > 2

    def test_pair_residuals_recorded_per_sweep(self):
        cfg = parse_config(CFG_2D)
        sol = run_windows(cfg)
        hist = sol.histories[0]
        assert len(hist.pair_residuals) == hist.iterations
        for r_k, r_pair in zip(hist.residuals, hist.pair_residuals):
            assert sorted(r_pair) == [(1, 2), (2, 1)]
            assert r_k == max(r_pair.values())


# ---------------------------------------------------------------------------
# Trace transfer between nested refinement levels
# ---------------------------------------------------------------------------

# Cells of a coarse grid, each with the relative lengths of the fine cells
# that split it: nested grids with cell-size ratios of at most 50.
nested_cells = st.lists(
    st.tuples(st.floats(0.1, 1.0), st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3)),
    min_size=1, max_size=6,
)


def _nested_grids(origin, cells):
    coarse = origin + np.concatenate([[0.0], np.cumsum([c for c, _ in cells])])
    fine = [coarse[:1]]
    for (a, b), (_, parts) in zip(zip(coarse[:-1], coarse[1:]), cells):
        cuts = np.cumsum(parts)[:-1] / np.sum(parts)
        fine.append(np.concatenate([a + (b - a) * cuts, [b]]))
    return coarse, np.concatenate(fine)


def _hats(coarse, fine):
    """Prolongation P: P[k, l] is coarse hat l at fine node k."""
    return np.column_stack([np.interp(fine, coarse, e) for e in np.eye(coarse.size)])


def _values(partition, coeffs, times):
    out = []
    for t in times:
        n = locate(partition, t)
        iv = (partition.breakpoints[n], partition.lengths[n])
        out.append(sum(coeffs[n, j] * legendre_eval(j, iv, t) for j in range(coeffs.shape[1])))
    return np.array(out)


class TestTransferTrace:
    @settings(max_examples=40, deadline=None)
    @given(cells=nested_cells, t0=st.floats(-2.0, 2.0), d=st.sampled_from([0, 1]),
           n_nodes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_time_exact_on_nested_partitions(self, cells, t0, d, n_nodes, seed):
        bp_c, bp_f = _nested_grids(t0, cells)
        coarse, fine = TimePartition(bp_c), TimePartition(bp_f)
        g = np.random.default_rng(seed).standard_normal((coarse.n_intervals, d + 1, n_nodes))
        out = transfer_trace(InterfaceTrace(coarse, g), None, fine, None)
        assert out.partition is fine and out.coeffs.shape == (fine.n_intervals, d + 1, n_nodes)
        scale = np.max(np.abs(g))
        # the coarse piecewise polynomial, evaluated inside every fine interval
        times = (bp_f[:-1, None] + np.array([0.1, 0.5, 0.9])[None, :] * fine.lengths[:, None])
        times = times.ravel()
        assert np.max(np.abs(_values(fine, out.coeffs, times) - _values(coarse, g, times))) \
            <= 1e-13 * scale
        back = apply_projection(build_projection_matrices(fine, coarse, d), out.coeffs)
        assert np.max(np.abs(back - g)) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(cells=nested_cells, x0=st.floats(-2.0, 2.0), d=st.sampled_from([0, 1]),
           n_intervals=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_space_keeps_every_coarse_functional(self, cells, x0, d, n_intervals, seed):
        coarse, fine = _nested_grids(x0, cells)
        part = TimePartition.uniform(0.0, 1.0, n_intervals)
        g = np.random.default_rng(seed).standard_normal((n_intervals, d + 1, coarse.size))
        out = transfer_trace(InterfaceTrace(part, g), coarse, part, fine)
        assert out.coeffs.shape == (n_intervals, d + 1, fine.size)
        # P^T g_fine = g_coarse: the fine data tested with the coarse hats
        back = np.einsum("kl,nbk->nbl", _hats(coarse, fine), out.coeffs)
        assert np.max(np.abs(back - g)) <= 1e-13 * np.max(np.abs(g))

    @pytest.mark.parametrize("along", [None, np.linspace(0.0, 2.0, 7)], ids=["1d-point", "equal"])
    def test_equal_coordinates_skip_the_space_step(self, along):
        rng = np.random.default_rng(8)
        coarse, fine = TimePartition.uniform(0.0, 0.5, 3), TimePartition.uniform(0.0, 0.5, 6)
        n = 1 if along is None else along.size
        tr = InterfaceTrace(coarse, rng.standard_normal((3, 2, n)))
        same = None if along is None else along.copy()
        out = transfer_trace(tr, along, fine, same)
        time_only = apply_projection(build_projection_matrices(coarse, fine, 1), tr.coeffs)
        assert np.array_equal(out.coeffs, time_only)


def test_nonconforming_envelope_monitor(capsys):
    """Monitored, not asserted: nonconforming-grid residual histories stay
    within a small factor of the conforming envelope."""
    import oswr.femspace as fes

    def history(text):
        cfg = parse_config(text)
        md = build_multidomain(cfg)
        u_init = {
            sid: fes.nodal_interpolate(md.assemblies[sid].mesh, cfg.u0)
            for sid in md.assemblies
        }
        _, _, _, hist = iterate(md, md.window(0.0, cfg.T), u_init, 60, 1e-9)
        return np.array(hist.residuals)

    conf = history(CFG_2D.replace("nt = 3", "nt = 4"))
    nonc = history(CFG_2D)
    n = min(conf.size, nonc.size)
    ratio = np.max(nonc[:n] / np.maximum(conf[:n], 1e-300))
    print(f"nonconforming/conforming residual envelope ratio: {ratio:.2f}")
    assert np.isfinite(ratio)


class TestTransmissionWithoutInterface:
    # subdomains 1 and 3 of CFG_MIXED do not touch
    TEXT = CFG_MIXED + "\n[transmission]\nfrom = 1\nto = 3\np = 5.0\n"

    @staticmethod
    def errors(text):
        return [d.message for d in validate_problem(parse_config(text)) if d.severity == "error"]

    def test_rejected_by_name(self):
        message = "transmission (1, 3): subdomains 1 and 3 share no interface"
        assert message in self.errors(self.TEXT)
        # the layouts that list only neighbouring pairs stay valid
        assert self.errors(CFG_MIXED) == self.errors(CFG_2X2) == []

    def test_run_exits_2(self, tmp_path, capsys):
        p = tmp_path / "far.cfg"
        p.write_text(self.TEXT)
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "transmission (1, 3): subdomains 1 and 3 share no interface" in err
        assert not out.exists()


@pytest.mark.parametrize("text", [CFG_MIXED, CFG_2D, CFG_1D], ids=["mixed", "mortar-2d", "1d"])
def test_each_subdomain_assembled_once(monkeypatch, text):
    # the volume operators are built once per subdomain, and each system
    # folds its interfaces into its step operator and stacks its residual
    # operator once, across windows and sweeps, both in the march and not
    # at set-up
    calls = {"atilde": 0, "step_operator": 0, "stacked": 0}
    atilde, step_operator = fes.assemble_atilde, dg._step_operator
    stacked = dg._stacked_operator

    def count(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fes, "assemble_atilde", count("atilde", atilde))
    monkeypatch.setattr(dg, "_step_operator", count("step_operator", step_operator))
    monkeypatch.setattr(dg, "_stacked_operator", count("stacked", stacked))
    cfg = replace(parse_config(text), windows=2, max_iterations=3, tolerance=1e-30)
    md = build_multidomain(cfg)
    n = len(cfg.subdomains)
    assert calls == {"atilde": n, "step_operator": 0, "stacked": 0}
    assert all(asm.cache.step is None and asm.cache.stacked is None
               for asm in md.assemblies.values())
    sol = run_windows(cfg, md=md)
    assert [h.iterations for h in sol.histories] == [3, 3]
    assert calls == {"atilde": n, "step_operator": n, "stacked": n}
    assert all(asm.cache.stacked is not None for asm in md.assemblies.values())


# Oracles: the interface fold and the window march as they were when the
# driver folded conforming interfaces into (M_full, A_full) at set-up, the
# mortar rows were built from derived interface blocks, each step
# scattered the conforming and the mortar traces separately, and each
# step solved the real (d+1)n x (d+1)n Kronecker system.  `mortar` lists
# the neighbors across a mortar interface, all of them by default; the
# others are folded as conforming interfaces.


def _restrict(asm, ia):
    n = ia.nodes.size
    return sp.coo_matrix((np.ones(n), (np.arange(n), ia.nodes)), shape=(n, asm.n_dofs)).tocsr()


def _old_finalize(asm, mortar):
    M_full, A_full = asm.M_vol.copy(), asm.A_vol.copy()
    for nb, ia in sorted(asm.iface.items()):
        R = _restrict(asm, ia)
        if nb in mortar:
            A_full = A_full + R.T @ (ia.p * ia.M_gamma - ia.M_pbn).tocsr() @ R
        else:
            A_full = A_full + R.T @ (ia.M_pbn + ia.q * ia.B_r + ia.K_s) @ R
            if ia.q != 0.0:
                M_full = M_full + ia.q * (R.T @ ia.M_gamma @ R)
    return M_full.tocsr(), A_full.tocsr()


def _old_blocks(asm, mortar):
    """Spatial blocks (MM, KK, P) of one system."""
    M_full, A_full = _old_finalize(asm, mortar)
    ifaces = [asm.iface[nb] for nb in mortar]
    nblk = 1 + len(ifaces)
    mass = [[None] * nblk for _ in range(nblk)]
    stiff = [[None] * nblk for _ in range(nblk)]
    mass[0][0] = M_full
    stiff[0][0] = A_full
    for r, ia in enumerate(ifaces, start=1):
        R = _restrict(asm, ia)
        M_pbn_full = (ia.M_pbn - (ia.p * ia.M_gamma - ia.M_pbn).tocsr()).tocsr()
        mass[r][0] = ia.q * (ia.M_gamma @ R)
        mass[r][r] = sp.csr_matrix(ia.M_gamma.shape)
        stiff[0][r] = -(R.T @ ia.M_gamma)
        stiff[r][r] = ia.M_gamma
        stiff[r][0] = (M_pbn_full + ia.q * ia.B_r + ia.K_s) @ R
    P = sp.vstack([row[0] for row in mass], format="csr")
    return sp.bmat(mass, format="csr"), sp.bmat(stiff, format="csr"), P


def _step_parts(mass, stiff, d):
    """S(k) = S_mass + k S_stiff with S_mass = A^T (x) MM and
    S_stiff = diag(gram) (x) KK, the time tables of k = 1."""
    tab = build_interval_basis(d, 1.0)
    return (sp.kron(tab.A.T, mass, format="csr"),
            sp.kron(np.diag(tab.gram), stiff, format="csr"))


def _old_solve_step(cache, S_mass, S_stiff, k, rhs, n):
    """Real LU of S(k) per step class, one refinement step, and the
    1e-12 residual contract on the step's own S(k)."""
    factor = cache.get(cache.key(k), lambda: S_mass + k * S_stiff)
    x = factor.solve(rhs)
    r = S_mass @ x + k * (S_stiff @ x) - rhs
    if dg._relative_residual(r, rhs) > RESIDUAL_TOL:
        x = x - factor.solve(r)
        r = S_mass @ x + k * (S_stiff @ x) - rhs
    dg._check_residual(dg._relative_residual(r, rhs), f"interval {n}: ")
    return x


def _old_march(asm, traces_in, partition, u_init, loads, mortar=None):
    d = asm.degree
    ndof = asm.n_dofs
    cache = asm.cache  # the factors, as the march keeps them across sweeps
    mortar = sorted(asm.iface) if mortar is None else mortar
    M_full, A_full, P = _old_blocks(asm, mortar)
    S_mass, S_stiff = _step_parts(M_full, A_full, d)
    offs = np.cumsum([ndof] + [asm.iface[nb].nodes.size for nb in mortar])
    rows = {nb: slice(offs[i], offs[i + 1]) for i, nb in enumerate(mortar)}
    gram = partition.gram(d)
    data = {nb: gram[:, :, None] * tr.coeffs for nb, tr in traces_in.items()}
    conforming = [(asm.iface[nb].nodes, g) for nb, g in data.items() if nb not in rows]
    flux_data = [(rows[nb], g) for nb, g in data.items() if nb in rows]
    sign = ((-1.0) ** np.arange(d + 1))[:, None]
    coeffs = np.zeros((partition.n_intervals, d + 1, ndof))
    qmodes = {nb: np.zeros((partition.n_intervals, d + 1, r.stop - r.start))
              for nb, r in rows.items()}
    u_prev = np.asarray(u_init, dtype=float)
    for n, k in enumerate(partition.lengths):
        G = np.zeros((d + 1, ndof))
        for nodes, g in conforming:
            G[:, nodes] += g[n]
        rhs = sign * (P @ u_prev)
        rhs[:, :ndof] += loads[n] + G
        for r, g in flux_data:
            rhs[:, r] += g[n]
        x = _old_solve_step(cache, S_mass, S_stiff, float(k), rhs.ravel(), n)
        x = x.reshape(d + 1, -1)
        coeffs[n] = x[:, :ndof]
        for nb, r in rows.items():
            qmodes[nb][n] = x[:, r]
        u_prev = coeffs[n].sum(axis=0)
    traj = DGTrajectory(partition, coeffs, np.asarray(u_init, float).copy())
    return traj, qmodes


def _same_csr(a, b):
    return a.shape == b.shape and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("indptr", "indices", "data")
    )


def _assert_matches(new, old, degree):
    """DG(0) bit for bit; DG(1), one complex solve per step against the
    real Kronecker solve, to 1e-12 relative."""
    if degree == 0:
        assert new.tobytes() == old.tobytes()
    else:
        assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)


# CFG_2D with 6 cells on subdomain 2's side of the interface against 8
CFG_2D_NONMATCHING = CFG_2D.replace("ny = 8\nnt = 3", "ny = 6\nnt = 3")

FOLD_CASES = pytest.mark.parametrize(
    "text",
    [CFG_1D, CFG_2D, CFG_2D_NONMATCHING, CFG_MIXED, CFG_2X2],
    ids=["1d", "2d", "mortar-2d", "mixed", "2x2"],
)


class TestOneInterfaceFold:
    """The step operator folds every interface bit for bit as the
    oracles above, and one scatter per window loads every trace."""

    @FOLD_CASES
    @pytest.mark.parametrize("degree", [0, 1])
    def test_step_operator_and_march_match_oracle(self, text, degree):
        cfg = parse_config(text.replace("degree = 1", f"degree = {degree}"))
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        rng = np.random.default_rng(17)
        for sid, asm in md.assemblies.items():
            new = dg._step_operator(asm)
            for a, b in zip(new[:3], _old_blocks(asm, sorted(asm.iface))):
                assert _same_csr(a, b)
            part = win.partitions[sid]
            traces = {nb: InterfaceTrace(part, rng.standard_normal(
                          (part.n_intervals, degree + 1, ia.nodes.size)))
                      for nb, ia in asm.iface.items()}
            u0 = rng.standard_normal(asm.n_dofs)
            traj, flux = solve_window_mortar(replace(asm), traces, part, u0, win.loads[sid])
            old_traj, old_flux = _old_march(replace(asm), traces, part, u0, win.loads[sid])
            _assert_matches(traj.coeffs, old_traj.coeffs, degree)
            assert list(flux) == list(old_flux) == sorted(asm.iface)
            for nb in asm.iface:
                _assert_matches(flux[nb], old_flux[nb], degree)

    @FOLD_CASES
    def test_windows_match_oracle(self, monkeypatch, text):
        for degree in (0, 1):
            cfg = replace(parse_config(text.replace("degree = 1", f"degree = {degree}")),
                          windows=2, max_iterations=4)

            def run():
                sol = run_windows(cfg, md=build_multidomain(cfg))
                return (np.array([h.residuals for h in sol.histories]),
                        {sid: traj.coeffs for sid, traj in sol.trajectories.items()})

            with monkeypatch.context() as m:
                m.setattr(drv, "solve_window_mortar", _old_march)
                old = run()
            new = run()
            _assert_matches(new[0], old[0], degree)
            assert list(new[1]) == list(old[1])
            for sid in old[1]:
                _assert_matches(new[1][sid], old[1][sid], degree)


def _matching(md, i, j):
    """Whether the interface of i and j has matching meshes on its two
    sides (a 1D point always has)."""
    al_i, al_j = md.assemblies[i].iface[j].along, md.assemblies[j].iface[i].along
    return al_i is None or (al_i.size == al_j.size and np.allclose(al_i, al_j, atol=1e-12))


def _conforming_update(md, win, i, j, traj_j, g_old, u_init_j):
    """The exchange i <- j across a conforming interface, from the data
    g_old = g_{j,i} that j received:

        g_new = P_i [ -g_old + (p_ij + p_ji) M_G u_j
                      + (q_ij + q_ji) d/dt(I_j M_G u_j)
                      + (tangential advection + diffusion) u_j ]."""
    ia, ja = md.assemblies[i].iface[j], md.assemblies[j].iface[i]
    tang = (ia.q * ia.B_r + ja.q * ja.B_r + ia.K_s + ja.K_s).tocsr()
    RU = traj_j.coeffs[:, :, ja.nodes]
    W = drv._apply_rows(ja.M_gamma, RU)
    gtil = -g_old.coeffs + (ia.p + ja.p) * W + drv._apply_rows(tang, RU)
    q = ia.q + ja.q
    if q != 0.0:
        w_init = ja.M_gamma @ np.asarray(u_init_j, dtype=float)[ja.nodes]
        gtil += q * drv._lift_rate_window(W, w_init, win.partitions[j].lengths)
    return InterfaceTrace(win.partitions[i], apply_projection(win.projections[(i, j)], gtil))


def _conforming_iterate(cfg):
    """One window of Jacobi sweeps of the conforming formulation, to the
    configured tolerance: interfaces with matching meshes folded into the
    volume blocks and exchanged by `_conforming_update`, the others
    carrying the flux.  Returns the last trajectories."""
    md = build_multidomain(cfg)
    win = md.window(0.0, cfg.T)
    u_init = _u_init(md, cfg)
    conforming = {pair for pair in md.pairs if _matching(md, *pair)}
    traces = initial_guess(cfg.initial_guess, md, win, u_init)
    scale = {pair: traces[pair].norm() for pair in md.pairs}
    for _ in range(cfg.max_iterations):
        results = {
            sid: _old_march(asm, {nb: traces[(sid, nb)] for nb in asm.iface}, win.partitions[sid],
                            u_init[sid], win.loads[sid],
                            mortar=[nb for nb in sorted(asm.iface) if (sid, nb) not in conforming])
            for sid, asm in md.assemblies.items()
        }
        new = {
            (i, j): _conforming_update(md, win, i, j, results[j][0], traces[(j, i)], u_init[j])
            if (i, j) in conforming else
            transmission_update(md, win, i, j, *results[j])
            for (i, j) in md.pairs
        }
        r = max(interface_residual(new[pair], traces[pair], scale[pair]) for pair in md.pairs)
        traces = new
        if r <= cfg.tolerance:
            return {sid: res[0] for sid, res in results.items()}
    raise AssertionError("the conforming oracle did not converge")


class TestMortarEquivalence:
    @pytest.mark.parametrize("text", [CFG_1D, CFG_2D, CFG_MIXED], ids=["1d", "2d", "mixed"])
    def test_flux_iterate_matches_conforming_oracle(self, text):
        # every interface carrying the flux converges to the iterate of the
        # conforming formulation, on matching meshes (all of 1d and 2d,
        # interface 1-2 of mixed) and beside a nonmatching interface
        cfg = parse_config(text)
        sol = run_windows(cfg)
        assert sol.histories[0].converged
        oracle = _conforming_iterate(cfg)
        for sid, traj in oracle.items():
            assert np.allclose(sol.trajectories[sid].coeffs, traj.coeffs, atol=5e-8)

    def test_mortar_large_p_smoke(self):
        cfg = parse_config(CFG_2D.replace("p = 1.0", "p = 1e6"))
        md = build_multidomain(cfg)
        import oswr.femspace as fes

        u_init = {
            sid: fes.nodal_interpolate(md.assemblies[sid].mesh, cfg.u0)
            for sid in md.assemblies
        }
        win = md.window(0.0, cfg.T)
        traces = initial_guess("from_u0", md, win, u_init)
        asm = md.assemblies[1]
        traj, flux = solve_window_mortar(
            asm, {nb: traces[(1, nb)] for nb in asm.iface},
            win.partitions[1], u_init[1], win.loads[1],
        )
        assert np.all(np.isfinite(traj.coeffs))
        assert np.all(np.isfinite(flux[2]))

    def test_nonmatching_interface_runs(self):
        cfg = parse_config(CFG_2D_NONMATCHING)
        sol = run_windows(cfg)
        assert sol.histories[0].converged


def _u_init(md, cfg):
    return {sid: fes.nodal_interpolate(md.assemblies[sid].mesh, cfg.u0) for sid in md.assemblies}


class TestFailureReporting:
    def test_solver_error_names_subdomain_window_interval(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        win = md.window(0.0, cfg.T)
        asm = md.assemblies[1]
        k = float(win.partitions[1].lengths[0])
        # the class factor of a different matrix: every step misses the residual
        size = dg._step_operator(asm)[0].shape[0]
        wrong = spla.splu(sp.identity(size, dtype=complex, format="csc"))
        asm.cache.factors[asm.cache.key(k)] = wrong
        with pytest.raises(SolverError,
                           match=r"^subdomain 1, window \[0, 0\.5\], interval 0: "
                                 r"linear solve residual .* exceeds 1e-12$"):
            iterate(md, win, _u_init(md, cfg), 5, 1e-10)

    @pytest.mark.parametrize("text,message", [
        (SINGULAR_NU, r"^subdomain 1: division by zero at point \(x, y, t\) = \(0\.3125, "),
        (NEGATIVE_NU, r"^subdomain 1: negative diffusion nu at a quadrature point$"),
    ], ids=["singular-nu", "negative-nu"])
    def test_set_up_failure_names_subdomain(self, text, message):
        # both pass validation, whose sample lattice misses the bad points
        cfg = parse_config(text)
        assert not [d for d in validate_problem(cfg) if d.severity == "error"]
        with pytest.raises(ValueError, match=message):
            build_multidomain(cfg)

    def test_load_failure_names_subdomain_and_window(self):
        md = build_multidomain(parse_config(SINGULAR_F))
        with pytest.raises(ValueError, match=r"^subdomain 1, window \[0, 0\.5\]: division by zero"):
            md.window(0.0, 0.5)

    def _perturbed(self, monkeypatch, pair, change):
        """Converged data, then iterate again with `change` applied to the
        update of one directed interface from the second sweep on."""
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        u_init = _u_init(md, cfg)
        win = md.window(0.0, cfg.T)
        traces = iterate(md, win, u_init, 200, 1e-12)[2]
        update = drv.transmission_update
        calls = []

        def perturbed(md, win, i, j, *args):
            out = update(md, win, i, j, *args)
            calls.append((i, j))
            if (i, j) == pair and len(calls) > len(md.pairs):
                out.coeffs[...] = change(out.coeffs)
            return out

        monkeypatch.setattr(drv, "transmission_update", perturbed)
        return md, win, u_init, traces

    def test_divergence_names_interface_and_window(self, monkeypatch):
        md, win, u_init, traces = self._perturbed(monkeypatch, (2, 1), lambda c: c + 1.0)
        with pytest.raises(DivergenceError,
                           match=r"^interface 2->1, window \[0, 0\.5\]: "
                                 r"interface residual grew by more than 1e\+06$"):
            iterate(md, win, u_init, 5, 1e-30, traces=traces)

    def test_non_finite_residual_names_interface_and_window(self, monkeypatch):
        md, win, u_init, traces = self._perturbed(monkeypatch, (1, 2), lambda c: c * np.nan)
        with pytest.raises(DivergenceError,
                           match=r"^interface 1->2, window \[0, 0\.5\]: "
                                 r"non-finite interface residual$"):
            iterate(md, win, u_init, 5, 1e-30, traces=traces)


# ---------------------------------------------------------------------------
# Windows started from the previous window's traces
# ---------------------------------------------------------------------------


def _cold_windows(cfg, md=None, tol=None):
    """The oracle of chained windows: each window from the previous one's
    end state, but from the configured initial guess, not its traces."""
    md = build_multidomain(cfg) if md is None else md
    tol = cfg.tolerance if tol is None else tol
    bounds = np.linspace(0.0, cfg.T, cfg.windows + 1)
    u = {sid: fes.nodal_interpolate(asm.mesh, cfg.u0, t=0.0) for sid, asm in md.assemblies.items()}
    trajectories, traces, histories = {sid: [] for sid in md.assemblies}, [], []
    for w in range(cfg.windows):
        win = md.window(bounds[w], bounds[w + 1])
        trajs, _, final, hist = iterate(md, win, u, cfg.max_iterations, tol)
        for sid, traj in trajs.items():
            trajectories[sid].append(traj)
        traces.append(final)
        histories.append(hist)
        u = {sid: traj.final_value() for sid, traj in trajs.items()}
    return MultidomainSolution(
        cfg=cfg, trajectories={sid: DGTrajectory.chain(ws) for sid, ws in trajectories.items()},
        traces=traces, histories=histories,
        meshes={sid: asm.mesh for sid, asm in md.assemblies.items()},
    )


class TestChainedWindows:
    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("text", [
        CFG_1D.replace("T = 0.5", "T = 0.5\nwindows = 3"),
        CFG_2D_NONMATCHING.replace("T = 0.25", "T = 0.25\nwindows = 3"),
    ], ids=["1d", "mortar-2d"])
    def test_as_tight_as_cold_windows_in_fewer_sweeps(self, text, degree):
        cfg = parse_config(text.replace("degree = 1", f"degree = {degree}"))
        warm, cold = run_windows(cfg), _cold_windows(cfg)
        tight = _cold_windows(cfg, tol=1e-12)
        for sol in (warm, cold):
            for sid in tight.trajectories:
                want = tight.view(sid).final_value()
                err = np.max(np.abs(sol.view(sid).final_value() - want))
                assert err <= cfg.tolerance * np.max(np.abs(want)), sid
        assert all(h.converged for h in warm.histories)
        sweeps = [(a.iterations, b.iterations) for a, b in zip(warm.histories, cold.histories)]
        assert sweeps[0][0] == sweeps[0][1]
        assert all(a < b for a, b in sweeps[1:]), sweeps

    @settings(max_examples=60, deadline=None)
    @given(degree=st.sampled_from([0, 1]), t0=st.floats(-2.0, 2.0),
           spans=st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
           n_old=st.integers(2, 6), n_new=st.integers(1, 6),
           line=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                         min_size=1, max_size=3))
    def test_linear_trace_continues_as_itself(self, degree, t0, spans, n_old, n_new, line):
        a, b = np.array(line).T

        def modes(partition):
            # the L2 projection of a + b t onto P_degree on each interval
            bp = partition.breakpoints
            out = np.zeros((partition.n_intervals, degree + 1, a.size))
            out[:, 0] = a + 0.5 * (bp[:-1] + bp[1:])[:, None] * b
            if degree:
                out[:, 1] = 0.5 * partition.lengths[:, None] * b
            return out

        t1 = t0 + spans[0]
        old = TimePartition.uniform(t0, t1, n_old)
        new = TimePartition.uniform(t1, t1 + spans[1], n_new)
        got = drv._extrapolate(InterfaceTrace(old, modes(old)), new)
        assert got.partition is new
        scale = 1.0 + np.max(np.abs(a)) + np.max(np.abs(b)) * (abs(t0) + sum(spans))
        assert np.max(np.abs(got.coeffs - modes(new))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# The window record and one sweep
# ---------------------------------------------------------------------------

SWEEP_CASES = {"1d": CFG_1D, "mortar-2d": CFG_2D_NONMATCHING, "mixed": CFG_MIXED}


def _case(name, f=0.0):
    """A case with u0 = 0 and a constant f, its first window and its zero
    initial values."""
    cfg = replace(parse_config(SWEEP_CASES[name]), u0=const_expr(0.0), f=const_expr(f))
    md = build_multidomain(cfg)
    return md, md.window(0.0, cfg.T), {s: np.zeros(a.n_dofs) for s, a in md.assemblies.items()}


def _random_traces(md, win, u_init, seed):
    rng = np.random.default_rng(seed)
    traces = initial_guess("zero", md, win, u_init)
    for tr in traces.values():
        tr.coeffs[...] = rng.standard_normal(tr.coeffs.shape)
    return traces


def _sweep_arrays(out):
    """Every array of one sweep's (trajectories, fluxes, new traces)."""
    trajectories, fluxes, traces = out
    return ([trajectories[s].coeffs for s in sorted(trajectories)]
            + [fluxes[s][nb] for s in sorted(fluxes) for nb in sorted(fluxes[s])]
            + [traces[pair].coeffs for pair in sorted(traces)])


class TestSweep:
    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(sorted(SWEEP_CASES)), alpha=st.floats(-3.0, 3.0),
           beta=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_homogeneous_sweep_is_linear_in_the_traces(self, name, alpha, beta, seed):
        md, win, u_init = _case(name)
        a = _random_traces(md, win, u_init, seed)
        b = _random_traces(md, win, u_init, seed + 1)
        mix = {pair: InterfaceTrace(a[pair].partition, alpha * a[pair].coeffs + beta * b[pair].coeffs)
               for pair in md.pairs}
        got = _sweep_arrays(drv.sweep(md, win, mix, u_init))
        sa = _sweep_arrays(drv.sweep(md, win, a, u_init))
        sb = _sweep_arrays(drv.sweep(md, win, b, u_init))
        for g, x, y in zip(got, sa, sb, strict=True):
            scale = max(abs(alpha) * np.max(np.abs(x)), abs(beta) * np.max(np.abs(y)))
            assert np.max(np.abs(g - (alpha * x + beta * y))) <= 1e-12 * scale

    @settings(max_examples=6, deadline=None)
    @given(name=st.sampled_from(sorted(SWEEP_CASES)), seed=st.integers(0, 2**32 - 1),
           t_a=st.floats(0.0, 1.0), length=st.floats(0.05, 1.0))
    def test_another_window_leaves_a_sweep_unchanged(self, name, seed, t_a, length):
        md, win, u_init = _case(name, f=1.0)
        traces = _random_traces(md, win, u_init, seed)
        before = _sweep_arrays(drv.sweep(md, win, traces, u_init))
        other = md.window(t_a, t_a + length)
        drv.sweep(md, other, _random_traces(md, other, u_init, seed), u_init)
        after = _sweep_arrays(drv.sweep(md, win, traces, u_init))
        assert all(np.array_equal(x, y) for x, y in zip(before, after, strict=True))

    def test_window_is_frozen(self):
        _, win, _ = _case("1d")
        with pytest.raises(dataclasses.FrozenInstanceError):
            win.partitions = {}
