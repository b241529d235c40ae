import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr import femspace as fes
from oswr.analysis import (
    AXES,
    REF_FACTOR,
    REFINE_RATIO,
    RefGrid,
    _reference_operators,
    convergence_study,
    error_norms,
    fit_slope,
    max_nodal_difference,
    reference_grid,
    solve_monodomain,
    sweep_parameters,
)
from oswr.dgsolver import DGTrajectory, Operators, SolverError, solve_window
from oswr.driver import build_multidomain, run_windows
from oswr.problem import parse_config
from oswr.timebasis import TimePartition, gauss_radau
from oswr.timeproject import hat_cross_matrix
import test_driver
from test_driver import CFG_2X2, _cold_windows
from test_timebasis import locate

CFG_1D = """
[domain]
box = 0 1
T = 0.5
tolerance = 1e-11
max_iterations = 300
initial_guess = from_u0
u0 = "exp(-30*(x-0.5)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.5
nu = "0.1"
bx = "0.5"
c = "1"
nx = 16
nt = 8
degree = 1

[subdomain]
id = 2
box = 0.5 1
nu = "0.05"
bx = "0.2"
c = "0.3"
nx = 16
nt = 8
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
"""

SINGLE_1D = """
[domain]
box = 0 1
T = 0.5
u0 = "exp(-30*(x-0.5)^2)"
[subdomain]
id = 1
box = 0 1
nu = "0.1"
bx = "0.5"
c = "1"
nx = 32
nt = 8
degree = 1
"""

# Porosity-type jump on interface meshes that do not match (5 vs 4 cells).
CFG_2D = """
[domain]
box = 0 1 0 2
T = 0.25
tolerance = 1e-10
max_iterations = 300
initial_guess = from_u0
u0 = "0.5*exp(-10*(x-0.5)^2-3*(y-1)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.05"
bx = "0.3"
by = "-0.2"
c = "0"
omega = "0.1"
nx = 2
ny = 5
nt = 3
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.15"
bx = "0.3"
by = "-0.2"
c = "0"
omega = "1"
nx = 2
ny = 4
nt = 2
degree = 1

[transmission]
from = 1
to = 2
p = 0.5
q = 0.05
r = "0"
s = 0.15
"""


class TestFitSlope:
    def test_exact_recovery(self):
        levels = np.arange(5)
        alpha = 1.73
        hs = 0.5 ** levels
        es = 3.1 * hs ** alpha
        assert fit_slope(hs, es) == pytest.approx(alpha, abs=1e-10)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            fit_slope([1.0, 0.5], [1.0, 0.5])


class TestMonodomain:
    def test_solver_failure_names_the_reference(self, monkeypatch):
        import oswr.analysis as ana

        def boom(*args, **kwargs):
            raise SolverError("interval 0: linear solve residual 1e-03 exceeds 1e-12")

        monkeypatch.setattr(ana, "solve_window", boom)
        cfg = parse_config(CFG_1D)
        prefix = r"^monodomain reference, window \[0, 0\.5\], interval 0: "
        with pytest.raises(SolverError, match=prefix):
            solve_monodomain(cfg, reference_grid(cfg, "time", 3))

    def test_identical_coefficients_equal_single_domain(self):
        # a split with identical coefficients must equal the unsplit solve
        cfg2 = parse_config(CFG_1D.replace('nu = "0.05"', 'nu = "0.1"')
                            .replace('bx = "0.2"', 'bx = "0.5"')
                            .replace('c = "0.3"', 'c = "1"'))
        single = parse_config(SINGLE_1D)
        ref_a = solve_monodomain(cfg2, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=8))
        ref_b = solve_monodomain(single, RefGrid(nx={1: 32}, ny=None, nt=8))
        assert np.allclose(
            ref_a.trajectory.coeffs, ref_b.trajectory.coeffs, atol=1e-11
        )

    def test_time_dependent_coefficient_rejected(self):
        # as build_multidomain does, rather than freezing nu at t = 0
        cfg = parse_config(CFG_1D.replace('nu = "0.05"', 'nu = "0.05*(1+t)"'))
        with pytest.raises(ValueError, match="coefficient nu depends on t"):
            solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=8))

    def test_grid_must_count_every_subdomain(self):
        cfg = parse_config(CFG_1D)
        with pytest.raises(ValueError, match=r"missing \[2\]"):
            solve_monodomain(cfg, RefGrid(nx={1: 16}, ny=None, nt=8))
        with pytest.raises(ValueError, match=r"keys \[1, 2, 3\]"):
            solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16, 3: 16}, ny=None, nt=8))

    def test_fixed_point_matches_monodomain(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        ref = solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=8))
        assert max_nodal_difference(sol, ref) < 1e-8

    def test_fixed_point_matches_monodomain_at_the_cross_point(self):
        # criterion 1 on four subdomains around a cross point, conforming grids
        cfg = parse_config(CFG_2X2.replace("nt = 3", "nt = 4")
                           .replace("tolerance = 1e-9", "tolerance = 1e-10")
                           .replace("max_iterations = 8", "max_iterations = 300"))
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        (hist,) = sol.histories
        assert hist.converged and hist.residuals[-1] <= 1e-10
        ref = solve_monodomain(cfg, RefGrid(nx={1: 3, 2: 4, 3: 3, 4: 4}, ny=4, nt=4))
        assert max_nodal_difference(sol, ref) <= 1e-8

    def test_counts_that_differ_along_a_shared_line_name_the_subdomain(self):
        cfg = parse_config(CFG_2X2)
        with pytest.raises(ValueError, match="reference grid of subdomain 1: grid lines"):
            solve_monodomain(cfg, RefGrid(nx={1: 3, 2: 4, 3: 6, 4: 4}, ny=4, nt=4))

    def test_uncovered_reference_cells_rejected(self):
        # the validator matches interface positions to 1e-12; a sliver cell
        # between two such positions belongs to no subdomain
        cfg = parse_config(CFG_1D.replace("box = 0.5 1", "box = 0.5000000000001 1"))
        with pytest.raises(ValueError, match="leave reference cells uncovered"):
            solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=8))


def _tensor_layout(widths, heights, counts, ny):
    """A config of boxes on the tensor grid of the given column widths
    (and row heights, 2D), with its reference grid: column c has
    counts[c] cells in x, every subdomain ny cells in y."""
    base = parse_config(SINGLE_2D if heights else SINGLE_1D)
    xb, yb = np.cumsum([0.0, *widths]), np.cumsum([0.0, *(heights or [])])
    subs, nx = [], {}
    for r in range(max(1, len(yb) - 1)):
        for c in range(len(widths)):
            box = (xb[c], xb[c + 1], *((yb[r], yb[r + 1]) if heights else ()))
            subs.append(replace(base.subdomains[0], id=len(subs) + 1,
                                box=tuple(float(v) for v in box)))
            nx[len(subs)] = counts[c]
    box = (0.0, float(xb[-1]), *((0.0, float(yb[-1])) if heights else ()))
    cfg = replace(base, domain_box=box, subdomains=subs)
    return cfg, RefGrid(nx=nx, ny=ny if heights else None, nt=4)


@st.composite
def _layouts(draw):
    """Column widths, row heights (None in 1D), x-counts per column, ny."""
    sizes = st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3)
    widths, heights = draw(sizes), draw(st.none() | sizes)
    counts = draw(st.lists(st.integers(1, 4), min_size=len(widths), max_size=len(widths)))
    return widths, heights, counts, draw(st.integers(1, 4))


class TestReferenceRegions:
    """The exact region invariant of the reference mesh: each region's
    nodes carry its own mesh's coordinates, byte for byte, and the
    regions cover the mesh."""

    @settings(max_examples=40, deadline=None)
    @given(_layouts())
    def test_regions_are_the_subdomain_meshes(self, layout):
        cfg, ref = _tensor_layout(*layout)
        mesh, regions, _, _ = _reference_operators(cfg, ref)
        for s in cfg.subdomains:
            own = fes.build_mesh(s.box, (ref.nx[s.id], ref.ny)[: cfg.dim])
            assert _same_bytes(mesh.coords[regions[s.id][0]], own.coords)
        covered = np.unique(np.concatenate([ids for ids, _, _ in regions.values()]))
        assert np.array_equal(covered, np.arange(mesh.n_nodes))

    @settings(max_examples=40, deadline=None)
    @given(_layouts(), st.data())
    def test_another_count_in_a_column_names_the_subdomain(self, layout, data):
        widths, heights, counts, ny = layout
        counts = [c + 1 for c in counts]  # at least 2 cells, so 1 is a coarser count
        cfg, ref = _tensor_layout(widths, heights, counts, ny)
        rows = len(cfg.subdomains) // len(widths)
        sid = data.draw(st.sampled_from(sorted(ref.nx)))
        n = ref.nx[sid]
        coarser = data.draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
        nx = {**ref.nx, sid: coarser}
        if rows == 1:  # no other subdomain shares its x grid lines
            _reference_operators(cfg, replace(ref, nx=nx))
            return
        with pytest.raises(ValueError, match=f"reference grid of subdomain {sid}: "):
            _reference_operators(cfg, replace(ref, nx=nx))


# ---------------------------------------------------------------------------
# Monodomain oracle: the element-group assembler that the region-by-region
# reference replaced.  Elements are grouped by centroid, interface nodes
# found by coordinate search, and the interface correction and exterior
# closure written out, with the advection of each exterior point picked by
# a box test.  A mesh that keeps every node but only one group's elements
# assembles that group alone.
# ---------------------------------------------------------------------------


# The band-only mesh rule of the reference before it took the union of the
# regions' grid lines; band configs must give the same mesh byte for byte.
def _global_mesh(cfg, ref):
    """Tensor mesh of the global box whose restriction to every
    subdomain box refines that subdomain's own grid lines."""
    subs = sorted(cfg.subdomains, key=lambda s: s.box[0])
    xs = [np.array([cfg.domain_box[0]])]
    for s in subs:
        xs.append(np.linspace(s.box[0], s.box[1], ref.nx[s.id] + 1)[1:])
    if cfg.dim == 1:
        return fes.build_tensor_mesh(np.concatenate(xs))
    # bands in x are the supported reference layout; verify
    y0, y1 = cfg.domain_box[2], cfg.domain_box[3]
    for s in subs:
        if abs(s.box[2] - y0) > 1e-12 or abs(s.box[3] - y1) > 1e-12:
            raise ValueError("monodomain reference supports band decompositions in x only")
    return fes.build_tensor_mesh(np.concatenate(xs), np.linspace(y0, y1, ref.ny + 1))


def _oracle_owner_elems(cfg, mesh):
    if mesh.dim == 1:
        cx, cy = 0.5 * (mesh.coords[mesh.elems[:, 0]] + mesh.coords[mesh.elems[:, 1]]), None
    else:
        cent = mesh.coords[mesh.elems].mean(axis=1)
        cx, cy = cent[:, 0], cent[:, 1]
    groups = {}
    for s in cfg.subdomains:
        m = (cx >= s.box[0]) & (cx <= s.box[1])
        if mesh.dim == 2:
            m &= (cy >= s.box[2]) & (cy <= s.box[3])
        groups[s.id] = np.nonzero(m)[0]
    assert sum(g.size for g in groups.values()) == mesh.elems.shape[0]
    return groups


def _oracle_interface_nodes(mesh, itf):
    tol = 1e-12 * max(1.0, abs(itf.position))
    if mesh.dim == 1:
        return np.nonzero(np.abs(mesh.coords - itf.position) <= tol)[0], None
    along = mesh.coords[:, 1 - itf.axis]
    lo, hi = itf.span
    idx = np.nonzero((np.abs(mesh.coords[:, itf.axis] - itf.position) <= tol)
                     & (along >= lo - 1e-12) & (along <= hi + 1e-12))[0]
    order = np.argsort(along[idx])
    return idx[order], along[idx][order]


def oracle_reference_operators(cfg, ref, mesh=None):
    """(mesh, element groups, M, A) of the element-group assembler, on
    `mesh` (by default the band mesh of `_global_mesh`)."""
    mesh = _global_mesh(cfg, ref) if mesh is None else mesh
    owners = _oracle_owner_elems(cfg, mesh)
    n = mesh.n_nodes
    M = sp.csr_matrix((n, n))
    A = sp.csr_matrix((n, n))
    by_id = {s.id: s for s in cfg.subdomains}
    for sid, elems in sorted(owners.items()):
        s = by_id[sid]
        group = replace(mesh, elems=mesh.elems[elems])
        M = M + fes.assemble_mass(group, s.omega)
        A = A + fes.assemble_atilde(group, s.nu, s.b, s.c, s.div_b())

    for itf in cfg.interfaces():
        si, sj = by_id[itf.i], by_id[itf.j]
        nodes, along = _oracle_interface_nodes(mesh, itf)
        n_i = itf.normal_i

        def gamma(ssp, axis=itf.axis, pos=itf.position, n_i=n_i, si=si, sj=sj):
            if mesh.dim == 1:
                x, y = np.asarray(ssp, float) * 0 + pos, np.zeros_like(np.asarray(ssp, float))
            elif axis == 0:
                x, y = pos * np.ones_like(ssp), ssp
            else:
                x, y = ssp, pos * np.ones_like(ssp)
            bn_i = fes._eval_coeff(si.b[0], x, y, 0.0) * n_i[0]
            bn_j = -fes._eval_coeff(sj.b[0], x, y, 0.0) * n_i[0]
            if mesh.dim == 2:
                bn_i = bn_i + fes._eval_coeff(si.b[1], x, y, 0.0) * n_i[1]
                bn_j = bn_j - fes._eval_coeff(sj.b[1], x, y, 0.0) * n_i[1]
            return 0.5 * (bn_i + bn_j)

        if mesh.dim == 1:
            g = float(gamma(np.zeros(1))[0])
            A = A - sp.coo_matrix(([g], ([nodes[0]], [nodes[0]])), shape=(n, n)).tocsr()
        else:
            G = hat_cross_matrix(along, along, gamma, "mass")
            A = A - fes.scatter_matrix(G, nodes, nodes, n, n)

    sides = ("xmin", "xmax") if mesh.dim == 1 else ("xmin", "xmax", "ymin", "ymax")
    for side in sides:
        nodes = mesh.side_nodes(side)
        if mesh.dim == 1:
            x = mesh.coords[nodes[0]]
            s = next(s for s in cfg.subdomains if s.box[0] - 1e-12 <= x <= s.box[1] + 1e-12)
            nx_dir = -1.0 if side == "xmin" else 1.0
            bn = fes._eval_coeff(s.b[0], np.array([x]), np.zeros(1), 0.0)[0] * nx_dir
            A = A + sp.coo_matrix(
                ([fes.P_EXT - 0.5 * bn], ([nodes[0]], [nodes[0]])), shape=(n, n)
            ).tocsr()
            continue
        axis = 0 if side in ("xmin", "xmax") else 1
        normal = {"xmin": (-1.0, 0.0), "xmax": (1.0, 0.0),
                  "ymin": (0.0, -1.0), "ymax": (0.0, 1.0)}[side]
        pos = mesh.box[2 * axis] if side.endswith("min") else mesh.box[2 * axis + 1]
        along = mesh.coords[nodes, 1 - axis]

        def w(ssp, axis=axis, pos=pos, normal=normal):
            x = pos * np.ones_like(ssp) if axis == 0 else ssp
            y = ssp if axis == 0 else pos * np.ones_like(ssp)
            bn = np.zeros_like(ssp)
            for s in cfg.subdomains:
                inside = (x >= s.box[0]) & (x <= s.box[1]) & (y >= s.box[2]) & (y <= s.box[3])
                if np.any(inside):
                    bx = fes._eval_coeff(s.b[0], x, y, 0.0)
                    by_ = fes._eval_coeff(s.b[1], x, y, 0.0)
                    bn = np.where(inside, bx * normal[0] + by_ * normal[1], bn)
            return fes.P_EXT - 0.5 * bn

        B = hat_cross_matrix(along, along, w, "mass")
        A = A + fes.scatter_matrix(B, nodes, nodes, n, n)
    return mesh, owners, M.tocsr(), A.tocsr()


def oracle_norm_ops(mesh, elems):
    nodes = np.unique(mesh.elems[elems])
    group = replace(mesh, elems=mesh.elems[elems])
    M = fes.assemble_mass(group, 1.0)
    K = fes.assemble_atilde(group, 1.0, (0.0, 0.0) if mesh.dim == 2 else (0.0,), 0.0, 0.0)
    return nodes, M[nodes][:, nodes].tocsr(), K[nodes][:, nodes].tocsr()


def _same_bytes(a, b):
    if sp.issparse(a):
        return all(_same_bytes(getattr(a, f), getattr(b, f)) for f in ("data", "indices", "indptr"))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SINGLE_2D = """
[domain]
box = 0 1 0 2
T = 0.25
u0 = "0.5*exp(-10*(x-0.5)^2-3*(y-1)^2)"
[subdomain]
id = 1
box = 0 1 0 2
nu = "0.05+0.02*x*y"
bx = "0.3*y"
by = "-0.2*x"
c = "0.1"
omega = "1+x"
nx = 4
ny = 6
nt = 4
degree = 1
"""

HETEROGENEOUS_CFG = (Path(__file__).resolve().parents[1] / "demos" / "heterogeneous.cfg").read_text()


class TestMonodomainOracle:
    """The region-by-region reference against the element-group oracle:
    the same mass and norm matrices byte for byte, the same sparsity of
    the spatial operator with values to 1e-15 max|A| (the sums at shared
    corner and interface nodes run in another order)."""

    CASES = {
        "1d-two": (CFG_1D, RefGrid(nx={1: 16, 2: 24}, ny=None, nt=8)),
        "1d-one": (SINGLE_1D, RefGrid(nx={1: 20}, ny=None, nt=8)),
        "2d-one": (SINGLE_2D, RefGrid(nx={1: 8}, ny=12, nt=4)),
        "2d-heterogeneous": (HETEROGENEOUS_CFG, RefGrid(nx={1: 8, 2: 12}, ny=32, nt=4)),
        "2d-porosity": (CFG_2D, RefGrid(nx={1: 4, 2: 6}, ny=20, nt=4)),
        # the cross point: the oracle's uniform mesh has dyadic, exact coordinates
        "2d-2x2": (CFG_2X2, RefGrid(nx={1: 4, 2: 4, 3: 4, 4: 4}, ny=4, nt=4)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_operators_match_oracle(self, case):
        text, ref = self.CASES[case]
        cfg = parse_config(text)
        mesh_o = fes.build_mesh(cfg.domain_box, (8, 8)) if case == "2d-2x2" else None
        mesh_o, owners, M_o, A_o = oracle_reference_operators(cfg, ref, mesh_o)
        mesh, regions, M, A = _reference_operators(cfg, ref)
        assert _same_bytes(mesh.coords, mesh_o.coords)
        assert _same_bytes(M, M_o)
        assert _same_bytes(A.indices, A_o.indices) and _same_bytes(A.indptr, A_o.indptr)
        assert np.max(np.abs(A.data - A_o.data)) <= 1e-15 * np.max(np.abs(A_o.data))
        for sid, elems in owners.items():
            for new, old in zip(regions[sid], oracle_norm_ops(mesh_o, elems)):
                assert _same_bytes(new, old), (sid, case)

    def test_criterion_2_reference_trajectory_bit_identical(self):
        cfg = parse_config(HETEROGENEOUS_CFG)
        ref = reference_grid(cfg, "time", 3)
        mesh, _, M, A = oracle_reference_operators(cfg, ref)
        degree = cfg.subdomains[0].degree
        part = TimePartition.uniform(0.0, cfg.T, ref.nt)
        oracle = solve_window(
            Operators(M, A, degree), {}, part, fes.nodal_interpolate(mesh, cfg.u0),
            fes.IntervalLoads(mesh, cfg.f, part, degree),
        )
        assert _same_bytes(solve_monodomain(cfg, ref).trajectory.coeffs, oracle.coeffs)


class TestErrorNorms:
    def _setup(self):
        cfg = parse_config(CFG_1D)
        ref = solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=16))
        return cfg, ref

    def test_self_comparison_is_zero(self):
        cfg, ref = self._setup()
        rep = error_norms(ref, ref)
        for sid in (1, 2):
            assert rep.e_inf[sid] < 1e-13
            assert rep.e_l2[sid] < 1e-13
            assert rep.e_T_l2[sid] < 1e-13
            assert rep.e_T_h1[sid] < 1e-13

    def test_constant_shift(self):
        cfg, ref = self._setup()
        delta = 0.37
        shifted = solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=16))
        shifted.trajectory.coeffs[:, 0, :] += delta
        shifted.trajectory.u_init += delta
        rep = error_norms(shifted, ref)
        for sid in (1, 2):
            # |Omega_i| = 0.5 in 1D
            assert rep.e_T_l2[sid] == pytest.approx(delta * np.sqrt(0.5), rel=1e-10)
            # gradient contribution vanishes: H1 norm equals L2 norm
            assert rep.e_T_h1[sid] == pytest.approx(rep.e_T_l2[sid], rel=1e-10)

    def test_triangle_inequality(self):
        cfg, ref = self._setup()
        rng = np.random.default_rng(0)

        def rand_sol():
            s = solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=16))
            s.trajectory.coeffs[...] += 0.1 * rng.standard_normal(
                s.trajectory.coeffs.shape
            )
            return s

        U, V = rand_sol(), rand_sol()

        def err(a, b):
            return error_norms(a, b)

        e_uw = err(U, ref)
        e_uv_rep = error_norms(U, V)
        e_vw = err(V, ref)
        for sid in (1, 2):
            for name in ("e_inf", "e_l2", "e_T_l2", "e_T_h1"):
                assert getattr(e_uw, name)[sid] <= (
                    getattr(e_uv_rep, name)[sid] + getattr(e_vw, name)[sid] + 1e-12
                )

    def test_non_nested_rejected(self):
        cfg = parse_config(CFG_1D)
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        ref = solve_monodomain(cfg, RefGrid(nx={1: 16, 2: 16}, ny=None, nt=12))
        with pytest.raises(ValueError, match="non-nested"):
            error_norms(sol, ref)


class TestReferenceGrid:
    def test_time_axis(self):
        cfg = parse_config(CFG_1D)
        rg = reference_grid(cfg, "time", 4)
        finest = 8 * 2**3
        assert rg.nt % finest == 0
        assert rg.nt >= 4 * finest
        assert rg.nx == {1: 16, 2: 16}

    def test_nonconforming_lcm(self):
        cfg = parse_config(CFG_1D.replace("nt = 8\ndegree = 1\n\n[transmission]",
                                          "nt = 6\ndegree = 1\n\n[transmission]"))
        rg = reference_grid(cfg, "time", 4)
        assert rg.nt % (8 * 8) == 0
        assert rg.nt % (6 * 8) == 0
        assert rg.nt >= 4 * 8 * 8

    def test_a_column_with_different_counts_shares_its_x_lines(self):
        # subdomains 1 and 3 share the column [0, 0.5] with 3 and 4 x-cells
        cfg = parse_config(CFG_2X2.replace('nu = "0.07"\nbx = "-0.1"\nby = "0.2"\nc = "0.5"\nnx = 3',
                                           'nu = "0.07"\nbx = "-0.1"\nby = "0.2"\nc = "0.5"\nnx = 4'))
        assert [s.nx for s in cfg.subdomains] == [3, 4, 4, 4]
        rg = reference_grid(cfg, "space", 3)
        assert rg.nx == {1: 96, 2: 64, 3: 96, 4: 64} and rg.ny == 64
        ref = solve_monodomain(cfg, rg)
        assert np.all(np.isfinite(ref.trajectory.coeffs))
        with pytest.raises(ValueError, match="time studies need trace-conforming space grids"):
            reference_grid(cfg, "time", 3)

    @pytest.mark.parametrize("text", [
        CFG_1D, SINGLE_1D, CFG_2D, SINGLE_2D, HETEROGENEOUS_CFG, test_driver.CFG_1D,
        test_driver.CFG_2D, test_driver.CFG_MIXED, test_driver.CFG_2D_NONMATCHING,
    ], ids=["1d", "single-1d", "2d", "single-2d", "heterogeneous", "driver-1d", "driver-2d",
            "driver-mixed", "driver-2d-nonmatching"])
    def test_band_configs_keep_their_grid(self, text):
        cfg = parse_config(text)
        for axis in AXES:
            try:
                want = oracle_reference_grid(cfg, axis, 3)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    reference_grid(cfg, axis, 3)
            else:
                assert reference_grid(cfg, axis, 3) == want


# reference_grid as written before the axis table and the one nesting rule:
# a branch per dimension and axis, kept verbatim as the oracle.


def _lcm_list(vals):
    out = 1
    for v in vals:
        out = math.lcm(out, int(v))
    return out


def oracle_reference_grid(cfg, axis, levels):
    fine = REFINE_RATIO ** (levels - 1)
    subs = cfg.subdomains
    if axis in ("time", "spacetime"):
        nts = [s.nt * fine for s in subs]
        lcm_nt = _lcm_list(nts)
        mult = max(1, math.ceil(REF_FACTOR * max(nts) / lcm_nt))
        ref_nt = mult * lcm_nt * cfg.windows
    else:
        # time grids stay at base level; the reference only needs to nest them
        ref_nt = _lcm_list([s.nt for s in subs]) * cfg.windows

    if cfg.dim == 1:
        if axis in ("space", "spacetime"):
            nx = {s.id: s.nx * fine * REF_FACTOR for s in subs}
        else:
            nx = {s.id: s.nx for s in subs}
        return RefGrid(nx=nx, ny=None, nt=ref_nt)

    if axis == "time":
        # space grids must already conform across the interfaces
        nys = {s.ny for s in subs}
        if len(nys) != 1:
            raise ValueError("time studies need trace-conforming space grids")
        return RefGrid(nx={s.id: s.nx for s in subs}, ny=subs[0].ny, nt=ref_nt)
    nys = [s.ny * fine for s in subs]
    lcm_ny = _lcm_list(nys)
    mult = max(1, math.ceil(REF_FACTOR * max(nys) / lcm_ny))
    ref_ny = mult * lcm_ny
    nx = {s.id: s.nx * fine * REF_FACTOR for s in subs}
    return RefGrid(nx=nx, ny=ref_ny, nt=ref_nt)


@st.composite
def band_layouts(draw):
    """What reference_grid reads of a band layout: the dimension, the
    window count and each subdomain's id, box (one band per subdomain)
    and grid counts (in 2D the ny are shared or drawn per subdomain)."""
    dim = draw(st.sampled_from([1, 2]))
    counts = st.integers(1, 12)
    shared_ny = draw(counts) if draw(st.booleans()) else None
    subs = [
        SimpleNamespace(id=i + 1, box=(float(i), i + 1.0, 0.0, 1.0)[: 2 * dim],
                        nx=draw(counts), nt=draw(counts),
                        ny=None if dim == 1 else shared_ny or draw(counts))
        for i in range(draw(st.integers(1, 4)))
    ]
    return SimpleNamespace(dim=dim, windows=draw(st.integers(1, 5)), subdomains=subs)


class TestReferenceGridOracle:
    @settings(max_examples=400, deadline=None)
    @given(cfg=band_layouts(), axis=st.sampled_from(["time", "space", "spacetime"]),
           levels=st.integers(3, 6))
    def test_matches_the_branch_per_axis_version(self, cfg, axis, levels):
        def outcome(grid):
            try:
                return grid(cfg, axis, levels)
            except ValueError as e:
                return f"ValueError: {e}"

        assert outcome(reference_grid) == outcome(oracle_reference_grid)


class TestSweep:
    def test_single_pair(self):
        cfg = parse_config(CFG_1D)
        table = sweep_parameters(cfg, [1.0], [0.0], 1e-6, seed=0, budget=50)
        assert len(table.rows) == 1
        assert table.best == 0
        assert table.rows[0]["converged"]

    def test_grid_shape_and_determinism(self):
        cfg = parse_config(CFG_1D)
        t1 = sweep_parameters(cfg, [0.5, 1.0], [0.0, 0.05], 1e-6, seed=3, budget=60)
        t2 = sweep_parameters(cfg, [0.5, 1.0], [0.0, 0.05], 1e-6, seed=3, budget=60)
        assert len(t1.rows) == 4
        assert [r["iterations"] for r in t1.rows] == [r["iterations"] for r in t2.rows]

    def test_budget_none_takes_the_config(self):
        cfg = parse_config(CFG_1D.replace("max_iterations = 300", "max_iterations = 3"))
        table = sweep_parameters(cfg, [1.0], [0.0], 1e-30, seed=0)
        assert table.rows[0]["iterations"] == 3
        assert not table.rows[0]["converged"]

    @pytest.mark.parametrize("mode", ["error", "full"])
    def test_multi_window_config_sweeps_the_runs_first_window(self, mode):
        # nt counts intervals per window, so the sweep runs on the time
        # step that `oswr run` uses, not on one window over [0, T]
        cfg = parse_config(CFG_1D.replace("T = 0.5", "T = 0.5\nwindows = 2", 1))
        first = replace(cfg, T=0.25, windows=1)
        grid = ([0.5, 1.0], [0.0, 0.05], 1e-6)
        got = sweep_parameters(cfg, *grid, mode=mode, seed=0, budget=100)
        assert got.rows == sweep_parameters(first, *grid, mode=mode, seed=0, budget=100).rows

    @pytest.mark.parametrize("budget", [0, -2])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            sweep_parameters(parse_config(CFG_1D), [1.0], [0.0], 1e-6, budget=budget)


# ---------------------------------------------------------------------------
# Per-time-point oracles: the evaluation as written before it was built
# from operators applied to blocks of times.
# ---------------------------------------------------------------------------


def _value_pointwise(traj, t, left=False):
    bp = traj.partition.breakpoints
    if left:
        n = int(np.searchsorted(bp, t, side="left")) - 1
        if n < 0:
            return traj.u_init.copy()
        if n >= traj.partition.n_intervals:
            n = traj.partition.n_intervals - 1
        if abs(t - bp[n + 1]) == 0.0:
            return traj.endpoint(n)
    n = locate(traj.partition, t)
    k = bp[n + 1] - bp[n]
    theta = 2.0 * (t - 0.5 * (bp[n] + bp[n + 1])) / k
    val = traj.coeffs[n, 0].copy()
    if traj.degree >= 1:
        val += theta * traj.coeffs[n, 1]
    return val


def _chain_value_pointwise(windows, t, left=False):
    """_value_pointwise on the window that owns t: t in (start, end]."""
    starts = np.array([w.partition.start for w in windows])
    w = int(np.searchsorted(starts, t, side="left")) - 1
    w = min(max(w, 0), len(windows) - 1)
    return _value_pointwise(windows[w], t, left=left)


_G2T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _error_norms_pointwise(sol, reference):
    cfg = reference.cfg
    ref_part = reference.trajectory.partition
    radau = gauss_radau(reference.trajectory.degree).nodes[:-1]
    out = {name: {} for name in ("e_inf", "e_l2", "e_T_l2", "e_T_h1")}
    for s in cfg.subdomains:
        sid = s.id
        traj, mesh = sol.view(sid), sol.meshes[sid]
        nodes, M, K = reference.regions[sid]
        pts = reference.mesh.coords[nodes]

        def diff_at(t, left):
            u = mesh.eval_p1(_value_pointwise(traj, t, left), pts)
            return u - _value_pointwise(reference.trajectory, t, left)[nodes]

        sup2 = 0.0
        bp = ref_part.breakpoints
        for t in bp:
            d = diff_at(t, True)
            sup2 = max(sup2, float(d @ (M @ d)))
        for n in range(ref_part.n_intervals):
            for tau in radau:
                d = diff_at(bp[n] + tau * (bp[n + 1] - bp[n]), False)
                sup2 = max(sup2, float(d @ (M @ d)))
        out["e_inf"][sid] = math.sqrt(sup2)
        acc = 0.0
        for n in range(ref_part.n_intervals):
            k = bp[n + 1] - bp[n]
            for gg in _G2T:
                d = diff_at(bp[n] + gg * k, False)
                acc += 0.5 * k * float(d @ (M @ d))
        out["e_l2"][sid] = math.sqrt(acc)
        dT = diff_at(ref_part.end, True)
        l2T = float(dT @ (M @ dT))
        out["e_T_l2"][sid] = math.sqrt(l2T)
        out["e_T_h1"][sid] = math.sqrt(l2T + float(dT @ (K @ dT)))
    return out


def _max_nodal_difference_pointwise(solution, reference):
    out = 0.0
    for sid, traj in solution.trajectories.items():
        pts = solution.meshes[sid].coords
        for t in traj.partition.breakpoints:
            u = _value_pointwise(traj, t, left=True)
            r = reference.mesh.eval_p1(_value_pointwise(reference.trajectory, t, left=True), pts)
            out = max(out, float(np.max(np.abs(u - r))))
    return out


@st.composite
def window_chains(draw):
    """Contiguous windows with random breakpoints, degree and values."""
    n_win = draw(st.integers(1, 3))
    degree = draw(st.sampled_from([0, 1]))
    ndof = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = np.cumsum(rng.uniform(0.1, 1.0, n_win + 1)) - 1.0
    windows = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        n = draw(st.integers(1, 5))
        bp = np.concatenate([[a], np.sort(rng.uniform(a, b, n - 1)), [b]])
        windows.append(DGTrajectory(
            TimePartition(bp), rng.standard_normal((n, degree + 1, ndof)),
            rng.standard_normal(ndof),
        ))
    return windows


class TestEvaluationOperators:
    @settings(max_examples=60, deadline=None)
    @given(windows=window_chains(), seed=st.integers(0, 2**32 - 1))
    def test_vector_evaluator_bit_identical_to_pointwise(self, windows, seed):
        """Every breakpoint and window start, plus random times inside
        and just outside the chain, with left limits on and off."""
        rng = np.random.default_rng(seed)
        chain = DGTrajectory.chain(windows)
        bps = np.concatenate([w.partition.breakpoints for w in windows])
        times = np.concatenate([
            bps, rng.uniform(chain.partition.start - 0.1, chain.partition.end + 0.1, 20),
        ])
        left = rng.integers(0, 2, times.size).astype(bool)
        for flags in (True, False, left):
            got = chain.values(times, flags)
            for i, t in enumerate(times):
                lf = bool(np.broadcast_to(flags, times.shape)[i])
                want = _chain_value_pointwise(windows, t, lf)
                assert got[i].tobytes() == want.tobytes()
                assert chain.values([t], lf)[0].tobytes() == want.tobytes()
        for w in windows:
            for t in w.partition.breakpoints:
                for lf in (True, False):
                    assert w.values([t], lf)[0].tobytes() == _value_pointwise(w, t, lf).tobytes()
        if len(windows) == 1:
            assert chain is windows[0]

    def _assert_matches_pointwise(self, sol, ref):
        rep = error_norms(sol, ref)
        want = _error_norms_pointwise(sol, ref)
        for name, per_sid in want.items():
            for sid, v in per_sid.items():
                assert getattr(rep, name)[sid] == pytest.approx(v, rel=1e-12, abs=0.0)

    def test_time_study_norms_match_pointwise(self):
        # nonconforming time grids and two windows: chained evaluation
        cfg = parse_config(CFG_1D.replace("T = 0.5", "T = 0.5\nwindows = 2")
                           .replace("nt = 8\ndegree = 1\n\n[transmission]",
                                    "nt = 6\ndegree = 1\n\n[transmission]"))
        ref = solve_monodomain(cfg, reference_grid(cfg, "time", 3))
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        self._assert_matches_pointwise(sol, ref)
        self._assert_matches_pointwise(ref, ref)
        assert max_nodal_difference(sol, ref) == _max_nodal_difference_pointwise(sol, ref)

    def test_space_study_norms_match_pointwise(self):
        # nonmatching 2D interface meshes (mortar), refined reference mesh
        cfg = parse_config(CFG_2D)
        ref = solve_monodomain(cfg, reference_grid(cfg, "space", 3))
        md = build_multidomain(cfg)
        sol = run_windows(cfg, md=md)
        self._assert_matches_pointwise(sol, ref)
        assert max_nodal_difference(sol, ref) == _max_nodal_difference_pointwise(sol, ref)


# ---------------------------------------------------------------------------
# Warm-started study levels against cold starts
# ---------------------------------------------------------------------------

# Two windows on nonconforming time grids (8 vs 6 intervals per window).
CFG_1D_2W = (CFG_1D.replace("T = 0.5", "T = 0.5\nwindows = 2")
             .replace("nt = 8\ndegree = 1\n\n[transmission]", "nt = 6\ndegree = 1\n\n[transmission]"))


def test_run_windows_chains_each_subdomain_into_one_trajectory():
    cfg = parse_config(CFG_1D_2W)
    md = build_multidomain(cfg)
    sol = run_windows(cfg, md=md)
    bounds = np.linspace(0.0, cfg.T, cfg.windows + 1)
    for s in cfg.subdomains:
        traj = sol.trajectories[s.id]
        assert sol.view(s.id) is traj
        assert traj.partition.n_intervals == cfg.windows * s.nt
        windows = [TimePartition.uniform(a, b, s.nt).breakpoints
                   for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(traj.partition.breakpoints, np.unique(np.concatenate(windows)))
        u0 = fes.nodal_interpolate(md.assemblies[s.id].mesh, cfg.u0, t=0.0)
        assert np.array_equal(traj.u_init, u0)


def _cold_study(cfg, axis, levels, reference, tol=1e-10):
    """Every level, and every window of it, from the configured initial
    guess: (rows of norms, sweeps per level, slopes)."""
    rows, sweeps = [], []
    for lev in range(levels):
        f = 2**lev
        in_space, in_time = axis in ("space", "spacetime"), axis in ("time", "spacetime")
        cl = replace(cfg, subdomains=[
            replace(s, nx=s.nx * f if in_space else s.nx,
                    ny=s.ny * f if in_space and s.ny is not None else s.ny,
                    nt=s.nt * f if in_time else s.nt)
            for s in cfg.subdomains
        ])
        sol = _cold_windows(cl, md=build_multidomain(cl), tol=tol)
        rep = error_norms(sol, reference)
        row = {"size": {s.id: (cfg.T / cfg.windows / s.nt if axis == "time"
                               else (s.box[1] - s.box[0]) / s.nx) for s in cl.subdomains}}
        for name in ("e_inf", "e_l2", "e_T_l2", "e_T_h1"):
            for s in cl.subdomains:
                row[(name, s.id)] = getattr(rep, name)[s.id]
        rows.append(row)
        sweeps.append(sum(h.iterations for h in sol.histories))
    slopes = {
        key: fit_slope([r["size"][key[1]] for r in rows], [r[key] for r in rows])
        for key in rows[0] if key != "size"
    }
    return rows, sweeps, slopes


class TestWarmStartedStudy:
    """A tol-1e-10 stop leaves each level within its stopping error of the
    fixed point, whichever guess it started from: the norms of these
    studies moved by at most 5.3e-11 (1D, two windows) and 6e-13 (mortar)."""

    def _compare(self, text, axis):
        cfg = parse_config(text)
        ref = solve_monodomain(cfg, reference_grid(cfg, axis, 3))
        warm = convergence_study(cfg, axis, 3, reference=ref)
        rows, sweeps, slopes = _cold_study(cfg, axis, 3, ref)
        for lev, (w, c) in enumerate(zip(warm.rows, rows)):
            for key, v in c.items():
                if key != "size":
                    assert abs(w[key] - v) <= 1e-10, (lev, key)
        for key, v in slopes.items():
            assert abs(warm.slopes[key] - v) <= 1e-3, key
        warm_sweeps = [sum(h.iterations for h in level) for level in warm.histories]
        assert len(warm.histories) == 3
        assert all(len(level) == cfg.windows for level in warm.histories)
        level0 = run_windows(cfg, tol=1e-10)  # level 0 starts from the configured guess
        assert warm_sweeps[0] == sum(h.iterations for h in level0.histories)
        return warm_sweeps, sweeps

    def test_two_window_time_study(self):
        warm, cold = self._compare(CFG_1D_2W, "time")
        assert all(w < c for w, c in zip(warm[1:], cold[1:])), (warm, cold)

    def test_spacetime_mortar_study(self):
        self._compare(CFG_2D, "spacetime")
