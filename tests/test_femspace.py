import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr.femspace import (
    assemble_atilde,
    assemble_exterior_robin,
    assemble_interface_ops,
    assemble_load,
    assemble_mass,
    build_mesh,
    build_space,
    build_tensor_mesh,
    nodal_interpolate,
)
from oswr.problem import TransmissionParams, const_expr, parse_expression


class TestMesh:
    def test_1d_nodes(self):
        m = build_mesh((0.0, 0.5), (2,))
        assert np.array_equal(m.coords, [0.0, 0.25, 0.5])
        assert m.elems.shape == (2, 2)

    def test_2d_interface_spacing(self):
        m = build_mesh((0.0, 0.5, 0.0, 2.0), (16, 64))
        nodes = m.side_nodes("xmax")
        ys = m.coords[nodes, 1]
        assert np.diff(ys) == pytest.approx(np.full(64, 1.0 / 32.0))

    def test_interface_tagging(self):
        m = build_mesh((0.0, 0.5, 0.0, 2.0), (4, 8))
        nodes = m.side_nodes("xmax")
        assert np.all(m.coords[nodes, 0] == 0.5)
        assert nodes.size == 9

    def test_eval_p1_exact_on_nested(self):
        rng = np.random.default_rng(0)
        coarse = build_mesh((0.0, 1.0, 0.0, 2.0), (3, 5))
        fine = build_mesh((0.0, 1.0, 0.0, 2.0), (9, 15))
        field = rng.standard_normal(coarse.n_nodes)
        on_fine = coarse.eval_p1(field, fine.coords)
        pts = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(0, 2, 200)])
        direct = coarse.eval_p1(field, pts)
        via_fine = fine.eval_p1(on_fine, pts)
        assert np.allclose(direct, via_fine, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        nx=st.integers(1, 6), ny=st.integers(1, 6), refine=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_p1_operator_bit_identical_to_pointwise_eval(self, dim, nx, ny, refine, seed):
        """The operator, applied to one field or a block of them, equals
        the pointwise P1 evaluation bit for bit at the nodes of a nested
        mesh and at random points (some outside the box, clamped)."""
        rng = np.random.default_rng(seed)
        box = (0.0, 1.0) if dim == 1 else (0.0, 1.0, 0.0, 2.0)
        counts = (nx,) if dim == 1 else (nx, ny)
        coarse = build_mesh(box, counts)
        fine = build_mesh(box, tuple(refine * c for c in counts))
        if dim == 1:
            pts = np.concatenate([fine.coords, rng.uniform(-0.1, 1.1, 50)])
        else:
            pts = np.concatenate([
                fine.coords,
                np.column_stack([rng.uniform(-0.1, 1.1, 50), rng.uniform(-0.1, 2.1, 50)]),
            ])
        fields = rng.standard_normal((3, coarse.n_nodes))
        P = coarse.p1_operator(pts)
        block = P.apply(fields)
        for u, row in zip(fields, block):
            want = _eval_p1_pointwise(coarse, u, pts)
            assert row.tobytes() == want.tobytes()
            assert coarse.eval_p1(u, pts).tobytes() == want.tobytes()

    def test_tensor_mesh_nonuniform(self):
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        m = build_tensor_mesh(xs, np.array([0.0, 1.0, 2.0]))
        assert m.nx == 3 and m.ny == 2
        assert m.n_nodes == 12


def _eval_p1_pointwise(mesh, nodal, points):
    """P1 evaluation as written before the interpolation operator: one
    barycentric formula per triangle half, selected point by point."""
    if mesh.dim == 1:
        i, lam = mesh._locate(mesh.xs, np.asarray(points, dtype=float))
        return nodal[i] * (1.0 - lam) + nodal[i + 1] * lam
    pts = np.asarray(points, dtype=float)
    i, lx = mesh._locate(mesh.xs, pts[:, 0])
    j, ly = mesh._locate(mesh.ys, pts[:, 1])
    n00 = j * (mesh.nx + 1) + i
    n10, n01, n11 = n00 + 1, n00 + (mesh.nx + 1), n00 + (mesh.nx + 2)
    return np.where(
        lx >= ly,
        nodal[n00] * (1.0 - lx) + nodal[n10] * (lx - ly) + nodal[n11] * ly,
        nodal[n00] * (1.0 - ly) + nodal[n11] * lx + nodal[n01] * (ly - lx),
    )


class TestMass:
    def test_local_matrix_1d(self):
        m = build_mesh((0.0, 0.5), (1,))
        M = assemble_mass(m, 1.0).toarray()
        h = 0.5
        assert M == pytest.approx(h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_row_sums_total_measure(self):
        m = build_mesh((0.0, 0.5, 0.0, 2.0), (5, 7))
        M = assemble_mass(m, 1.0)
        assert M.sum() == pytest.approx(1.0, abs=1e-12)
        # row sums are the lumped measures
        lump = np.asarray(M.sum(axis=1)).ravel()
        assert lump.sum() == pytest.approx(1.0, abs=1e-12)

    def test_interface_q_mass_on_1d_point(self):
        # a q-weighted point mass on the interface node raises that
        # diagonal entry by exactly q
        from oswr.problem import parse_config
        from oswr.driver import build_multidomain

        cfg = parse_config("""
[domain]
box = 0 1
T = 1
u0 = "0"
[subdomain]
id = 1
box = 0 0.5
nx = 4
nt = 2
degree = 1
[subdomain]
id = 2
box = 0.5 1
nx = 4
nt = 2
degree = 1
[transmission]
from = 1
to = 2
p = 1.0
q = 1.0
""")
        asm = build_multidomain(cfg).assemblies[1]
        dM = (asm.M_full - asm.M_vol).toarray()
        expect = np.zeros_like(dM)
        expect[-1, -1] = 1.0
        assert dM == pytest.approx(expect, abs=1e-15)

    def test_interface_q_mass_2d(self):
        from oswr.problem import parse_config
        from oswr.driver import build_multidomain

        cfg = parse_config("""
[domain]
box = 0 1 0 2
T = 1
u0 = "0"
[subdomain]
id = 1
box = 0 0.5 0 2
nx = 4
ny = 8
nt = 2
degree = 1
[subdomain]
id = 2
box = 0.5 1 0 2
nx = 4
ny = 8
nt = 2
degree = 1
[transmission]
from = 1
to = 2
p = 1.0
q = 0.3
""")
        asm = build_multidomain(cfg).assemblies[1]
        mesh = asm.mesh
        dM = (asm.M_full - asm.M_vol).toarray()
        nodes = mesh.side_nodes("xmax")
        # q * interface mass: total added measure is q * |Gamma|
        assert dM.sum() == pytest.approx(0.3 * 2.0, abs=1e-12)
        mask = np.zeros(mesh.n_nodes, dtype=bool)
        mask[nodes] = True
        assert abs(dM[~mask][:, ~mask]).max() == 0.0

    def test_deterministic_bitwise(self):
        m = build_mesh((0.0, 1.0, 0.0, 2.0), (4, 6))
        nu = parse_expression("0.1*sin(x*y)+0.2")
        A1 = assemble_atilde(m, nu, (const_expr(0.3), const_expr(-0.2)), 0.1, 0.0)
        A2 = assemble_atilde(m, nu, (const_expr(0.3), const_expr(-0.2)), 0.1, 0.0)
        assert np.array_equal(A1.data, A2.data)
        assert np.array_equal(A1.indices, A2.indices)


class TestAtilde:
    def test_1d_stiffness(self):
        m = build_mesh((0.0, 0.5), (1,))
        A = assemble_atilde(m, 1.0, (0.0,), 0.0, 0.0).toarray()
        h = 0.5
        assert A == pytest.approx(1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_advection_block_skew(self):
        rng = np.random.default_rng(1)
        m = build_mesh((0.0, 1.0, 0.0, 2.0), (5, 9))
        A = assemble_atilde(m, 0.0, (const_expr(0.7), const_expr(-0.4)), 0.0, 0.0)
        for _ in range(10):
            x = rng.standard_normal(m.n_nodes)
            xa = abs(x @ (A @ x))
            assert xa <= 1e-12 * max(1.0, abs(A).max() * (x @ x))

    def test_symmetric_part_is_diffusion_reaction(self):
        m = build_mesh((0.0, 1.0, 0.0, 1.0), (4, 4))
        A = assemble_atilde(m, 0.3, (const_expr(1.0), const_expr(0.5)), 0.2, 0.0)
        S = assemble_atilde(m, 0.3, (const_expr(0.0), const_expr(0.0)), 0.2, 0.0)
        sym = 0.5 * (A + A.T)
        assert abs(sym - S).max() < 1e-13

    def test_negative_nu_rejected(self):
        m = build_mesh((0.0, 1.0), (4,))
        with pytest.raises(ValueError, match="negative diffusion"):
            assemble_atilde(m, parse_expression("x-0.5"), (0.0,), 0.0, 0.0)

    def test_boundary_touching_zero_nu_tolerated(self):
        # the heterogeneous benchmark's sqrt(y) diffusion vanishes at y=0
        m = build_mesh((0.0, 0.5, 0.0, 2.0), (4, 8))
        A = assemble_atilde(m, parse_expression("0.001*sqrt(y)"), (0.0, -1.0), 0.0, 0.0)
        assert np.all(np.isfinite(A.data))

    def test_variable_nu_vs_refined_assembly(self):
        # quadrature oracle: same form assembled on a 3x-refined mesh,
        # restricted to the coarse basis by exact P1 interpolation
        nu = parse_expression("0.1*sin(x*y)+0.05")
        coarse = build_mesh((0.5, 1.0, 0.5, 2.0), (4, 8))
        fine = build_mesh((0.5, 1.0, 0.5, 2.0), (12, 24))
        A_c = assemble_atilde(coarse, nu, (0.0, 0.0), 0.0, 0.0)
        A_f = assemble_atilde(fine, nu, (0.0, 0.0), 0.0, 0.0)
        # interpolation matrix: coarse hat functions sampled at fine nodes
        P = np.zeros((fine.n_nodes, coarse.n_nodes))
        for j in range(coarse.n_nodes):
            e = np.zeros(coarse.n_nodes)
            e[j] = 1.0
            P[:, j] = coarse.eval_p1(e, fine.coords)
        A_ref = P.T @ (A_f @ P)
        scale = abs(A_ref).max()
        assert abs(A_c.toarray() - A_ref).max() < 2e-5 * scale


class TestInterfaceOps:
    def _space(self):
        mesh = build_mesh((0.0, 0.5, 0.0, 2.0), (4, 8))
        return build_space(mesh, {2: "xmax"})

    def test_robin_scaling(self):
        # constant b.n = -0.1, p = 0.5: (p - b.n/2) mass = 0.55 M_Gamma
        space = self._space()
        params = TransmissionParams(p=0.5, q=0.0)
        blocks = assemble_interface_ops(space, 2, params, (const_expr(-0.1), const_expr(0.0)))
        # b.n on side xmax: n = (1, 0), so b.n = -0.1
        assert abs(blocks.M_pbn - 0.55 * blocks.M_gamma).max() < 1e-14

    def test_zero_r_gives_zero_Br(self):
        space = self._space()
        params = TransmissionParams(p=1.0, q=0.1, r=const_expr(0.0), s=1.0)
        blocks = assemble_interface_ops(space, 2, params, (const_expr(0.0), const_expr(0.0)))
        assert blocks.B_r.nnz == 0

    def test_Ks_is_tangential_stiffness(self):
        space = self._space()
        params = TransmissionParams(p=1.0, q=1.0, r=const_expr(0.0), s=1.0)
        blocks = assemble_interface_ops(space, 2, params, (const_expr(0.0), const_expr(0.0)))
        h = 0.25
        K = blocks.K_s.toarray()
        assert K[1, 1] == pytest.approx(2.0 / h)
        assert K[1, 2] == pytest.approx(-1.0 / h)
        # kernel contains constants
        assert np.abs(K @ np.ones(K.shape[0])).max() < 1e-12

    def test_Ks_spd_and_Mgamma_spd(self):
        space = self._space()
        params = TransmissionParams(p=1.0, q=0.5, r=const_expr(0.0), s=0.3)
        blocks = assemble_interface_ops(space, 2, params, (const_expr(0.0), const_expr(0.0)))
        evK = np.linalg.eigvalsh(blocks.K_s.toarray())
        evM = np.linalg.eigvalsh(blocks.M_gamma.toarray())
        assert evK.min() > -1e-12
        assert evM.min() > 0

    def test_missing_interface(self):
        space = self._space()
        with pytest.raises(KeyError):
            assemble_interface_ops(space, 9, TransmissionParams(p=1.0), (const_expr(0.0), const_expr(0.0)))


class TestLoads:
    def test_zero_source(self):
        m = build_mesh((0.0, 1.0), (4,))
        F = assemble_load(m, const_expr(0.0), (0.0, 0.25), 1)
        assert np.all(F == 0)

    def test_time_constant_source(self):
        m = build_mesh((0.0, 1.0), (4,))
        F = assemble_load(m, const_expr(1.0), (0.0, 0.25), 1)
        assert F[0].sum() == pytest.approx(0.25, abs=1e-14)  # k * |Omega|
        assert np.abs(F[1]).max() < 1e-15

    def test_time_linear_source(self):
        # f = t on I_n = (0, 1); node with unit spatial weight via h = 2
        m = build_mesh((0.0, 2.0), (1,))
        F = assemble_load(m, parse_expression("t"), (0.0, 1.0), 1)
        assert F[0] == pytest.approx([0.5, 0.5], abs=1e-14)
        assert F[1] == pytest.approx([1.0 / 6.0, 1.0 / 6.0], abs=1e-14)


class TestExterior:
    def test_1d_point_values(self):
        mesh = build_mesh((0.0, 1.0), (4,))
        space = build_space(mesh, {})
        E = assemble_exterior_robin(space, (const_expr(0.6),)).toarray()
        # left end: n = -1, b.n = -0.6: p - b.n/2 = 1.3; right: 0.7
        assert E[0, 0] == pytest.approx(1.3)
        assert E[-1, -1] == pytest.approx(0.7)
        assert np.count_nonzero(E) == 2

    def test_2d_only_exterior_sides(self):
        mesh = build_mesh((0.0, 0.5, 0.0, 2.0), (4, 8))
        space = build_space(mesh, {2: "xmax"})
        E = assemble_exterior_robin(space, (const_expr(0.0), const_expr(0.0)))
        nodes = mesh.side_nodes("xmax")
        inner = [n for n in nodes if n not in
                 set(mesh.side_nodes("ymin")) | set(mesh.side_nodes("ymax"))]
        assert abs(E[inner][:, inner]).max() == 0.0


class TestInterpolate:
    def test_nodal_values(self):
        m = build_mesh((0.0, 1.0, 0.0, 2.0), (2, 4))
        g = parse_expression("x+y")
        v = nodal_interpolate(m, g)
        assert v == pytest.approx(m.coords[:, 0] + m.coords[:, 1])
