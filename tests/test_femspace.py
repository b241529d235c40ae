import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr.femspace import (
    _G2,
    _coo,
    _eval_coeff,
    assemble_atilde,
    assemble_exterior_robin,
    assemble_interface_ops,
    assemble_load,
    assemble_mass,
    assemble_space_load,
    build_mesh,
    build_space,
    build_tensor_mesh,
    nodal_interpolate,
)
from oswr.problem import TransmissionParams, const_expr, parse_expression


def _folded_mass(asm):
    """The mass of a subdomain's step system against the volume
    unknowns, each interface's flux rows added onto the rows of its
    nodes: M_vol plus R^T q M_Gamma R per interface."""
    from oswr.dgsolver import _step_operator

    MM, _, _, rows = _step_operator(asm)
    n = asm.n_dofs
    ids = np.arange(n)
    for nb in rows:  # in flux-row order
        ids = np.concatenate([ids, asm.iface[nb].nodes])
    lift = sp.csr_matrix((np.ones(ids.size), (ids, np.arange(ids.size))), shape=(n, ids.size))
    return lift @ MM[:, :n]


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
        block = (P @ fields.T).T
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
        dM = (_folded_mass(asm) - asm.M_vol).toarray()
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
        dM = (_folded_mass(asm) - asm.M_vol).toarray()
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

    def _ops(self, space, neighbor, params, b):
        """assemble_interface_ops against neighbor 2 on (0.5, 1) x (0, 2) with b = 0."""
        other = build_space(build_mesh((0.5, 1.0, 0.0, 2.0), (3, 6)), {1: "xmin"})
        zero = (const_expr(0.0), const_expr(0.0))
        return assemble_interface_ops(space, neighbor, params, b, other.traces[1], zero)

    def test_robin_scaling(self):
        # constant b.n = -0.1, p = 0.5: (p - b.n/2) mass = 0.55 M_Gamma
        space = self._space()
        params = TransmissionParams(p=0.5, q=0.0)
        blocks = self._ops(space, 2, params, (const_expr(-0.1), const_expr(0.0)))
        # b.n on side xmax: n = (1, 0), so b.n = -0.1
        assert abs(blocks.M_pbn - 0.55 * blocks.M_gamma).max() < 1e-14

    def test_zero_r_gives_zero_Br(self):
        space = self._space()
        params = TransmissionParams(p=1.0, q=0.1, r=const_expr(0.0), s=1.0)
        blocks = self._ops(space, 2, params, (const_expr(0.0), const_expr(0.0)))
        assert blocks.B_r.nnz == 0

    def test_Ks_is_tangential_stiffness(self):
        space = self._space()
        params = TransmissionParams(p=1.0, q=1.0, r=const_expr(0.0), s=1.0)
        blocks = self._ops(space, 2, params, (const_expr(0.0), const_expr(0.0)))
        h = 0.25
        K = blocks.K_s.toarray()
        assert K[1, 1] == pytest.approx(2.0 / h)
        assert K[1, 2] == pytest.approx(-1.0 / h)
        # kernel contains constants
        assert np.abs(K @ np.ones(K.shape[0])).max() < 1e-12

    def test_Ks_spd_and_Mgamma_spd(self):
        space = self._space()
        params = TransmissionParams(p=1.0, q=0.5, r=const_expr(0.0), s=0.3)
        blocks = self._ops(space, 2, params, (const_expr(0.0), const_expr(0.0)))
        evK = np.linalg.eigvalsh(blocks.K_s.toarray())
        evM = np.linalg.eigvalsh(blocks.M_gamma.toarray())
        assert evK.min() > -1e-12
        assert evM.min() > 0

    def test_missing_interface(self):
        space = self._space()
        with pytest.raises(KeyError):
            self._ops(space, 9, TransmissionParams(p=1.0), (const_expr(0.0), const_expr(0.0)))


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


# ---------------------------------------------------------------------------
# Volume assembly against the per-dimension assemblers it replaced
# ---------------------------------------------------------------------------


def _oracle_tri_geometry(mesh):
    tris = mesh.elems
    p = mesh.coords[tris]  # (M, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    grads = np.empty((tris.shape[0], 3, 2))
    for a in range(3):
        v = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
        grads[:, a, 0] = -v[:, 1] / det
        grads[:, a, 1] = v[:, 0] / det
    mids = np.empty((tris.shape[0], 3, 2))
    for q in range(3):
        mids[:, q] = 0.5 * (p[:, (q + 1) % 3] + p[:, (q + 2) % 3])
    return tris, area, grads, mids


_ORACLE_PHI_MID = 0.5 * (1.0 - np.eye(3))


def _oracle_seg_geometry(mesh):
    segs = mesh.elems
    xa = mesh.coords[segs[:, 0]]
    xb = mesh.coords[segs[:, 1]]
    h = xb - xa
    xq = xa[:, None] + h[:, None] * _G2[None, :]
    return segs, h, xq


def oracle_mass(mesh, omega):
    n = mesh.n_nodes
    if mesh.dim == 1:
        segs, h, xq = _oracle_seg_geometry(mesh)
        om = _eval_coeff(omega, xq, np.zeros_like(xq), 0.0)
        w = 0.5 * h[:, None]
        phi = np.stack([1.0 - _G2, _G2])
        local = np.einsum("mq,lq,kq->mlk", w * om, phi, phi)
        return _coo(segs, local, n)
    tris, area, _, mids = _oracle_tri_geometry(mesh)
    om = _eval_coeff(omega, mids[..., 0], mids[..., 1], 0.0)
    w = (area / 3.0)[:, None] * om
    local = np.einsum("mq,ql,qk->mlk", w, _ORACLE_PHI_MID, _ORACLE_PHI_MID)
    return _coo(tris, local, n)


def oracle_atilde(mesh, nu, b, c, div_b):
    n = mesh.n_nodes
    if mesh.dim == 1:
        segs, h, xq = _oracle_seg_geometry(mesh)
        zero = np.zeros_like(xq)
        nuq = _eval_coeff(nu, xq, zero, 0.0)
        bq = _eval_coeff(b[0], xq, zero, 0.0)
        cq = _eval_coeff(c, xq, zero, 0.0) + 0.5 * _eval_coeff(div_b, xq, zero, 0.0)
        w = 0.5 * h[:, None]
        phi = np.stack([1.0 - _G2, _G2])
        gphi = np.stack([-1.0 / h, 1.0 / h])
        local = np.zeros((segs.shape[0], 2, 2))
        for l in range(2):
            for k in range(2):
                diff = np.sum(w * nuq, axis=1) * gphi[k] * gphi[l]
                reac = np.sum(w * cq * phi[k][None, :] * phi[l][None, :], axis=1)
                adv = 0.5 * np.sum(
                    w * bq * (gphi[k][:, None] * phi[l][None, :]
                              - gphi[l][:, None] * phi[k][None, :]),
                    axis=1,
                )
                local[:, l, k] = diff + reac + adv
        return _coo(segs, local, n)
    tris, area, grads, mids = _oracle_tri_geometry(mesh)
    x, y = mids[..., 0], mids[..., 1]
    nuq = _eval_coeff(nu, x, y, 0.0)
    bxq = _eval_coeff(b[0], x, y, 0.0)
    byq = _eval_coeff(b[1], x, y, 0.0)
    cq = _eval_coeff(c, x, y, 0.0) + 0.5 * _eval_coeff(div_b, x, y, 0.0)
    w = (area / 3.0)[:, None]
    local = np.zeros((tris.shape[0], 3, 3))
    gdot = np.einsum("mld,mkd->mlk", grads, grads)
    local += np.sum(w * nuq, axis=1)[:, None, None] * gdot
    local += np.einsum("mq,ql,qk->mlk", w * cq, _ORACLE_PHI_MID, _ORACLE_PHI_MID)
    bg = np.einsum("mqd,mkd->mqk", np.stack([bxq, byq], axis=-1), grads)
    term = np.einsum("mq,mqk,ql->mlk", w * np.ones_like(bxq), bg, _ORACLE_PHI_MID)
    local += 0.5 * (term - np.swapaxes(term, 1, 2))
    return _coo(tris, local, n)


def oracle_space_load(mesh, g, t=0.0):
    n = mesh.n_nodes
    out = np.zeros(n)
    if mesh.dim == 1:
        segs, h, xq = _oracle_seg_geometry(mesh)
        gq = _eval_coeff(g, xq, np.zeros_like(xq), t)
        w = 0.5 * h[:, None]
        phi = np.stack([1.0 - _G2, _G2])
        for k in range(2):
            np.add.at(out, segs[:, k], np.sum(w * gq * phi[k][None, :], axis=1))
        return out
    tris, area, _, mids = _oracle_tri_geometry(mesh)
    gq = _eval_coeff(g, mids[..., 0], mids[..., 1], t)
    w = (area / 3.0)[:, None]
    for k in range(3):
        np.add.at(out, tris[:, k], np.sum(w * gq * _ORACLE_PHI_MID[:, k][None, :], axis=1))
    return out


_ATOMS = ["1", "x", "y", "x*y", "sin(3*x)", "cos(2*y)", "exp(-x*y)", "x^2", "t*x"]


@st.composite
def _coefficient(draw, positive=False):
    """A float constant or an expression of x, y (and t) with random
    coefficients; positive=True keeps it >= 0.01 on any box."""
    if draw(st.booleans()):
        return draw(st.floats(0.01, 2.0) if positive else st.floats(-2.0, 2.0))
    terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.sampled_from(_ATOMS)),
                          min_size=1, max_size=3))
    if positive:
        return parse_expression("0.01+" + "+".join(f"({abs(a):.6f})*({f})^2" for a, f in terms))
    return parse_expression("+".join(f"({a:.6f})*{f}" for a, f in terms))


_grid_lines = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=7).map(
    lambda steps: np.concatenate([[-0.3], -0.3 + np.cumsum(steps)])
)


def _same_csr(A, B):
    return (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            and A.data.tobytes() == B.data.tobytes())


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]), xs=_grid_lines, ys=_grid_lines,
    omega=_coefficient(positive=True), nu=_coefficient(positive=True),
    b=st.tuples(_coefficient(), _coefficient()), c=_coefficient(), div_b=_coefficient(),
    g=_coefficient(), t=st.floats(0.0, 1.0),
)
def test_volume_assembly_matches_per_dimension_oracle(dim, xs, ys, omega, nu, b, c, div_b, g, t):
    """One quadrature path for 1D and 2D: M, A and the load equal the
    per-dimension assemblers bit for bit, except the 1D A, whose einsums
    sum products in another order than the 1D loop (same sparsity, within
    1e-15 max|A|)."""
    mesh = build_tensor_mesh(xs) if dim == 1 else build_tensor_mesh(xs, ys)
    b = b[:dim]
    assert _same_csr(assemble_mass(mesh, omega), oracle_mass(mesh, omega))
    assert assemble_space_load(mesh, g, t).tobytes() == oracle_space_load(mesh, g, t).tobytes()
    A = assemble_atilde(mesh, nu, b, c, div_b)
    A_old = oracle_atilde(mesh, nu, b, c, div_b)
    if dim == 2:
        assert _same_csr(A, A_old)
    else:
        assert np.array_equal(A.indptr, A_old.indptr)
        assert np.array_equal(A.indices, A_old.indices)
        assert np.max(np.abs(A.data - A_old.data)) <= 1e-15 * np.max(np.abs(A_old.data))
