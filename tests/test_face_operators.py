"""Face operators against the separate assemblers they replaced.

The oracles below are the earlier, separately written assemblers of a
subdomain's own interface blocks, of the mortar cross blocks and of the
exterior Robin closure.  The single face-block path must reproduce them
bit for bit: on random nonmatching 2D interface meshes with a nonzero
tangential advection r and q*s != 0, and on 1D point interfaces.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oswr.femspace as fes
from oswr.femspace import TraceSpace, _bn_along, _eval_coeff, scatter_matrix
from oswr.problem import TransmissionParams, const_expr, parse_expression
from oswr.timeproject import hat_cross_matrix

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_interface_ops(space, neighbor, params, b):
    tr = space.traces[neighbor]
    if space.mesh.dim == 1:
        one = sp.csr_matrix(np.array([[1.0]]))
        bn = float(_bn_along(tr, b)(np.zeros(1))[0])
        m_pbn = sp.csr_matrix(np.array([[params.p - 0.5 * bn]]))
        zero = sp.csr_matrix((1, 1))
        return SimpleNamespace(M_gamma=one, M_pbn=m_pbn, B_r=zero, K_s=zero.copy(),
                               nodes=tr.nodes, along=None, p=params.p, q=params.q)
    bn = _bn_along(tr, b)
    m_gamma = hat_cross_matrix(tr.along, tr.along, None, "mass")
    m_pbn = hat_cross_matrix(
        tr.along, tr.along, lambda s: params.p - 0.5 * bn(s), "mass"
    )
    if params.r.is_zero():
        b_r = sp.csr_matrix((tr.n, tr.n))
    else:
        def rw(s):
            x, y = tr.points(s)
            return _eval_coeff(params.r, x, y, 0.0)
        b_r = -hat_cross_matrix(tr.along, tr.along, rw, "dtarget")
    qs = params.q * params.s
    if qs == 0.0:
        k_s = sp.csr_matrix((tr.n, tr.n))
    else:
        k_s = hat_cross_matrix(tr.along, tr.along, lambda s: qs * np.ones_like(s), "grad_both")
    return SimpleNamespace(M_gamma=m_gamma, M_pbn=m_pbn, B_r=b_r, K_s=k_s,
                           nodes=tr.nodes, along=tr.along, p=params.p, q=params.q)


def oracle_exterior_robin(space, b, p_ext=1.0):
    n = space.n_dofs
    out = sp.csr_matrix((n, n))
    for face in space.exterior:
        side, nodes, along, normal, position, axis = (
            face.side, face.nodes, face.along, face.normal, face.position, face.axis
        )
        if space.mesh.dim == 1:
            x = space.mesh.coords[nodes[0]]
            bn = float(_eval_coeff(b[0], np.array([x]), np.zeros(1), 0.0)[0]) * normal[0]
            out = out + sp.coo_matrix(
                ([p_ext - 0.5 * bn], ([nodes[0]], [nodes[0]])), shape=(n, n)
            ).tocsr()
            continue
        tr = TraceSpace(-1, side, nodes, along, normal, position, axis)
        bn = _bn_along(tr, b)
        B = hat_cross_matrix(along, along, lambda s: p_ext - 0.5 * bn(s), "mass")
        out = out + scatter_matrix(B, nodes, nodes, n, n)
    return out


def oracle_cross(md, i, j):
    """(M_x, M_bx, B_rx, K_sx) of the directed mortar exchange i <- j."""
    ai, aj = md.assemblies[i], md.assemblies[j]
    ti, tj = ai.space.traces[j], aj.space.traces[i]
    params = md.cfg.transmission[(i, j)]
    if ai.mesh.dim == 1:
        bnj = fes._bn_along(tj, aj.spec.b)(np.zeros(1))[0]
        one = sp.csr_matrix(np.array([[1.0]]))
        zero = sp.csr_matrix((1, 1))
        return one, sp.csr_matrix(np.array([[bnj + params.p]])), zero, zero.copy()
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
    return M_x, M_bx, B_rx, K_sx


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def assert_identical(A, B):
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    assert A.shape == B.shape
    for f in ("data", "indices", "indptr"):
        assert getattr(A, f).tobytes() == getattr(B, f).tobytes(), f


def _pair(mesh1, mesh2, b1, b2, params12, params21):
    """Two subdomains meeting on subdomain 1's xmax side, as the driver
    sees them."""
    spaces = {1: fes.build_space(mesh1, {2: "xmax"}), 2: fes.build_space(mesh2, {1: "xmin"})}
    b = {1: b1, 2: b2}
    cfg = SimpleNamespace(transmission={(1, 2): params12, (2, 1): params21})
    assemblies = {
        sid: SimpleNamespace(space=sp_, mesh=sp_.mesh, spec=SimpleNamespace(id=sid, b=b[sid]))
        for sid, sp_ in spaces.items()
    }
    return SimpleNamespace(cfg=cfg, assemblies=assemblies)


def check_pair(md):
    for (i, j) in ((1, 2), (2, 1)):
        ai, aj = md.assemblies[i], md.assemblies[j]
        params = md.cfg.transmission[(i, j)]
        new = fes.assemble_interface_ops(ai.space, j, params, ai.spec.b,
                                         aj.space.traces[i], aj.spec.b)
        old = oracle_interface_ops(ai.space, j, params, ai.spec.b)
        for f in ("M_gamma", "M_pbn", "B_r", "K_s"):
            assert_identical(getattr(new, f), getattr(old, f))
        assert np.array_equal(new.nodes, old.nodes)
        assert np.array_equal(new.along, old.along) and (new.p, new.q) == (old.p, old.q)

        assert_identical(fes.assemble_exterior_robin(ai.space, ai.spec.b),
                         oracle_exterior_robin(ai.space, ai.spec.b))

        M_x, M_bx, B_rx, K_sx = oracle_cross(md, i, j)
        assert_identical(new.M_x, M_x)
        assert_identical(new.T_x, M_bx + params.q * B_rx + K_sx)


B1 = (parse_expression("0.3*sin(3*y)+x"), parse_expression("-1+0.2*x*y"))
B2 = (const_expr(-0.1), parse_expression("0.5*y-0.4"))
R_CHOICES = ("-1", "0.5*y-0.2", "sin(2*y)")

interior = st.lists(st.floats(0.05, 1.95), min_size=1, max_size=9, unique=True)


@settings(max_examples=40, deadline=None)
@given(
    ys1=interior, ys2=interior,
    p=st.floats(0.1, 5.0), q=st.floats(0.01, 1.0), s=st.floats(0.01, 1.0),
    r=st.sampled_from(R_CHOICES),
)
def test_face_blocks_match_oracles_2d(ys1, ys2, p, q, s, r):
    ys1 = np.concatenate([[0.0], np.sort(ys1), [2.0]])
    ys2 = np.concatenate([[0.0], np.sort(ys2), [2.0]])
    assume(np.diff(ys1).min() > 1e-3 and np.diff(ys2).min() > 1e-3)
    assume(ys1.size != ys2.size or not np.allclose(ys1, ys2, atol=1e-12))
    mesh1 = fes.build_tensor_mesh(np.linspace(0.0, 0.5, 4), ys1)
    mesh2 = fes.build_tensor_mesh(np.linspace(0.5, 1.0, 3), ys2)
    params12 = TransmissionParams(p=p, q=q, r=parse_expression(r), s=s)
    params21 = TransmissionParams(p=0.5 * p, q=q, r=const_expr(0.0), s=2.0 * s)
    check_pair(_pair(mesh1, mesh2, B1, B2, params12, params21))


def test_face_blocks_match_oracles_1d():
    mesh1 = fes.build_mesh((0.0, 0.5), (3,))
    mesh2 = fes.build_mesh((0.5, 1.0), (4,))
    b1 = (parse_expression("0.5+x"),)
    b2 = (const_expr(0.2),)
    params12 = TransmissionParams(p=1.3, q=0.2, r=const_expr(-1.0), s=0.4)
    params21 = TransmissionParams(p=0.7, q=0.1, r=const_expr(0.0), s=1.0)
    check_pair(_pair(mesh1, mesh2, b1, b2, params12, params21))
