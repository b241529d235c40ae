"""Structured P1 finite element spaces and spatial assembly.

Meshes are uniform structured grids on axis-aligned boxes: segments in
1D, triangles in 2D (each cell split along the lower-left to upper-right
diagonal, so nested refinements interpolate exactly).  Assembled forms,
each operator a scipy sparse matrix:

* mass with porosity weight;
* the skew-symmetrized advection-diffusion-reaction volume form
      atilde(u,v) = int 1/2((b.grad u)v - (b.grad v)u)
                  + int nu grad u . grad v + int (c + div(b)/2) u v;
* operator blocks on flat faces, one code path for a subdomain's record
  of a directed interface (its own interface mass, (p - b.n/2)-weighted
  mass, tangential advection B_r and tangential stiffness K_s, and the
  mortar blocks coupling the neighbor's trace to its own), the flux-jump
  block of the monodomain reference, and the exterior-boundary Robin
  closure (P_EXT - b.n/2)-weighted mass;
* the P1 interpolation of nodal fields at fixed points;
* per-mode time-quadrature load vectors for the DG right-hand sides.

The volume forms share one path for 1D and 2D: `_quadrature` gives the
points, weights, basis values and constant basis gradients of each
element (2-point Gauss per segment, the edge-midpoint rule per
triangle, both exact for P2 integrands), and the mass, the volume form
and the load are the same einsums over them in either dimension.
A face of a box is stated once, as (axis, end of that axis), through the
side names of `SIDES`; its node ids, outward normal, position and the
exterior faces of a space follow from it by one path in 1D and 2D.
Operator coefficients are evaluated at t = 0: `validate_problem`
rejects any that depend on t.
Assembly is deterministic: identical inputs produce identical entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from oswr.timebasis import GAUSS4_NODES, GAUSS4_WEIGHTS, TimePartition, legendre_eval
from oswr.timeproject import hat_cross_matrix

__all__ = [
    "Mesh",
    "FemSpace",
    "build_mesh",
    "build_tensor_mesh",
    "build_space",
    "assemble_mass",
    "assemble_atilde",
    "assemble_interface_ops",
    "assemble_exterior_robin",
    "assemble_flux_jump",
    "assemble_load",
    "IntervalLoads",
    "assemble_space_load",
    "nodal_interpolate",
    "scatter_matrix",
    "InterfaceBlocks",
    "P_EXT",
]

# Robin coefficient of the absorbing closure on exterior faces.
P_EXT = 1.0

_G2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

# The faces of a box in the order of its coordinates: SIDES[2 * axis + end]
# lies at the low (end 0) or high (end 1) end of that axis, at coordinate
# box[2 * axis + end].  A 1D box has the first two.
SIDES = ("xmin", "xmax", "ymin", "ymax")


def _face(side):
    """(axis, end) of a side name."""
    if side not in SIDES:
        raise KeyError(side)
    return divmod(SIDES.index(side), 2)


@dataclass(frozen=True)
class Mesh:
    """Structured tensor-product mesh of an axis-aligned box.

    Grid lines xs (and ys in 2D) may be nonuniform; each 2D cell is split
    along its lower-left to upper-right diagonal, so integer-nested
    refinements interpolate P1 fields exactly.
    """

    dim: int
    box: tuple
    nx: int
    ny: int | None
    xs: np.ndarray
    ys: np.ndarray | None
    coords: np.ndarray  # (n_nodes,) in 1D, (n_nodes, 2) in 2D
    elems: np.ndarray   # (n_elems, 2) segments or (n_elems, 3) triangles

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def lines(self):
        """The grid lines of each axis: (xs,) in 1D, (xs, ys) in 2D."""
        return (self.xs, self.ys)[: self.dim]

    @property
    def _grid_ids(self):
        """Node j * (nx + 1) + i is ids[j, i] in 2D, node i is ids[i] in 1D."""
        return np.arange(self.n_nodes).reshape([x.size for x in reversed(self.lines)])

    def side_nodes(self, side):
        """Node ids on a box side, sorted along the side."""
        axis, end = _face(side)
        ids = np.take(self._grid_ids, end * (self.lines[axis].size - 1), axis=self.dim - 1 - axis)
        return ids.ravel()

    def grid_nodes(self, lines):
        """Node ids of the tensor grid of `lines` (one array per axis), in
        that grid's order; each axis' lines must be a run of this mesh's."""
        runs = []
        for mine, sub in zip(self.lines, lines):
            start = int(np.searchsorted(mine, sub[0]))
            if not np.array_equal(mine[start : start + sub.size], sub):
                raise ValueError("grid lines are not a contiguous run of the mesh's grid lines")
            runs.append(slice(start, start + sub.size))
        return self._grid_ids[tuple(reversed(runs))].ravel()

    def _locate(self, axis_nodes, v):
        i = np.searchsorted(axis_nodes, v, side="right") - 1
        i = np.clip(i, 0, axis_nodes.size - 2)
        lam = (v - axis_nodes[i]) / (axis_nodes[i + 1] - axis_nodes[i])
        return i, np.clip(lam, 0.0, 1.0)

    def p1_operator(self, points):
        """The P1 interpolation of this mesh's nodal fields at fixed points
        of the box (clamps outside points to the box), as a CSR matrix
        whose row p sums its dim + 1 barycentric terms in stored order."""
        pts = np.asarray(points, dtype=float)
        if self.dim == 1:
            i, lam = self._locate(self.xs, pts)
            cols, weights = np.stack([i, i + 1], axis=1), np.stack([1.0 - lam, lam], axis=1)
        else:
            i, lx = self._locate(self.xs, pts[:, 0])
            j, ly = self._locate(self.ys, pts[:, 1])
            n00 = j * (self.nx + 1) + i
            n10, n01, n11 = n00 + 1, n00 + (self.nx + 1), n00 + (self.nx + 2)
            lower = lx >= ly  # triangle (i,j),(i+1,j),(i+1,j+1)
            cols = np.stack([n00, np.where(lower, n10, n11), np.where(lower, n11, n01)], axis=1)
            weights = np.stack([
                np.where(lower, 1.0 - lx, 1.0 - ly),
                np.where(lower, lx - ly, lx),
                np.where(lower, ly, ly - lx),
            ], axis=1)
        m, k = cols.shape
        return sp.csr_matrix((weights.ravel(), cols.ravel(), np.arange(0, m * k + 1, k)),
                             shape=(m, self.n_nodes))

    def eval_p1(self, nodal, points):
        """Evaluate a P1 nodal field at arbitrary points of the box.

        Exact for points inside the box (clamps outside points to the box).
        """
        return self.p1_operator(points) @ nodal


def build_tensor_mesh(xs, ys=None):
    """Mesh from explicit (strictly increasing) grid-line coordinates."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid lines must be strictly increasing")
    if ys is None:
        nx = xs.size - 1
        elems = np.stack([np.arange(nx), np.arange(1, nx + 1)], axis=1)
        return Mesh(dim=1, box=(float(xs[0]), float(xs[-1])), nx=nx, ny=None,
                    xs=xs, ys=None, coords=xs, elems=elems)
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(ys) <= 0):
        raise ValueError("grid lines must be strictly increasing")
    nx, ny = xs.size - 1, ys.size - 1
    X, Y = np.meshgrid(xs, ys)  # row j = y_j
    coords = np.stack([X.ravel(), Y.ravel()], axis=1)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    i, j = i.ravel(), j.ravel()
    n00 = j * (nx + 1) + i
    n10, n01, n11 = n00 + 1, n00 + (nx + 1), n00 + (nx + 2)
    lower = np.stack([n00, n10, n11], axis=1)
    upper = np.stack([n00, n11, n01], axis=1)
    elems = np.concatenate([lower, upper], axis=0)
    box = (float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]))
    return Mesh(dim=2, box=box, nx=nx, ny=ny, xs=xs, ys=ys, coords=coords, elems=elems)


def build_mesh(box, counts):
    """Uniform mesh; counts is (nx,) in 1D or (nx, ny) in 2D."""
    lo, hi = box[0::2], box[1::2]
    if len(box) != 2 * len(counts) or min(counts) < 1 or any(a >= b for a, b in zip(lo, hi)):
        raise ValueError("degenerate box or counts")
    return build_tensor_mesh(*(np.linspace(a, b, n + 1) for a, b, n in zip(lo, hi, counts)))


# ---------------------------------------------------------------------------
# Volume assembly
# ---------------------------------------------------------------------------


def _quadrature(mesh):
    """Volume quadrature of a mesh: (elems, x, y, w, phi, grads).

    x, y, w: (M, Q) points and weights (y is zero in 1D); phi[q, l]: the
    P1 basis values at the points; grads: (M, L, dim) constant basis
    gradients.  Segments take 2-point Gauss, triangles the edge-midpoint
    rule (midpoint q opposite vertex q); both are exact for P2 integrands.
    """
    elems = mesh.elems
    if mesh.dim == 1:
        xa = mesh.coords[elems[:, 0]]
        h = mesh.coords[elems[:, 1]] - xa
        x = xa[:, None] + h[:, None] * _G2[None, :]
        w = np.broadcast_to(0.5 * h[:, None], x.shape)
        phi = np.stack([1.0 - _G2, _G2], axis=1)
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[..., None]
        return elems, x, np.zeros_like(x), w, phi, grads
    p = mesh.coords[elems]  # (M, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]  # positive by construction
    # grad lambda_a = perp(c - b)/(2A), perp(v) = (-v_y, v_x), cyclic
    grads = np.empty((elems.shape[0], 3, 2))
    mids = np.empty((elems.shape[0], 3, 2))
    for a in range(3):
        v = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
        grads[:, a, 0] = -v[:, 1] / det
        grads[:, a, 1] = v[:, 0] / det
        mids[:, a] = 0.5 * (p[:, (a + 1) % 3] + p[:, (a + 2) % 3])
    w = np.broadcast_to((0.5 * det / 3.0)[:, None], mids.shape[:2])
    # phi_l(mid_q) = 0 if l == q else 1/2
    return elems, mids[..., 0], mids[..., 1], w, 0.5 * (1.0 - np.eye(3)), grads


def _coo(elems, local, n):
    """The (n, n) sum of the element matrices: local[m, l, k] at
    (elems[m, l], elems[m, k])."""
    pairs = [(l, k) for l in range(elems.shape[1]) for k in range(elems.shape[1])]
    rows = np.concatenate([elems[:, l] for l, _ in pairs])
    cols = np.concatenate([elems[:, k] for _, k in pairs])
    vals = np.concatenate([local[:, l, k] for l, k in pairs])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_mass(mesh, omega):
    """Mass matrix int omega phi_k phi_l."""
    elems, x, y, w, phi, _ = _quadrature(mesh)
    om = _eval_coeff(omega, x, y, 0.0)
    local = np.einsum("mq,ql,qk->mlk", w * om, phi, phi)
    return _coo(elems, local, mesh.n_nodes)


def _eval_coeff(coeff, x, y, t):
    """Evaluate an expression or callable on quadrature points."""
    if callable(coeff):
        vals = coeff(x, y, t)
    else:
        vals = float(coeff) * np.ones_like(x)
    return np.broadcast_to(np.asarray(vals, dtype=float), np.shape(x))


def assemble_atilde(mesh, nu, b, c, div_b):
    """Skew-symmetrized advection-diffusion-reaction volume form.

    Raises if the diffusion evaluates negative at a quadrature point
    (boundary-touching zeros are tolerated: they only drop that point's
    contribution).
    """
    elems, x, y, w, phi, grads = _quadrature(mesh)
    nuq = _eval_coeff(nu, x, y, 0.0)
    if np.any(nuq < 0):
        raise ValueError("negative diffusion nu at a quadrature point")
    bq = np.stack([_eval_coeff(bi, x, y, 0.0) for bi in b], axis=-1)  # (M, q, dim)
    cq = _eval_coeff(c, x, y, 0.0) + 0.5 * _eval_coeff(div_b, x, y, 0.0)

    # diffusion: grads constant per element
    gdot = np.einsum("mld,mkd->mlk", grads, grads)
    local = np.zeros_like(gdot)
    local += np.sum(w * nuq, axis=1)[:, None, None] * gdot
    # reaction shift
    local += np.einsum("mq,ql,qk->mlk", w * cq, phi, phi)
    # skew advection: 1/2 sum_q w_q [ (b.g_k) phi_l(q) - (b.g_l) phi_k(q) ]
    bg = np.einsum("mqd,mkd->mqk", bq, grads)
    term = np.einsum("mq,mqk,ql->mlk", w, bg, phi)
    local += 0.5 * (term - np.swapaxes(term, 1, 2))
    return _coo(elems, local, mesh.n_nodes)


# ---------------------------------------------------------------------------
# Function space with interface bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpace:
    """Trace of the P1 space on one flat face (an interface, or an
    exterior face with neighbor EXTERIOR)."""

    neighbor: int
    side: str
    nodes: np.ndarray        # global dof ids, sorted along the interface
    along: np.ndarray | None  # running coordinate (None in 1D)
    normal: tuple
    position: float
    axis: int

    @property
    def n(self):
        return self.nodes.size

    def points(self, s):
        """Map interface coordinates to (x, y) points."""
        s = np.asarray(s, dtype=float)
        if self.axis == 0:
            return self.position * np.ones_like(s), s
        return s, self.position * np.ones_like(s)


@dataclass(frozen=True)
class FemSpace:
    """P1 space on one subdomain mesh with interface/exterior metadata."""

    mesh: Mesh
    traces: dict  # neighbor id -> TraceSpace
    exterior: tuple  # of TraceSpace, one per exterior face

    @property
    def n_dofs(self):
        return self.mesh.n_nodes


EXTERIOR = -1  # the neighbor id of an exterior face


def _side_trace(mesh, side, neighbor):
    axis, end = _face(side)
    normal = tuple(2.0 * end - 1.0 if k == axis else 0.0 for k in range(mesh.dim))
    tangent = [x for k, x in enumerate(mesh.lines) if k != axis]  # none: a 1D face is a point
    along = tangent[0] if tangent else None
    return TraceSpace(neighbor, side, mesh.side_nodes(side), along, normal,
                      mesh.box[2 * axis + end], axis)


def build_space(mesh, interface_sides):
    """interface_sides: neighbor id -> side name ('xmin', ...); every
    other side of the box is an exterior face."""
    traces = {nb: _side_trace(mesh, side, nb) for nb, side in interface_sides.items()}
    used = set(interface_sides.values())
    exterior = tuple(_side_trace(mesh, side, EXTERIOR)
                     for side in SIDES[: 2 * mesh.dim] if side not in used)
    return FemSpace(mesh=mesh, traces=traces, exterior=exterior)


def scatter_matrix(B, rows_gidx, cols_gidx, n_rows, n_cols):
    """Embed a small interface matrix into global dof numbering."""
    B = sp.coo_matrix(B)
    return sp.coo_matrix(
        (B.data, (rows_gidx[B.row], cols_gidx[B.col])), shape=(n_rows, n_cols)
    ).tocsr()


@dataclass(frozen=True)
class InterfaceBlocks:
    """One subdomain's record of one directed interface (self <- neighbor):
    operator blocks in interface-local numbering, where they sit, and the
    parameters.

    M_gamma : interface mass
    M_pbn   : (p - b.n/2)-weighted interface mass
    B_r     : tangential advection, int grad_G.(r phi_l) psi_k
              (assembled by parts, endpoint terms dropped)
    K_s     : tangential stiffness, int q s dphi_l dpsi_k
    M_x     : cross mass int psi_k chi_l, rows on this trace's test
              functions, columns on the neighbor's trace functions
    T_x     : M_bx + q B_rx + K_sx, the cross blocks the exchange applies
              to the neighbor's trace, with M_bx = int (b_j.n_j + p) psi_k chi_l
    nodes   : global dof ids (the trace restriction map)
    along   : running coordinate of the nodes (None in 1D)
    p, q    : the Robin and Ventcell transmission coefficients
    """

    M_gamma: sp.csr_matrix
    M_pbn: sp.csr_matrix
    B_r: sp.csr_matrix
    K_s: sp.csr_matrix
    M_x: sp.csr_matrix
    T_x: sp.csr_matrix
    nodes: np.ndarray
    along: np.ndarray | None
    p: float
    q: float


def _bn_along(trace, b):
    """b . n_i as a callable of the interface coordinate."""
    def f(s):
        x, y = trace.points(s)
        return np.sum([_eval_coeff(bi, x, y, 0.0) * ni for bi, ni in zip(b, trace.normal)],
                      axis=0)
    return f


def _face_blocks(target, source, weight, params=None):
    """Operator blocks on one flat face, rows on the target trace's test
    functions psi_k, columns on the source trace's functions chi_l.

    Alone, the weighted mass int w psi_k chi_l (weight: a callable of the
    face coordinate).  With transmission params (p, q, r, s), the blocks
    (M, M_w, B_r, K_s): the plain mass int psi_k chi_l, the weighted
    mass, the tangential advection int grad_G.(r chi_l) psi_k (by parts,
    endpoint terms dropped) and the tangential stiffness
    int q s dchi_l dpsi_k.  A subdomain's own blocks pass its trace as
    both target and source.  A 1D face is a point: a mass is the weight
    there and the tangential blocks vanish.
    """
    point = target.along is None

    def mass(w):
        if point:
            return sp.csr_matrix(np.array([[1.0 if w is None else w(np.zeros(1))[0]]]))
        return hat_cross_matrix(target.along, source.along, w, "mass")

    if params is None:
        return mass(weight)
    M, M_w = mass(None), mass(weight)
    shape = (target.n, source.n)
    if point or params.r.is_zero():
        B_r = sp.csr_matrix(shape)
    else:
        def rw(s):
            x, y = target.points(s)
            return _eval_coeff(params.r, x, y, 0.0)
        B_r = -hat_cross_matrix(target.along, source.along, rw, "dtarget")
    qs = params.q * params.s
    if point or qs == 0.0:
        K_s = sp.csr_matrix(shape)
    else:
        K_s = hat_cross_matrix(
            target.along, source.along, lambda s: qs * np.ones_like(s), "grad_both"
        )
    return M, M_w, B_r, K_s


def assemble_interface_ops(space, neighbor, params, b, neighbor_trace, neighbor_b):
    """The record of the directed interface self <- neighbor.

    params carries (p, q, r, s); b is this subdomain's advection (its
    trace on the interface defines b.n), neighbor_trace and neighbor_b
    are the neighbor's trace space of the interface and its advection.
    The time-derivative part of the Order-2 operator is not assembled
    here; it enters the time-step systems through the q-weighted
    interface mass.
    """
    if neighbor not in space.traces:
        raise KeyError(f"no interface to neighbor {neighbor}")
    tr = space.traces[neighbor]
    bn, bn_j = _bn_along(tr, b), _bn_along(neighbor_trace, neighbor_b)
    M_x, M_bx, B_rx, K_sx = _face_blocks(tr, neighbor_trace, lambda s: bn_j(s) + params.p,
                                         params)
    return InterfaceBlocks(*_face_blocks(tr, tr, lambda s: params.p - 0.5 * bn(s), params),
                           M_x, M_bx + params.q * B_rx + K_sx,
                           tr.nodes, tr.along, params.p, params.q)


def assemble_flux_jump(trace, neighbor_trace, b, neighbor_b):
    """The face block int ((b_i.n_i + b_j.n_j)/2) psi_k chi_l on the
    trace, b_i and n_i this side's advection and normal, b_j and n_j the
    neighbor's."""
    bn_i, bn_j = _bn_along(trace, b), _bn_along(neighbor_trace, neighbor_b)
    return _face_blocks(trace, trace, lambda x: 0.5 * (bn_i(x) + bn_j(x)))


def assemble_exterior_robin(space, b):
    """Absorbing-type closure on exterior faces: (P_EXT - b.n/2) mass.

    The continuous problem lives on the whole space; the computational
    box is closed with the homogeneous Robin condition
    (nu d_n - b.n) u + P_EXT u = 0, which contributes this boundary
    mass to the spatial operator.
    """
    n = space.n_dofs
    out = sp.csr_matrix((n, n))
    for tr in space.exterior:
        bn = _bn_along(tr, b)
        out = out + scatter_matrix(_face_blocks(tr, tr, lambda s: P_EXT - 0.5 * bn(s)),
                                   tr.nodes, tr.nodes, n, n)
    out.eliminate_zeros()
    return out


# ---------------------------------------------------------------------------
# Load vectors
# ---------------------------------------------------------------------------


def assemble_space_load(mesh, g, t=0.0):
    """Load vector int g(.,t) phi_k dx."""
    elems, x, y, w, phi, _ = _quadrature(mesh)
    gq = _eval_coeff(g, x, y, t)
    out = np.zeros(mesh.n_nodes)
    for k in range(elems.shape[1]):
        np.add.at(out, elems[:, k], np.sum(w * gq * phi[:, k][None, :], axis=1))
    return out


def assemble_load(mesh, f, interval, d):
    """Per-mode load vectors F_beta = int_{I_n} L_beta(s) (f(.,s), phi) ds.

    Tensorized 4-point Gauss in time over the spatial rule.  For data
    with no time dependence F_0 = k_n * (f, phi) and higher modes vanish.
    """
    t_n, k_n = interval
    n = mesh.n_nodes
    time_dep = getattr(f, "depends_on", lambda v: True)("t")
    if getattr(f, "is_zero", lambda: False)():
        return np.zeros((d + 1, n))
    if not time_dep:
        F0 = k_n * assemble_space_load(mesh, f, t=t_n)
        out = np.zeros((d + 1, n))
        out[0] = F0
        return out
    ts = t_n + k_n * GAUSS4_NODES
    out = np.zeros((d + 1, n))
    for tq, wq in zip(ts, GAUSS4_WEIGHTS * k_n):
        load = assemble_space_load(mesh, f, t=tq)
        for beta in range(d + 1):
            out[beta] += wq * legendre_eval(beta, (t_n, k_n), tq) * load
    return out


@dataclass
class IntervalLoads:
    """The `assemble_load` vectors of the intervals of a time partition,
    interval n's assembled when it is indexed: a reference grid has many
    intervals, and a list of all of them is as large as its trajectory."""

    mesh: Mesh
    f: object  # a problem.CoefficientExpression
    partition: TimePartition
    degree: int

    def __getitem__(self, n):
        bp = self.partition.breakpoints
        return assemble_load(self.mesh, self.f, (bp[n], bp[n + 1] - bp[n]), self.degree)


def nodal_interpolate(mesh, g, t=0.0):
    """Nodal values of an expression at mesh nodes."""
    if mesh.dim == 1:
        x = mesh.coords
        return _eval_coeff(g, x, np.zeros_like(x), t).copy()
    x, y = mesh.coords[:, 0], mesh.coords[:, 1]
    return _eval_coeff(g, x, y, t).copy()
