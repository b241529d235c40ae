"""Face geometry: interfaces, the side of each subdomain they lie on, the
trace spaces built from them, and the band rule of `validate_problem`.

The oracle is the earlier geometry code, which worked each face out by
hand per dimension: `find_interfaces` with a 1D branch and one loop per
2D axis, the side of an interface found by comparing its position with
the box, and the side nodes and normals written out per side.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oswr import driver as drv
from oswr import femspace as fes
from oswr.cli import main
from oswr.problem import (
    ExperimentConfig,
    Interface,
    SubdomainSpec,
    TransmissionParams,
    const_expr,
    find_interfaces,
    parse_config,
    validate_problem,
)

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def oracle_find_interfaces(subdomains):
    out = []
    geom_tol = 1e-12
    for a in subdomains:
        for b in subdomains:
            if a.id >= b.id:
                continue
            if a.dim == 1:
                if abs(a.box[1] - b.box[0]) < geom_tol:
                    out.append(Interface(a.id, b.id, 0, a.box[1], None, (1.0,)))
                elif abs(b.box[1] - a.box[0]) < geom_tol:
                    out.append(Interface(a.id, b.id, 0, a.box[0], None, (-1.0,)))
                continue
            ax0, ax1, ay0, ay1 = a.box
            bx0, bx1, by0, by1 = b.box
            for pos, na in ((ax1, 1.0), (ax0, -1.0)):
                other = bx0 if na > 0 else bx1
                if abs(pos - other) < geom_tol:
                    lo, hi = max(ay0, by0), min(ay1, by1)
                    if hi - lo > geom_tol:
                        out.append(Interface(a.id, b.id, 0, pos, (lo, hi), (na, 0.0)))
            for pos, na in ((ay1, 1.0), (ay0, -1.0)):
                other = by0 if na > 0 else by1
                if abs(pos - other) < geom_tol:
                    lo, hi = max(ax0, bx0), min(ax1, bx1)
                    if hi - lo > geom_tol:
                        out.append(Interface(a.id, b.id, 1, pos, (lo, hi), (0.0, na)))
    return out


def oracle_interface_side(spec, itf):
    tol = 1e-12
    if itf.axis == 0:
        if abs(itf.position - spec.box[1]) < tol:
            return "xmax"
        if abs(itf.position - spec.box[0]) < tol:
            return "xmin"
    else:
        if abs(itf.position - spec.box[3]) < tol:
            return "ymax"
        if abs(itf.position - spec.box[2]) < tol:
            return "ymin"
    raise ValueError(f"interface at {itf.position} not on the boundary of subdomain {spec.id}")


def oracle_side_nodes(mesh, side):
    if mesh.dim == 1:
        return np.array([0 if side == "xmin" else mesh.nx])
    nx, ny = mesh.nx, mesh.ny
    if side == "xmin":
        return np.arange(ny + 1) * (nx + 1)
    if side == "xmax":
        return np.arange(ny + 1) * (nx + 1) + nx
    if side == "ymin":
        return np.arange(nx + 1)
    if side == "ymax":
        return ny * (nx + 1) + np.arange(nx + 1)
    raise KeyError(side)


NORMALS_2D = {"xmin": (-1.0, 0.0), "xmax": (1.0, 0.0), "ymin": (0.0, -1.0), "ymax": (0.0, 1.0)}


def oracle_side_trace(mesh, side, neighbor):
    nodes = oracle_side_nodes(mesh, side)
    if mesh.dim == 1:
        normal = (-1.0,) if side == "xmin" else (1.0,)
        return fes.TraceSpace(neighbor, side, nodes, None, normal,
                              float(mesh.coords[nodes[0]]), 0)
    axis = 0 if side in ("xmin", "xmax") else 1
    return fes.TraceSpace(neighbor, side, nodes, mesh.coords[nodes, 1 - axis],
                          NORMALS_2D[side], float(mesh.coords[nodes[0], axis]), axis)


def oracle_space(spec, interfaces):
    """The trace spaces of one subdomain, every interface on its side."""
    counts = (spec.nx,) if spec.dim == 1 else (spec.nx, spec.ny)
    mesh = fes.build_mesh(spec.box, counts)
    sides = {}
    for itf in interfaces:
        if spec.id in (itf.i, itf.j):
            sides[itf.j if itf.i == spec.id else itf.i] = oracle_interface_side(spec, itf)
    names = ("xmin", "xmax") if spec.dim == 1 else ("xmin", "xmax", "ymin", "ymax")
    traces = {nb: oracle_side_trace(mesh, side, nb) for nb, side in sides.items()}
    exterior = tuple(oracle_side_trace(mesh, side, fes.EXTERIOR)
                     for side in names if side not in sides.values())
    return traces, exterior


def oracle_band_errors(subdomains, interfaces):
    """The partial-face messages, one per interface and subdomain whose
    face it covers only in part."""
    box = {s.id: s.box for s in subdomains}
    out = []
    for itf in interfaces:
        if itf.span is None:
            continue
        for sid in (itf.i, itf.j):
            b = box[sid]
            lo, hi = (b[2], b[3]) if itf.axis == 0 else (b[0], b[1])
            if abs(itf.span[0] - lo) > 1e-12 or abs(itf.span[1] - hi) > 1e-12:
                out.append(f"interface ({itf.i},{itf.j}) covers only part of a face of "
                           f"subdomain {sid}; only full-face (band) decompositions are supported")
    return out


def assert_traces_equal(new, old):
    assert (new.neighbor, new.side, new.axis) == (old.neighbor, old.side, old.axis)
    assert new.nodes.dtype == old.nodes.dtype and new.nodes.tobytes() == old.nodes.tobytes()
    if old.along is None:
        assert new.along is None
    else:
        assert new.along.tobytes() == old.along.tobytes()
    assert repr(new.normal) == repr(old.normal)
    assert type(new.position) is type(old.position)
    assert np.float64(new.position).tobytes() == np.float64(old.position).tobytes()


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------


def _spec(sid, box, nx, ny):
    dim = len(box) // 2
    return SubdomainSpec(id=sid, box=box, nu=const_expr(1.0), b=(const_expr(0.0),) * dim,
                         c=const_expr(1.0), omega=const_expr(1.0), nx=nx,
                         ny=ny if dim == 2 else None, nt=1, degree=0)


def _config(domain_box, layout):
    subdomains = [_spec(*entry) for entry in layout]
    transmission = {}
    for itf in find_interfaces(subdomains):
        transmission[(itf.i, itf.j)] = transmission[(itf.j, itf.i)] = TransmissionParams(p=1.0)
    return ExperimentConfig(domain_box=domain_box, T=0.1, subdomains=subdomains,
                            transmission=transmission, u0=const_expr(0.0), f=const_expr(0.0),
                            max_iterations=2)


@st.composite
def layouts_1d(draw):
    """[0, 1] split at 1-3 eighths; ids in random order."""
    cuts = sorted(draw(st.sets(st.integers(1, 7), min_size=1, max_size=3)))
    ends = [0.0, *(c / 8 for c in cuts), 1.0]
    ids = draw(st.permutations(range(1, len(ends))))
    return [(sid, (a, b), draw(st.integers(1, 3)), None)
            for sid, a, b in zip(ids, ends[:-1], ends[1:])]


@st.composite
def layouts_2d(draw):
    """[0, 1] x [0, 2] cut 1-3 times, each cut splitting one box along a
    line of the quarter grid (guillotine layouts); ids in random order."""
    boxes = [(0.0, 1.0, 0.0, 2.0)]
    steps = (0.25, 0.5)
    for _ in range(draw(st.integers(1, 3))):
        cuts = [(k, axis, c) for k, box in enumerate(boxes) for axis in (0, 1)
                for c in np.arange(box[2 * axis] + steps[axis], box[2 * axis + 1], steps[axis])]
        k, axis, c = draw(st.sampled_from(cuts))
        box = boxes.pop(k)
        lo, hi = list(box), list(box)
        lo[2 * axis + 1] = hi[2 * axis] = float(c)
        boxes += [tuple(lo), tuple(hi)]
    ids = draw(st.permutations(range(1, len(boxes) + 1)))
    return [(sid, box, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
            for sid, box in zip(ids, boxes)]


# box 1 is the left column; 2 and 3 stack on its right: a T at (0.5, 1)
T_LAYOUT = [(1, (0.0, 0.5, 0.0, 2.0), 2, 4), (2, (0.5, 1.0, 0.0, 1.0), 2, 2),
            (3, (0.5, 1.0, 1.0, 2.0), 2, 2)]
LAYOUT_2X2 = [(1, (0.0, 0.5, 0.0, 1.0), 2, 2), (2, (0.5, 1.0, 0.0, 1.0), 3, 1),
              (3, (0.0, 0.5, 1.0, 2.0), 1, 3), (4, (0.5, 1.0, 1.0, 2.0), 2, 2)]
# the same with ids against the coordinate order
LAYOUT_2X2_REVERSED = [(5 - sid, box, nx, ny) for sid, box, nx, ny in LAYOUT_2X2]


def check_layout(domain_box, layout):
    cfg = _config(domain_box, layout)
    interfaces = find_interfaces(cfg.subdomains)
    oracle = oracle_find_interfaces(cfg.subdomains)
    assert interfaces == oracle
    assert repr(interfaces) == repr(oracle)
    for spec in cfg.subdomains:
        space = drv._build_space(spec, interfaces)
        traces, exterior = oracle_space(spec, interfaces)
        assert sorted(space.traces) == sorted(traces)
        for nb in traces:
            assert_traces_equal(space.traces[nb], traces[nb])
        assert len(space.exterior) == len(exterior)
        for new, old in zip(space.exterior, exterior):
            assert_traces_equal(new, old)
    errors = [d.message for d in validate_problem(cfg) if d.severity == "error"]
    assert errors == oracle_band_errors(cfg.subdomains, interfaces)
    if not errors:
        md = drv.build_multidomain(cfg)
        assert sorted(md.assemblies) == sorted(s.id for s in cfg.subdomains)
    else:
        with pytest.raises(ValueError, match="covers only part of a face"):
            drv.build_multidomain(cfg)


class TestMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(layout=layouts_1d())
    def test_1d_splits(self, layout):
        check_layout((0.0, 1.0), layout)

    @settings(max_examples=60, deadline=None)
    @given(layout=layouts_2d())
    @example(layout=T_LAYOUT)
    @example(layout=LAYOUT_2X2)
    @example(layout=LAYOUT_2X2_REVERSED)
    def test_2d_guillotine_layouts(self, layout):
        check_layout((0.0, 1.0, 0.0, 2.0), layout)


# ---------------------------------------------------------------------------
# The band rule
# ---------------------------------------------------------------------------

T_CFG = """
[domain]
box = 0 1 0 2
T = 0.1
u0 = "0"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nx = 2
ny = 4

[subdomain]
id = 2
box = 0.5 1 0 1
nx = 2
ny = 2

[subdomain]
id = 3
box = 0.5 1 1 2
nx = 2
ny = 2

[transmission]
from = 1
to = 2
p = 1.0

[transmission]
from = 1
to = 3
p = 1.0

[transmission]
from = 2
to = 3
p = 1.0
"""

T_ERRORS = [
    f"interface ({i},{j}) covers only part of a face of subdomain 1; "
    "only full-face (band) decompositions are supported"
    for i, j in ((1, 2), (1, 3))
]


class TestBandRule:
    def test_t_layout_rejected_at_validation(self):
        diags = validate_problem(parse_config(T_CFG))
        assert [d.message for d in diags if d.severity == "error"] == T_ERRORS

    def test_t_layout_run_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "t.cfg"
        path.write_text(T_CFG)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        for message in T_ERRORS:
            assert f"error: {message}" in err
