"""Problem definition: coefficient expressions, subdomain decomposition,
transmission parameters, and the text configuration format, whose keys
are stated once, in one table per section (`_DOMAIN`, `_SUBDOMAIN`,
`_TRANSMISSION`) that `parse_config` and `serialize_config` both walk.

Coefficients (diffusion nu, advection b, reaction c, porosity omega,
initial data u0, source f) are closed-form expression trees over the
variables x, y, t.  Subdomains are axis-aligned boxes tiling the global
domain; interfaces between neighbors are flat (axis-aligned) faces, and
in 2D each must be a whole face of both neighbors (the band rule).
"""

from __future__ import annotations

import ast
import bisect
import math
import re
from dataclasses import dataclass, field

import numpy as np

from oswr.timebasis import GAUSS4_NODES

__all__ = [
    "ConfigError",
    "EvalError",
    "CoefficientExpression",
    "SubdomainSpec",
    "TransmissionParams",
    "ExperimentConfig",
    "Diagnostic",
    "parse_expression",
    "parse_config",
    "serialize_config",
    "validate_problem",
    "find_interfaces",
]


class ConfigError(Exception):
    """Raised for malformed configuration text (carries line/column)."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ", ".join(f"{k} {v}" for k, v in (("line", line), ("col", col)) if v is not None)
        super().__init__(message + (f" ({loc})" if loc else ""))


class EvalError(Exception):
    """Raised when expression evaluation hits a domain error."""


# ---------------------------------------------------------------------------
# Expression language: variables {x, y, t}, decimal literals, pi,
# + - * / ^, unary - and +, functions {sin, cos, sqrt, exp, abs}; read
# with Python's own parser once ^ is written as **.
# ---------------------------------------------------------------------------

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "abs": np.abs,
    # internal nodes produced by differentiation only (not parseable)
    "sign": np.sign,
}

_NAMES = {"x": ("var", "x"), "y": ("var", "y"), "t": ("var", "t"), "pi": ("num", math.pi)}
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}
# the only literals: unsigned decimals, no underscores, prefixes or suffixes
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# a number in a config value: an optional sign and a `_NUMBER` in ASCII digits
_SIGNED_NUMBER = re.compile(r"[+-]?" + _NUMBER.pattern, re.ASCII)


def _eval_node(node, x, y, t):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return {"x": x, "y": y, "t": t}[node[1]]
    if tag == "neg":
        return -_eval_node(node[1], x, y, t)
    if tag == "add":
        return _eval_node(node[1], x, y, t) + _eval_node(node[2], x, y, t)
    if tag == "sub":
        return _eval_node(node[1], x, y, t) - _eval_node(node[2], x, y, t)
    if tag == "mul":
        return _eval_node(node[1], x, y, t) * _eval_node(node[2], x, y, t)
    if tag == "div":
        den = _eval_node(node[2], x, y, t)
        if np.any(np.asarray(den) == 0.0):
            raise EvalError(_domain_error_msg("division by zero", den == 0.0, x, y, t))
        return _eval_node(node[1], x, y, t) / den
    if tag == "pow":
        return _eval_node(node[1], x, y, t) ** _eval_node(node[2], x, y, t)
    if tag == "call":
        arg = _eval_node(node[2], x, y, t)
        if node[1] == "sqrt" and np.any(np.asarray(arg) < 0.0):
            raise EvalError(_domain_error_msg("sqrt of negative value", np.asarray(arg) < 0.0, x, y, t))
        return _FUNCTIONS[node[1]](arg)
    raise ValueError(f"bad node {tag!r}")


def _domain_error_msg(what, mask, x, y, t):
    mask = np.broadcast_to(mask, np.broadcast(np.asarray(x), np.asarray(y), np.asarray(t)).shape)
    idx = np.argwhere(mask)
    pt = tuple(
        float(np.broadcast_to(np.asarray(v, dtype=float), mask.shape)[tuple(idx[0])])
        for v in (x, y, t)
    ) if idx.size else None
    return f"{what} at point (x, y, t) = {pt}"


def _diff_node(node, var):
    tag = node[0]
    if tag == "num":
        return ("num", 0.0)
    if tag == "var":
        return ("num", 1.0 if node[1] == var else 0.0)
    if tag == "neg":
        return ("neg", _diff_node(node[1], var))
    if tag in ("add", "sub"):
        return (tag, _diff_node(node[1], var), _diff_node(node[2], var))
    if tag == "mul":
        u, v = node[1], node[2]
        return ("add", ("mul", _diff_node(u, var), v), ("mul", u, _diff_node(v, var)))
    if tag == "div":
        u, v = node[1], node[2]
        num = ("sub", ("mul", _diff_node(u, var), v), ("mul", u, _diff_node(v, var)))
        return ("div", num, ("mul", v, v))
    if tag == "pow":
        base, expo = node[1], node[2]
        if expo[0] != "num":
            raise ValueError("differentiation of non-constant exponents is unsupported")
        n = expo[1]
        return ("mul", ("num", n), ("mul", ("pow", base, ("num", n - 1.0)), _diff_node(base, var)))
    if tag == "call":
        fname, arg = node[1], node[2]
        da = _diff_node(arg, var)
        if fname == "sin":
            return ("mul", ("call", "cos", arg), da)
        if fname == "cos":
            return ("neg", ("mul", ("call", "sin", arg), da))
        if fname == "exp":
            return ("mul", node, da)
        if fname == "sqrt":
            return ("div", da, ("mul", ("num", 2.0), node))
        if fname == "abs":
            return ("mul", ("call", "sign", arg), da)
        if fname == "sign":
            return ("num", 0.0)
    raise ValueError(f"bad node {tag!r}")


def _simplify(node):
    tag = node[0]
    if tag in ("num", "var"):
        return node
    if tag == "neg":
        a = _simplify(node[1])
        if a[0] == "num":
            return ("num", -a[1])
        return ("neg", a)
    if tag == "call":
        a = _simplify(node[2])
        return ("call", node[1], a)
    a, b = _simplify(node[1]), _simplify(node[2])
    if tag == "add":
        if a == ("num", 0.0):
            return b
        if b == ("num", 0.0):
            return a
    if tag == "sub" and b == ("num", 0.0):
        return a
    if tag == "mul":
        if a == ("num", 0.0) or b == ("num", 0.0):
            return ("num", 0.0)
        if a == ("num", 1.0):
            return b
        if b == ("num", 1.0):
            return a
    if tag == "div" and a == ("num", 0.0):
        return ("num", 0.0)
    if tag == "pow" and b == ("num", 1.0):
        return a
    if a[0] == "num" and b[0] == "num" and tag in ("add", "sub", "mul"):
        op = {"add": lambda u, v: u + v, "sub": lambda u, v: u - v, "mul": lambda u, v: u * v}[tag]
        return ("num", op(a[1], b[1]))
    return (tag, a, b)


@dataclass(frozen=True)
class CoefficientExpression:
    """A closed-form scalar field over (x, y, t)."""

    ast: tuple
    source: str = ""

    def __call__(self, x, y=0.0, t=0.0):
        """Evaluate at points; numpy arrays broadcast elementwise."""
        val = _eval_node(self.ast, x, y, t)
        out = np.asarray(val, dtype=float)
        if not np.all(np.isfinite(out)):
            raise EvalError(_domain_error_msg("non-finite value", ~np.isfinite(out), x, y, t))
        shape = np.broadcast(np.asarray(x), np.asarray(y), np.asarray(t)).shape
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out if shape else float(out)

    def diff(self, var):
        return CoefficientExpression(_simplify(_diff_node(self.ast, var)))

    def depends_on(self, var):
        def walk(node):
            if node[0] == "var":
                return node[1] == var
            if node[0] in ("num",):
                return False
            return any(walk(c) for c in node[1:] if isinstance(c, tuple))

        return walk(self.ast)

    def is_zero(self):
        return _simplify(self.ast) == ("num", 0.0)

    def __str__(self):
        """The text the expression was written as ("" for a derivative)."""
        return self.source


def parse_expression(text):
    """Parse an expression string into a CoefficientExpression.

    ``^`` is right associative and binds tighter than unary minus, so
    ``-x^2`` is -(x^2).  A ConfigError carries the column in `text`.
    """
    flat = re.sub(r"\s", " ", text)  # one line: ast columns are columns of text
    body = flat.lstrip()  # ast rejects a leading indent
    lead = len(flat) - len(body)
    # ast counts columns in bytes and reads '#' as a comment; '**' is no operator here
    bad = re.search(r"[^ -~]|#|\*\*", body)
    if bad:
        raise ConfigError(f"unexpected {bad.group()!r}", col=lead + bad.start() + 1)
    # each '^' becomes two characters; carets[k] is where the k-th starts
    carets = [m.start() + k for k, m in enumerate(re.finditer(r"\^", body))]
    src = body.replace("^", "**")

    def at(offset):
        """The offset into `body` of an offset into `src`."""
        return offset - bisect.bisect_left(carets, offset)

    def walk(node):
        segment = src[node.col_offset : node.end_col_offset]
        match node:
            case ast.BinOp(op=op) if type(op) in _BINARY:
                return (_BINARY[type(op)], walk(node.left), walk(node.right))
            case ast.UnaryOp(op=ast.USub()):
                return ("neg", walk(node.operand))
            case ast.UnaryOp(op=ast.UAdd()):
                return walk(node.operand)
            case ast.Constant() if _NUMBER.fullmatch(segment):
                return ("num", float(segment))
            case ast.Name(id=name) if name in _NAMES:
                return _NAMES[name]
            case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if (
                name in _FUNCTIONS and name != "sign"
                and "," not in src[arg.end_col_offset : node.end_col_offset]  # sin(x,)
            ):
                return ("call", name, walk(arg))
        start = at(node.col_offset)
        segment = body[start : at(node.end_col_offset)]
        raise ConfigError(f"unsupported {segment!r}", col=lead + start + 1)

    try:
        tree = ast.parse(src, mode="eval").body
    except SyntaxError as e:
        col = lead + at((e.offset or 1) - 1) + 1
        raise ConfigError(e.msg, col=max(1, min(col, len(text)))) from None
    return CoefficientExpression(walk(tree), source=text)


def const_expr(v):
    return CoefficientExpression(("num", float(v)), source=repr(float(v)))


# ---------------------------------------------------------------------------
# Decomposition data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdomainSpec:
    """Geometry, coefficients and grid sizes for one subdomain.

    box is (x0, x1) in 1D or (x0, x1, y0, y1) in 2D; grids are uniform
    with nx (and ny) cells and nt time intervals per window.
    """

    id: int
    box: tuple
    nu: CoefficientExpression
    b: tuple  # (bx,) in 1D, (bx, by) in 2D
    c: CoefficientExpression
    omega: CoefficientExpression
    nx: int
    ny: int | None
    nt: int
    degree: int

    @property
    def dim(self):
        return 1 if len(self.box) == 2 else 2

    def div_b(self):
        """Analytic divergence of the advection field."""
        d = self.b[0].diff("x")
        if self.dim == 2:
            d = CoefficientExpression(_simplify(("add", d.ast, self.b[1].diff("y").ast)))
        return d


@dataclass(frozen=True)
class TransmissionParams:
    """Robin/Ventcell coefficients for one directed interface (i, j)."""

    p: float
    q: float = 0.0
    r: CoefficientExpression = field(default_factory=lambda: const_expr(0.0))
    s: float = 1.0


@dataclass(frozen=True)
class Interface:
    """Geometric flat interface between subdomains i and j.

    axis is the coordinate normal to the interface (0 for x, 1 for y);
    position its coordinate; span the extent along the interface (2D).
    Normal n_i points from subdomain i toward subdomain j.
    """

    i: int
    j: int
    axis: int
    position: float
    span: tuple | None
    normal_i: tuple


@dataclass
class ExperimentConfig:
    domain_box: tuple
    T: float
    subdomains: list
    transmission: dict  # (i, j) -> TransmissionParams, both directions
    u0: CoefficientExpression
    f: CoefficientExpression
    windows: int = 1
    tolerance: float = 1e-8
    max_iterations: int = 100
    initial_guess: str = "from_u0"

    @property
    def dim(self):
        return 1 if len(self.domain_box) == 2 else 2

    def subdomain(self, sid):
        for s in self.subdomains:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def interfaces(self):
        return find_interfaces(self.subdomains)


def _extent(a, b, axis):
    """The common extent (lo, hi) of two boxes along one axis."""
    return max(a[2 * axis], b[2 * axis]), min(a[2 * axis + 1], b[2 * axis + 1])


def find_interfaces(subdomains):
    """Shared flat faces between subdomain boxes, one Interface per
    unordered pair with i < j.

    A face is (axis, end): the face of box i at the high (end 1) or low
    (end 0) end of an axis meets box j when j's opposite face lies at the
    same coordinate and the two overlap along every other axis (a 1D face
    is a point).  Faces are tried by axis, the high end first; normal_i
    is the outward normal of that face of i.
    """
    out = []
    geom_tol = 1e-12
    for a in subdomains:
        for b in subdomains:
            if a.id >= b.id:
                continue
            for axis in range(a.dim):
                for end in (1, 0):
                    pos = a.box[2 * axis + end]
                    if abs(pos - b.box[2 * axis + 1 - end]) >= geom_tol:
                        continue
                    spans = [_extent(a.box, b.box, k) for k in range(a.dim) if k != axis]
                    if all(hi - lo > geom_tol for lo, hi in spans):
                        span = spans[0] if spans else None  # a 1D face is a point
                        normal = tuple(2.0 * end - 1.0 if k == axis else 0.0 for k in range(a.dim))
                        out.append(Interface(a.id, b.id, axis, pos, span, normal))
    return out


# ---------------------------------------------------------------------------
# Configuration text format
# ---------------------------------------------------------------------------

# One table per section: key as written -> (field, kind, default), in
# the order serialize_config writes them.  A missing key reads as if its
# default text were written; one with no default (None) is left to the
# field's dataclass default or to the rules in parse_config.
_MANDATORY = object()
_DOMAIN = {
    "box": ("domain_box", "box", _MANDATORY), "T": ("T", "float", _MANDATORY),
    "windows": ("windows", "int", None), "tolerance": ("tolerance", "float", None),
    "max_iterations": ("max_iterations", "int", None),
    "initial_guess": ("initial_guess", "guess", None),
    "u0": ("u0", "expr", "0.0"), "f": ("f", "expr", "0.0"),
}
_SUBDOMAIN = {
    "id": ("id", "int", _MANDATORY), "box": ("box", "box", _MANDATORY),
    "nu": ("nu", "expr", "1.0"), "bx": ("bx", "expr", "0.0"), "by": ("by", "expr", "0.0"),
    "c": ("c", "expr", "0.0"), "omega": ("omega", "expr", "1.0"),
    "nx": ("nx", "int", "1"), "ny": ("ny", "int", None), "nt": ("nt", "int", "1"),
    "degree": ("degree", "int", "1"),
}
_TRANSMISSION = {
    "from": ("from", "int", _MANDATORY), "to": ("to", "int", _MANDATORY),
    "p": ("p", "float", "0.0"), "q": ("q", "float", None),
    "r": ("r", "expr", None), "s": ("s", "float", None),
}
_SECTIONS = {"domain": _DOMAIN, "subdomain": _SUBDOMAIN, "transmission": _TRANSMISSION}


def _to_float(text):
    """float(text) for a config number.  Text that reads as inf or nan is
    returned as such, for the caller to report as non-finite; any other
    spelling outside `_SIGNED_NUMBER` (1_0, non-ASCII digits) raises
    ValueError."""
    x = float(text)
    if math.isfinite(x) and not _SIGNED_NUMBER.fullmatch(text):
        raise ValueError(f"not a config number: {text!r}")
    return x


def _read_float(key, text, line):
    try:
        x = _to_float(text)
    except ValueError:
        raise ConfigError(f"bad number for {key!r}: {text!r}", line=line) from None
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number for {key!r}: {text!r}", line=line)
    return x


def _read_int(key, text, line):
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or not _SIGNED_NUMBER.fullmatch(text):
        raise ConfigError(f"bad integer for {key!r}: {text!r}", line=line)
    return n


def _read_expr(key, text, line):
    quoted = len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'"
    try:
        return parse_expression(text[1:-1] if quoted else text)
    except ConfigError as e:
        raise ConfigError(f"in expression for {key!r}: {e}", line=line) from None


def _read_box(key, text, line):
    try:
        box = tuple(_to_float(v) for v in text.split())
    except ValueError:
        raise ConfigError("bad box coordinates", line=line) from None
    if not all(math.isfinite(v) for v in box):
        raise ConfigError(f"non-finite number for {key!r}: {text!r}", line=line)
    return box


def _read_guess(key, text, line):
    if text.lower() not in ("zero", "from_u0"):
        raise ConfigError(f"{key} must be 'zero' or 'from_u0'", line=line)
    return text.lower()


# kind -> (reader of the value text, writer of the value)
_KINDS = {
    "float": (_read_float, repr),
    "int": (_read_int, str),
    "expr": (_read_expr, lambda e: f'"{e}"'),
    "box": (_read_box, lambda box: " ".join(repr(v) for v in box)),
    "guess": (_read_guess, str),
}


def _read_section(sec):
    """The values of a section's keys by field, each read by its kind."""
    values = {}
    for key, (name, kind, default) in _SECTIONS[sec["__name__"]].items():
        text, line = sec.get(key.lower(), (default, None))
        if text is _MANDATORY:
            raise ConfigError(f"missing mandatory key {key!r} in [{sec['__name__']}]",
                              line=sec["__line__"])
        if text is not None:
            values[name] = _KINDS[kind][0](key.lower(), text, line)
    return values


def parse_config(text):
    """Parse the line-oriented configuration document into a config.

    Sections are introduced by bracketed headers [domain], [subdomain],
    [transmission]; keys use ``key = value``; ``#`` begins a comment.
    """
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("malformed section header", line=lineno)
            name = stripped[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = {"__name__": name, "__line__": lineno}
            sections.append(current)
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno, col=len(line) + 1)
        if current is None:
            raise ConfigError("key outside of any section", line=lineno)
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        if key not in {k.lower() for k in _SECTIONS[current["__name__"]]}:
            raise ConfigError(f"unknown key {key!r} in [{current['__name__']}]", line=lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        current[key] = (value.strip(), lineno)
    domains, subs, trans = ([s for s in sections if s["__name__"] == name] for name in _SECTIONS)
    if len(domains) != 1:
        raise ConfigError("exactly one [domain] section is required")
    if not subs:
        raise ConfigError("missing [subdomain] sections")
    if not trans and len(subs) > 1:
        raise ConfigError("missing [transmission] sections")

    domain = _read_section(domains[0])
    box = domain["domain_box"]
    if len(box) not in (2, 4):
        raise ConfigError("domain box needs 2 (1D) or 4 (2D) coordinates",
                          line=domains[0]["box"][1])
    dim = len(box) // 2

    subdomains = []
    for sec in subs:
        spec = _read_section(sec)
        sid = spec["id"]
        if len(spec["box"]) != len(box):
            raise ConfigError(f"subdomain {sid}: box dimension does not match domain",
                              line=sec["box"][1])
        if dim == 1 and "by" in sec:
            raise ConfigError(f"subdomain {sid}: 'by' given for a 1D problem (dimension mismatch in b)",
                              line=sec["by"][1])
        if dim == 1 and "ny" in sec:
            raise ConfigError(f"subdomain {sid}: 'ny' given for a 1D problem", line=sec["ny"][1])
        if dim == 2 and "ny" not in sec:
            raise ConfigError(f"subdomain {sid}: missing 'ny'", line=sec["__line__"])
        spec["b"] = (spec.pop("bx"), spec.pop("by"))[:dim]
        spec.setdefault("ny", None)
        subdomains.append(SubdomainSpec(**spec))
    ids = [s.id for s in subdomains]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate subdomain ids")

    transmission = {}
    for sec in trans:
        params = _read_section(sec)
        i, j = params.pop("from"), params.pop("to")
        for end in (i, j):
            if end not in ids:
                raise ConfigError(f"transmission ({i}, {j}): no subdomain {end}",
                                  line=sec["__line__"])
        if (i, j) in transmission:
            raise ConfigError(f"duplicate transmission ({i}, {j})", line=sec["__line__"])
        transmission[(i, j)] = TransmissionParams(**params)
    # mirror missing reverse directions
    for (i, j), tp in list(transmission.items()):
        transmission.setdefault((j, i), tp)

    return ExperimentConfig(subdomains=subdomains, transmission=transmission, **domain)


def _write_section(section, values):
    """A section's text: each key whose field has a value in `values`."""
    lines = [f"[{section}]"]
    for key, (name, kind, _) in _SECTIONS[section].items():
        if values.get(name) is not None:
            lines.append(f"{key} = {_KINDS[kind][1](values[name])}")
    return "\n".join(lines)


def serialize_config(cfg):
    """Canonical text form, each expression as it was written;
    parse_config(serialize_config(c)) == c."""
    parts = [_write_section("domain", vars(cfg))]
    for s in sorted(cfg.subdomains, key=lambda s: s.id):
        by, ny = (s.b[1], s.ny) if s.dim == 2 else (None, None)
        parts.append(_write_section("subdomain", {**vars(s), "bx": s.b[0], "by": by, "ny": ny}))
    for (i, j), tp in sorted(cfg.transmission.items()):
        parts.append(_write_section("transmission", {"from": i, "to": j, **vars(tp)}))
    return "\n\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str


def _grid_points(lines):
    """The (x, y) points of a tensor grid with these lines per axis
    (y = 0 in 1D)."""
    pts = [g.ravel() for g in np.meshgrid(*lines)]
    return pts[0], pts[1] if len(pts) == 2 else np.zeros_like(pts[0])


def _sample_lattice(box, n=16):
    """Cell-center lattice, strictly interior (sign conditions hold a.e.;
    boundary-touching zeros such as sqrt(y) at y=0 must not trip them)."""
    centers = (np.arange(n) + 0.5) / n
    return _grid_points([a + centers * (b - a) for a, b in zip(box[0::2], box[1::2])])


def _mesh_nodes(spec):
    """The (x, y) nodes of a subdomain's mesh, as `femspace.build_mesh`
    places them (at least one cell per direction)."""
    counts = (spec.nx, spec.ny)[: spec.dim]
    return _grid_points([np.linspace(a, b, max(n, 1) + 1)
                         for a, b, n in zip(spec.box[0::2], spec.box[1::2], counts)])


def _load_times(cfg, spec):
    """The 4-point Gauss times of every interval of a subdomain's time
    grid over all windows, where `femspace.assemble_load` evaluates f."""
    bounds = np.linspace(0.0, cfg.T, max(cfg.windows, 1) + 1)
    times = []
    for t_a, t_b in zip(bounds[:-1], bounds[1:]):
        bp = np.linspace(t_a, t_b, max(spec.nt, 1) + 1)
        times.append((bp[:-1, None] + np.diff(bp)[:, None] * GAUSS4_NODES).ravel())
    return np.concatenate(times)


def _interface_samples(itf, n=16):
    """Cell-center points along a flat interface; in 1D, the point."""
    if itf.span is None:
        return np.array([itf.position]), np.zeros(1)
    s = itf.span[0] + (np.arange(n) + 0.5) / n * (itf.span[1] - itf.span[0])
    fixed = np.full(n, itf.position)
    return (fixed, s) if itf.axis == 0 else (s, fixed)


def _box_measure(box):
    return math.prod(b - a for a, b in zip(box[0::2], box[1::2]))


def _boxes_overlap(a, b):
    return all(hi - lo > 1e-12 for lo, hi in (_extent(a, b, k) for k in range(len(a) // 2)))


def validate_problem(cfg):
    """Check hard constraints (errors) and theory hypotheses (warnings)."""
    diags = []

    def err(msg):
        diags.append(Diagnostic("error", msg))

    def warn(msg):
        diags.append(Diagnostic("warning", msg))

    if cfg.T <= 0:
        err("final time T must be positive")
    if cfg.windows < 1:
        err("window count must be >= 1")
    if cfg.tolerance <= 0:
        err("tolerance must be positive")
    if cfg.max_iterations < 1:
        err("max_iterations must be >= 1")

    degrees = {s.degree for s in cfg.subdomains}
    if len(degrees) > 1:
        err("mixed DG degrees across subdomains are unsupported")
    for d in degrees:
        if d not in (0, 1):
            err(f"unsupported DG degree {d} (only 0 and 1)")

    named = [("domain", cfg.domain_box)] + [(f"subdomain {s.id}", s.box) for s in cfg.subdomains]
    for what, box in named:
        for axis, lo, hi in zip("xy", box[0::2], box[1::2]):
            if not lo < hi:
                err(f"{what}: box extent along {axis} is not positive")
    # tiling: total measure matches and no pairwise overlap
    total = sum(_box_measure(s.box) for s in cfg.subdomains)
    if abs(total - _box_measure(cfg.domain_box)) > 1e-10 * max(1.0, _box_measure(cfg.domain_box)):
        err("subdomain boxes do not tile the global domain")
    for a in cfg.subdomains:
        for b in cfg.subdomains:
            if a.id < b.id and _boxes_overlap(a.box, b.box):
                err(f"subdomains {a.id} and {b.id} overlap")

    for s in cfg.subdomains:
        if s.nx < 1 or (s.dim == 2 and s.ny < 1) or s.nt < 1:
            err(f"subdomain {s.id}: grid counts must be >= 1")
        # Step operators are assembled once and factored per step class,
        # so the operator coefficients must not depend on t.
        operator_coeffs = [("nu", s.nu), *zip(("bx", "by"), s.b), ("c", s.c), ("omega", s.omega)]
        for name, expr in operator_coeffs:
            if expr.depends_on("t"):
                err(f"subdomain {s.id}: coefficient {name} depends on t; "
                    "only f and u0 may be time-dependent")
        # every coefficient the set-up evaluates must be finite; the sign
        # checks need the values.  A time-dependent f is sampled at every
        # time the interval loads evaluate it, and u0 at the mesh nodes it
        # is interpolated at, boundary included.
        x, y = _sample_lattice(s.box)
        points = {name: (x, y, 0.0) for name, _ in operator_coeffs}
        points["f"] = (x, y, _load_times(cfg, s)[:, None] if cfg.f.depends_on("t") else 0.0)
        points["u0"] = (*_mesh_nodes(s), 0.0)
        vals = {}
        for name, expr in (*operator_coeffs, ("f", cfg.f), ("u0", cfg.u0)):
            try:
                vals[name] = expr(*points[name])
            except EvalError as e:
                err(f"subdomain {s.id}: coefficient {name} evaluation failed: {e}")
        if "nu" in vals and np.any(vals["nu"] <= 0):
            err(f"subdomain {s.id}: diffusion nu <= 0 on the sample lattice")
        if "omega" in vals and np.any(vals["omega"] <= 0):
            err(f"subdomain {s.id}: porosity omega <= 0 on the sample lattice")
        if "c" not in vals:
            continue
        try:
            shift = vals["c"] + 0.5 * s.div_b()(x, y, 0.0)
            if np.any(shift <= 0):
                warn(
                    f"subdomain {s.id}: c + div(b)/2 <= 0 somewhere; "
                    "convergence theory is not guaranteed but the run proceeds"
                )
        except ValueError as e:
            # set-up assembles div(b) too, so such a field can never run
            err(f"subdomain {s.id}: div(b) cannot be formed: {e}")
        except EvalError as e:
            err(f"subdomain {s.id}: coefficient div(b) evaluation failed: {e}")

    interfaces = cfg.interfaces()
    if len(cfg.subdomains) > 1 and not interfaces:
        err("no interfaces found between subdomains")
    touching = {(itf.i, itf.j) for itf in interfaces} | {(itf.j, itf.i) for itf in interfaces}
    for (i, j) in sorted(set(cfg.transmission) - touching):
        err(f"transmission ({i}, {j}): subdomains {i} and {j} share no interface")
    for itf in interfaces:
        # band rule: a 2D interface is a whole face of both its subdomains
        t = 1 - itf.axis  # the axis along the interface
        for sid in (itf.i, itf.j) if itf.span else ():
            lo, hi = cfg.subdomain(sid).box[2 * t : 2 * t + 2]
            if abs(itf.span[0] - lo) > 1e-12 or abs(itf.span[1] - hi) > 1e-12:
                err(f"interface ({itf.i},{itf.j}) covers only part of a face of subdomain {sid}; "
                    "only full-face (band) decompositions are supported")
        for (i, j) in ((itf.i, itf.j), (itf.j, itf.i)):
            if (i, j) not in cfg.transmission:
                err(f"missing transmission parameters for directed interface ({i}, {j})")
        tij = cfg.transmission.get((itf.i, itf.j))
        tji = cfg.transmission.get((itf.j, itf.i))
        if tij and tji:
            if tij.p + tji.p <= 0:
                err(f"interface ({itf.i}, {itf.j}): p_ij + p_ji must be positive")
            for tp, lab in ((tij, (itf.i, itf.j)), (tji, (itf.j, itf.i))):
                if tp.q < 0:
                    err(f"interface {lab}: q must be nonnegative")
                if tp.q > 0 and tp.s <= 0:
                    err(f"interface {lab}: s must be positive when q > 0")
                if tp.r.depends_on("t"):
                    err(f"interface {lab}: coefficient r depends on t; "
                        "only f and u0 may be time-dependent")
                try:
                    tp.r(*_interface_samples(itf), 0.0)
                except EvalError as e:
                    err(f"interface {lab}: coefficient r evaluation failed: {e}")
    return diags
