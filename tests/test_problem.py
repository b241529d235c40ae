import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr.cli import main
from oswr.problem import (
    _FUNCTIONS,
    CoefficientExpression,
    ConfigError,
    EvalError,
    ExperimentConfig,
    SubdomainSpec,
    TransmissionParams,
    const_expr,
    parse_config,
    parse_expression,
    serialize_config,
    validate_problem,
)

EXP1 = """
# two-subdomain heterogeneous advection-diffusion test
[domain]
box = 0 1 0 2
T = 1.0
windows = 1
tolerance = 1e-8
max_iterations = 100
initial_guess = from_u0
u0 = "0.25*exp(-100*((x-0.55)^2+(y-1.7)^2))"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.001*sqrt(y)"
bx = "0"
by = "-1"
c = "0"
nx = 16
ny = 64
nt = 128
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.1*sin(x*y)"
bx = "-0.1"
by = "0"
c = "0"
nx = 12
ny = 48
nt = 94
degree = 1

[transmission]
from = 1
to = 2
p = 0.5
q = 0.1
r = "-1"
s = 0.046

[transmission]
from = 2
to = 1
p = 0.5
q = 0.1
r = "0"
s = 0.001
"""

POROSITY = """
[domain]
box = 0 1 0 2
T = 1.5
u0 = "0.25*exp(-100*((x-0.55)^2+(y-1.7)^2))"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.003"
bx = "-sin(1.5707963267948966*(y-1))*cos(3.141592653589793*(x-0.5))"
by = "3*cos(1.5707963267948966*(y-1))*sin(3.141592653589793*(x-0.5))"
omega = "0.1"
nx = 16
ny = 64
nt = 180
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.01"
bx = "-sin(1.5707963267948966*(y-1))*cos(3.141592653589793*(x-0.5))"
by = "3*cos(1.5707963267948966*(y-1))*sin(3.141592653589793*(x-0.5))"
omega = "1"
nx = 16
ny = 64
nt = 100
degree = 1

[transmission]
from = 1
to = 2
p = 0.5
q = 0.1
r = "0"
s = 0.01

[transmission]
from = 2
to = 1
p = 0.5
q = 0.1
r = "0"
s = 0.003
"""

ZERO_WIDTH_1D = """
[domain]
box = 0 1
T = 0.1
[subdomain]
id = 1
box = 0 0.5
nx = 2
nt = 2
[subdomain]
id = 2
box = 0.5 0.5
nx = 2
nt = 2
[subdomain]
id = 3
box = 0.5 1
nx = 2
nt = 2
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

ZERO_HEIGHT_2D = """
[domain]
box = 0 1 0 1
T = 0.1
[subdomain]
id = 1
box = 0 1 0 1
nx = 2
ny = 2
nt = 2
[subdomain]
id = 2
box = 0 1 1 1
nx = 2
ny = 2
nt = 2
[transmission]
from = 1
to = 2
p = 1.0
"""


class TestExpressions:
    def test_eval_sin_product(self):
        e = parse_expression("0.1*sin(x*y)")
        assert e(0.5, 2.0, 0.0) == pytest.approx(0.1 * np.sin(1.0), abs=1e-12)
        assert e(0.5, 2.0, 0.0) == pytest.approx(0.0841470985, abs=1e-9)

    def test_eval_constant(self):
        assert parse_expression("1")(0.3, -2.0, 5.0) == 1.0

    def test_gaussian_peak(self):
        e = parse_expression("0.25*exp(-100*((x-0.55)^2+(y-1.7)^2))")
        assert e(0.55, 1.7, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_eval_is_pure(self):
        e = parse_expression("sqrt(y)*sin(x*t)+x/(1+y)")
        a = e(0.3, 0.7, 1.1)
        b = e(0.3, 0.7, 1.1)
        assert a == b  # bit identical

    def test_vectorized_broadcast(self):
        e = parse_expression("x+2*y")
        x = np.array([0.0, 1.0, 2.0])
        out = e(x, 1.0, 0.0)
        assert np.array_equal(out, x + 2.0)

    def test_sqrt_domain_error_reports_point(self):
        e = parse_expression("sqrt(y)")
        with pytest.raises(EvalError, match="sqrt of negative"):
            e(0.0, -1.0, 0.0)

    def test_division_by_zero_reports_point(self):
        e = parse_expression("1/x")
        with pytest.raises(EvalError, match="division by zero"):
            e(np.array([1.0, 0.0]), 0.0, 0.0)

    def test_syntax_error_dangling_operator(self):
        with pytest.raises(ConfigError):
            parse_expression("x +")

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            parse_expression("foo(x)")

    def test_power_precedence(self):
        e = parse_expression("-x^2")
        assert e(3.0) == -9.0

    def test_diff_divergence(self):
        e = parse_expression("x^2*y")
        assert e.diff("x")(2.0, 3.0, 0.0) == pytest.approx(12.0)
        assert e.diff("y")(2.0, 3.0, 0.0) == pytest.approx(4.0)

    def test_roundtrip_through_str(self):
        e = parse_expression("0.5*(x - y)^2/(1 + t) - sin(x)")
        e2 = parse_expression(str(e))
        pts = (0.3, 1.2, 0.8)
        assert e(*pts) == pytest.approx(e2(*pts), rel=1e-15)


class TestParseConfig:
    def test_experiment_one_parses(self):
        cfg = parse_config(EXP1)
        s1 = cfg.subdomain(1)
        assert s1.nu(0.2, 1.0, 0.0) == pytest.approx(0.001)
        assert cfg.T == 1.0
        assert cfg.transmission[(1, 2)].q == 0.1

    def test_omega_defaults_to_one(self):
        cfg = parse_config(EXP1)
        assert cfg.subdomain(1).omega(0.1, 0.1, 0.0) == 1.0

    def test_missing_domain_section(self):
        with pytest.raises(ConfigError, match="domain"):
            parse_config("[subdomain]\nid = 1\nbox = 0 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[domain]\nbox = 0 1\nT = 1\nfoo = 2\n")

    def test_missing_T(self):
        with pytest.raises(ConfigError, match="'T'"):
            parse_config("[domain]\nbox = 0 1\n[subdomain]\nid = 1\nbox = 0 1\nnx = 2\nnt = 2\n")

    def test_bad_expression_has_location(self):
        bad = EXP1.replace('"0.001*sqrt(y)"', '"0.001*sqrt(y"')
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_dimension_mismatch_in_b(self):
        text = """
[domain]
box = 0 1
T = 1
[subdomain]
id = 1
box = 0 1
bx = "1"
by = "1"
nx = 2
nt = 2
"""
        with pytest.raises(ConfigError, match="dimension mismatch"):
            parse_config(text)

    def test_serialize_parse_idempotent(self):
        for text in (EXP1, POROSITY):
            s1 = serialize_config(parse_config(text))
            s2 = serialize_config(parse_config(s1))
            assert s1 == s2

    def test_transmission_mirrored_when_one_direction_given(self):
        text = EXP1.split("[transmission]")[0] + "[transmission]\nfrom = 1\nto = 2\np = 0.7\n"
        cfg = parse_config(text)
        assert cfg.transmission[(2, 1)].p == 0.7

    def test_duplicate_transmission_rejected(self):
        text = EXP1 + "\n[transmission]\nfrom = 1\nto = 2\np = 3.0\n"
        with pytest.raises(ConfigError, match=r"duplicate transmission \(1, 2\)") as e:
            parse_config(text)
        assert e.value.line == text[:text.rindex("[transmission]")].count("\n") + 1

    def test_transmission_to_unknown_subdomain_rejected(self):
        text = EXP1.split("[transmission]")[0] + "[transmission]\nfrom = 1\nto = 9\np = 0.7\n"
        with pytest.raises(ConfigError, match=r"transmission \(1, 9\): no subdomain 9") as e:
            parse_config(text)
        assert e.value.line == text[:text.rindex("[transmission]")].count("\n") + 1

    def test_ny_in_1d_rejected(self):
        text = "[domain]\nbox = 0 1\nT = 1\n[subdomain]\nid = 1\nbox = 0 1\nnx = 2\nny = 4\nnt = 2\n"
        with pytest.raises(ConfigError, match="subdomain 1: 'ny' given for a 1D problem") as e:
            parse_config(text)
        assert e.value.line == 8

    @pytest.mark.parametrize("old,new,key", [
        ("tolerance = 1e-8", "tolerance = nan", "'tolerance': 'nan'"),
        ("box = 0 1 0 2", "box = 0 1 0 nan", "'box': '0 1 0 nan'"),
        ("box = 0.5 1 0 2", "box = 0.5 1 0 inf", "'box': '0.5 1 0 inf'"),
        ("T = 1.0", "T = inf", "'t': 'inf'"),
        ("p = 0.5", "p = nan", "'p': 'nan'"),
        ("p = 0.5", "p = -inf", "'p': '-inf'"),
        ("s = 0.046", "s = NaN", "'s': 'NaN'"),
    ], ids=["tolerance-nan", "box-nan", "subdomain-box-inf", "T-inf", "p-nan", "p-minus-inf",
            "s-nan"])
    def test_non_finite_number_rejected(self, old, new, key):
        # nan passes every comparison check and inf reaches the factorization
        text = EXP1.replace(old, new, 1)
        with pytest.raises(ConfigError, match="^non-finite number for " + re.escape(key)) as e:
            parse_config(text)
        assert e.value.line == text[:text.index(new)].count("\n") + 1

    @pytest.mark.parametrize("old,new,message", [
        ("p = 0.5", "p = 1_0", "bad number for 'p': '1_0'"),
        ("tolerance = 1e-8", "tolerance = 1e-0_8", "bad number for 'tolerance': '1e-0_8'"),
        ("p = 0.5", "p = ٠.٥", "bad number for 'p': '٠.٥'"),
        ("nx = 16", "nx = 1_6", "bad integer for 'nx': '1_6'"),
        ("nx = 16", "nx = ١٦", "bad integer for 'nx': '١٦'"),
        ("box = 0 1 0 2", "box = 0 1 0 2_0", "bad box coordinates"),
        ("box = 0.5 1 0 2", "box = 0.5 １ 0 2", "bad box coordinates"),
    ], ids=["float-underscore", "exponent-underscore", "float-arabic-indic", "int-underscore",
            "int-arabic-indic", "box-underscore", "box-fullwidth"])
    def test_python_only_number_spellings_rejected(self, old, new, message):
        # float() and int() read each of these; the config grammar does not
        text = EXP1.replace(old, new, 1)
        with pytest.raises(ConfigError, match="^" + re.escape(message)) as e:
            parse_config(text)
        assert e.value.line == text[:text.index(new)].count("\n") + 1


_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "t"]),
    st.integers(0, 100).map(str),
    st.floats(0.0, 1e6, allow_nan=False).map(repr),
)
EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda a: f"({a[0]}){a[1]}({a[2]})"),
        inner.map(lambda a: f"-({a})"),
        st.tuples(st.sampled_from(["sin", "cos", "sqrt", "exp", "abs"]), inner)
        .map(lambda a: f"{a[0]}({a[1]})"),
    ),
    max_leaves=8,
)
_NUMBERS = st.floats(1e-6, 1e6, allow_nan=False)


@st.composite
def config_texts(draw):
    """Two subdomains in 1D or 2D with random expressions and numbers."""
    dim = draw(st.sampled_from([1, 2]))
    ybox = " 0 2" if dim == 2 else ""
    lines = [
        "[domain]", f"box = 0 1{ybox}", f"T = {draw(_NUMBERS)!r}",
        f"windows = {draw(st.integers(1, 4))}", f"tolerance = {draw(_NUMBERS)!r}",
        f"max_iterations = {draw(st.integers(1, 500))}",
        f"initial_guess = {draw(st.sampled_from(['from_u0', 'zero']))}",
        f'u0 = "{draw(EXPRESSIONS)}"', f'f = "{draw(EXPRESSIONS)}"',
    ]
    for sid, x0, x1 in ((1, "0", "0.5"), (2, "0.5", "1")):
        lines += ["", "[subdomain]", f"id = {sid}", f"box = {x0} {x1}{ybox}"]
        keys = ["nu", "bx", "c", "omega"] + (["by"] if dim == 2 else [])
        lines += [f'{key} = "{draw(EXPRESSIONS)}"' for key in keys]
        lines += [f"nx = {draw(st.integers(1, 64))}", f"nt = {draw(st.integers(1, 64))}",
                  f"degree = {draw(st.sampled_from([0, 1]))}"]
        if dim == 2:
            lines.append(f"ny = {draw(st.integers(1, 64))}")
    for i, j in ((1, 2), (2, 1)):
        lines += ["", "[transmission]", f"from = {i}", f"to = {j}",
                  f"p = {draw(_NUMBERS)!r}", f"q = {draw(_NUMBERS)!r}",
                  f'r = "{draw(EXPRESSIONS)}"', f"s = {draw(_NUMBERS)!r}"]
    return "\n".join(lines) + "\n"


def _plain(obj):
    """A config as nested plain values, expressions by their syntax tree."""
    if isinstance(obj, CoefficientExpression):
        return obj.ast
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


class TestSerializeRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(text=config_texts())
    def test_parse_of_serialize_is_identity(self, text):
        cfg = parse_config(text)
        out = serialize_config(cfg)
        again = parse_config(out)
        assert _plain(again) == _plain(cfg)
        assert serialize_config(again) == out


class TestValidation:
    def test_both_experiment_configs_accepted(self):
        for text in (EXP1, POROSITY):
            diags = validate_problem(parse_config(text))
            assert not [d for d in diags if d.severity == "error"]

    def test_reaction_shift_warning_only(self):
        diags = validate_problem(parse_config(EXP1))
        warns = [d for d in diags if d.severity == "warning"]
        assert any("c + div(b)/2" in d.message for d in warns)

    def test_advection_without_divergence_rejected(self, tmp_path, capsys):
        # set-up assembles div(b), so a field it cannot differentiate never runs
        text = EXP1.replace('bx = "-0.1"', 'bx = "-0.1*x^x"')
        message = ("subdomain 2: div(b) cannot be formed: "
                   "differentiation of non-constant exponents is unsupported")
        diags = validate_problem(parse_config(text))
        assert [d.message for d in diags if d.severity == "error"] == [message]
        path, out = tmp_path / "b.cfg", tmp_path / "out"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "error: validation failed" in err
        assert not out.exists()

    def test_zero_p_sum_is_hard_error(self):
        text = EXP1.replace("p = 0.5", "p = 0.0")
        diags = validate_problem(parse_config(text))
        assert any("p_ij + p_ji" in d.message for d in diags if d.severity == "error")

    def test_overlapping_boxes_rejected(self):
        text = EXP1.replace("box = 0.5 1 0 2", "box = 0.4 1 0 2")
        diags = validate_problem(parse_config(text))
        assert any("overlap" in d.message or "tile" in d.message
                   for d in diags if d.severity == "error")

    def test_gap_rejected(self):
        text = EXP1.replace("box = 0.5 1 0 2", "box = 0.6 1 0 2")
        diags = validate_problem(parse_config(text))
        assert any(d.severity == "error" for d in diags)

    def test_negative_s_with_q_rejected(self):
        text = EXP1.replace("s = 0.046", "s = -1.0")
        diags = validate_problem(parse_config(text))
        assert any("s must be positive" in d.message for d in diags if d.severity == "error")

    def test_mixed_degrees_rejected(self):
        text = EXP1.replace("degree = 1\n\n[transmission]", "degree = 0\n\n[transmission]", 1)
        # only the second subdomain flips; first stays degree 1
        cfg = parse_config(text)
        degs = {s.degree for s in cfg.subdomains}
        if len(degs) > 1:
            diags = validate_problem(cfg)
            assert any("mixed" in d.message.lower() for d in diags if d.severity == "error")

    @pytest.mark.parametrize("budget", [0, -3])
    def test_iteration_budget_below_one_rejected(self, budget):
        text = EXP1.replace("max_iterations = 100", f"max_iterations = {budget}")
        diags = validate_problem(parse_config(text))
        assert any("max_iterations must be >= 1" in d.message
                   for d in diags if d.severity == "error")

    @pytest.mark.parametrize("old,new,where", [
        ('nu = "0.001*sqrt(y)"', 'nu = "0.001*sqrt(y)*(1+100*t)"', "subdomain 1: coefficient nu"),
        ('bx = "-0.1"', 'bx = "-0.1*t"', "subdomain 2: coefficient bx"),
        ('by = "-1"', 'by = "-1-t"', "subdomain 1: coefficient by"),
        ('c = "0"', 'c = "sin(t)"', "subdomain 1: coefficient c"),
        ('c = "0"', 'c = "0"\nomega = "1+t"', "subdomain 1: coefficient omega"),
        ('r = "-1"', 'r = "-1+t"', "interface (1, 2): coefficient r"),
    ])
    def test_time_dependent_operator_coefficient_rejected(self, old, new, where):
        diags = validate_problem(parse_config(EXP1.replace(old, new, 1)))
        errors = [d.message for d in diags if d.severity == "error"]
        assert any(m.startswith(where) and "depends on t" in m for m in errors), errors

    def test_time_dependent_data_accepted(self):
        text = EXP1.replace('f = "0"', 'f = "x*t"').replace(
            'u0 = "0.25*', 'u0 = "(1+t)*0.25*')
        diags = validate_problem(parse_config(text))
        assert not [d for d in diags if d.severity == "error"]

    @pytest.mark.parametrize("text,message", [(ZERO_WIDTH_1D, "subdomain 2: box extent along x"),
                                              (ZERO_HEIGHT_2D, "subdomain 2: box extent along y")],
                             ids=["1d-zero-width", "2d-zero-height"])
    def test_zero_extent_box_run_exits_2_and_writes_nothing(self, text, message, tmp_path, capsys):
        # the layout tiles the domain by measure and overlaps nowhere
        diags = validate_problem(parse_config(text))
        assert [d.message for d in diags if d.severity == "error"] == [f"{message} is not positive"]
        path = tmp_path / "flat.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"error: {message} is not positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The hand-written tokenizer and recursive-descent parser that read the
# expression language before it moved onto Python's ast, kept verbatim as
# the reference the ast reading must agree with.
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "t")


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ConfigError(msg, col=self.pos + 1)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_token(self):
        ch = self.peek()
        if ch is None:
            return None
        start = self.pos
        if ch in "+-*/^()":
            self.pos += 1
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            j = self.pos
            seen_e = False
            while j < len(self.text):
                c = self.text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < len(self.text) and (
                    self.text[j + 1].isdigit() or self.text[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if self.text[j + 1] in "+-" else 1
                else:
                    break
            tok = self.text[self.pos : j]
            try:
                val = float(tok)
            except ValueError:
                self.error(f"bad number {tok!r}")
            self.pos = j
            return ("num", val, start)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            name = self.text[self.pos : j]
            self.pos = j
            return ("name", name, start)
        self.error(f"unexpected character {ch!r}")


class _Parser:
    """Recursive descent; ^ binds tightest (right assoc.), then unary -,
    then * /, then + -."""

    def __init__(self, text):
        self.tz = _Tokenizer(text)
        self.tok = self.tz.next_token()

    def advance(self):
        self.tok = self.tz.next_token()

    def expect_op(self, op):
        if self.tok is None or self.tok[0] != "op" or self.tok[1] != op:
            self.error(f"expected {op!r}")
        self.advance()

    def error(self, msg):
        col = self.tok[2] + 1 if self.tok is not None else self.tz.pos + 1
        raise ConfigError(msg, col=col)

    def parse(self):
        node = self.expr()
        if self.tok is not None:
            self.error(f"trailing input at {self.tok[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.tok is not None and self.tok[0] == "op" and self.tok[1] in "+-":
            op = self.tok[1]
            self.advance()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.tok is not None and self.tok[0] == "op" and self.tok[1] in "*/":
            op = self.tok[1]
            self.advance()
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.tok is not None and self.tok[0] == "op" and self.tok[1] == "-":
            self.advance()
            return ("neg", self.factor())
        if self.tok is not None and self.tok[0] == "op" and self.tok[1] == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.tok is not None and self.tok[0] == "op" and self.tok[1] == "^":
            self.advance()
            expo = self.factor()  # right associative, allows 2^-x
            return ("pow", base, expo)
        return base

    def atom(self):
        tok = self.tok
        if tok is None:
            self.error("unexpected end of expression")
        kind, val, _ = tok
        if kind == "num":
            self.advance()
            return ("num", val)
        if kind == "name":
            self.advance()
            if val in _VARS:
                return ("var", val)
            if val in ("pi",):
                return ("num", math.pi)
            if val in _FUNCTIONS and val != "sign":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            self.error(f"unknown name {val!r}")
        if kind == "op" and val == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.error(f"unexpected token {val!r}")


_SIGNS = st.sampled_from(["", "-", "+", "--", "-+"])
_GAPS = st.sampled_from(["", " "])


def _chains(operand):
    """Unparenthesised chains of + - * / ^ between signed operands."""
    term = st.tuples(_SIGNS, operand).map("".join)
    link = st.tuples(_GAPS, st.sampled_from("+-*/^"), _GAPS, term).map("".join)
    return st.tuples(term, st.lists(link, max_size=5)).map(lambda a: a[0] + "".join(a[1]))


CHAINS = st.recursive(
    st.one_of(_LEAVES, st.just("pi")),
    lambda inner: st.one_of(
        _chains(inner),
        _chains(inner).map(lambda a: f"({a})"),
        st.tuples(st.sampled_from(["sin", "cos", "sqrt", "exp", "abs"]), _chains(inner))
        .map(lambda a: f"{a[0]}({a[1]})"),
    ),
    max_leaves=12,
)
_REPO = pathlib.Path(__file__).resolve().parents[1]


def _written_expressions():
    """Every expression the repository writes for a config key or passes
    to parse_expression as a literal."""
    pattern = re.compile(r'\b(?:u0|f|nu|bx|by|c|omega|r) = "([^"]*)"|parse_expression\("([^"]*)"\)')
    found = set()
    for folder in ("tests", "demos", "bench", "src"):
        for path in sorted((_REPO / folder).rglob("*")):
            if path.suffix in (".py", ".cfg"):
                found |= {a or b for a, b in pattern.findall(path.read_text())}
    return sorted(found)


class TestReferenceParser:
    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(EXPRESSIONS, st.tuples(_GAPS, CHAINS, _GAPS).map("".join)))
    def test_trees_match_reference(self, text):
        assert parse_expression(text).ast == _Parser(text).parse()

    @pytest.mark.parametrize("text", [
        "-2^2", "2^3^2", "2^-x", "--x", "+x", "-x*y", "x/y*t", "-x^-2", " x ", ".5E+2*x",
        "x^-y^2*t", "1.e5-5.", "sin((x))", "2^ 3 ^-+t",
    ])
    def test_edge_cases_match_reference(self, text):
        assert parse_expression(text).ast == _Parser(text).parse()

    def test_repository_expressions_match_reference(self):
        # what the reference rejects (such as "x +" or an f-string's
        # "{cfg.f}") must be rejected too
        def tree(parse, text):
            try:
                return parse(text)
            except ConfigError:
                return None

        trees = {t: tree(lambda s: _Parser(s).parse(), t) for t in _written_expressions()}
        assert sum(t is not None for t in trees.values()) > 40
        for text, reference in trees.items():
            assert tree(lambda s: parse_expression(s).ast, text) == reference, text

    @pytest.mark.parametrize("trap,where", [
        ("x**2", "**"), ("1_0", "1_0"), ("0x1", "0x1"), ("0o7", "0o7"), ("0b1", "0b1"),
        ("True", "True"), ("None", "None"), ("1j", "1j"), ("...", "..."), ("'a'", "'a'"),
        ("sign(x)", "sign"), ("pi(x)", "pi"), ("sin(x, y)", "sin"), ("sin(x,)", "sin"),
        ("sin(x=1)", "sin"), ("sin(*x)", "*x"), ("2^x.real", "x.real"), ("x[1]", "x[1]"),
        ("x<y", "x<y"), ("x^2%2", "x^2%2"), ("x//2", "x//2"), ("~x", "~x"), ("not x", "not"),
        ("x if y else t", "x if"), ("foo", "foo"), ("x # y", "#"), ("01", "01"),
    ])
    @pytest.mark.parametrize("before", ["", "  y^2 + ("])
    def test_python_only_syntax_rejected_at_its_column(self, trap, where, before):
        text = before + trap + (")" if before else "")
        with pytest.raises(ConfigError) as e:
            parse_expression(text)
        assert 1 <= e.value.col <= len(text)
        assert text[e.value.col - 1 :].startswith(where), (e.value, text)


# ---------------------------------------------------------------------------
# The parse_config and serialize_config that read and wrote each key by
# its own call, before the format became one key table per section, kept
# as the reference the table-driven ones must agree with.  The only edit:
# a missing 'id', 'from' or 'to' is reported as any missing mandatory key.
# ---------------------------------------------------------------------------

_ORACLE_DOMAIN_KEYS = {
    "box", "t", "windows", "tolerance", "max_iterations", "initial_guess", "u0", "f",
}
_ORACLE_SUBDOMAIN_KEYS = {"id", "box", "nu", "bx", "by", "c", "omega", "nx", "ny", "nt", "degree"}
_ORACLE_TRANSMISSION_KEYS = {"from", "to", "p", "q", "r", "s"}


def _strip_quotes(v):
    v = v.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "\"'":
        return v[1:-1]
    return v


def oracle_parse_config(text):
    """Parse the line-oriented configuration document into a config.

    Sections are introduced by bracketed headers [domain], [subdomain],
    [transmission]; keys use ``key = value``; ``#`` begins a comment.
    """
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("malformed section header", line=lineno)
            name = stripped[1:-1].strip().lower()
            if name not in ("domain", "subdomain", "transmission"):
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
        allowed = {
            "domain": _ORACLE_DOMAIN_KEYS,
            "subdomain": _ORACLE_SUBDOMAIN_KEYS,
            "transmission": _ORACLE_TRANSMISSION_KEYS,
        }[current["__name__"]]
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{current['__name__']}]", line=lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        current[key] = (value.strip(), lineno)
    domains = [s for s in sections if s["__name__"] == "domain"]
    subs = [s for s in sections if s["__name__"] == "subdomain"]
    trans = [s for s in sections if s["__name__"] == "transmission"]
    if len(domains) != 1:
        raise ConfigError("exactly one [domain] section is required")
    if not subs:
        raise ConfigError("missing [subdomain] sections")
    if not trans and len(subs) > 1:
        raise ConfigError("missing [transmission] sections")
    dom = domains[0]

    def need(sec, key, what):
        if key not in sec:
            raise ConfigError(f"missing mandatory key {key!r} in [{what}]", line=sec["__line__"])
        return sec[key]

    def as_float(sec, key, default=None):
        if key not in sec:
            return default
        v, ln = sec[key]
        try:
            x = float(v)
        except ValueError:
            raise ConfigError(f"bad number for {key!r}: {v!r}", line=ln) from None
        if not math.isfinite(x):
            raise ConfigError(f"non-finite number for {key!r}: {v!r}", line=ln)
        return x

    def as_int(sec, key, default=None):
        if key not in sec:
            return default
        v, ln = sec[key]
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"bad integer for {key!r}: {v!r}", line=ln) from None

    def as_expr(sec, key, default=None):
        if key not in sec:
            return const_expr(default) if default is not None else None
        v, ln = sec[key]
        try:
            return parse_expression(_strip_quotes(v))
        except ConfigError as e:
            raise ConfigError(f"in expression for {key!r}: {e}", line=ln) from None

    def as_box(sec, what):
        text, ln = need(sec, "box", what)
        try:
            box = tuple(float(v) for v in text.split())
        except ValueError:
            raise ConfigError("bad box coordinates", line=ln) from None
        if not all(math.isfinite(v) for v in box):
            raise ConfigError(f"non-finite number for 'box': {text!r}", line=ln)
        return box, ln

    box, box_line = as_box(dom, "domain")
    if len(box) not in (2, 4):
        raise ConfigError("domain box needs 2 (1D) or 4 (2D) coordinates", line=box_line)
    dim = 1 if len(box) == 2 else 2

    T = as_float(dom, "t")
    if T is None:
        raise ConfigError("missing mandatory key 'T' in [domain]", line=dom["__line__"])

    guess = dom.get("initial_guess", ("from_u0", dom["__line__"]))
    guess_val = guess[0].strip().lower()
    if guess_val not in ("zero", "from_u0"):
        raise ConfigError("initial_guess must be 'zero' or 'from_u0'", line=guess[1])

    subdomains = []
    for sec in subs:
        sid = as_int(sec, "id")
        if sid is None:
            raise ConfigError("missing mandatory key 'id' in [subdomain]", line=sec["__line__"])
        sbox, sbox_line = as_box(sec, "subdomain")
        if len(sbox) != len(box):
            raise ConfigError(
                f"subdomain {sid}: box dimension does not match domain", line=sbox_line
            )
        bx = as_expr(sec, "bx", 0.0)
        by = as_expr(sec, "by", None)
        if dim == 1 and by is not None:
            raise ConfigError(f"subdomain {sid}: 'by' given for a 1D problem (dimension mismatch in b)",
                              line=sec["by"][1])
        if dim == 2 and by is None:
            by = const_expr(0.0)
        b = (bx,) if dim == 1 else (bx, by)
        ny = as_int(sec, "ny", None)
        if dim == 1 and ny is not None:
            raise ConfigError(f"subdomain {sid}: 'ny' given for a 1D problem", line=sec["ny"][1])
        if dim == 2 and ny is None:
            raise ConfigError(f"subdomain {sid}: missing 'ny'", line=sec["__line__"])
        subdomains.append(
            SubdomainSpec(
                id=sid,
                box=sbox,
                nu=as_expr(sec, "nu", 1.0),
                b=b,
                c=as_expr(sec, "c", 0.0),
                omega=as_expr(sec, "omega", 1.0),
                nx=as_int(sec, "nx", 1),
                ny=ny,
                nt=as_int(sec, "nt", 1),
                degree=as_int(sec, "degree", 1),
            )
        )
    ids = [s.id for s in subdomains]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate subdomain ids")

    transmission = {}
    for sec in trans:
        i = as_int(sec, "from")
        j = as_int(sec, "to")
        if i is None or j is None:
            raise ConfigError(f"missing mandatory key {'from' if i is None else 'to'!r} "
                              "in [transmission]", line=sec["__line__"])
        for end in (i, j):
            if end not in ids:
                raise ConfigError(f"transmission ({i}, {j}): no subdomain {end}",
                                  line=sec["__line__"])
        if (i, j) in transmission:
            raise ConfigError(f"duplicate transmission ({i}, {j})", line=sec["__line__"])
        tp = TransmissionParams(
            p=as_float(sec, "p", 0.0),
            q=as_float(sec, "q", 0.0),
            r=as_expr(sec, "r", 0.0),
            s=as_float(sec, "s", 1.0),
        )
        transmission[(i, j)] = tp
    # mirror missing reverse directions
    for (i, j), tp in list(transmission.items()):
        transmission.setdefault((j, i), tp)

    return ExperimentConfig(
        domain_box=box,
        T=T,
        subdomains=subdomains,
        transmission=transmission,
        u0=as_expr(dom, "u0", 0.0),
        f=as_expr(dom, "f", 0.0),
        windows=as_int(dom, "windows", 1),
        tolerance=as_float(dom, "tolerance", 1e-8),
        max_iterations=as_int(dom, "max_iterations", 100),
        initial_guess=guess_val,
    )


def oracle_serialize_config(cfg):
    """Canonical text form, each expression as it was written;
    parse_config(serialize_config(c)) == c."""
    out = []
    out.append("[domain]")
    out.append("box = " + " ".join(repr(v) for v in cfg.domain_box))
    out.append(f"T = {cfg.T!r}")
    out.append(f"windows = {cfg.windows}")
    out.append(f"tolerance = {cfg.tolerance!r}")
    out.append(f"max_iterations = {cfg.max_iterations}")
    out.append(f"initial_guess = {cfg.initial_guess}")
    out.append(f'u0 = "{cfg.u0}"')
    out.append(f'f = "{cfg.f}"')
    for s in sorted(cfg.subdomains, key=lambda s: s.id):
        out.append("")
        out.append("[subdomain]")
        out.append(f"id = {s.id}")
        out.append("box = " + " ".join(repr(v) for v in s.box))
        out.append(f'nu = "{s.nu}"')
        out.append(f'bx = "{s.b[0]}"')
        if s.dim == 2:
            out.append(f'by = "{s.b[1]}"')
        out.append(f'c = "{s.c}"')
        out.append(f'omega = "{s.omega}"')
        out.append(f"nx = {s.nx}")
        if s.dim == 2:
            out.append(f"ny = {s.ny}")
        out.append(f"nt = {s.nt}")
        out.append(f"degree = {s.degree}")
    for (i, j) in sorted(cfg.transmission):
        tp = cfg.transmission[(i, j)]
        out.append("")
        out.append("[transmission]")
        out.append(f"from = {i}")
        out.append(f"to = {j}")
        out.append(f"p = {tp.p!r}")
        out.append(f"q = {tp.q!r}")
        out.append(f'r = "{tp.r}"')
        out.append(f"s = {tp.s!r}")
    return "\n".join(out) + "\n"


FULL_1D = """
[domain]
box = 0 1
T = 0.5
windows = 2
tolerance = 1e-9
max_iterations = 40
initial_guess = zero
u0 = "sin(pi*x)"
f = "x*t"

[subdomain]
id = 1
box = 0 0.5
nu = "0.1+x"
bx = "0.5"
c = "1"
omega = "2"
nx = 4
nt = 3
degree = 0

[subdomain]
id = 2
box = 0.5 1
nu = "0.2"
bx = "-x"
c = "0.5"
omega = "0.5"
nx = 5
nt = 6
degree = 0

[transmission]
from = 1
to = 2
p = 0.7
q = 0.1
r = "0.3"
s = 0.2

[transmission]
from = 2
to = 1
p = 0.4
q = 0.0
r = "-1"
s = 2.0
"""

# text that is a bad number, integer, expression, box or guess for every key
_BAD_VALUES = ["abc", "nan", "-inf", "1.5", "1e999", '"x +"', "0 1 x", ""]


def _mutants(text):
    """Every single-fault mutant of a config text that states each key:
    a key dropped, duplicated or given a bad value; an unknown key; by
    or ny in every subdomain; a transmission to an unknown subdomain; and
    a duplicate transmission."""
    lines = text.splitlines()
    out = []
    for k, line in enumerate(lines):
        if "=" in line:
            key = line.split("=")[0]
            out.append(lines[:k] + lines[k + 1 :])
            out.append(lines[: k + 1] + lines[k:])
            out += [lines[:k] + [f"{key}= {v}"] + lines[k + 1 :] for v in _BAD_VALUES]
            if key.strip() in ("from", "to"):
                out.append(lines[:k] + [f"{key}= 9"] + lines[k + 1 :])
        elif line.startswith("["):
            inserts = ["foo = 1"] + (['by = "1"', "ny = 4"] if line == "[subdomain]" else [])
            out += [lines[: k + 1] + [extra] + lines[k + 1 :] for extra in inserts]
    first = lines.index("[transmission]")
    out.append(lines + lines[first : first + 7])
    return ["\n".join(m) + "\n" for m in out]


def _outcome(parse, serialize, text):
    try:
        cfg = parse(text)
    except ConfigError as e:
        return str(e), e.line, e.col
    return _plain(cfg), serialize(cfg)


def _agrees_with_oracle(text):
    assert _outcome(parse_config, serialize_config, text) == _outcome(
        oracle_parse_config, oracle_serialize_config, text), text


class TestConfigOracle:
    @pytest.mark.parametrize("text", [FULL_1D, EXP1], ids=["1d", "2d"])
    def test_every_single_fault_matches_the_oracle(self, text):
        mutants = _mutants(text)
        assert len(mutants) > 300
        for mutant in mutants:
            _agrees_with_oracle(mutant)

    def test_repository_configs_match_the_oracle(self):
        texts = [path.read_text() for path in sorted((_REPO / "demos").glob("*.cfg"))]
        for text in texts + [EXP1, POROSITY, FULL_1D]:
            _agrees_with_oracle(text)

    @settings(max_examples=100, deadline=None)
    @given(text=config_texts(), data=st.data())
    def test_drawn_configs_and_their_faults_match_the_oracle(self, text, data):
        _agrees_with_oracle(text)
        _agrees_with_oracle(data.draw(st.sampled_from(_mutants(text))))

    @pytest.mark.parametrize("key,section", [
        ("id", "subdomain"), ("from", "transmission"), ("to", "transmission"),
    ])
    def test_missing_mandatory_key_names_it(self, key, section):
        text = FULL_1D.replace(f"\n{key} = ", f"\n# {key} = ", 1)
        with pytest.raises(ConfigError, match=f"^missing mandatory key '{key}' in \\[{section}\\]") as e:
            parse_config(text)
        header = text[: text.index(f"# {key} = ")].rindex(f"[{section}]")
        assert e.value.line == text[:header].count("\n") + 1
