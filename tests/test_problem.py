import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr.problem import (
    _FUNCTIONS,
    CoefficientExpression,
    ConfigError,
    EvalError,
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
