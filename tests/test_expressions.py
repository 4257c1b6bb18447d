import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import walkergeo.expressions as ex
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.errors import (
    EvaluationError,
    ExponentError,
    ParseError,
    UnboundIdentifierError,
)
from walkergeo.expressions import (
    MAX_DEPTH,
    ONE,
    X,
    add,
    depth,
    diff,
    evaluate_with_scale,
    gradient,
    mul,
    parse,
    to_source,
    variables,
)
from walkergeo.jets import eval_jet

RNG = np.random.default_rng(20260815)


def random_pts(n, lo=0.3, hi=2.0):
    return lo + (hi - lo) * RNG.random((n, 3))


# source, equivalent plain-python callable
CASES = [
    ("x", lambda x, y, z: x),
    ("x + y*z", lambda x, y, z: x + y * z),
    ("x^2/y^2", lambda x, y, z: x ** 2 / y ** 2),
    ("2*x + z", lambda x, y, z: 2 * x + z),
    ("-x^2", lambda x, y, z: -(x ** 2)),
    ("x^-2", lambda x, y, z: x ** -2.0),
    ("(1 - z)/2", lambda x, y, z: (1 - z) / 2),
    ("exp(z - 2*y)", lambda x, y, z: np.exp(z - 2 * y)),
    ("1/sqrt(x/z)", lambda x, y, z: 1 / np.sqrt(x / z)),
    ("sqrt(x)^3", lambda x, y, z: np.sqrt(x) ** 3),
    ("2 - 3 - 4", lambda x, y, z: -5.0),
    ("2/3/4", lambda x, y, z: 2 / 3 / 4),
    ("x*(y + (z - x)^3)", lambda x, y, z: x * (y + (z - x) ** 3)),
]


@pytest.mark.parametrize("source,fn", CASES, ids=[c[0] for c in CASES])
def test_evaluation_matches_python(source, fn):
    e = parse(source)
    pts = random_pts(40)
    values, scales = evaluate_with_scale(e, pts)
    expected = fn(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.allclose(values, expected, rtol=1e-14, atol=1e-14)
    # the scale is a magnitude bound used by relative zero tests
    assert np.all(scales >= np.abs(values) - 1e-14)


@pytest.mark.parametrize("source,fn", CASES, ids=[c[0] for c in CASES])
def test_source_round_trip(source, fn):
    e = parse(source)
    again = parse(to_source(e))
    pts = random_pts(10)
    v1, _ = evaluate_with_scale(e, pts)
    v2, _ = evaluate_with_scale(again, pts)
    assert np.array_equal(v1, v2)


# a negated right operand of + or - prints in parentheses: "x - -y" and
# "x + -y" are not in the grammar
NEGATED_RIGHT = {
    "1/(2*x)-(-y)": "1 / (2 * x) - (-y)",
    "x + (-y)": "x + (-y)",
    "x - (-(y*z))": "x - (-y * z)",
    "x - (-y) + (-(-z))": "x - (-y) + (-(-z))",
}


@pytest.mark.parametrize("source,text", NEGATED_RIGHT.items(),
                         ids=NEGATED_RIGHT.keys())
def test_negated_right_operand_round_trips(source, text):
    e = parse(source)
    assert to_source(e) == text
    assert parse(text) == e


def test_derivative_with_negated_right_operand_round_trips():
    partial = diff(parse("x*y + (2 - x*z)"), "x")   # y + (-z)
    text = to_source(partial)
    assert text == "y + (-z)"
    assert parse(text) == partial


def test_single_point_evaluation():
    # the evaluator takes batches only: a point is its batch of one
    e, point = parse("x*y + z"), np.array([2.0, 3.0, 1.0])
    with pytest.raises(ValueError, match="batch"):
        evaluate_with_scale(e, point)
    (value,), (scale,) = evaluate_with_scale(e, point[None])
    assert value == 7.0
    assert scale >= 7.0


def test_constants_bind_exact_rationals():
    e = parse("C*x + C1", constants={"C": 2, "C1": -1})
    v, _ = evaluate_with_scale(e, np.array([[3.0, 0.0, 0.0]]))
    assert v[0] == 5.0
    assert variables(e) == frozenset({"x"})


def test_unbound_identifier():
    with pytest.raises(UnboundIdentifierError):
        parse("x + w")
    with pytest.raises(UnboundIdentifierError):
        parse("C*x")  # no constants mapping given


def test_fractional_exponent_rejected():
    with pytest.raises(ExponentError):
        parse("x^(1/2)")
    with pytest.raises(ExponentError):
        parse("x^y")


@pytest.mark.parametrize("source", ["x +", "x*-y", "(x", "x ^^ 2", "", "1..2"])
def test_parse_errors_carry_position(source):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.source == source
    assert 0 <= info.value.position <= len(source)


@pytest.mark.parametrize("source, position", [
    ("x^²", 2), ("2²", 1), ("x^¹", 2), ("1.²", 0)])
def test_a_digit_int_cannot_read_is_a_parse_error(source, position):
    # str.isdigit holds for superscripts, which int() refuses
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.position == position


def test_decimal_digits_of_any_script_parse():
    assert parse("x^\u0662") is parse("x^2")
    assert parse("\u0661\u0660*x") is parse("10*x")
    assert parse("\u0663.\u0665").value == Fraction(7, 2)   # Arabic-Indic 3.5


def test_division_by_zero_raises():
    with pytest.raises(EvaluationError):
        evaluate_with_scale(parse("1/x"), np.array([[0.0, 1.0, 1.0]]))


def test_sqrt_of_nonpositive_raises():
    with pytest.raises(EvaluationError):
        evaluate_with_scale(parse("sqrt(x - 2)"), np.array([[1.0, 1.0, 1.0]]))


def test_evaluation_error_carries_point():
    pts = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
    with pytest.raises(EvaluationError) as info:
        evaluate_with_scale(parse("x/y"), pts)
    assert tuple(info.value.point) == (2.0, 0.0, 1.0)


DIFF_CASES = ["x^2*y", "x^2/y^2", "exp(z - 2*y)", "1/sqrt(x/z)",
              "x*(y + (z - x)^3)", "sqrt(x)^3"]


@pytest.mark.parametrize("source", DIFF_CASES)
@pytest.mark.parametrize("var,axis", [("x", 0), ("y", 1), ("z", 2)])
def test_diff_matches_finite_differences(source, var, axis):
    from geometry_oracles import expr_fn, fd_partial

    e = parse(source)
    de = diff(e, var)
    for p in random_pts(8):
        exact = evaluate_with_scale(de, p[None])[0][0]
        approx = fd_partial(expr_fn(e), p, axis)
        assert abs(exact - approx) <= 1e-6 * (1 + abs(exact))


def test_gradient_matches_diff():
    e = parse("x^2*y + exp(z)")
    gx, gy, gz = gradient(e)
    pts = random_pts(5)
    for g, var in ((gx, "x"), (gy, "y"), (gz, "z")):
        v1, _ = evaluate_with_scale(g, pts)
        v2, _ = evaluate_with_scale(diff(e, var), pts)
        assert np.array_equal(v1, v2)


def test_diff_of_constant_is_zero():
    e = parse("C", constants={"C": 7})
    assert to_source(diff(e, "x")) == "0"
    assert variables(e) == frozenset()


def test_operator_overloads_build_same_tree():
    x = parse("x")
    y = parse("y")
    built = x ** 2 / y ** 2
    v1, _ = evaluate_with_scale(built, np.array([[3.0, 2.0, 0.0]]))
    assert v1[0] == 2.25


AT_LIMIT = {
    "chain": "/".join(["x"] * MAX_DEPTH),
    "nest": "sqrt(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
}


@pytest.mark.parametrize("source", AT_LIMIT.values(), ids=AT_LIMIT.keys())
def test_tree_at_the_depth_limit_gets_through_jets_and_diff(source):
    e = parse(source)
    assert depth(e) == MAX_DEPTH
    p = np.array([[1.1, 0.9, 1.3]])
    jet = eval_jet(e, p, order=3)
    partial = diff(e, "x")
    assert to_source(partial)
    want = evaluate_with_scale(partial, p)[0][0]
    assert abs(jet.derivative((1, 0, 0))[0] - want) <= 1e-9 * (1 + abs(want))


@pytest.mark.parametrize("source", [
    "/".join(["x"] * (MAX_DEPTH + 1)),
    "sqrt(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
    "+".join(["x"] * 3000),
], ids=["chain", "nest", "parentheses", "long-sum"])
def test_tree_past_the_depth_limit_is_a_parse_error(source):
    with pytest.raises(ParseError, match="nests deeper"):
        parse(source)


@pytest.mark.parametrize("source", ["1" + "0" * 400, "x^" + "9" * 400],
                         ids=["literal", "exponent"])
def test_number_beyond_float_range_is_a_parse_error(source):
    with pytest.raises(ParseError, match="number too large for a float"):
        parse(source)


@pytest.mark.parametrize("value,digits", [
    (10**400, 401), (-10**400, 401), (Fraction(10**400, 3), 400),
    (10**5000, 5001), (-10**5000, 5001), (Fraction(10**5000, 3), 5000),
], ids=["int", "negative", "fraction",
        "int-5000", "negative-5000", "fraction-5000"])
def test_a_coerced_number_beyond_float_range_is_refused(value, digits):
    # the message counts the digits of the integer part: str() refuses an
    # int of more than 4300 digits
    with pytest.raises(ValueError,
                       match=f"number too large for a float: {digits} digits$"):
        X * value
    assert evaluate_with_scale(X * 10**300, np.ones((1, 3)))[0][0] == 1e300


# A chain e = (...((x + 1)*x + 1)*x ...)*x + 1 built with the smart
# constructors, 2 * CHAIN levels deep: far past Python's recursion limit.
CHAIN = 5000


def test_walkers_do_not_recurse_per_level():
    e = ONE
    for _ in range(CHAIN):
        e = add(mul(e, X), ONE)
    assert depth(e) == 2 * CHAIN > sys.getrecursionlimit()
    assert variables(e) == frozenset("x")
    assert to_source(e).count("+ 1") == CHAIN
    p = np.array([[0.5, 1.0, 1.0]])
    # sum of x^k for k = 0..CHAIN, and its derivative, at x = 1/2
    value = (1 - 0.5 ** (CHAIN + 1)) / 0.5
    slope = (1 - (CHAIN + 1) * 0.5 ** CHAIN + CHAIN * 0.5 ** (CHAIN + 1)) / 0.25
    assert evaluate_with_scale(e, p)[0][0] == pytest.approx(value, rel=1e-12)
    partial = diff(e, "x")
    assert evaluate_with_scale(partial, p)[0][0] == pytest.approx(slope,
                                                                  rel=1e-12)
    jet = eval_jet(e, p, order=3)
    assert jet.value[0] == pytest.approx(value, rel=1e-12)
    assert jet.derivative((1, 0, 0))[0] == pytest.approx(slope, rel=1e-12)


# The differentiation and printing rules stated recursively, per level: the
# references for the rules `fold` applies.

@lru_cache(maxsize=None)
def reference_diff(e, var):
    d = lambda child: reference_diff(child, var)
    if isinstance(e, (ex.Num, ex.Const)):
        return ex.ZERO
    if isinstance(e, ex.Var):
        return ONE if e.name == var else ex.ZERO
    if isinstance(e, ex.Add):
        return add(d(e.left), d(e.right))
    if isinstance(e, ex.Sub):
        return ex.sub(d(e.left), d(e.right))
    if isinstance(e, ex.Neg):
        return ex.neg(d(e.arg))
    if isinstance(e, ex.Mul):
        return add(mul(d(e.left), e.right), mul(e.left, d(e.right)))
    if isinstance(e, ex.Div):
        return ex.div(ex.sub(mul(d(e.left), e.right), mul(e.left, d(e.right))),
                      ex.pow_of(e.right, 2))
    if isinstance(e, ex.Pow):
        return mul(mul(ex.as_expr(e.exponent), ex.pow_of(e.base, e.exponent - 1)),
                   d(e.base))
    if e.func == "exp":
        return mul(e, d(e.arg))
    return ex.div(d(e.arg), mul(ex.as_expr(Fraction(2)), e))


def reference_source(e):
    def wrap(child, minimum):
        text = reference_source(child)
        return f"({text})" if ex._precedence(child) < minimum else text

    if isinstance(e, ex.Num):
        return ex._decimal(e.value)
    if isinstance(e, (ex.Const, ex.Var)):
        return e.name
    if isinstance(e, ex._Binary):
        symbol, left, right = {
            ex.Add: ("+", 10, 16), ex.Sub: ("-", 10, 16),
            ex.Mul: ("*", 20, 21), ex.Div: ("/", 20, 21)}[type(e)]
        return f"{wrap(e.left, left)} {symbol} {wrap(e.right, right)}"
    if isinstance(e, ex.Neg):
        return f"-{wrap(e.arg, 16)}"
    if isinstance(e, ex.Pow):
        return f"{wrap(e.base, 40)}^{e.exponent}"
    return f"{e.func}({reference_source(e.arg)})"


@pytest.mark.parametrize("name", [fixture.name for fixture in FIXTURES])
def test_fold_rules_give_the_recursive_rules_nodes_and_text(name):
    S = load_fixture(name).build(samples=1)
    fields = [S.manifold.f, *S.xi, *(source for source, _ in CASES)]
    for e in (parse(f) if isinstance(f, str) else f for f in fields):
        for first in "xyz":
            d1 = diff(e, first)
            assert d1 is reference_diff(e, first)
            assert to_source(d1) == reference_source(d1)
            for second in "xyz":
                d2 = diff(d1, second)
                assert d2 is reference_diff(d1, second)
                assert to_source(d2) == reference_source(d2)

