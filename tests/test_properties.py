"""Property tests, skipped when hypothesis is not installed.

- The exit contract: whatever the manifest and the sampling flags, the
  command line ends in status 0, 1, 2 or 3 and never in a traceback.
- The printer: `to_source` is a fixpoint under `parse` for drawn
  expressions and their first and second derivatives no deeper than
  MAX_DEPTH.
- Kept jets: in an analysis, a lower-order jet cut from a kept one is the
  jet `eval_jet` computes afresh at that order, bit for bit.
"""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from walkergeo.cli import main  # noqa: E402
from walkergeo.errors import EvaluationError  # noqa: E402
from walkergeo.expressions import (  # noqa: E402
    MAX_DEPTH, analysis, depth, diff, gradient, parse, to_source,
)
from walkergeo.jets import eval_jet  # noqa: E402

LEAVES = st.sampled_from(["x", "y", "z", "C", "0", "1", "2", "0.5", "3/2"])


def combine(parts):
    a, b = parts
    return st.sampled_from([
        f"({a}) + ({b})", f"({a}) - ({b})", f"({a}) * ({b})",
        f"({a}) / ({b})", f"-({a})", f"exp({a})", f"sqrt({a})",
        f"({a})^2", f"({a})^-1", f"({a})^3",
    ])


EXPRESSIONS = st.recursive(
    LEAVES, lambda inner: st.tuples(inner, inner).flatmap(combine),
    max_leaves=6)

INTERVALS = st.tuples(st.floats(-2, 2), st.floats(0.1, 2)).map(
    lambda lo_width: f"[{lo_width[0]}, {lo_width[0] + lo_width[1]}]")

# One manifest line made invalid in each way the parser has to catch.
BROKEN = {
    "epsilon": st.sampled_from(["epsilon = 0", "epsilon = x"]),
    "const.C": st.sampled_from(["const.C = q", "const.C = 1e400"]),
    "f": st.sampled_from(['f = "1' + "0" * 400 + '"', 'f = "x^' + "9" * 400
                          + '"', 'f = "x +"', 'f = "w"', 'f = "x^²"']),
    "domain.x": st.sampled_from([
        "domain.x = [1, 1]", "domain.x = [2, 0.5]", "domain.x = 0.5, 2",
        "domain.x = [a, b]", "domain.x = [0, 1e400]",
        "domain.x = [-1e308, 1e308]"]),
    "samples": st.sampled_from(["samples = 0", "samples = -2", "samples = x"]),
    "seed": st.sampled_from(["seed = -1", "seed = 1.5"]),
    "tol": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(
            lambda v: f"tol = {v!r}"),
        st.sampled_from(["tol = ", "tol = 1/0", "tol = 0.5.5"])),
}


@st.composite
def reeb_fields(draw, f):
    """Components of xi: unit by construction (xi2 = +-1 with xi3 = 0, or
    xi1 solved from the constraint), or drawn freely."""
    shape = draw(st.sampled_from(["unit_y", "solved", "free"]))
    if shape == "unit_y":
        return draw(EXPRESSIONS), draw(st.sampled_from(["1", "-1"])), "0"
    if shape == "solved":
        xi3 = draw(EXPRESSIONS)
        return f"(1 - ({f})*({xi3})^2)/(2*({xi3}))", "0", xi3
    return draw(EXPRESSIONS), draw(EXPRESSIONS), draw(EXPRESSIONS)


@st.composite
def manifests(draw):
    f = draw(EXPRESSIONS)
    lines = {
        "name": "name = generated",
        "epsilon": f"epsilon = {draw(st.sampled_from(['1', '-1']))}",
        "const.C": f"const.C = {draw(st.sampled_from(['1', '-1/3', '2']))}",
        "f": f'f = "{f}"',
    }
    for key, value in zip(("xi1", "xi2", "xi3"), draw(reeb_fields(f))):
        lines[key] = f'{key} = "{value}"'
    for axis in "xyz":
        lines[f"domain.{axis}"] = f"domain.{axis} = {draw(INTERVALS)}"
    if draw(st.booleans()):
        lines["require"] = f'require_positive = "{draw(EXPRESSIONS)}"'
    lines["samples"] = f"samples = {draw(st.integers(1, 8))}"
    broken = draw(st.sampled_from([None, None, None, *BROKEN]))
    if broken is not None:
        lines[broken] = draw(BROKEN[broken])
    return "\n".join(lines.values()) + "\n"


# Sampling flags, valid or not, and the report format.
FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--samples"), st.integers(-3, 12).map(str)),
    st.tuples(st.just("--seed"), st.integers(-3, 2**40).map(str)),
    st.tuples(st.just("--tol"), st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["1e-9", "1e-6", "0.5", "1e-300"]))),
    st.tuples(st.just("--report"), st.sampled_from(["text", "machine"])),
), max_size=2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(manifest=manifests(), flags=FLAGS)
def test_every_input_ends_in_a_documented_exit_status(manifest, flags):
    argv = [item for flag in flags for item in flag]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "m.manifest"
        path.write_text(manifest, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(["analyze", str(path), *argv])
            except SystemExit as exc:   # argparse rejects a flag: status 2
                status = exc.code
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    # the last-resort mapping of cli.main hides no crash from this test
    assert "internal error:" not in err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(source=EXPRESSIONS)
def test_printed_fields_reparse_to_themselves(source):
    constants = {"C": Fraction(-1, 3)}
    e = parse(source, constants)
    partials = gradient(e)
    fields = [e, *partials] + [diff(p, var) for p in partials for var in "xyz"]
    for field in fields:
        if depth(field) > MAX_DEPTH:
            continue    # prints, but does not reparse (see to_source)
        text = to_source(field)
        again = parse(text, constants)
        assert again == field
        assert to_source(again) == text


def jet_or_error(e, points, order):
    try:
        return eval_jet(e, points, order)
    except EvaluationError:
        return None


# Fields scaled by 1e200, divided by such a product, or the square root of
# that: their derivative tables overflow to +-inf, so Taylor coefficients
# turn to +-0.0, and the root's third-order table to inf, which makes a
# third-order jet raise where the lower orders are finite.
HUGE = "1" + "0" * 200
SCALINGS = st.sampled_from(["{}", "({}) * " + HUGE, "1/(({}) * " + HUGE + ")",
                            "sqrt(1/(({}) * " + HUGE + "))"])
COORDINATE = st.floats(-2.5, 2.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source=EXPRESSIONS, scaling=SCALINGS,
       point=st.tuples(COORDINATE, COORDINATE, COORDINATE),
       batch=st.booleans(), orders=st.sampled_from(
           [(3, 2), (3, 1), (3, 0), (2, 1), (2, 0), (1, 0)]))
def test_a_truncated_jet_is_the_lower_order_jet(source, scaling, point, batch,
                                                orders):
    e = parse(scaling.format(source), {"C": Fraction(-1, 3)})
    points = np.array([point, np.add(point, 0.25)] if batch else [point])
    points.setflags(write=False)
    high, low = orders
    want = jet_or_error(e, points, low)    # outside an analysis: afresh
    with analysis():
        top = jet_or_error(e, points, high)
        got = jet_or_error(e, points, low)
    if got is None or want is None:
        assert got is want
        return
    cut = top is not None and bool(np.isfinite(top.coeffs).all())
    if cut:
        assert np.shares_memory(got.coeffs, top.coeffs)
    nan = np.isnan(want.coeffs)
    assert np.array_equal(nan, np.isnan(got.coeffs))
    assert np.array_equal(got.coeffs[~nan], want.coeffs[~nan])
    assert np.array_equal(np.signbit(got.coeffs[~nan]),
                          np.signbit(want.coeffs[~nan]))
