"""One statement of the domain rules: where a field cannot be evaluated.

A zero divisor, a non-positive sqrt argument and a non-finite result each
refuse their point. `expressions.guard` and `expressions.guard_finite`
state these rules, beside `raise_at`, and the evaluator and the jets both
call them, so the two refuse the same points of a batch for the same
reason. The sampler reads the refused rows off the error
(`EvaluationError.rows`), and `structure.reject_poles` reads the divisor
rule (`expressions.divisor`). The package's sources are read, as
tests/test_one_layout.py reads them, so a second statement written back
into a module fails as soon as it is written:

- each rule's reason, "division by zero", "sqrt of a non-positive
  argument" and "non-finite value", is written once in the package;
- `raise_at` is called in `expressions` only.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import walkergeo
from walkergeo.errors import EvaluationError
from walkergeo.expressions import divisor, evaluate_with_scale, parse
from walkergeo.jets import MAX_ORDER, eval_jet

PACKAGE = Path(walkergeo.__file__).parent
REASONS = ("division by zero", "sqrt of a non-positive argument",
           "non-finite value")

# x takes 0 twice, 1 and values on both sides of it
BATCH = np.array([[0.5, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                  [1.5, 1.0, 1.0], [0.0, 2.0, 1.0]])


@pytest.mark.parametrize("source, reason, refused", [
    ("1/x", "division by zero", [0, 1, 0, 0, 1]),
    ("x^-2", "division by zero", [0, 1, 0, 0, 1]),
    ("sqrt(x - 1)", "sqrt of a non-positive argument", [1, 1, 1, 0, 1]),
    # exp(800) overflows; at x = 0.5 the value and every coefficient of
    # the order-3 jet are finite, so the value alone decides for both
    ("exp(800*x)", "non-finite value", [0, 0, 1, 1, 0]),
])
def test_the_evaluator_and_the_jets_refuse_the_same_rows(source, reason,
                                                        refused):
    field, errors = parse(source), []
    for evaluate in (lambda: evaluate_with_scale(field, BATCH),
                     lambda: eval_jet(field, BATCH, MAX_ORDER)):
        with pytest.raises(EvaluationError) as caught:
            evaluate()
        errors.append(caught.value)
    for error in errors:
        assert error.reason == reason
        assert error.rows.tolist() == [bool(r) for r in refused]
        assert error.point == tuple(BATCH[refused.index(1)])
    evaluator, jets = errors
    assert evaluator.subexpression == jets.subexpression
    assert str(evaluator) == str(jets)


@pytest.mark.parametrize("source", ["sqrt(x^-500)", "sqrt(x^-500) + 0"])
def test_a_sqrt_jet_that_overflows_raises_at_the_sqrt(source):
    # x^-500 is finite at x = 2 and 1.5, and so is its root; the root's
    # third Taylor coefficient at x = 2 overflows (like u0^(1/2 - 3)), so
    # the order-3 jet refuses that point at the sqrt node, not at a parent
    field = parse(source)
    batch = np.array([[2.0, 1.0, 1.0], [1.5, 1.0, 1.0]])
    with pytest.raises(EvaluationError) as caught:
        eval_jet(field, batch, MAX_ORDER)
    assert caught.value.reason == "non-finite value"
    assert caught.value.subexpression == "sqrt(x^-500)"
    assert caught.value.rows.tolist() == [True, False]
    assert caught.value.point == (2.0, 1.0, 1.0)
    # the values are finite, so checking the sqrt changes none of their bits
    values, scale = evaluate_with_scale(field, batch)
    assert [v.hex() for v in values] == ["0x1.0000000000000p-250",
                                         "0x1.b1588489189d5p-147"]
    assert [s.hex() for s in scale] == ["0x1.0000000000000p+1",
                                        "0x1.8000000000000p+0"]


def test_a_divisor_is_the_last_child_of_a_quotient_or_a_negative_power():
    for source, expected in [("x/(y + 1)", "y + 1"), ("(x + z)^-3", "x + z"),
                             ("x^3", None), ("x*y", None), ("sqrt(x)", None)]:
        node = parse(source)
        got = divisor(node)
        assert (got if got is None else str(got)) == expected


def reason_counts(sources: dict[str, str]) -> dict[str, int]:
    """How many string literals of all the sources are each reason."""
    literals = [node.value for source in sources.values()
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant)]
    return {reason: literals.count(reason) for reason in REASONS}


def raise_at_callers(sources: dict[str, str]) -> list[str]:
    """The modules, other than expressions.py, that call raise_at."""
    return sorted(name for name, source in sources.items()
                  if name != "expressions.py"
                  and any(isinstance(node, ast.Call) and "raise_at" in (
                      getattr(node.func, "id", None),
                      getattr(node.func, "attr", None))
                          for node in ast.walk(ast.parse(source))))


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_each_domain_rule_is_stated_once():
    sources = package_sources()
    assert reason_counts(sources) == {reason: 1 for reason in REASONS}
    assert raise_at_callers(sources) == []


# the rules as they were: the jets' rule for each node restated beside the
# evaluator's, and the rule on a sampled residual restated beside the
# evaluator's finiteness rule
TWO_STATEMENTS = {
    "expressions.py": """\
def _evaluate_node(node, args, pts):
    if kind is Div:
        raise_at(b == 0.0, "division by zero", node, pts)
    elif node.func == "sqrt":
        raise_at(a <= 0.0, "sqrt of a non-positive argument", node, pts)


def guard_finite(node, values, pts):
    finite = is_finite(values)
    if not finite.all():
        raise_at(~finite, "non-finite value", node, pts)
""",
    "jets.py": """\
def ev(node, args):
    if isinstance(node, Div):
        raise_at(args[1].value == 0.0, "division by zero", node, pts)
    if isinstance(node, Pow):
        expressions.raise_at(args[0].value == 0.0, "division by zero", node,
                             pts)
    guard_finite(node, out.coeffs, pts)
""",
    "sampling.py": """\
def require_finite(values, pts):
    bad = ~is_finite(values)
    if bad.any():
        raise EvaluationError("non-finite value", "a sampled residual",
                              pts[int(np.argmax(bad))])
    return values
""",
}


def test_the_scan_sees_two_statements():
    assert reason_counts(TWO_STATEMENTS) == {REASONS[0]: 3, REASONS[1]: 1,
                                             REASONS[2]: 2}
    assert raise_at_callers(TWO_STATEMENTS) == ["jets.py"]
