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

- each rule's reason, "division by zero" and "sqrt of a non-positive
  argument", is written once in the package;
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
REASONS = ("division by zero", "sqrt of a non-positive argument")

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
# evaluator's
TWO_STATEMENTS = {
    "expressions.py": """\
def _evaluate_node(node, args, pts):
    if kind is Div:
        raise_at(b == 0.0, "division by zero", node, pts)
    elif node.func == "sqrt":
        raise_at(a <= 0.0, "sqrt of a non-positive argument", node, pts)
""",
    "jets.py": """\
def ev(node, args):
    if isinstance(node, Div):
        raise_at(args[1].value == 0.0, "division by zero", node, pts)
    if isinstance(node, Pow):
        expressions.raise_at(args[0].value == 0.0, "division by zero", node,
                             pts)
""",
}


def test_the_scan_sees_two_statements():
    assert reason_counts(TWO_STATEMENTS) == {REASONS[0]: 3, REASONS[1]: 1}
    assert raise_at_callers(TWO_STATEMENTS) == ["jets.py"]
