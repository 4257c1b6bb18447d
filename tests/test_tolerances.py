"""One smallness rule: every tolerance comparison goes through `sampling`.

The package's sources are read, as tests/test_contract.py reads the einsum
subscripts, so a comparison is checked as soon as it is written. Outside
sampling.py, no module may

- define a tolerance constant: a module-level name that says TOL or
  MARGIN, or a module-level float literal between 0 and 1;
- form a product with a tolerance (`tol * x`, `cfg.tol * x`,
  `x * SOME_TOL`, `MARGIN * x`): such a product is a limit that a residual
  is compared with, and forming limits is `sampling.within`'s job.

Inside sampling.py the only such product is `within`'s, and the only
constants are the three tolerances beside it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import walkergeo
from walkergeo import sampling

SOURCES = sorted(Path(walkergeo.__file__).parent.glob("*.py"))
RULE = Path(sampling.__file__)
CONSTANTS = {"CONSTRAINT_MARGIN", "AXIOM_TOL", "PLANE_TOL"}


def is_tolerance(name: str) -> bool:
    lower = name.lower()
    return lower == "tol" or lower.endswith("_tol") or "margin" in lower


def named(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def constants(tree: ast.Module) -> list[str]:
    """Module-level names bound to a tolerance (see the module notes)."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        small = (isinstance(node.value, ast.Constant)
                 and type(node.value.value) is float
                 and 0.0 < node.value.value < 1.0)
        found += [t.id for t in targets if isinstance(t, ast.Name)
                  and (small or is_tolerance(t.id))]
    return found


def products(tree: ast.Module) -> list[ast.BinOp]:
    """Every product one of whose factors is named as a tolerance."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(is_tolerance(named(side))
                    for side in (node.left, node.right))]


def violations(source: str) -> list[str]:
    tree = ast.parse(source)
    return ([f"constant {name}" for name in constants(tree)]
            + [f"line {node.lineno}: {ast.unparse(node)}"
               for node in products(tree)])


@pytest.mark.parametrize("path", [p for p in SOURCES if p != RULE],
                         ids=lambda p: p.name)
def test_no_module_but_sampling_states_a_tolerance_rule(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def test_sampling_states_the_rule_once():
    tree = ast.parse(RULE.read_text(encoding="utf-8"))
    assert set(constants(tree)) == CONSTANTS
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "within")
    lines = {node.lineno for node in products(tree)}
    assert lines and lines <= set(range(rule.lineno, rule.end_lineno + 1))


@pytest.mark.parametrize("source", [
    "allowed = cfg.tol * scales",
    "def f(v, s, tol):\n    return v <= tol * s",
    "ok = abs(v) > s * cfg.tol",
    "margin = _CONSTRAINT_MARGIN * (1.0 + scales)",
    "_PLANE_TOL = 1e-8",
    "LIMIT: float = 1e-6",
    "SOME_MARGIN = 3",
])
def test_the_scan_finds_a_rule_stated_outside_sampling(source):
    assert violations(source)


def test_within_is_at_most_or_its_negation_and_neither_at_a_nan():
    values = np.array([0.0, 1.0, 2.0, np.nan])
    assert sampling.within(values, 0.5, 2.0).tolist() == [
        True, True, False, False]
    assert sampling.within(values, 0.5, 2.0, exceeds=True).tolist() == [
        False, False, True, False]
