"""One sectional-curvature kernel, with no Python loop over points or
directions.

`curvature.sectional_profile` computes the sectional curvatures of the
Reeb plane and the phi-plane of d directions at each of m points as numpy
work over the batch. Each of its callers makes one call: the pointwise
`sectional_curvatures` (a batch of one), `eta_einstein_report` (5 points
by 50 directions) and the report's `_pick_direction` (4 candidates at
pts[0]). The package's sources are read, as tests/test_tolerances.py reads
them, so a loop written back into one of them fails as soon as it is
written:

- the kernel, its finiteness check and its callers hold no `for` or
  `while` statement (a comprehension over the few entries of a tuple is
  not a statement);
- the per-direction kernel and the per-point column reader it replaced,
  `sectional_from_arrays` and `sample_column`, are named nowhere in the
  package.
"""

import ast
from pathlib import Path

import pytest

import walkergeo

PACKAGE = Path(walkergeo.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
LOOP_FREE = {
    "curvature.py": ("sectional_profile", "require_finite_sectional",
                     "sectional_curvatures", "eta_einstein_report"),
    "report.py": ("_pick_direction",),
}
REPLACED = ("sectional_from_arrays", "sample_column")


def loops(source: str, names) -> dict:
    """The lines of every for or while statement in each of the named
    module-level functions of source, by name; "missing" for a name that
    is not defined there."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found = {}
    for name in names:
        if name not in functions:
            found[name] = "missing"
            continue
        lines = sorted(node.lineno for node in ast.walk(functions[name])
                       if isinstance(node, (ast.For, ast.AsyncFor, ast.While)))
        if lines:
            found[name] = lines
    return found


@pytest.mark.parametrize("module", sorted(LOOP_FREE))
def test_the_sectional_kernel_and_its_callers_hold_no_loop(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert loops(source, LOOP_FREE[module]) == {}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_replaced_kernel_is_named_nowhere(path):
    source = path.read_text(encoding="utf-8")
    assert [name for name in REPLACED if name in source] == []


# the profile as it was: one kernel call per point and direction
PER_DIRECTION = """\
@analyzed
def eta_einstein_report(S):
    for k, directions_at_p in enumerate(draws):
        arrays = sample_column(S, pts, k)
        for X in directions_at_p:
            report = sectional_from_arrays(point, *arrays, X)
    while False:
        pass
"""


def test_the_scan_sees_a_loop_over_points_and_directions():
    found = loops(PER_DIRECTION, ["eta_einstein_report", "sectional_profile"])
    assert found == {"eta_einstein_report": [3, 5, 7],
                     "sectional_profile": "missing"}
