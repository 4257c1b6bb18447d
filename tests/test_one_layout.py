"""One array layout: the kernels, and the layer below them, see (n, 3)
point batches only.

Every kernel of `structure`, `ftensor`, `walker` and `curvature` runs on a
batch of points, its arrays components first and points last, and so do
the evaluator (`expressions`), the jets and the sampler beneath them. A
view at one point is column 0 of the point's batch of one, made by one
helper, `structure.pointwise`, from `expressions.batch_of_one`. The
package's sources are read, as tests/test_sectional_kernel.py reads them,
so a second layout written back into a module fails as soon as it is
written:

- outside `pointwise` and `_column_0`, these modules hold no comparison of
  an `ndim` with 1 and no comparison of a `shape` with (3,): no branch on
  whether a function got one point or a batch;
- no function there has a parameter named `rank`, the single-point axis
  count `points_first` and `points_last` took;
- `walker` defines no function named `*_at`: its pointwise wrappers
  `metric_at`, `christoffel_at`, `curvature_at` and `ricci_at` are gone,
  and a jet of f over a batch (`eval_jet`) feeds `metric_arrays` and the
  `*_from_jet` kernels instead.
"""

import ast
from pathlib import Path

import pytest

import walkergeo

PACKAGE = Path(walkergeo.__file__).parent
MODULES = ("structure.py", "ftensor.py", "walker.py", "curvature.py",
           "expressions.py", "jets.py", "sampling.py")
HELPER = ("pointwise", "_column_0")


def _is(node, kind, attribute=None) -> bool:
    return isinstance(node, kind) and (
        attribute is None or getattr(node, "attr", None) == attribute)


def layout_branches(source: str) -> list[int]:
    """The lines of every `x.ndim == 1` or `x.shape == (3,)` comparison
    (either side, any comparison operator) outside the helper."""
    tree = ast.parse(source)
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in HELPER
            for n in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in skip:
            continue
        sides = [node.left, *node.comparators]
        ndim = any(_is(s, ast.Attribute, "ndim") for s in sides) and any(
            _is(s, ast.Constant) and s.value == 1 for s in sides)
        shape = any(_is(s, ast.Attribute, "shape") for s in sides) and any(
            _is(s, ast.Tuple) and len(s.elts) == 1
            and _is(s.elts[0], ast.Constant) and s.elts[0].value == 3
            for s in sides)
        if ndim or shape:
            lines.append(node.lineno)
    return sorted(lines)


def rank_parameters(source: str) -> list[str]:
    """The functions with a parameter named rank."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and "rank" in [a.arg for a in ast.walk(node.args)
                                 if isinstance(a, ast.arg)])


def pointwise_wrappers(source: str) -> list[str]:
    """The functions whose name ends in _at."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and node.name.endswith("_at"))


@pytest.mark.parametrize("module", MODULES)
def test_no_kernel_branches_on_one_point_or_a_batch(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert layout_branches(source) == []
    assert rank_parameters(source) == []


def test_walker_defines_no_pointwise_wrapper():
    source = (PACKAGE / "walker.py").read_text(encoding="utf-8")
    assert pointwise_wrappers(source) == []


def test_the_helper_is_where_the_scan_allows_the_branch():
    source = (PACKAGE / "structure.py").read_text(encoding="utf-8")
    names = {node.name for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    assert set(HELPER) <= names


# the layout as it was: a single-point branch, a rank parameter and a
# pointwise wrapper
TWO_LAYOUTS = """\
def points_first(a, rank):
    return a if a.ndim == rank else a


def frame(self, point):
    if pts.ndim == 1:
        require_inside(pts)
    single = 1 != pts.ndim or pts.shape == (3,)


def metric_at(M, point):
    return metric_arrays(eval_jet(M.f, point, 0).value)


def pointwise(view):
    return view if pts.ndim == 1 else None
"""


def test_the_scan_sees_two_layouts():
    assert layout_branches(TWO_LAYOUTS) == [6, 8, 8]
    assert rank_parameters(TWO_LAYOUTS) == ["points_first"]
    assert pointwise_wrappers(TWO_LAYOUTS) == ["metric_at"]
