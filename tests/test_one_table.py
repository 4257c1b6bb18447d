"""One table for what an analysis keeps.

Everything one analysis keeps is one dict, the `expressions.current`
table: each result of `expressions.once` under its `once_key` (the values
and the jets of a batch, a point's batch of one, frames, verdicts), and
each derivative of `diff` under its (node, variable). A batch is keyed by
identity and kept alive by its entry. A writable batch may change in
place, so it has no key: `once` builds its result and keeps it nowhere,
and nothing drawn, tested or viewed on one leaves an entry behind.

The package's sources are read, as tests/test_domain_rules.py reads them,
so a module that reaches the table itself fails as soon as it is written:
only `expressions` calls `current()`.
"""

import ast
from pathlib import Path

import numpy as np

import walkergeo
import walkergeo.expressions as ex
from walkergeo.ftensor import f_tensor_at
from walkergeo.manifest import parse_manifest
from walkergeo.sampling import _sample_cached
from write_reports import read_manifest

PACKAGE = Path(walkergeo.__file__).parent


def test_a_writable_batch_keeps_nothing():
    # restricted.manifest cuts the box with `x - 1.8 > 0`, so the sampler
    # evaluates a constraint on writable candidate batches
    S = parse_manifest(read_manifest("restricted")).build(samples=64)
    sample = S.domain.sample()
    writable = np.array(sample)
    with ex.analysis() as analysis:
        drawn = _sample_cached.__wrapped__(S.domain)
        assert np.array_equal(drawn, sample)
        assert S.domain.contains(sample[0])
        assert S.domain.contains(tuple(sample[1]))
        assert not S.domain.contains((1.0, 1.0, 1.0))
        tensors = [f_tensor_at(S, writable) for _ in range(3)]
        assert list(analysis) == []
    assert tensors[0] is not tensors[1] is not tensors[2]
    assert np.array_equal(tensors[0].components, tensors[2].components)


def test_a_writable_batch_has_no_key():
    pts = np.ones((2, 3))
    frozen = np.ones((2, 3))
    frozen.setflags(write=False)
    assert ex.once_key(pts, "values", ()) is None
    assert ex.once_key(frozen, "frame", (pts,)) is None
    assert ex.once_key(frozen, "frame", (frozen, 3)) == (
        id(frozen), "frame", id(frozen), 3)
    built = []
    with ex.analysis() as analysis:
        for _ in range(2):
            ex.once(pts, "values", (), lambda: built.append(1))
            ex.once(frozen, "values", (), lambda: built.append(2))
        entry = analysis[ex.once_key(frozen, "values", ())]
    assert built == [1, 2, 1] and len(analysis) == 1
    assert entry[0] is frozen   # the entry keeps its batch alive


def current_callers(sources: dict[str, str]) -> list[str]:
    """The modules, other than expressions.py, that call current()."""
    return sorted(name for name, source in sources.items()
                  if name != "expressions.py"
                  and any(isinstance(node, ast.Call) and "current" in (
                      getattr(node.func, "id", None),
                      getattr(node.func, "attr", None))
                          for node in ast.walk(ast.parse(source))))


def test_only_expressions_reaches_the_table():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert current_callers(sources) == []


# the tables as they were reached from outside expressions
OUTSIDE = {
    "jets.py": """\
def eval_jet(e, points, order):
    active = current()
    table = active.jets.setdefault(active.at(pts), {})
""",
    "walker.py": """\
def segre_type(M, point):
    one = current().batch_of_one(point)
""",
    "structure.py": """\
def pointwise(batch_view):
    with analysis() as active:
        one = active.batch_of_one(pts)
""",
}


def test_the_scan_sees_a_table_reached_from_outside():
    assert current_callers(OUTSIDE) == ["jets.py", "walker.py"]
