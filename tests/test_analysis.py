"""One analysis per report: every derivative, zero test and flatness
verdict is worked out once, and DAG-shaped fields stay cheap to evaluate.

Work is counted by wrapping the private workers (`_derive`, `_zero_test`,
the evaluator's binary operations), never by wall time.
"""

import hashlib
from collections import Counter

import pytest

import walkergeo.expressions as ex
import walkergeo.ftensor as ftensor
import walkergeo.sampling as sampling
import walkergeo.walker as walker
from walkergeo.cli import main
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.expressions import Num, parse, to_source
from walkergeo.report import build_report

NAMES = [fixture.name for fixture in FIXTURES]

# x/x/.../x with 40 levels; its derivatives share subtrees heavily
QUOTIENT_CHAIN = "x" + "/x" * 39

QUOTIENT_MANIFEST = f"""\
name = deep-quotient
epsilon = 1
f = "{QUOTIENT_CHAIN}"
xi1 = "0"
xi2 = "1"
xi3 = "0"
domain.x = [0.5, 1.5]
domain.y = [0.5, 1.5]
domain.z = [0.5, 1.5]
samples = 8
"""

# sha256 of the machine report of QUOTIENT_MANIFEST before derivatives and
# evaluation shared subtrees; that analysis took 30 to 45 seconds
QUOTIENT_REPORT_SHA256 = (
    "0f9422ef3d82e016b85e83fb65224c38e82cf71ea487a59ac4e30d7a020c142b")


def recording(monkeypatch, module, name, key):
    """Wrap module.name so each call appends key(*args) to the returned list."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args):
        calls.append(key(*args))
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_each_report_step_runs_once(monkeypatch, name):
    S = load_fixture(name).build(samples=8)
    kept = []   # keeps differentiated nodes alive, so ids stay unique

    def node_and_var(e, var):
        kept.append(e)
        return id(e), var

    derived = recording(monkeypatch, ex, "_derive", node_and_var)
    zero_tests = recording(monkeypatch, sampling, "_zero_test",
                           lambda e, domain, cfg: (to_source(e), cfg))
    sampled = recording(monkeypatch, sampling, "evaluate_with_scale",
                        lambda e, points: e)
    flatness = recording(monkeypatch, walker, "flatness",
                         lambda M, cfg: cfg)
    gradients = recording(monkeypatch, ftensor, "_gradients",
                          lambda fields, pts: (tuple(map(id, fields)), id(pts)))
    build_report(S, name=name)

    assert derived and max(Counter(derived).values()) == 1
    assert zero_tests and max(Counter(zero_tests).values()) == 1
    assert not [e for e in sampled if isinstance(e, Num) and e.value == 0]
    assert flatness.count(S.config) == 1
    assert max(Counter(flatness).values()) == 1
    # the coordinate d(eta) is shared by the normality and named-class routes
    eta_fields = tuple(map(id, S.eta))
    assert [key for key in gradients if key[0] == eta_fields]
    assert max(Counter(gradients).values()) == 1


def test_quotient_chain_derivatives_are_worked_out_once(monkeypatch):
    f = parse(QUOTIENT_CHAIN)
    derived = recording(monkeypatch, ex, "_derive",
                        lambda e, var: (id(e), var))
    with ex.derivative_scope():
        third = ex.diff(ex.diff(ex.diff(f, "x"), "x"), "x")
        assert ex.diff(ex.diff(f, "x"), "x") is ex.diff(ex.diff(f, "x"), "x")
    assert max(Counter(derived).values()) == 1
    # about 1350 distinct nodes; written out as a tree, 4.5 million
    assert len(list(ex.walk(third))) < 2000


def test_evaluation_visits_each_distinct_node_once(monkeypatch):
    with ex.derivative_scope():
        fxx = ex.diff(ex.diff(parse(QUOTIENT_CHAIN), "x"), "x")
    operations = Counter()

    def counting(kind, ufunc):
        def run(a, b):
            operations[kind] += 1
            return ufunc(a, b)
        return run

    counted = {kind: counting(kind, u) for kind, u in ex._BINARY.items()}
    monkeypatch.setattr(ex, "_BINARY", counted)
    values, _ = ex.evaluate_with_scale(fxx, [[0.7, 1.1, 0.9], [1.3, 0.6, 1.2]])
    binary = Counter(type(node) for node in ex.walk(fxx)
                     if type(node) in counted)
    assert operations == binary
    assert values.shape == (2,)


def test_quotient_chain_report_is_unchanged(capsys, tmp_path):
    path = tmp_path / "deep.manifest"
    path.write_text(QUOTIENT_MANIFEST, encoding="utf-8")
    status = main(["analyze", str(path), "--report", "machine"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == QUOTIENT_REPORT_SHA256
