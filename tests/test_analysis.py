"""One analysis per report: every derivative, zero test and flatness
verdict is worked out once, each field is evaluated once on the sample and
each node at most twice, its jets once per order, and DAG-shaped fields
stay cheap to evaluate.

Work is counted by wrapping the private workers (`_derive`, `_zero_test`,
the evaluator's `_walk`, per-node rule and binary operations, the jets'
`_propagate`), never by wall time.
"""

import hashlib
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

import walkergeo.expressions as ex
import walkergeo.ftensor as ftensor
import walkergeo.jets as jets
import walkergeo.sampling as sampling
import walkergeo.structure as structure
import walkergeo.walker as walker
from walkergeo.cli import main
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.errors import EvaluationError
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


# Binary ufunc applications in one report at 8 samples, each fixture, when
# every evaluation walked its field afresh (before fields were kept per
# analysis)
WALKED_AFRESH_BINARY = {
    "g0-parallel": 42, "g5g6-normal": 208, "g10-almost-paracosymplectic": 59,
    "g6g10-almost-alpha": 221, "g12-pure": 41, "paracontact-exponential": 643,
    "paracontact-constant": 140, "eta-einstein-parabolic": 6,
    "flat-bilinear": 3,
}


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

    def node_and_var(e, var, derivatives):
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
                        lambda e, var, derivatives: (id(e), var))
    with ex.derivative_scope():
        third = ex.diff(ex.diff(ex.diff(f, "x"), "x"), "x")
        assert ex.diff(ex.diff(f, "x"), "x") is ex.diff(ex.diff(f, "x"), "x")
    assert max(Counter(derived).values()) == 1
    # 967 distinct nodes; written out as a tree, 4.5 million
    assert len(list(ex.walk(third))) < 2000


def test_depth_visits_each_distinct_node_once(monkeypatch):
    with ex.derivative_scope():
        third = ex.diff(ex.diff(ex.diff(parse(QUOTIENT_CHAIN), "x"), "x"), "x")
    distinct = len(list(ex.walk(third)))
    assert distinct == 967
    expanded = recording(monkeypatch, ex, "_children", id)
    assert ex.depth(third) == 387
    # level by level, the tree has about 4.5 million nodes
    assert len(expanded) <= 2 * distinct


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


def counting_binary(monkeypatch) -> Counter:
    """Count the evaluator's binary ufunc applications by node type."""
    operations = Counter()

    def counting(kind, ufunc):
        def run(a, b):
            operations[kind] += 1
            return ufunc(a, b)
        return run

    monkeypatch.setattr(ex, "_BINARY", {kind: counting(kind, u)
                                        for kind, u in ex._BINARY.items()})
    return operations


def sample(n=6):
    pts = np.random.default_rng(3).uniform(0.5, 1.5, (n, 3))
    pts.setflags(write=False)
    return pts


@pytest.mark.parametrize("name", NAMES)
def test_each_field_is_walked_once_per_sample(monkeypatch, name):
    S = load_fixture(name).build(samples=8)
    kept = []   # keeps fields and point arrays alive, so ids stay unique

    def field_and_points(e, pts, table):
        kept.append((e, pts))
        return id(e), id(pts)

    walks = recording(monkeypatch, ex, "_walk", field_and_points)
    build_report(S, name=name)
    sampled = [key for key in walks if key[1] == id(S.sample_points())]
    assert sampled and max(Counter(walks).values()) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_report_applies_fewer_binary_ufuncs(monkeypatch, name):
    operations, counts = counting_binary(monkeypatch), []
    for _ in range(2):
        operations.clear()
        build_report(load_fixture(name).build(samples=8), name=name)
        counts.append(sum(operations.values()))
        # then again with analyses that keep neither derivatives nor values
        monkeypatch.setattr(sampling, "derivative_scope", nullcontext)
    kept, afresh = counts
    assert kept < afresh <= WALKED_AFRESH_BINARY[name]


def test_kept_arrays_are_read_only_and_reused():
    pts, field = sample(), parse("x*y/(1 + z^2)")
    with ex.derivative_scope():
        values, scale = ex.evaluate_with_scale(field, pts)
        again = ex.evaluate_with_scale(field, pts)
        for array in (values, scale):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
    assert again[0] is values and again[1] is scale


def test_a_kept_field_is_a_leaf_of_a_larger_one(monkeypatch):
    pts, inner = sample(), parse("x*y/(1 + z^2)")
    outer = ex.exp_of(inner)
    fresh = ex.evaluate_with_scale(outer, pts)
    with ex.derivative_scope():
        ex.evaluate_with_scale(inner, pts)
        operations = counting_binary(monkeypatch)
        got = ex.evaluate_with_scale(outer, pts)
    assert not operations   # only the exp above the kept quotient is applied
    for a, b in zip(got, fresh):
        assert np.array_equal(a, b)


def test_a_field_that_raised_is_not_kept(monkeypatch):
    pts = sample()
    good, bad = parse("x - 1"), parse("1/(x - x)")
    walks = recording(monkeypatch, ex, "_walk", lambda e, p, table: e)
    with ex.derivative_scope():
        table = ex._SCOPE.get()[1]
        ex.evaluate_with_scale(good, pts)
        for _ in range(2):
            with pytest.raises(EvaluationError, match="division by zero"):
                ex.evaluate_with_scale(bad, pts)
        assert (good, id(pts)) in table and (bad, id(pts)) not in table
    assert walks == [good, bad, bad]


def test_outside_an_analysis_nothing_is_kept(monkeypatch):
    pts, field = sample(), parse("x*y + z")
    walks = recording(monkeypatch, ex, "_walk", lambda e, p, table: e)
    nodes = recording(monkeypatch, ex, "_evaluate_node",
                      lambda node, args, p: node)
    first = ex.evaluate_with_scale(field, pts)
    second = ex.evaluate_with_scale(field, pts)
    assert first[0] is not second[0] and first[0].flags.writeable
    with ex.derivative_scope():
        _, table, _, seen = ex._SCOPE.get()
        for _ in range(2):   # one point, and a writable array, are not kept
            ex.evaluate_with_scale(field, pts[0])
            ex.evaluate_with_scale(field, np.array(pts))
        assert not table and not seen
        ex.evaluate_with_scale(field, pts)
        ex.evaluate_with_scale(field, pts)
        assert list(table) == [(field, id(pts))]
    assert len(walks) == 7
    # each of the 7 walks evaluated every node: no interior node was kept
    assert set(Counter(nodes).values()) == {7}


def test_a_shared_node_is_kept_from_its_second_evaluation(monkeypatch):
    pts, product = sample(), parse("x*y")
    fields = [parse("x*y + z"), parse("x*y - z"), parse("x*y * z")]
    nodes = recording(monkeypatch, ex, "_evaluate_node",
                      lambda node, args, p: node)
    with ex.derivative_scope():
        table = ex._SCOPE.get()[1]
        fresh = []
        for field in fields:
            fresh.append((product, id(pts)) in table)
            ex.evaluate_with_scale(field, pts)
        values, scale = table[product, id(pts)][0]
    assert fresh == [False, False, True]
    assert nodes.count(product) == 2
    assert not values.flags.writeable and not scale.flags.writeable
    assert np.array_equal(values, pts[:, 0] * pts[:, 1])


@pytest.mark.parametrize("samples", [64, 512])
@pytest.mark.parametrize("name", NAMES)
def test_no_node_is_evaluated_more_than_twice_on_the_sample(
        monkeypatch, name, samples):
    S = load_fixture(name).build(samples=samples)
    held = []   # keeps point arrays alive, so ids stay unique

    def node_and_points(node, args, pts):
        held.append(pts)
        return node, id(pts)

    evaluated = recording(monkeypatch, ex, "_evaluate_node", node_and_points)
    scopes = recording(monkeypatch, ex, "_walk", lambda e, pts, scope: scope)
    build_report(S, name=name)
    sample = id(S.sample_points())
    counts = Counter(key for key in evaluated if key[1] == sample)
    assert counts and max(counts.values()) <= 2
    tables = {id(scope[1]): scope[1] for scope in scopes if scope is not None}
    kept = [array for table in tables.values()
            for arrays, _ in table.values() for array in arrays]
    assert kept and not [array for array in kept if array.flags.writeable]


@pytest.mark.parametrize("name", NAMES)
def test_each_jet_is_computed_once_per_order(monkeypatch, name):
    S = load_fixture(name).build(samples=8)
    kept = []   # keeps point arrays alive, so ids stay unique

    def field_points_order(e, pts, order):
        kept.append(pts)
        return e, pts.tobytes() if pts.ndim == 1 else id(pts), order

    computed = recording(monkeypatch, jets, "_propagate", field_points_order)
    build_report(S, name=name)
    assert computed and max(Counter(computed).values()) == 1


def test_the_frame_route_reads_the_tensor_forms_it_formed(monkeypatch):
    S = load_fixture("g5g6-normal").build(samples=8)
    pts = S.sample_points()
    formed = recording(monkeypatch, ftensor, "_tensor_forms",
                       lambda F, xi, phi, ginv: F)
    t = ftensor.f_tensor_at(S, pts)
    forms = ftensor.theta_forms(S, pts, tensor=t)
    ftensor.project_components(S, pts, tensor=t)
    assert len(formed) == 1 and formed[0] is t.components
    assert forms.theta is t.theta and forms.theta_star is t.theta_star
    for array in (t.theta, t.theta_star, t.reeb_square):
        assert not array.flags.writeable


@pytest.mark.parametrize("name", NAMES)
def test_a_report_builds_one_frame_on_its_sample(monkeypatch, name):
    S = load_fixture(name).build(samples=8)
    built = []
    original = structure.Frame.__init__

    def init(frame, S, points, order):
        built.append((points, order))
        original(frame, S, points, order)

    monkeypatch.setattr(structure.Frame, "__init__", init)
    build_report(S, name=name)
    sample = S.sample_points()
    assert [order for points, order in built if points is sample] == [1]
    assert not [points for points, _ in built if np.ndim(points) > 1
                and points is not sample]
