"""One analysis per report: every derivative, zero test and flatness
verdict is worked out once, each node of each field is evaluated at most
once on the sample, its jets once per order, and DAG-shaped fields stay
cheap to evaluate.

Work is counted by wrapping the private workers (`_derive`, `_zero_test`,
the evaluator's `_walk`, per-node rule and binary operations, the jets'
`_propagate`), never by wall time.
"""

import hashlib
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import walkergeo.classify as classify
import walkergeo.curvature as curvature
import walkergeo.expressions as ex
import walkergeo.ftensor as ftensor
import walkergeo.jets as jets
import walkergeo.sampling as sampling
import walkergeo.structure as structure
import walkergeo.walker as walker
from walkergeo.classify import named_classes
from walkergeo.cli import main
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.errors import EvaluationError
from walkergeo.expressions import Num, parse, to_source
from walkergeo.jets import eval_jet
from walkergeo.manifest import parse_manifest
from walkergeo.report import build_report
from write_reports import read_manifest

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
# each of the report's evaluations is made again outside any analysis, so
# that every one walks its field afresh
WALKED_AFRESH_BINARY = {
    "g0-parallel": 42, "g5g6-normal": 198, "g10-almost-paracosymplectic": 59,
    "g6g10-almost-alpha": 207, "g12-pure": 41, "paracontact-exponential": 600,
    "paracontact-constant": 156, "eta-einstein-parabolic": 6,
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
                           lambda e, domain: (to_source(e), domain))
    sampled = recording(monkeypatch, sampling, "evaluate_with_scale",
                        lambda e, points: e)
    flatness = recording(monkeypatch, walker, "_flatness", lambda M: M)
    gradients = recording(monkeypatch, ftensor, "_gradients",
                          lambda fields, pts: (tuple(map(id, fields)), id(pts)))
    build_report(S, name=name)

    assert derived and max(Counter(derived).values()) == 1
    assert zero_tests and max(Counter(zero_tests).values()) == 1
    assert not [e for e in sampled if isinstance(e, Num) and e.value == 0]
    assert flatness == [S.manifold]
    # the coordinate d(eta) is shared by the normality and named-class routes
    eta_fields = tuple(map(id, S.eta))
    assert [key for key in gradients if key[0] == eta_fields]
    assert max(Counter(gradients).values()) == 1


VERDICTS = (classify.classify_basic, classify.is_paracontact_metric,
            classify.is_normal, classify.named_classes,
            curvature.eta_einstein_check, curvature.curvature_equivalences,
            curvature.eta_einstein_report, build_report)


@pytest.mark.parametrize("verdict", VERDICTS, ids=lambda f: f.__name__)
def test_a_verdict_is_decided_once_per_analysis(verdict):
    S = load_fixture("eta-einstein-parabolic").build(samples=8)
    with ex.analysis():
        first = verdict(S)
        assert verdict(S) is first
    assert verdict(S) is not first


def test_flatness_and_segre_type_are_decided_once_per_analysis():
    S = load_fixture("eta-einstein-parabolic").build(samples=8)
    M, point = S.manifold, tuple(S.domain.sample()[0])
    with ex.analysis():
        flat, segre = walker.flatness(M), walker.segre_type(M, point)
        assert walker.flatness(M) is flat
        assert walker.segre_type(M, np.array(point)) is segre
    assert walker.flatness(M) is not flat
    assert walker.segre_type(M, point) is not segre


def test_an_eta_einstein_report_tests_its_discriminant_once(monkeypatch):
    # eta-Einstein with xi1 = -f_xy / f_xx = -1; the discriminant of
    # eta-einstein-parabolic folds to the literal 0, which is not evaluated
    text = read_manifest("parabolic").replace('"x^2"', '"(x + y)^3"')
    S = parse_manifest(text.replace("xi1 = 0", "xi1 = -1")).build(samples=8)
    h = walker.f_hessian(S.manifold.f)
    # the discriminant node, and the form the coordinate route once built
    forms = (h["disc"], h["fxy"] ** 2 - h["fxx"] * h["fyy"])
    sampled = recording(monkeypatch, sampling, "evaluate_with_scale",
                        lambda e, points: e)
    segre = recording(monkeypatch, walker, "_segre_type",
                      lambda M, point: point)
    report = build_report(S, name="cubic")
    assert report.exit_status == 0
    assert report.curvature["eta_einstein"]["holds"]
    assert report.curvature["segre"]["kind"] == "type11_1_degenerate"
    assert sum(e in forms for e in sampled) == 1
    assert len(segre) == 1


def test_quotient_chain_derivatives_are_worked_out_once(monkeypatch):
    f = parse(QUOTIENT_CHAIN)
    derived = recording(monkeypatch, ex, "_derive",
                        lambda e, var, derivatives: (id(e), var))
    with ex.analysis():
        third = ex.diff(ex.diff(ex.diff(f, "x"), "x"), "x")
        assert ex.diff(ex.diff(f, "x"), "x") is ex.diff(ex.diff(f, "x"), "x")
    assert max(Counter(derived).values()) == 1
    # 967 distinct nodes; written out as a tree, 4.5 million
    assert len(list(ex.walk(third))) < 2000


def test_depth_visits_each_distinct_node_once(monkeypatch):
    with ex.analysis():
        third = ex.diff(ex.diff(ex.diff(parse(QUOTIENT_CHAIN), "x"), "x"), "x")
    distinct = len(list(ex.walk(third)))
    assert distinct == 967
    expanded = recording(monkeypatch, ex, "_children", id)
    assert ex.depth(third) == 387
    # level by level, the tree has about 4.5 million nodes
    assert len(expanded) <= 2 * distinct


def test_evaluation_visits_each_distinct_node_once(monkeypatch):
    with ex.analysis():
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
    held = []   # keeps fields, point arrays and tables alive, so ids stay unique

    def field_and_points(e, pts, kept):
        held.append((e, pts, kept))
        return id(e), id(pts), id(kept), e in kept

    walks = recording(monkeypatch, ex, "_walk", field_and_points)
    build_report(S, name=name)
    # a walk whose field is not yet kept evaluates it; any later one finds it
    evaluated = [key[:3] for key in walks if not key[3]]
    sampled = [key for key in evaluated if key[1] == id(S.domain.sample())]
    assert sampled and max(Counter(evaluated).values()) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_report_applies_fewer_binary_ufuncs(monkeypatch, name):
    evaluate, calls = ex.evaluate_with_scale, []

    def recorded(e, points):
        calls.append((e, points))
        return evaluate(e, points)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("walkergeo")
                and vars(module).get("evaluate_with_scale") is evaluate):
            monkeypatch.setattr(module, "evaluate_with_scale", recorded)
    operations = counting_binary(monkeypatch)
    build_report(load_fixture(name).build(samples=8), name=name)
    kept = sum(operations.values())
    # then every evaluation of the report again, afresh: outside any analysis
    operations.clear()
    for e, points in calls:
        evaluate(e, points)
    afresh = sum(operations.values())
    assert kept < afresh <= WALKED_AFRESH_BINARY[name]


def test_kept_arrays_are_read_only_and_reused():
    pts, field = sample(), parse("x*y/(1 + z^2)")
    with ex.analysis():
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
    with ex.analysis():
        ex.evaluate_with_scale(inner, pts)
        operations = counting_binary(monkeypatch)
        got = ex.evaluate_with_scale(outer, pts)
    assert not operations   # only the exp above the kept quotient is applied
    for a, b in zip(got, fresh):
        assert np.array_equal(a, b)


def test_a_field_that_raised_is_not_kept(monkeypatch):
    pts = sample()
    good, bad = parse("x - 1"), parse("1/(x - x)")
    nodes = recording(monkeypatch, ex, "_evaluate_node",
                      lambda node, args, p: node)
    with ex.analysis():
        ex.evaluate_with_scale(good, pts)
        for _ in range(2):
            with pytest.raises(EvaluationError, match="division by zero"):
                ex.evaluate_with_scale(bad, pts)
        kept = ex.once(pts, "values", (), dict)
        assert good in kept and bad not in kept
    # the quotient raised both times; its divisor was kept from the first
    assert nodes.count(bad) == 2 and nodes.count(parse("x - x")) == 1


def test_outside_an_analysis_nothing_is_kept(monkeypatch):
    pts, field = sample(), parse("x*y + z")
    nodes = recording(monkeypatch, ex, "_evaluate_node",
                      lambda node, args, p: node)
    first = ex.evaluate_with_scale(field, pts)
    second = ex.evaluate_with_scale(field, pts)
    assert first[0] is not second[0]
    ex.evaluate_with_scale(field, pts[:1])
    ex.evaluate_with_scale(field, pts[:1])
    with ex.analysis() as analysis:
        for _ in range(2):   # a writable array is never found again
            ex.evaluate_with_scale(field, np.array(pts))
        assert ex.once_key(pts, "values", ()) not in analysis
        ex.evaluate_with_scale(field, pts)
        ex.evaluate_with_scale(field, pts)
        assert set(ex.once(pts, "values", (), dict)) == set(ex.walk(field))
    # 7 of the 8 calls evaluated every node; the last found the kept field
    assert set(Counter(nodes).values()) == {7}


def test_one_point_is_kept_by_its_bytes(monkeypatch):
    pts, field = sample(), parse("x*y + z")
    nodes = recording(monkeypatch, ex, "_evaluate_node",
                      lambda node, args, p: node)
    with ex.analysis() as analysis:
        one = ex.batch_of_one(pts[0])
        value, scale = ex.evaluate_with_scale(field, one)
        # an equal new point, as a tuple, gets the same batch of one, and
        # with it the kept values
        equal = ex.batch_of_one(tuple(pts[0]))
        again = ex.evaluate_with_scale(field, equal)
        assert equal is one
        point, values = analysis   # the analysis keeps these two alone
        assert point == ex.once_key(ex.batch_of_one, "point",
                                    (pts[0].tobytes(),))
        assert values == ex.once_key(one, "values", ())
    assert one.shape == (1, 3) and not one.flags.writeable
    assert nodes == ex.walk(field)
    assert again[0] is value and again[1] is scale
    assert value[0] == pts[0, 0] * pts[0, 1] + pts[0, 2]


def test_a_shared_node_is_kept_from_its_first_evaluation(monkeypatch):
    pts, product = sample(), parse("x*y")
    fields = [parse("x*y + z"), parse("x*y - z"), parse("x*y * z")]
    nodes = recording(monkeypatch, ex, "_evaluate_node",
                      lambda node, args, p: node)
    with ex.analysis():
        fresh = []
        for field in fields:
            fresh.append(product in ex.once(pts, "values", (), dict))
            ex.evaluate_with_scale(field, pts)
        values, scale = ex.once(pts, "values", (), dict)[product]
    assert fresh == [False, True, True]
    assert nodes.count(product) == 1
    assert not values.flags.writeable and not scale.flags.writeable
    assert np.array_equal(values, pts[:, 0] * pts[:, 1])


def test_a_writable_batch_changed_in_place_gets_fresh_values():
    S = load_fixture("g5g6-normal").build(samples=8)
    pts, field = np.array(S.domain.sample()), parse("x*y + z")
    with ex.analysis():
        before = ex.evaluate_with_scale(field, pts)[0].copy()
        jet = eval_jet(field, pts, 1)
        frame = S.frame(pts)
        pts += 0.25
        want = pts[:, 0] * pts[:, 1] + pts[:, 2]
        assert not np.array_equal(before, want)
        assert np.array_equal(ex.evaluate_with_scale(field, pts)[0], want)
        assert np.array_equal(eval_jet(field, pts, 1).value, want)
        assert eval_jet(field, pts, 1) is not jet
        again = S.frame(pts)
    assert again is not frame
    assert np.array_equal(again.g, S.frame(pts).g)


@pytest.mark.parametrize("samples", [64, 512])
@pytest.mark.parametrize("name", NAMES)
def test_no_node_is_evaluated_more_than_twice_on_the_sample(
        monkeypatch, name, samples):
    # at most once, in fact: each node is kept from its first evaluation
    S = load_fixture(name).build(samples=samples)
    held = []   # keeps point arrays alive, so ids stay unique

    def node_and_points(node, args, pts):
        held.append(pts)
        return node, id(pts)

    evaluated = recording(monkeypatch, ex, "_evaluate_node", node_and_points)
    tables = recording(monkeypatch, ex, "_walk", lambda e, pts, kept: kept)
    build_report(S, name=name)
    sample = id(S.domain.sample())
    counts = Counter(key for key in evaluated if key[1] == sample)
    assert counts and max(counts.values()) == 1
    kept = [array for table in {id(t): t for t in tables}.values()
            for arrays in table.values() for array in arrays]
    assert kept and not [array for array in kept if array.flags.writeable]


@pytest.mark.parametrize("name", NAMES)
def test_each_jet_is_computed_once_per_order(monkeypatch, name):
    S = load_fixture(name).build(samples=8)
    kept = []   # keeps point arrays alive, so ids stay unique

    def field_points_order(e, pts, order, table):
        kept.append(pts)
        return e, pts.tobytes() if pts.ndim == 1 else id(pts), order

    computed = recording(monkeypatch, jets, "_propagate", field_points_order)
    build_report(S, name=name)
    assert computed and max(Counter(computed).values()) == 1


@pytest.mark.parametrize("name", NAMES)
def test_the_jet_of_f_is_propagated_once_on_the_sample(monkeypatch, name):
    # the sample's frame propagates f to order 2, for the curvature routes,
    # and cuts its own order-1 jet from that
    S = load_fixture(name).build(samples=64)
    computed = recording(monkeypatch, jets, "_propagate",
                         lambda e, pts, order, table: (e, pts, order))
    build_report(S, name=name)
    sample = S.domain.sample()
    assert [order for e, pts, order in computed
            if e is S.manifold.f and pts is sample] == [2]


def test_the_frame_route_reads_the_tensor_forms_it_formed(monkeypatch):
    S = load_fixture("g5g6-normal").build(samples=8)
    pts = S.domain.sample()
    formed = recording(monkeypatch, ftensor, "_tensor_forms",
                       lambda F, xi, phi, ginv: F)
    with ex.analysis():
        t = ftensor.f_tensor_at(S, pts)
        forms = ftensor.theta_forms(S, pts)
        ftensor.project_components(S, pts)
        assert ftensor.f_tensor_at(S, pts) is t
    assert len(formed) == 1 and formed[0] is t.components
    assert forms.theta is t.theta and forms.theta_star is t.theta_star
    for array in (t.theta, t.theta_star, t.reeb_square):
        assert not array.flags.writeable


@pytest.mark.parametrize("name", NAMES)
def test_a_report_builds_one_frame_on_its_sample(monkeypatch, name):
    S = load_fixture(name).build(samples=8)
    built = []
    original = structure.Frame.__init__

    def init(frame, S, points):
        built.append(points)
        original(frame, S, points)

    monkeypatch.setattr(structure.Frame, "__init__", init)
    build_report(S, name=name)
    sample = S.domain.sample()
    assert sum(points is sample for points in built) == 1
    assert not [points for points in built if np.ndim(points) > 1
                and points is not sample]


def test_everything_kept_dies_when_the_outermost_analysis_closes(monkeypatch):
    S = load_fixture("g5g6-normal").build(samples=8)
    pts, field = S.domain.sample(), parse("x*y/(1 + z^2)")
    with ex.analysis() as outer:
        with ex.analysis() as inner:    # joins the open analysis
            values, _ = ex.evaluate_with_scale(field, pts)
            frame = S.frame(pts)
            refs = [weakref.ref(values), weakref.ref(frame)]
        assert inner is outer
        assert ex.evaluate_with_scale(field, pts)[0] is values
        assert S.frame(pts) is frame
        del values, frame, inner, outer
    assert [ref() for ref in refs] == [None, None]

    # and every frame a report built, once the report returns
    frames, init = [], structure.Frame.__init__

    def recording_init(frame, *args):
        init(frame, *args)
        frames.append(weakref.ref(frame))

    monkeypatch.setattr(structure.Frame, "__init__", recording_init)
    build_report(S, name="g5g6-normal")
    assert frames and [ref() for ref in frames] == [None] * len(frames)


def summary(verdict):
    """What named_classes decided, with every route's witness and residual."""
    return (verdict.named, verdict.basic.labels,
            [(c.name, c.fails, c.routes) for c in verdict.checks])


def test_a_nested_analysis_of_another_structure_reads_only_its_own():
    first = load_fixture("g5g6-normal").build(samples=8)
    second = load_fixture("paracontact-exponential").build(samples=8)
    pts = first.domain.sample()
    assert second.domain.sample() is pts and second.domain == first.domain
    alone = named_classes(second)   # in an analysis of its own
    eta_alone = ftensor.d_eta_coordinate_batch(
        second, ftensor.split_components_batch(second, pts))
    with ex.analysis() as analysis:
        # the first structure's split and eta partials, on the same sample
        classify.is_normal(first)
        first_batch = classify._components(first)
        joined = named_classes(second)   # joins the open analysis
        assert ex.once_key(second, classify.classify_basic, ()) in analysis
        batch = classify._components(second)
        assert batch is not first_batch
        eta = ftensor.d_eta_coordinate_batch(second, batch)
        # the second structure's release left the first one's entries
        assert classify._components(first) is first_batch
    assert summary(joined) == summary(alone)
    assert np.array_equal(eta, eta_alone)
