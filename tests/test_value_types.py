"""The value types: NamedTuple records and slotted classes, none of them a
dataclass, keeping what the rest of the package relies on (immutability,
equality where objects are keys, interned expression nodes, validation,
truthiness, read-only arrays)."""

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import walkergeo
import walkergeo.expressions as ex
from walkergeo.classify import named_classes
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.curvature import eta_einstein_check
from walkergeo.expressions import Add, Num, Sub, Var, parse
from walkergeo.ftensor import f_tensor_at
from walkergeo.jets import eval_jet
from walkergeo.report import build_report
from walkergeo.sampling import Domain, Interval, Route, SamplingConfig
from walkergeo.walker import SegreVerdict, flatness

SRC = str(Path(walkergeo.__file__).resolve().parents[1])
MODULES = [importlib.import_module(f"walkergeo.{info.name}")
           for info in pkgutil.iter_modules(walkergeo.__path__)]


def test_no_class_of_the_package_is_a_dataclass():
    classes = {value for module in MODULES for value in vars(module).values()
               if isinstance(value, type)
               and value.__module__.startswith("walkergeo")}
    assert len(classes) > 40
    assert not [c.__name__ for c in classes if dataclasses.is_dataclass(c)]


def test_importing_the_cli_does_not_load_dataclasses():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, walkergeo.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "False\n"


@pytest.fixture(scope="module")
def structure():
    return load_fixture("eta-einstein-parabolic").build(samples=8)


def test_assigning_a_field_raises(structure):
    point = structure.domain.sample()[0]
    values = [
        (parse("x*y + 1"), "left"), (Num(2), "value"), (Var("x"), "name"),
        (Interval(0.0, 1.0), "lo"), (SamplingConfig(), "samples"),
        (structure.domain, "positive"), (Route(True), "holds"),
        (f_tensor_at(structure, point), "components"),
        (build_report(structure, name="v"), "failures"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_equal_keys_are_equal_and_hash_equal():
    source = "x*exp(y - z)/(1 + x^2) - sqrt(y)"
    a, b = parse(source), parse(source)
    assert a is b
    assert Add(Var("x"), Var("y")) != Sub(Var("x"), Var("y"))
    assert parse("x + y") != parse("y + x")
    assert SamplingConfig(16, 5) == SamplingConfig(samples=16, seed=5)
    assert hash(SamplingConfig(16, 5)) == hash(SamplingConfig(16, 5))
    assert SamplingConfig(16, 5) != SamplingConfig(16, 6)
    d1, d2 = (load_fixture(f.name).domain for f in FIXTURES[:1] * 2)
    assert d1 is not d2 and d1 == d2 and hash(d1) == hash(d2)
    # equal domains share the cached sample
    assert d1.sample() is d2.sample()
    assert Interval(0.5, 2) == Interval(0.5, 2.0)
    assert hash(Interval(0.5, 2)) == hash(Interval(0.5, 2.0))
    assert Interval(0.5, 2) != (0.5, 2) and not Interval(0.5, 2) == (0.5, 2)
    assert repr(Interval(0.5, 2)) == "Interval(lo=0.5, hi=2)"


def test_a_domain_hashes_without_python_code():
    # a zero test's analysis key holds its domain, hashed on every lookup
    domain = Domain((Interval(0.5, 2), Interval(0.5, 2), Interval(0, 1)))
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append((event, frame)))
    try:
        hash(domain)
    finally:
        sys.setprofile(None)
    assert not [frame for event, frame in calls if event == "call"]


def test_a_cached_sample_is_found_without_python_code():
    # each analysis of a freshly read manifest looks its sample up by a new
    # box equal to the cached one; equal intervals are one object, so the
    # lookup compares the boxes in C
    load_fixture("g12-pure").domain.sample()
    domain = load_fixture("g12-pure").domain
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append((event, frame)))
    try:
        domain.sample()
    finally:
        sys.setprofile(None)
    assert not [frame for event, frame in calls if event == "call"]


def test_equal_trees_are_one_node():
    assert Num(3) is Num(Fraction(3)) is parse("3")
    assert parse("x*y") is Var("x") * Var("y")
    assert parse("x*y") is not parse("y*x")
    e = parse("x*exp(y - z)/(1 + x^2)")
    assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e


def test_the_intern_table_does_not_grow_across_analyses():
    def analyze():
        S = load_fixture("paracontact-exponential").build(samples=8)
        build_report(S, name="paracontact-exponential")

    analyze()
    live = len(ex._NODES)
    for _ in range(50):
        analyze()
    assert 0 < len(ex._NODES) <= live


def test_fields_are_validated_and_coerced():
    assert type(Num(3).value) is Fraction and Num(3) == Num(Fraction(3))
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2.0, 1.0)


def test_a_replaced_or_made_interval_is_checked_and_shared():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(0.5, 2)._replace(hi=0.1)
    with pytest.raises(ValueError, match="empty interval"):
        Interval._make((3, 1))
    assert Interval(0.5, 2)._replace(hi=3) is Interval._make((0.5, 3)) \
        is Interval(0.5, 3)


def test_defaults_and_keywords():
    assert SamplingConfig() == SamplingConfig(samples=64, seed=42, tol=1e-9)
    segre = SegreVerdict(kind="flat", eigenvalues=(0.0, 0.0, 0.0))
    assert segre.max_residual == 0.0 and segre.degeneracy is None
    route = Route(False, witness=(1.0, 1.0, 1.0))
    assert route.residual == 0.0 and Route(True) == (True, None, 0.0)
    assert Domain((Interval(0, 1),) * 3).nonzero == ()


def test_a_nonempty_verdict_is_false_when_its_decision_is():
    assert not Route(False, None, 1.0) and Route(True, None, 0.0)
    assert not Route(False, (1.0, 1.0, 1.0), 2.0)


@pytest.mark.parametrize("name", [f.name for f in FIXTURES])
def test_verdicts_are_truthy_by_their_decision(name):
    S = load_fixture(name).build(samples=8)
    verdict = named_classes(S)
    flat = flatness(S.manifold)
    check = eta_einstein_check(S)
    pairs = [(verdict.paracontact, verdict.paracontact.is_paracontact),
             (verdict.normality, verdict.normality.is_normal),
             (flat, flat.flat), (check, check.is_eta_einstein)]
    pairs += [(v, v.holds) for v in verdict.named.values()]
    pairs += [(r, r.holds) for c in verdict.checks for r in c.routes]
    for value, decision in pairs:
        assert bool(value) is bool(decision)


def test_tensor_arrays_are_read_only(structure):
    # the structure tensor at a point and over the sample, and the jets of f
    # the Walker kernels read
    pts = structure.domain.sample()
    tensor, batch = f_tensor_at(structure, pts[0]), f_tensor_at(structure, pts)
    M = structure.manifold
    arrays = [tensor.components, tensor.reeb_square, batch.components,
              batch.reeb_square,
              *(eval_jet(M.f, pts, order).coeffs for order in range(3))]
    for array in arrays:
        assert isinstance(array, np.ndarray) and not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
