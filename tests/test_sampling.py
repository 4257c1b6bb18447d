from collections import Counter

import numpy as np
import pytest

import walkergeo.sampling as sampling
from walkergeo.cli import main
from walkergeo.errors import EmptyDomainError, EvaluationError
from walkergeo.expressions import evaluate_with_scale, parse
from walkergeo.manifest import load_manifest
from walkergeo.sampling import (
    Domain,
    Interval,
    SamplingConfig,
    bound,
    is_identically_zero,
    nonvanishing,
    zero_verdict_from_samples,
)

from write_reports import MANIFESTS

BOX = (Interval(0.5, 2.0), Interval(0.5, 2.0), Interval(0.5, 2.0))


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_sampling_is_deterministic_and_inside():
    d = Domain(BOX, sampling=SamplingConfig(samples=32, seed=11))
    pts = d.sample()
    again = Domain(BOX, sampling=SamplingConfig(samples=32, seed=11)).sample()
    assert pts.shape == (32, 3)
    assert np.array_equal(pts, again)
    assert np.all(pts >= 0.5) and np.all(pts <= 2.0)
    other = d._replace(sampling=SamplingConfig(samples=32, seed=12)).sample()
    assert not np.array_equal(pts, other)


def test_positivity_constraint_filters_points():
    # x - y > 0 keeps roughly half the box; sampling must still fill up
    d = Domain(BOX, positive=(parse("x - y"),),
               sampling=SamplingConfig(samples=50, seed=3))
    pts = d.sample()
    assert pts.shape == (50, 3)
    assert np.all(pts[:, 0] > pts[:, 1])


def test_contradictory_constraint_exhausts():
    d = Domain(BOX, positive=(parse("-1 - x"),),
               sampling=SamplingConfig(samples=8, seed=0))
    with pytest.raises(EmptyDomainError):
        d.sample()


def test_nonzero_constraint():
    d = Domain((Interval(-1.0, 1.0), Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
               nonzero=(parse("x"),), sampling=SamplingConfig(samples=40, seed=5))
    pts = d.sample()
    assert np.all(np.abs(pts[:, 0]) > 0)


def test_contains():
    d = Domain(BOX)
    assert d.contains((1.0, 1.0, 1.0))
    assert not d.contains((0.0, 1.0, 1.0))
    # a point where a constraint cannot be evaluated is outside
    d = Domain(BOX, positive=(parse("sqrt(x - 1)"),))
    assert d.contains((1.5, 1.0, 1.0))
    assert not d.contains((0.75, 1.0, 1.0))


def test_zero_verdict_on_actual_zero():
    d = Domain(BOX, sampling=SamplingConfig(samples=64, seed=42))
    v = is_identically_zero(parse("(x + y)^2 - x^2 - 2*x*y - y^2"), d)
    assert v
    assert v.holds
    assert v.witness is None
    assert v.residual <= 1e-12


def test_zero_verdict_finds_witness():
    d = Domain(BOX, sampling=SamplingConfig(samples=64, seed=42))
    v = is_identically_zero(parse("x - y"), d)
    assert not v.holds
    assert v.witness is not None
    # the witness is a point past the bound tol * (1 + scale), the scale
    # of x - y being its largest subexpression magnitude there
    x, y, _ = v.witness
    assert abs(x - y) > d.sampling.tol * (1 + max(x, y))
    assert v.residual > d.sampling.tol


def test_zero_verdict_scales_relative():
    # 1e6 * (tiny but nonzero) must not pass just because values start big
    d = Domain(BOX, sampling=SamplingConfig(samples=64, seed=1))
    v = is_identically_zero(parse("1000000*(x - y)"), d)
    assert not v.holds


def test_nonvanishing_verdict():
    d = Domain(BOX, sampling=SamplingConfig(samples=64, seed=42))
    assert nonvanishing(parse("x + y"), d).holds
    # detection is sample-based: catching the zero set of x - y needs a
    # tolerance wider than the closest sample's residual
    v = nonvanishing(parse("x - y"),
                     d._replace(sampling=d.sampling.with_overrides(tol=1e-2)))
    assert not v.holds
    assert v.witness is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_residual_raises_naming_its_first_point(bad):
    pts = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [3.0, 1.0, 1.0]])
    values = np.array([0.0, bad, bad])
    for decide in (lambda: zero_verdict_from_samples(values, 0.0, pts, 1e-9),
                   lambda: bound(values, 1e-9, pts)):
        with pytest.raises(EvaluationError, match="non-finite value") as err:
            decide()
        assert err.value.point == (2.0, 1.0, 1.0)


def test_with_overrides():
    cfg = SamplingConfig()
    assert cfg.samples == 64 and cfg.seed == 42 and cfg.tol == 1e-9
    out = cfg.with_overrides(samples=16, tol=1e-6)
    assert out == SamplingConfig(samples=16, seed=42, tol=1e-6)
    assert cfg.with_overrides() == cfg


def admissible_alone(domain, point) -> bool:
    """The point-by-point rule the sampler's batches must reproduce: the
    point's batch of one meets every constraint with margin, and a
    constraint that raises there refuses it."""
    one = point.reshape(1, 3)
    for field, positive in [(f, True) for f in domain.positive] + [
            (f, False) for f in domain.nonzero]:
        try:
            value, scale = evaluate_with_scale(field, one)
        except EvaluationError:
            return False
        if not (value[0] if positive else abs(value[0])) > (
                sampling.CONSTRAINT_MARGIN * (1.0 + scale[0])):
            return False
    return True


def counted_evaluations(monkeypatch, field) -> Counter:
    """Count the sampler's candidate batches and its evaluations of field."""
    count, evaluate = Counter(), sampling.evaluate_with_scale
    admissible = Domain._admissible

    def evaluations(e, pts):
        count["evaluations"] += e is field
        return evaluate(e, pts)

    def batches(domain, pts):
        count["batches"] += 1
        return admissible(domain, pts)

    monkeypatch.setattr(sampling, "evaluate_with_scale", evaluations)
    monkeypatch.setattr(Domain, "_admissible", batches)
    return count


@pytest.mark.parametrize("samples", [64, 512])
def test_a_constraint_that_fails_on_a_batch_is_evaluated_point_by_point(
        monkeypatch, capsys, samples):
    # every candidate batch holds some x <= 1 (and y <= 1), where a sqrt of
    # the constraint cannot be evaluated: each failing sqrt drops its rows
    # and the rest is evaluated again, so the sample is the one a point by
    # point evaluation draws, and a batch costs at most one evaluation per
    # failing node and one that succeeds
    for stem, failing in [("sqrt-constraint", 1), ("two-guard-constraint", 2)]:
        path = MANIFESTS / f"{stem}.manifest"
        domain = load_manifest(path).domain._replace(
            sampling=SamplingConfig(samples=samples))
        with monkeypatch.context() as patch:
            patch.setattr(Domain, "_admissible", lambda domain, pts: np.array(
                [admissible_alone(domain, p) for p in pts], dtype=bool))
            # uncached, so that each call draws the sample itself
            reference = Domain.sample.__wrapped__(domain)
        with monkeypatch.context() as patch:
            count = counted_evaluations(patch, domain.positive[0])
            pts = Domain.sample.__wrapped__(domain)
        assert pts.shape == (samples, 3) and np.all(pts[:, 0] > 1.0), stem
        assert pts.tobytes() == reference.tobytes(), stem
        assert count["batches"] < count["evaluations"] <= (
            (1 + failing) * count["batches"]), stem
        assert main(["analyze", str(path), "--samples", str(samples)]) == 0
        capsys.readouterr()


def test_a_constraint_that_never_evaluates_exhausts(monkeypatch):
    # sqrt(x - 5) raises at every point of the box: each batch drops all of
    # its rows at once and evaluates the empty rest, twice in all
    field = parse("sqrt(x - 5)")
    d = Domain(BOX, positive=(field,), sampling=SamplingConfig(samples=64))
    count = counted_evaluations(monkeypatch, field)
    with pytest.raises(EmptyDomainError, match="after 200 batches"):
        Domain.sample.__wrapped__(d)
    assert count["batches"] == sampling._MAX_BATCHES
    assert count["evaluations"] == 2 * count["batches"]
