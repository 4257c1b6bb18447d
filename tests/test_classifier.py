from functools import partial

import numpy as np
import pytest

from geometry_oracles import BOX, build as build_on_box, paracontact_family
from walkergeo import report
from walkergeo.classify import (
    NEVER,
    Check,
    Route,
    classify_basic,
    decide,
    every,
    is_normal,
    is_paracontact_metric,
    named_classes,
    paracontact_condition_fields,
)
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.errors import InputError
from walkergeo.expressions import diff, parse
from walkergeo.ftensor import theta_star_xi_field
from walkergeo.sampling import SamplingConfig, is_identically_zero

CFG = SamplingConfig(samples=24, seed=17)
build = partial(build_on_box, sampling=CFG)

EXPECTED_BASIC = {
    "g0-parallel": (frozenset(), "G0"),
    "g5g6-normal": (frozenset({"G5", "G6"}), "G5 + G6"),
    "g10-almost-paracosymplectic": (frozenset({"G10"}), "G10"),
    "g6g10-almost-alpha": (frozenset({"G6", "G10"}), "G6 + G10"),
    "g12-pure": (frozenset({"G12"}), "G12"),
    "paracontact-exponential": (frozenset({"G5", "G10"}), "G5bar + G10"),
    "paracontact-constant": (frozenset({"G5", "G10"}), "G5bar + G10"),
    "eta-einstein-parabolic": (frozenset(), "G0"),
    "flat-bilinear": (frozenset({"G10"}), "G10"),
}

EXPECTED_NAMED = {
    "g0-parallel": {"normal", "paracosymplectic"},
    "g5g6-normal": {"normal"},
    "g10-almost-paracosymplectic": {"almost_paracosymplectic"},
    "g6g10-almost-alpha": {"almost_alpha_paracosymplectic"},
    "g12-pure": set(),
    "paracontact-exponential": {"paracontact_metric"},
    "paracontact-constant": {"paracontact_metric"},
    "eta-einstein-parabolic": {"normal", "paracosymplectic"},
    "flat-bilinear": {"almost_paracosymplectic"},
}



@pytest.mark.parametrize("name", list(EXPECTED_BASIC), ids=list(EXPECTED_BASIC))
def test_fixture_basic_classes(name):
    m = load_fixture(name)
    S = m.build()
    basic = classify_basic(S)
    members, display = EXPECTED_BASIC[name]
    assert basic.members == members
    assert basic.display() == display
    assert not basic.model.fails
    assert basic.model.routes[0].residual <= 1e-9


@pytest.mark.parametrize("name", list(EXPECTED_NAMED), ids=list(EXPECTED_NAMED))
def test_fixture_named_classes(name):
    m = load_fixture(name)
    v = named_classes(m.build())
    true_names = {n for n, route in v.named.items() if route.holds}
    assert true_names == EXPECTED_NAMED[name]
    assert not any(c.fails for c in v.checks)


def test_g5bar_flag_only_on_paracontact_fixtures():
    for name, (_, display) in EXPECTED_BASIC.items():
        m = load_fixture(name)
        basic = classify_basic(m.build())
        assert basic.g5bar == ("G5bar" in display)


def test_alpha_report_presence():
    # alpha tracks -theta*/2; it is reported when a G6 part is present
    m = load_fixture("g6g10-almost-alpha")
    v = named_classes(m.build())
    assert v.alpha is not None
    assert v.alpha.value is None
    assert not v.theta_star_constant
    # nonconstant alpha blocks the Kenmotsu refinement, at a sampled point
    kenmotsu = v.named["almost_alpha_para_kenmotsu"]
    assert not kenmotsu.holds
    assert kenmotsu.witness is not None

    m = load_fixture("g10-almost-paracosymplectic")
    v = named_classes(m.build())
    assert v.alpha is None  # theta* vanishes identically


# ----------------------------------------------------------------- paracontact

def test_paracontact_family_instances():
    for psi, mfun in (("z", "0"), ("1", "1")):
        S = paracontact_family(parse(psi), parse(mfun), BOX._replace(sampling=CFG))
        verdict = is_paracontact_metric(S)
        assert verdict.is_paracontact
        assert not verdict.check.fails
        assert verdict.check.routes[1].holds
        basic = classify_basic(S)
        assert basic.members == frozenset({"G5", "G10"})
        assert basic.g5bar


def test_paracontact_family_validates_psi():
    with pytest.raises(InputError):
        paracontact_family(parse("x"), parse("0"), BOX._replace(sampling=CFG))
    with pytest.raises(InputError):
        paracontact_family(parse("z"), parse("y"), BOX._replace(sampling=CFG))


def test_perturbed_family_member_fails_with_witness():
    # add x^2 to the metric function, keep the Reeb field unit: the second
    # defining condition picks up a residual proportional to x xi3
    f = "2*x + x^2"
    xi3 = "exp(z - 2*y)"
    xi1 = f"(1 - ({f})*exp(2*z - 4*y))/(2*{xi3})"
    S = build(f, (xi1, "0", xi3))
    verdict = is_paracontact_metric(S)
    assert not verdict.is_paracontact
    assert not verdict.check.fails
    failing = [v for v in verdict.conditions if not v.holds]
    assert failing
    assert not verdict.conditions[1].holds
    assert verdict.conditions[1].witness is not None


def test_paracontact_condition_fields_vanish_on_family():
    S = paracontact_family(parse("z"), parse("0"), BOX._replace(sampling=CFG))
    for field in paracontact_condition_fields(S):
        assert is_identically_zero(field, S.domain)


def test_paracontact_shape_invariant():
    # a paracontact structure always reads G5bar + G10 (or pure G5bar) and
    # its theta(xi) is the constant 2
    from walkergeo.ftensor import theta_xi_field

    S = paracontact_family(parse("z"), parse("0"), BOX._replace(sampling=CFG))
    basic = classify_basic(S)
    assert basic.members <= {"G5", "G10"}
    assert "G5" in basic.members and basic.g5bar
    two = parse("2")
    assert is_identically_zero(theta_xi_field(S) - two, S.domain)


def test_reeb_without_null_component_is_never_paracontact():
    # xi3 = 0 admits no solution of the defining conditions
    for name in ("g5g6-normal", "g12-pure", "flat-bilinear"):
        m = load_fixture(name)
        verdict = is_paracontact_metric(m.build())
        assert not verdict.is_paracontact
        assert verdict.shortcut is not None
        assert not verdict.check.fails


def test_null_direction_reeb_is_never_paracontact():
    # xi1 = xi2 = 0 is obstructed as well
    m = load_fixture("g6g10-almost-alpha")
    verdict = is_paracontact_metric(m.build())
    assert not verdict.is_paracontact
    assert verdict.shortcut is not None
    assert not verdict.check.fails


# -------------------------------------------------------------------- normality

def test_normal_iff_members_within_g5_g6():
    for name, (members, _) in EXPECTED_BASIC.items():
        m = load_fixture(name)
        S = m.build()
        verdict = is_normal(S)
        assert verdict.is_normal == (members <= {"G5", "G6"})
        assert not verdict.check.fails, name
        # the coordinate route, present for the Reeb shape (xi1, +-1, 0)
        for setting in verdict.check.routes[2:]:
            assert setting.holds == verdict.is_normal


def test_normal_and_paracontact_exclude_each_other():
    for fx in FIXTURES:
        m = load_fixture(fx.name)
        S = m.build()
        v = named_classes(S)
        assert not (v.named["normal"].holds
                    and v.named["paracontact_metric"].holds), fx.name


# ------------------------------------------------------------ extra structures

def test_vanishing_tensor_despite_nonconstant_data():
    # f = (x + y)^2 with xi = (-1, 1, 0): the two x3 y3 contributions cancel
    S = build("(x + y)^2", ("-1", "1", "0"))
    basic = classify_basic(S)
    assert basic.members == frozenset()
    v = named_classes(S)
    assert v.named["paracosymplectic"].holds
    assert v.named["normal"].holds
    assert not any(c.fails for c in v.checks)


def test_unit_y_setting_with_negative_sign():
    # xi2 = -1 exercises the sign-aware coordinate cross-checks
    S = build("x + z", ("exp(z/2)", "-1", "0"))
    v = named_classes(S)
    assert not any(c.fails for c in v.checks)


def test_mixed_second_partial_structure():
    S = build("x^2 + y*z", ("0", "1", "0"))
    basic = classify_basic(S)
    assert basic.members == frozenset({"G10"})
    v = named_classes(S)
    assert v.named["almost_paracosymplectic"].holds
    assert not any(c.fails for c in v.checks)


def test_classifier_verdict_repr_is_loadable():
    m = load_fixture("g12-pure")
    v = named_classes(m.build())
    assert set(v.named) == {
        "paracontact_metric", "para_sasakian", "k_paracontact",
        "quasi_para_sasakian", "normal", "almost_alpha_paracosymplectic",
        "alpha_paracosymplectic", "almost_alpha_para_kenmotsu",
        "alpha_para_kenmotsu", "almost_paracosymplectic", "paracosymplectic",
    }


def test_para_sasakian_never_on_this_family():
    # normal + paracontact is impossible here, so the para-Sasakian and
    # K-paracontact flags stay false on every fixture
    for fx in FIXTURES:
        m = load_fixture(fx.name)
        v = named_classes(m.build())
        assert not v.named["para_sasakian"].holds
        assert not v.named["k_paracontact"].holds


# ------------------------------------------------------- the table of checks

# the single-route bound checks of a report: residual <= bound
BOUND_CHECKS = {
    *(f"axiom:{name}" for name in (
        "phi_squared_is_id_minus_eta_xi", "eta_of_reeb_is_one",
        "phi_kills_reeb", "phi_compatibility", "eta_is_metric_dual_of_reeb",
        "phi_skew_adjoint", "reeb_is_unit_spacelike",
        "eta_after_phi_vanishes", "phi_cubed_is_phi", "phi_trace_free")),
    "unit_constraint", "component_model", "structure_tensor_routes",
    "trace_form_routes", "exterior_derivative_routes",
    "component_split_residual",
}

# the check whose first route decides each named class; the para-Kenmotsu
# refinements add the sampled constancy of theta*(xi), one route, to the
# class they refine
CLASS_CHECKS = {
    "paracontact_metric": "paracontact_routes",
    "normal": "normality_routes",
    **{name: f"classification:{name}" for name in (
        "para_sasakian", "k_paracontact", "quasi_para_sasakian",
        "paracosymplectic", "almost_paracosymplectic",
        "almost_alpha_paracosymplectic", "alpha_paracosymplectic")},
    "almost_alpha_para_kenmotsu":
        "classification:almost_alpha_paracosymplectic",
    "alpha_para_kenmotsu": "classification:alpha_paracosymplectic",
}


@pytest.mark.parametrize("name", [fx.name for fx in FIXTURES])
def test_every_verdict_has_two_routes_and_only_bounds_have_one(
        monkeypatch, name):
    seen = []

    def recording(checks, pts):
        seen.extend(checks)
        return decide(checks, pts)
    monkeypatch.setattr(report, "decide", recording)
    S = load_fixture(name).build()
    built = report.build_report(S, name=name)

    checks = {check.name: check for check in seen}
    assert len(checks) == len(seen)
    assert {n for n, c in checks.items() if len(c.routes) == 1} == BOUND_CHECKS
    assert all(len(c.routes) >= 2 for n, c in checks.items()
               if n not in BOUND_CHECKS)
    named = named_classes(S).named
    assert set(CLASS_CHECKS) == set(named)
    for cls, check in CLASS_CHECKS.items():
        if "kenmotsu" not in cls:
            assert checks[check].routes[0].holds == named[cls].holds, cls
    # the report's strict_walker, flat, scal.constant, g5bar (present with
    # G5) and theta_star_constant are the first routes of their checks
    members = built.basic_classes["members"]
    assert ("g5bar_routes" in checks) == ("G5" in members)
    if "g5bar_routes" in checks:
        assert (checks["g5bar_routes"].routes[0].holds
                is built.basic_classes["g5bar"])
    assert (checks["theta_star_constant_routes"].routes[0].holds
            is built.named_classes["theta_star_constant"])
    assert (checks["strict_walker_routes"].routes[0].holds
            is built.structure_validity["strict_walker"])
    assert (checks["flatness_routes"].routes[0].holds
            is built.curvature["flat"])
    assert (checks["scalar_curvature_routes"].routes[0].holds
            is built.curvature["scal"]["constant"])


@pytest.mark.parametrize("name", [fx.name for fx in FIXTURES])
def test_theta_star_of_the_reeb_field_is_minus_its_divergence(name):
    # the identity the jet route of theta_star_constant_routes relies on
    S = load_fixture(name).build()
    xi1, xi2, xi3 = S.xi
    divergence = diff(xi1, "x") + diff(xi2, "y") + diff(xi3, "z")
    assert is_identically_zero(theta_star_xi_field(S) + divergence, S.domain)


@pytest.mark.parametrize("name", [fx.name for fx in FIXTURES])
def test_each_named_class_is_the_first_route_of_its_check(name):
    m = load_fixture(name)
    v = named_classes(m.build())
    checks = {check.name: check for check in v.checks}
    for cls, check in CLASS_CHECKS.items():
        if "kenmotsu" not in cls:
            assert v.named[cls] is checks[check].routes[0], cls


def test_decide_reads_the_first_witness_of_a_failing_check():
    pts = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    holds, near = Route(True, None, 1e-12), Route(True, None, 5e-10)
    off = Route(False, (2.0, 2.0, 2.0), 3e-7)
    checks = [
        Check.of("agree", None, holds, near),
        Check.of("bound", None, off),
        Check.of("disagree", None, near, NEVER, off),
        Check.of("no witness", None, near, NEVER),
        Check.of("bound holds", None, holds),
        Check.of("all fail", None, NEVER, NEVER),
    ]
    assert decide(checks, pts) == [
        {"check": "bound", "witness": [2.0, 2.0, 2.0], "magnitude": 3e-7},
        {"check": "disagree", "witness": [2.0, 2.0, 2.0], "magnitude": 3e-7},
        {"check": "no witness", "witness": [1.0, 1.0, 1.0],
         "magnitude": 5e-10},
    ]
    assert every(iter([holds, off, near])) is off
    assert every(iter([holds, near])) is near
