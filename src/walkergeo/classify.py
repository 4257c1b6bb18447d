"""Class membership decisions for structures on Walker 3-manifolds.

Two layers. classify_basic splits the structure tensor at each point of a
sample of the domain and reports which of the four admissible components
are present; the empty set is reported as the parallel class G0, and a
present G5 component whose trace form equals 2 on the Reeb field is
flagged as the contact-type subclass G5bar. named_classes builds on that
and decides the named classes (paracosymplectic through para-Sasakian),
each by at least two independent routes:

  * a projection route reading membership off the component split;
  * a definitional route using symbolic exterior derivatives, the trace
    forms, the Nijenhuis torsion, or the Lie derivative of the metric;
  * where the Reeb field has one of the special coordinate shapes
    (xi1 = xi2 = 0, or xi3 = 0 with xi2 = +-1), closed coordinate
    conditions on (f, xi1) decide several classes directly and are run
    as an extra cross-check.

Each comparison of routes is a row of one table. A route is one sampled
decision, a `sampling.Route`: whether it holds, its witness (the first
sampled point where it fails, or None) and the deciding residual. A Check
(`Check.of`) is a name, a detail, its routes and whether it fails: when
its routes disagree, or when its single route (a bound check) fails. A
named class is the route that decides it. The verdicts here and in
`curvature` carry their checks and nothing the checks already say; one
function, `decide`, turns failing checks into failures with the witness
and residual of their first route that has a witness, else pts[0] and
the first route's residual. Disagreements are never averaged away: a
failing check means the analysis itself is suspect, not the structure.

The useful identity behind several shortcuts: the fundamental 2-form
always has components (xi3, -xi2, xi1) in the coordinate 2-form basis
(dx^dy, dx^dz, dy^dz), so eta wedge it is the standard volume form by the
unit constraint, and d(fundamental) has the single essential component
(xi1)_x + (xi2)_y + (xi3)_z = -theta*(xi).

The paracontact conditions are written twice on purpose: as symbolic
residuals (`paracontact_condition_fields`) and as the sampled gap between
d(eta) and the fundamental 2-form, because `paracontact_routes` compares
the two.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .expressions import Expr, diff, gradient, once, release
from .ftensor import (
    ComponentBatch, d_eta_batch, d_eta_coordinate_batch,
    fundamental_form_batch, lie_g_batch, normality_defect_batch,
    split_components_batch, theta_star_xi_field, theta_xi_field,
)
from .jets import eval_jet
from .sampling import (
    NEVER, Route, analyzed, bound, every,
    is_identically_zero, negated, zero_verdict_from_samples,
)
from .structure import ApctStructure, max_abs

BASIC_LABELS = ("G5", "G6", "G10", "G12")

NAMED_CLASSES = (
    "paracontact_metric", "para_sasakian", "k_paracontact",
    "quasi_para_sasakian", "normal", "almost_alpha_paracosymplectic",
    "alpha_paracosymplectic", "almost_alpha_para_kenmotsu",
    "alpha_para_kenmotsu", "almost_paracosymplectic", "paracosymplectic",
)


# --- checks and their decision -----------------------------------------------

class Check(NamedTuple):
    """A named check, the routes that answer it and whether it fails (see
    `of`)."""

    name: str
    detail: str | None
    routes: tuple[Route, ...]
    fails: bool

    @classmethod
    def of(cls, name: str, detail: str | None, *routes: Route) -> Check:
        """The check of routes: it fails when they disagree, or when its
        single route, a bound check, fails."""
        if len(routes) == 1:
            return cls(name, detail, routes, not routes[0].holds)
        return cls(name, detail, routes, len({r.holds for r in routes}) > 1)


def decide(checks: Iterable[Check], pts) -> list[dict]:
    """The failing checks in order, each a dict with keys check, witness
    and magnitude: those of the first route with a sampled witness, else
    pts[0] and the first route's residual."""
    failures = []
    for check in (c for c in checks if c.fails):
        by = next((r for r in check.routes if r.witness), check.routes[0])
        failures.append({"check": check.name,
                         "witness": [float(c) for c in by.witness or pts[0]],
                         "magnitude": by.residual})
    return failures


# --- basic classes -----------------------------------------------------------

class BasicClassification(NamedTuple):
    """Which component shapes the structure tensor carries on the sampled
    domain.

    members holds the plain component labels; labels is the user-facing
    tuple where an empty set prints as G0 and a contact-type G5 component
    (trace form equal to 2 on the Reeb field) prints as G5bar. model is the
    bound check model defect <= tol: its route holds when the split stays
    within the component model, its residual the largest defect.
    """

    members: frozenset[str]
    labels: tuple[str, ...]
    g5bar: bool
    component_verdicts: dict[str, Route]
    g5bar_verdict: Route | None
    model: Check

    def display(self) -> str:
        return " + ".join(self.labels)


def _components(S: ApctStructure) -> ComponentBatch:
    """The component split over the sample points, once per analysis."""
    return once(S, "components", (),
                lambda: split_components_batch(S, S.domain.sample()))


@analyzed
def classify_basic(S: ApctStructure) -> BasicClassification:
    pts, tol = S.domain.sample(), S.domain.sampling.tol
    batch = _components(S)
    verdicts = {label: zero_verdict_from_samples(batch.parts[label],
                                                 batch.scale, pts, tol)
                for label in BASIC_LABELS}
    members = {label for label, verdict in verdicts.items() if not verdict}

    model = Check.of("component_model", None,
                     bound(batch.model_defect, tol, pts))

    g5bar = False
    g5bar_verdict = None
    if "G5" in members:
        g5bar_verdict = zero_verdict_from_samples(
            batch.theta_xi - 2.0, batch.scale, pts, tol
        )
        g5bar = g5bar_verdict.holds

    labels = tuple(
        "G5bar" if (m == "G5" and g5bar) else m
        for m in BASIC_LABELS if m in members
    ) or ("G0",)
    return BasicClassification(
        frozenset(members), labels, g5bar, verdicts, g5bar_verdict, model)


def _split_route(basic: BasicClassification, allowed: set[str],
                 required: str | None = None) -> Route:
    """The projection route 'no component outside allowed, and required
    present': the first present component outside allowed decides, then
    the required one."""
    verdicts = basic.component_verdicts
    parts = [verdicts[label] for label in BASIC_LABELS if label not in allowed]
    if required:
        parts.append(negated(verdicts[required]))
    return every(parts)


def _contact_route(basic: BasicClassification, allowed: set[str]) -> Route:
    """_split_route with a contact-type G5 (trace form 2 on xi) required."""
    shape = _split_route(basic, allowed, "G5")
    return basic.g5bar_verdict if shape.holds else shape


# --- paracontact metric ------------------------------------------------------

def paracontact_condition_fields(S: ApctStructure) -> tuple[Expr, Expr, Expr]:
    """The three symbolic residuals whose simultaneous vanishing is
    equivalent to d(eta) equalling the fundamental 2-form (componentwise
    2*(d(eta) - fundamental) in the coordinate 2-form basis)."""
    xi1, xi2, xi3 = S.xi
    f = S.manifold.f
    fx, fy = diff(f, "x"), diff(f, "y")
    return (
        diff(xi2, "x") - diff(xi3, "y") - 2 * xi3,
        diff(xi1, "x") + xi3 * fx + f * diff(xi3, "x") - diff(xi3, "z")
        + 2 * xi2,
        diff(xi1, "y") + xi3 * fy + f * diff(xi3, "y") - diff(xi2, "z")
        - 2 * xi1,
    )


class ParacontactVerdict(NamedTuple):
    """Whether d(eta) equals the fundamental 2-form.

    Decided by symbolic conditions (primary, the first route of check) and
    by a sampled numeric comparison of the two 2-forms (its second route);
    shortcut records a structural shape of the Reeb field known to rule
    the property out, the third route of check when present.
    """

    is_paracontact: bool
    conditions: tuple[Route, Route, Route]
    shortcut: str | None
    check: Check

    def __bool__(self) -> bool:
        return self.is_paracontact


@analyzed
def is_paracontact_metric(S: ApctStructure) -> ParacontactVerdict:
    batch = _components(S)

    conditions = tuple(
        is_identically_zero(c, S.domain)
        for c in paracontact_condition_fields(S)
    )
    symbolic = every(conditions)

    gap = d_eta_batch(S, batch) - fundamental_form_batch(batch)
    numeric = zero_verdict_from_samples(gap, batch.scale, S.domain.sample(),
                                        S.domain.sampling.tol)

    xi1, xi2, xi3 = S.xi
    shortcut = None
    if is_identically_zero(xi3, S.domain):
        shortcut = (
            "xi3 vanishes identically; no Reeb field of that shape "
            "satisfies the paracontact conditions"
        )
    elif (is_identically_zero(xi1, S.domain)
          and is_identically_zero(xi2, S.domain)):
        shortcut = (
            "xi1 and xi2 vanish identically; no Reeb field of that shape "
            "satisfies the paracontact conditions"
        )

    check = Check.of("paracontact_routes", shortcut, symbolic, numeric,
                     *([NEVER] if shortcut else []))
    return ParacontactVerdict(symbolic.holds, conditions, shortcut, check)


# --- normality ---------------------------------------------------------------

class NormalityVerdict(NamedTuple):
    """Whether the Nijenhuis-type normality defect vanishes.

    The routes of check: the answer read off the component split (only
    the two trace-form components are normal), which decides it; the
    sampled defect N - 2 d(eta) (x) xi itself; and, when the Reeb field
    has the shape xi3 = 0, xi2 = +-1, the coordinate answer.
    """

    is_normal: bool
    check: Check

    def __bool__(self) -> bool:
        return self.is_normal


def unit_y_setting(S: ApctStructure) -> int | None:
    """Detect the Reeb shape xi3 = 0, xi2 = +-1; returns the sign or None."""
    _, xi2, xi3 = S.xi
    if not is_identically_zero(xi3, S.domain):
        return None
    for sign in (1, -1):
        if is_identically_zero(xi2 - sign, S.domain):
            return sign
    return None


def _setting_fields(S: ApctStructure, sign: int) -> tuple[Expr, ...]:
    """(xi1)_x, (xi1)_y, the z-drift of xi1 against the metric function,
    and the two coordinate conditions equivalent to normality, for the
    Reeb shape xi3 = 0, xi2 = sign."""
    xi1 = S.xi[0]
    f = S.manifold.f
    a1, a2 = diff(xi1, "x"), diff(xi1, "y")
    drift = 2 * diff(xi1, "z") + xi1 * diff(f, "x") + sign * diff(f, "y")
    return a1, a2, drift, a2 + sign * xi1 * a1, drift + a1 * (xi1**2 - f)


@analyzed
def is_normal(S: ApctStructure) -> NormalityVerdict:
    batch = _components(S)
    basic = classify_basic(S)

    class_route = _split_route(basic, {"G5", "G6"})
    torsion = zero_verdict_from_samples(
        normality_defect_batch(S, batch), batch.scale, S.domain.sample(),
        S.domain.sampling.tol
    )
    routes = [class_route, torsion]
    sign = unit_y_setting(S)
    if sign is not None:
        routes.append(every(is_identically_zero(c, S.domain)
                            for c in _setting_fields(S, sign)[3:]))
    return NormalityVerdict(
        class_route.holds, Check.of("normality_routes", None, *routes))


# --- named classes -----------------------------------------------------------

class AlphaReport(NamedTuple):
    """The function alpha = -theta*(xi)/2 attached to the almost
    alpha-paracosymplectic classes; its value when theta*(xi) is constant
    (ClassVerdict.theta_star_constant), else None."""

    value: float | None
    sample_range: tuple[float, float]


class ClassVerdict(NamedTuple):
    """Full classification outcome: basic components plus every named
    class, with all cross-route bookkeeping. named maps each class to the
    Route that decides it, the first route of its row in checks where it
    has one. checks is the classification table: the component model, the
    paracontact and normality routes, one row per cross-check of a named
    class, and the routes of theta_star_constant and, when G5 is present,
    of basic.g5bar; the routes agree when none fails."""

    basic: BasicClassification
    named: dict[str, Route]
    paracontact: ParacontactVerdict
    normality: NormalityVerdict
    theta_star_constant: bool
    alpha: AlphaReport | None
    checks: tuple[Check, ...]


@analyzed
def named_classes(S: ApctStructure) -> ClassVerdict:
    pts, tol = S.domain.sample(), S.domain.sampling.tol
    batch = _components(S)
    basic = classify_basic(S)
    paracontact = is_paracontact_metric(S)
    normality = is_normal(S)

    def ztest(values):
        return zero_verdict_from_samples(values, batch.scale, pts, tol)

    tensor = negated(ztest(batch.tensor))
    d_eta = ztest(d_eta_coordinate_batch(S, batch))
    xi1, xi2, xi3 = S.xi
    divergence = diff(xi1, "x") + diff(xi2, "y") + diff(xi3, "z")
    d_phi = is_identically_zero(divergence, S.domain)
    lie = ztest(lie_g_batch(S, batch))

    # theta*(xi) is constant on the sampled domain when its partials vanish;
    # the second route reads the gradient rows of the jet of the divergence,
    # which is -theta*(xi), judged against that jet's largest |coefficient|
    constant = every([is_identically_zero(partial, S.domain)
                      for partial in gradient(theta_star_xi_field(S))])
    theta_star_constant = constant.holds
    jet = eval_jet(divergence, pts, 1)
    constant_routes = Check.of(
        "theta_star_constant_routes", None, constant, zero_verdict_from_samples(
            jet.coeffs[1:], max_abs(jet.coeffs, 1), pts, tol))

    alpha = None
    if "G6" in basic.members:
        alpha_samples = -0.5 * batch.theta_star_xi
        alpha = AlphaReport(
            float(alpha_samples.mean()) if theta_star_constant else None,
            (float(alpha_samples.min()), float(alpha_samples.max())),
        )

    # the first route of a check decides its class; the second is the
    # sampled numeric comparison (normality: the torsion defect)
    para, normal = paracontact.check.routes[0], normality.check.routes[0]
    torsion = normality.check.routes[1]
    sasaki = every((normal, para))
    quasi = _split_route(basic, {"G5"}, "G5")
    cosym = _split_route(basic, set())
    almost_cosym = _split_route(basic, {"G10"}, "G10")
    almost_alpha = _split_route(basic, {"G6", "G10"}, "G6")
    alpha_only = _split_route(basic, {"G6"}, "G6")
    alpha_cross = every((d_eta, negated(ztest(batch.theta_star_xi))))

    # (class, deciding route, cross route or None where the verdict's own
    # check holds the routes, what the two compare). Para-Sasakian and
    # K-paracontact coincide in dimension 3: both mean normal plus
    # paracontact, equivalently a pure contact-type G5. Read off the split:
    # quasi-para-Sasakian (normal, closed fundamental form, some tensor
    # left) is a pure G5; paracosymplectic has no tensor; almost
    # paracosymplectic (both forms closed, tensor left) is a pure G10;
    # almost alpha-paracosymplectic (closed eta, fundamental form scaled
    # into the volume form by alpha = -theta*(xi)/2 != 0) lies within
    # G6 + G10 with G6 present. The para-Kenmotsu refinements ask alpha to
    # be constant, which is judged on the sampled domain only.
    table = (
        ("paracontact_metric", para, None, None),
        ("normal", normal, None, None),
        ("para_sasakian", sasaki, _contact_route(basic, {"G5"}),
         "normal-and-paracontact route vs. pure contact-type G5 component"),
        ("k_paracontact", sasaki, every((lie, para)),
         "para-Sasakian route vs. paracontact with Killing Reeb field"),
        ("quasi_para_sasakian", quasi, every((torsion, d_phi, tensor)),
         "pure-G5 component route vs. normal + closed fundamental form"),
        ("paracosymplectic", cosym, every((d_eta, d_phi, torsion)),
         "empty component split vs. closed eta, closed fundamental form "
         "and vanishing torsion defect"),
        ("almost_paracosymplectic", almost_cosym,
         every((d_eta, d_phi, tensor)),
         "pure-G10 component route vs. both forms closed with nonzero "
         "structure tensor"),
        ("almost_alpha_paracosymplectic", almost_alpha, alpha_cross,
         "G6-within-G6+G10 component route vs. closed eta with theta*(xi) "
         "not identically zero"),
        ("alpha_paracosymplectic", alpha_only, every((alpha_cross, torsion)),
         "pure-G6 component route vs. almost alpha conditions plus "
         "vanishing torsion defect"),
        ("almost_alpha_para_kenmotsu", every((almost_alpha, constant)), None,
         None),
        ("alpha_para_kenmotsu", every((alpha_only, constant)), None, None),
    )
    named = {name: primary for name, primary, _, _ in table}
    rows = [Check.of(f"classification:{name}", compared, primary, cross)
            for name, primary, cross, compared in table if cross is not None]
    rows.append(constant_routes)
    # a present G5 is contact-type when theta(xi) = 2: the numeric trace form
    # of the split against the closed formula
    if basic.g5bar_verdict is not None:
        rows.append(Check.of("g5bar_routes", None, basic.g5bar_verdict,
                             is_identically_zero(theta_xi_field(S) - 2,
                                                 S.domain)))

    # a paracontact structure must split as contact-type G5 (possibly with
    # a G10 part) and nothing else.
    if para.holds:
        rows.append(Check.of(
            "classification:paracontact_component_shape",
            "paracontact structures must carry a contact-type G5 "
            "component and at most a G10 part besides",
            para, _contact_route(basic, {"G5", "G10"}),
        ))

    rows += _setting_checks(S, basic, named)
    release(S, "components", ())
    release(batch, "reeb_routes", ())
    release(S, "eta_partials", (pts,))

    ordered = {name: named[name] for name in NAMED_CLASSES}
    checks = (basic.model, paracontact.check, normality.check, *rows)
    return ClassVerdict(basic, ordered, paracontact, normality,
                        theta_star_constant, alpha, checks)


def _setting_checks(S: ApctStructure, basic: BasicClassification,
                    named: dict[str, Route]) -> list[Check]:
    """Rows checking named classes (their deciding routes) against closed
    coordinate conditions available for special Reeb shapes; a conjunction
    of conditions is tested only as far as the first that fails."""
    xi1, xi2, xi3 = S.xi
    f = S.manifold.f
    never = "this Reeb shape never lands in the class"

    def conditions(*tests) -> Route:
        """(field, vanishes) tests as one conjunction."""
        return every(is_identically_zero(e, S.domain) if vanishes
                     else negated(is_identically_zero(e, S.domain))
                     for e, vanishes in tests)

    if conditions((xi1, True), (xi2, True)).holds:
        # Reeb field along the z-coordinate: xi3 is pinned to 1/sqrt(f) by
        # the unit constraint. The coordinate conditions below assume a
        # nonconstant f; a constant f degenerates to the parallel class
        # and is left to the generic routes.
        fx, fy, fz = gradient(f)
        if conditions((fx, True), (fy, True), (fz, True)).holds:
            return []
        tag = "[reeb along dz]"
        rows = [(name, never, NEVER) for name in (
            "paracosymplectic", "quasi_para_sasakian",
            "alpha_paracosymplectic", "alpha_para_kenmotsu",
            "almost_paracosymplectic", "normal",
            "almost_alpha_para_kenmotsu")]
        rows += [
            ("almost_alpha_paracosymplectic",
             "coordinate conditions f_y = 0, f_z = -f f_x != 0",
             conditions((fy, True), (fz + f * fx, True), (fz, False))),
            ("pure_G12", "coordinate conditions f_y = f_z = 0 != f_x",
             conditions((fy, True), (fz, True), (fx, False))),
        ]
    else:
        sign = unit_y_setting(S)
        if sign is None:
            return []
        tag = f"[xi3 = 0, xi2 = {sign:+d}]"
        # normality is not restated here: its coordinate conditions are
        # already the third route of `normality_routes`
        a1, a2, drift = _setting_fields(S, sign)[:3]
        rows = [
            ("paracosymplectic",
             "xi1 constant in x and y with vanishing drift",
             conditions((a1, True), (a2, True), (drift, True))),
            ("almost_paracosymplectic",
             "xi1 constant in x and y with nonvanishing drift",
             conditions((a1, True), (a2, True), (drift, False))),
            ("pure_G12",
             "coordinate conditions for a pure Reeb-square component",
             conditions((a1, True), (a2, False),
                        (2 * xi1 * a2 - sign * drift, True))),
        ]
        rows += [(name, never, NEVER) for name in (
            "quasi_para_sasakian", "almost_alpha_paracosymplectic",
            "alpha_paracosymplectic", "almost_alpha_para_kenmotsu",
            "alpha_para_kenmotsu")]
    primary = {**named, "pure_G12": _split_route(basic, {"G12"}, "G12")}
    return [Check.of(f"classification:{name} {tag}", detail, primary[name],
                     cross) for name, detail, cross in rows]
