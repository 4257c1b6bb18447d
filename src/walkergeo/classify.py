"""Class membership decisions for structures on Walker 3-manifolds.

Two layers. classify_basic splits the structure tensor pointwise over a
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

Route disagreements are collected, never averaged away: every verdict
carries routes_agree, and a False there means the analysis itself is
suspect, not the structure.

The useful identity behind several shortcuts: the fundamental 2-form
always has components (xi3, -xi2, xi1) in the coordinate 2-form basis
(dx^dy, dx^dz, dy^dz), so eta wedge it is the standard volume form by the
unit constraint, and d(fundamental) has the single essential component
(xi1)_x + (xi2)_y + (xi3)_z = -theta*(xi).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .expressions import (
    Expr, Var, ZERO, as_expr, diff, exp_of, gradient, to_source, variables,
)
from .ftensor import (
    ComponentBatch, d_eta_batch, d_eta_coordinate_batch,
    fundamental_form_batch, lie_g_batch, normality_defect_batch,
    split_components_batch, theta_star_xi_field,
)
from .sampling import (
    Domain, SamplingConfig, ZeroVerdict, analyzed, is_identically_zero,
    once, release, zero_verdict_from_samples,
)
from .structure import ApctStructure, build_structure
from .walker import WalkerManifold

BASIC_LABELS = ("G5", "G6", "G10", "G12")

NAMED_CLASSES = (
    "paracontact_metric", "para_sasakian", "k_paracontact",
    "quasi_para_sasakian", "normal", "almost_alpha_paracosymplectic",
    "alpha_paracosymplectic", "almost_alpha_para_kenmotsu",
    "alpha_para_kenmotsu", "almost_paracosymplectic", "paracosymplectic",
)


# --- basic classes -----------------------------------------------------------

class BasicClassification(NamedTuple):
    """Which component shapes the structure tensor carries on the sampled
    domain.

    members holds the plain component labels; labels is the user-facing
    tuple where an empty set prints as G0 and a contact-type G5 component
    (trace form equal to 2 on the Reeb field) prints as G5bar.
    """

    members: frozenset[str]
    labels: tuple[str, ...]
    g5bar: bool
    component_verdicts: dict[str, ZeroVerdict]
    g5bar_verdict: ZeroVerdict | None
    within_model: bool
    model_defect: float
    model_witness: tuple[float, float, float] | None

    def display(self) -> str:
        return " + ".join(self.labels)


def _components(S: ApctStructure, cfg: SamplingConfig) -> ComponentBatch:
    """The component split over the sample points, once per analysis."""
    return once(S, "components", S.domain, cfg,
                lambda: split_components_batch(S, S.sample_points(cfg)))


@analyzed
def classify_basic(S: ApctStructure,
                   cfg: SamplingConfig | None = None) -> BasicClassification:
    pts = S.sample_points(cfg)
    batch = _components(S, cfg)
    verdicts: dict[str, ZeroVerdict] = {}
    members = set()
    for label in BASIC_LABELS:
        verdict = zero_verdict_from_samples(
            batch.parts[label], batch.scale, pts, cfg.tol
        )
        verdicts[label] = verdict
        if not verdict.is_zero:
            members.add(label)

    worst = float(batch.model_defect.max(initial=0.0))
    within = worst <= cfg.tol
    witness = None
    if not within:
        witness = tuple(float(c) for c in pts[int(batch.model_defect.argmax())])

    g5bar = False
    g5bar_verdict = None
    if "G5" in members:
        g5bar_verdict = zero_verdict_from_samples(
            batch.theta_xi - 2.0, batch.scale, pts, cfg.tol
        )
        g5bar = g5bar_verdict.is_zero

    labels = tuple(
        "G5bar" if (m == "G5" and g5bar) else m
        for m in BASIC_LABELS if m in members
    ) or ("G0",)
    return BasicClassification(
        frozenset(members), labels, g5bar, verdicts, g5bar_verdict,
        within, worst, witness,
    )


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

    Decided by symbolic conditions (primary) and by a sampled numeric
    comparison of the two 2-forms; shortcut records a structural shape of
    the Reeb field known to rule the property out, run as a third check.
    """

    is_paracontact: bool
    conditions: tuple[ZeroVerdict, ZeroVerdict, ZeroVerdict]
    numeric_matches: bool
    numeric_residual: float
    numeric_witness: tuple[float, float, float] | None
    shortcut: str | None
    routes_agree: bool

    def __bool__(self) -> bool:
        return self.is_paracontact


@analyzed
def is_paracontact_metric(S: ApctStructure,
                          cfg: SamplingConfig | None = None,
                          ) -> ParacontactVerdict:
    pts = S.sample_points(cfg)
    batch = _components(S, cfg)

    conditions = tuple(
        is_identically_zero(c, S.domain, cfg)
        for c in paracontact_condition_fields(S)
    )
    symbolic = all(c.is_zero for c in conditions)

    gap = d_eta_batch(S, batch) - fundamental_form_batch(batch)
    numeric = zero_verdict_from_samples(gap, batch.scale, pts, cfg.tol)

    xi1, xi2, xi3 = S.xi
    shortcut = None
    if is_identically_zero(xi3, S.domain, cfg).is_zero:
        shortcut = (
            "xi3 vanishes identically; no Reeb field of that shape "
            "satisfies the paracontact conditions"
        )
    elif (is_identically_zero(xi1, S.domain, cfg).is_zero
          and is_identically_zero(xi2, S.domain, cfg).is_zero):
        shortcut = (
            "xi1 and xi2 vanish identically; no Reeb field of that shape "
            "satisfies the paracontact conditions"
        )

    routes_agree = symbolic == numeric.is_zero
    if shortcut is not None and symbolic:
        routes_agree = False
    return ParacontactVerdict(
        symbolic, conditions, numeric.is_zero, numeric.max_residual,
        numeric.witness, shortcut, routes_agree,
    )


# --- normality ---------------------------------------------------------------

class NormalityVerdict(NamedTuple):
    """Whether the Nijenhuis-type normality defect vanishes.

    class_route reads the answer off the component split (only the two
    trace-form components are normal); torsion_verdict is the sampled
    defect N - 2 d(eta) (x) xi itself; setting_route holds the coordinate
    answer when the Reeb field has the shape xi3 = 0, xi2 = +-1.
    """

    is_normal: bool
    class_route: bool
    torsion_verdict: ZeroVerdict
    setting_route: bool | None
    routes_agree: bool

    def __bool__(self) -> bool:
        return self.is_normal


def unit_y_setting(S: ApctStructure, cfg: SamplingConfig) -> int | None:
    """Detect the Reeb shape xi3 = 0, xi2 = +-1; returns the sign or None."""
    _, xi2, xi3 = S.xi
    if not is_identically_zero(xi3, S.domain, cfg).is_zero:
        return None
    for sign in (1, -1):
        if is_identically_zero(xi2 - sign, S.domain, cfg).is_zero:
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
def is_normal(S: ApctStructure,
              cfg: SamplingConfig | None = None) -> NormalityVerdict:
    pts = S.sample_points(cfg)
    batch = _components(S, cfg)
    basic = once(S, "basic", S.domain, cfg, lambda: classify_basic(S, cfg))

    class_route = basic.members <= {"G5", "G6"}
    torsion = zero_verdict_from_samples(
        normality_defect_batch(S, batch), batch.scale, pts, cfg.tol
    )

    sign = unit_y_setting(S, cfg)
    setting_route = None if sign is None else all(
        is_identically_zero(c, S.domain, cfg).is_zero
        for c in _setting_fields(S, sign)[3:])

    is_norm = class_route
    routes_agree = class_route == torsion.is_zero and (
        setting_route is None or setting_route == is_norm
    )
    return NormalityVerdict(
        is_norm, class_route, torsion, setting_route, routes_agree
    )


# --- named classes -----------------------------------------------------------

class NamedVerdict(NamedTuple):
    """Decision for one named class, with a witness point against
    membership when a defining residual produced one."""

    value: bool
    detail: str | None = None
    witness: tuple[float, float, float] | None = None

    def __bool__(self) -> bool:
        return self.value


class RouteDisagreement(NamedTuple):
    """One named decision where two routes returned different answers."""

    check: str
    primary: bool
    cross: bool
    detail: str | None = None


class AlphaReport(NamedTuple):
    """The function alpha = -theta*(xi)/2 attached to the almost
    alpha-paracosymplectic classes, with its sampled constancy status."""

    constant: bool
    value: float | None
    sample_range: tuple[float, float]
    gradient_residual: float


class ClassVerdict(NamedTuple):
    """Full classification outcome: basic components plus every named
    class, with all cross-route bookkeeping."""

    basic: BasicClassification
    named: dict[str, NamedVerdict]
    paracontact: ParacontactVerdict
    normality: NormalityVerdict
    theta_star_constant: bool
    alpha: AlphaReport | None
    disagreements: tuple[RouteDisagreement, ...]
    routes_agree: bool


@analyzed
def named_classes(S: ApctStructure,
                  cfg: SamplingConfig | None = None) -> ClassVerdict:
    pts = S.sample_points(cfg)
    batch = _components(S, cfg)
    basic = once(S, "basic", S.domain, cfg, lambda: classify_basic(S, cfg))
    paracontact = is_paracontact_metric(S, cfg)
    normality = is_normal(S, cfg)
    members = basic.members

    def ztest(values):
        return zero_verdict_from_samples(values, batch.scale, pts, cfg.tol)

    f_zero = ztest(batch.tensor)
    d_eta_zero = ztest(d_eta_coordinate_batch(S, batch))
    xi1, xi2, xi3 = S.xi
    divergence = diff(xi1, "x") + diff(xi2, "y") + diff(xi3, "z")
    d_phi_zero = is_identically_zero(divergence, S.domain, cfg)
    lie_zero = ztest(lie_g_batch(S, batch))
    torsion_normal = normality.torsion_verdict.is_zero

    # theta*(xi) is constant on the sampled domain when its partials vanish
    grad_verdicts = [is_identically_zero(partial, S.domain, cfg)
                     for partial in gradient(theta_star_xi_field(S))]
    theta_star_constant = all(v.is_zero for v in grad_verdicts)
    gradient_residual = max(v.max_residual for v in grad_verdicts)

    alpha = None
    if "G6" in members:
        alpha_samples = -0.5 * batch.theta_star_xi
        alpha = AlphaReport(
            theta_star_constant,
            float(alpha_samples.mean()) if theta_star_constant else None,
            (float(alpha_samples.min()), float(alpha_samples.max())),
            gradient_residual,
        )

    disagreements: list[RouteDisagreement] = []

    def crosscheck(name: str, primary: bool, cross: bool, detail: str):
        if primary != cross:
            disagreements.append(
                RouteDisagreement(name, primary, cross, detail)
            )

    def excess_witness(allowed: set[str]):
        for label in BASIC_LABELS:
            if label not in allowed and label in members:
                verdict = basic.component_verdicts[label]
                return verdict.witness
        return None

    named: dict[str, NamedVerdict] = {}

    # paracontact and normality first; their route bookkeeping lives in
    # their own verdict objects.
    named["paracontact_metric"] = NamedVerdict(
        paracontact.is_paracontact,
        detail=None if paracontact.is_paracontact else (
            paracontact.shortcut or "the d(eta) = fundamental-form "
            "conditions fail"
        ),
        witness=None if paracontact.is_paracontact
        else paracontact.numeric_witness,
    )
    named["normal"] = NamedVerdict(
        normality.is_normal,
        detail=None if normality.is_normal else (
            "components outside the two trace-form shapes are present: "
            + ", ".join(sorted(members - {"G5", "G6"}))
        ),
        witness=None if normality.is_normal
        else normality.torsion_verdict.witness,
    )

    # para-Sasakian and K-paracontact coincide in dimension 3: both mean
    # normal plus paracontact, equivalently a pure contact-type G5.
    sasaki_primary = normality.is_normal and paracontact.is_paracontact
    sasaki_class = members == {"G5"} and basic.g5bar
    crosscheck(
        "para_sasakian", sasaki_primary, sasaki_class,
        "normal-and-paracontact route vs. pure contact-type G5 component",
    )
    sasaki_detail = None
    if not sasaki_primary:
        sasaki_detail = (
            "not normal" if not normality.is_normal else "not paracontact"
        )
    named["para_sasakian"] = NamedVerdict(sasaki_primary, sasaki_detail)

    killing = lie_zero.is_zero and paracontact.is_paracontact
    crosscheck(
        "k_paracontact", sasaki_primary, killing,
        "para-Sasakian route vs. paracontact with Killing Reeb field",
    )
    named["k_paracontact"] = NamedVerdict(
        sasaki_primary,
        sasaki_detail,
        witness=None if (sasaki_primary or lie_zero.is_zero)
        else lie_zero.witness,
    )

    def by_components(name: str, allowed: set[str], primary: bool,
                      cross: bool, detail: str, witness) -> None:
        """A class read off the component split, checked by a second route."""
        crosscheck(name, primary, cross, detail)
        named[name] = NamedVerdict(
            primary,
            detail=None if primary else (
                "no G6 component" if "G6" in allowed - members else
                f"components present: {basic.display()}"
            ),
            witness=None if primary else witness,
        )

    # quasi-para-Sasakian: normal with closed fundamental form, and some
    # structure tensor left; as components, exactly a pure G5.
    by_components(
        "quasi_para_sasakian", {"G5"}, members == {"G5"},
        torsion_normal and d_phi_zero.is_zero and not f_zero.is_zero,
        "pure-G5 component route vs. normal + closed fundamental form",
        excess_witness({"G5"}),
    )
    # paracosymplectic: no structure tensor at all.
    by_components(
        "paracosymplectic", set(), not members,
        d_eta_zero.is_zero and d_phi_zero.is_zero and torsion_normal,
        "empty component split vs. closed eta, closed fundamental form "
        "and vanishing torsion defect", f_zero.witness,
    )
    # almost paracosymplectic: both forms closed but the tensor survives,
    # i.e. exactly the Reeb-symmetric component.
    by_components(
        "almost_paracosymplectic", {"G10"}, members == {"G10"},
        d_eta_zero.is_zero and d_phi_zero.is_zero and not f_zero.is_zero,
        "pure-G10 component route vs. both forms closed with nonzero "
        "structure tensor", excess_witness({"G10"}),
    )
    # almost alpha-paracosymplectic: closed eta, fundamental form scaled
    # into the volume form by a nonzero function alpha = -theta*(xi)/2;
    # as components, within G6 + G10 with G6 actually present.
    almost_alpha_primary = members <= {"G6", "G10"} and "G6" in members
    almost_alpha_cross = (d_eta_zero.is_zero
                          and not ztest(batch.theta_star_xi).is_zero)
    by_components(
        "almost_alpha_paracosymplectic", {"G6", "G10"}, almost_alpha_primary,
        almost_alpha_cross,
        "G6-within-G6+G10 component route vs. closed eta with theta*(xi) "
        "not identically zero", excess_witness({"G6", "G10"}),
    )
    alpha_primary = members == {"G6"}
    by_components(
        "alpha_paracosymplectic", {"G6"}, alpha_primary,
        almost_alpha_cross and torsion_normal,
        "pure-G6 component route vs. almost alpha conditions plus "
        "vanishing torsion defect", excess_witness({"G6"}),
    )

    # the para-Kenmotsu refinements ask alpha (hence theta*(xi)) to be
    # constant; constancy is judged on the sampled domain only.
    kenmotsu_detail = (
        None if theta_star_constant
        else "theta*(xi) is not constant on the sampled domain"
    )
    named["almost_alpha_para_kenmotsu"] = NamedVerdict(
        almost_alpha_primary and theta_star_constant,
        detail=kenmotsu_detail if almost_alpha_primary else (
            named["almost_alpha_paracosymplectic"].detail
        ),
    )
    named["alpha_para_kenmotsu"] = NamedVerdict(
        alpha_primary and theta_star_constant,
        detail=kenmotsu_detail if alpha_primary else (
            named["alpha_paracosymplectic"].detail
        ),
    )

    # a paracontact structure must split as contact-type G5 (possibly with
    # a G10 part) and nothing else.
    if paracontact.is_paracontact:
        shape_ok = (
            members <= {"G5", "G10"} and "G5" in members and basic.g5bar
        )
        crosscheck(
            "paracontact_component_shape", True, shape_ok,
            "paracontact structures must carry a contact-type G5 "
            "component and at most a G10 part besides",
        )

    _apply_setting_checks(S, cfg, basic, named, crosscheck)
    release(S, "components", cfg)
    release(batch, "reeb_routes", None)
    release(pts, "eta_partials", None)

    ordered = {name: named[name] for name in NAMED_CLASSES}
    routes_agree = (
        not disagreements
        and paracontact.routes_agree
        and normality.routes_agree
        and basic.within_model
    )
    return ClassVerdict(
        basic, ordered, paracontact, normality, theta_star_constant,
        alpha, tuple(disagreements), routes_agree,
    )


def _apply_setting_checks(S: ApctStructure, cfg: SamplingConfig,
                          basic: BasicClassification,
                          named: dict[str, NamedVerdict],
                          crosscheck) -> None:
    """Cross-check named verdicts against closed coordinate conditions
    available for special Reeb shapes."""
    xi1, xi2, xi3 = S.xi
    f = S.manifold.f
    members = basic.members

    def zero(e: Expr) -> bool:
        return is_identically_zero(e, S.domain, cfg).is_zero

    if zero(xi1) and zero(xi2):
        # Reeb field along the z-coordinate: xi3 is pinned to 1/sqrt(f) by
        # the unit constraint. The coordinate conditions below assume a
        # nonconstant f; a constant f degenerates to the parallel class
        # and is left to the generic routes.
        fx, fy, fz = gradient(f)
        if not (zero(fx) and zero(fy) and zero(fz)):
            tag = "[reeb along dz]"
            for name in ("paracosymplectic", "quasi_para_sasakian",
                         "alpha_paracosymplectic", "alpha_para_kenmotsu",
                         "almost_paracosymplectic", "normal",
                         "almost_alpha_para_kenmotsu"):
                crosscheck(
                    f"{name} {tag}", named[name].value, False,
                    "this Reeb shape never lands in the class",
                )
            almost_alpha_setting = (
                zero(fy) and zero(fz + f * fx) and not zero(fz)
            )
            crosscheck(
                f"almost_alpha_paracosymplectic {tag}",
                named["almost_alpha_paracosymplectic"].value,
                almost_alpha_setting,
                "coordinate conditions f_y = 0, f_z = -f f_x != 0",
            )
            g12_setting = zero(fy) and zero(fz) and not zero(fx)
            crosscheck(
                f"pure_G12 {tag}", members == {"G12"}, g12_setting,
                "coordinate conditions f_y = f_z = 0 != f_x",
            )
        return

    sign = unit_y_setting(S, cfg)
    if sign is None:
        return
    tag = f"[xi3 = 0, xi2 = {sign:+d}]"
    a1, a2, drift, *normality = _setting_fields(S, sign)

    cosym_setting = zero(a1) and zero(a2) and zero(drift)
    crosscheck(
        f"paracosymplectic {tag}", named["paracosymplectic"].value,
        cosym_setting, "xi1 constant in x and y with vanishing drift",
    )
    almost_setting = zero(a1) and zero(a2) and not zero(drift)
    crosscheck(
        f"almost_paracosymplectic {tag}",
        named["almost_paracosymplectic"].value, almost_setting,
        "xi1 constant in x and y with nonvanishing drift",
    )
    normal_setting = all(zero(c) for c in normality)
    crosscheck(
        f"normal {tag}", named["normal"].value, normal_setting,
        "coordinate normality conditions",
    )
    g12_setting = (
        zero(a1) and not zero(a2) and zero(2 * xi1 * a2 - sign * drift)
    )
    crosscheck(
        f"pure_G12 {tag}", members == {"G12"}, g12_setting,
        "coordinate conditions for a pure Reeb-square component",
    )
    for name in ("quasi_para_sasakian", "almost_alpha_paracosymplectic",
                 "alpha_paracosymplectic", "almost_alpha_para_kenmotsu",
                 "alpha_para_kenmotsu"):
        crosscheck(
            f"{name} {tag}", named[name].value, False,
            "this Reeb shape never lands in the class",
        )


# --- explicit paracontact family ---------------------------------------------

def paracontact_family(psi, m, domain: Domain,
                       cfg: SamplingConfig | None = None) -> ApctStructure:
    """Build the two-function family of paracontact metric structures.

    psi and m are expressions in z alone; the family takes
    f = 2 psi'(z) x + m(z) and Reeb components xi2 = 0,
    xi3 = exp(-2y + psi(z)), with xi1 forced by the unit constraint.
    Every member is paracontact metric with trace form 2 on the Reeb
    field (contact-type G5, possibly plus a G10 part).
    """
    psi = as_expr(psi)
    m = as_expr(m)
    for name, e in (("psi", psi), ("m", m)):
        extra = variables(e) - {"z"}
        if extra:
            raise InputError(
                f"{name} must depend on z only; found "
                f"{', '.join(sorted(extra))} in {to_source(e)}"
            )
    f = 2 * diff(psi, "z") * Var("x") + m
    xi3 = exp_of(psi - 2 * Var("y"))
    xi1 = (1 - f * xi3**2) / (2 * xi3)
    manifold = WalkerManifold(f, 1, domain)
    return build_structure(manifold, (xi1, ZERO, xi3), cfg or SamplingConfig())
