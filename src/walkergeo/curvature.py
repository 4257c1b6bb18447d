"""Curvature-level analysis of the structures: the eta-Einstein condition,
the chain of equivalent commutation properties of the Ricci operator, and
sectional curvatures of the distinguished planes.

The eta-Einstein test runs two routes: the direct residual
rho - a g - b eta (x) eta with a = -b = f_xx / 2, and the coordinate
characterization (xi3 = 0, xi2 = +-1, xi1 = -xi2 f_xy / f_xx, degenerate
Ricci discriminant, f_xx nonvanishing). Flat metrics satisfy the residual
identity trivially with a = b = 0; they are reported as not eta-Einstein,
matching the coordinate route, which demands f_xx != 0.

The residual is written once (`eta_einstein_residual`): the direct route
reads it over expressions, the chain's pointwise eta-Einstein mask over the
jet's arrays, and the coordinate route checks it. The Ricci tensor rho
itself stays written twice on purpose, as expressions in
`ricci_residual_fields` and as `walker.ricci_from_jet`, because the chain
compares the two: its second statement reads the first, its fourth (the
anti-invariance of rho under phi) the second.

A partially vanishing f_xx is a genuine obstruction for the coordinate
route (its defining quotient f_xy / f_xx stops making sense), so that case
raises DegenerateInputError with a witness instead of guessing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .classify import Check, named_classes, unit_y_setting
from .errors import DegenerateInputError, EvaluationError
from .expressions import (
    Expr, ONE, ZERO, diff, evaluate_with_scale, is_finite,
)
from .sampling import (
    NEVER, PLANE_TOL, PCG64Stream, Route, analyzed, every,
    is_identically_zero, negated, nonvanishing, within,
    zero_verdict_from_samples,
)
from .jets import Jet3, eval_jet
from .structure import (
    ApctStructure, dot, mat_vec, max_abs, points_first, pointwise, vec_mat,
)
from .walker import (
    SegreVerdict, curvature_from_jet, f_hessian, flatness, ricci_from_jet,
    scalar_curvature_constant, scalar_curvature_field, segre_type,
)

_DIRECTIONS = 50    # per point, in `eta_einstein_report`


_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def eta_einstein_residual(rho, g, eta, fxx) -> tuple:
    """The components of rho - a g + a eta (x) eta with a = f_xx / 2 (the
    eta-Einstein residual rho - a g - b eta (x) eta at b = -a), upper
    triangle in row-major order: the one statement of the residual, read
    with [i, j] from dicts of expressions or from arrays."""
    a = fxx / 2
    return tuple(rho[i, j] - a * g[i, j] + a * eta[i] * eta[j]
                 for i, j in _UPPER)


def ricci_residual_fields(S: ApctStructure) -> tuple[Expr, ...]:
    """Symbolic components of the eta-Einstein residual (see
    `eta_einstein_residual`)."""
    f = S.manifold.f
    h = f_hessian(f)
    rho = {
        (0, 0): ZERO, (0, 1): ZERO, (0, 2): h["fxx"] / 2,
        (1, 1): ZERO, (1, 2): h["fxy"] / 2,
        (2, 2): (f * h["fxx"] - h["fyy"]) / 2,
    }
    g_sym = {
        (0, 0): ZERO, (0, 1): ZERO, (0, 2): ONE,
        (1, 1): ONE, (1, 2): ZERO, (2, 2): f,
    }
    return eta_einstein_residual(rho, g_sym, S.eta, h["fxx"])


class EtaEinsteinVerdict(NamedTuple):
    """Outcome of the eta-Einstein test.

    When the structure is eta-Einstein, a and b are the constant
    coefficients of g and eta (x) eta (a = -b = f_xx / 2), segre describes
    the Ricci operator at a representative point, and xi_matches_N records
    whether the Reeb field is plus or minus the null Ricci eigenvector.
    check compares the direct route (first) with the coordinate one, whose
    detail it carries.
    """

    is_eta_einstein: bool
    a: float | None
    b: float | None
    segre: SegreVerdict | None
    xi_matches_N: int | None
    fxx_nonzero: bool
    check: Check

    def __bool__(self) -> bool:
        return self.is_eta_einstein


@analyzed
def eta_einstein_check(S: ApctStructure) -> EtaEinsteinVerdict:
    M = S.manifold
    h = f_hessian(M.f)
    fxx = h["fxx"]

    residuals = tuple(
        is_identically_zero(e, S.domain)
        for e in ricci_residual_fields(S)
    )
    fxx_zero = is_identically_zero(fxx, S.domain)
    direct = every((*residuals, negated(fxx_zero)))

    coordinate, detail = _coordinate_eta_einstein(S, h, fxx_zero)
    check = Check.of("eta_einstein_routes", detail, direct, coordinate)

    a = b = None
    segre = None
    xi_match = None
    if direct.holds:
        pts = S.domain.sample()
        values, _ = evaluate_with_scale(fxx, pts)
        a = float(values.mean()) / 2.0
        b = -a
        segre = segre_type(M, tuple(float(c) for c in pts[0]))
        xi_match = _xi_versus_null_eigenvector(S, segre, pts)

    return EtaEinsteinVerdict(direct.holds, a, b, segre, xi_match,
                              not fxx_zero, check)


def _coordinate_eta_einstein(S: ApctStructure, h: dict[str, Expr],
                             fxx_zero: Route) -> tuple[Route, str]:
    """Coordinate characterization: Reeb shape (xi1, +-1, 0) with xi1 the
    matched quotient, degenerate discriminant, f_xx nonvanishing. Returns
    the route (the zero test that settled it, or a constant for xi2 not
    +-1) and its detail."""
    xi3 = is_identically_zero(S.xi[2], S.domain)
    if not xi3:
        return xi3, "xi3 does not vanish identically"
    sign = unit_y_setting(S)
    if sign is None:
        return NEVER, "xi2 is not identically +1 or -1"

    if fxx_zero:
        return (negated(fxx_zero), "f_xx vanishes identically, so the "
                "Ricci operator has no nonzero eigenvalue")
    fxx_nv = nonvanishing(h["fxx"], S.domain)
    if not fxx_nv:
        raise DegenerateInputError(
            "f_xx vanishes at a sampled point but not identically, so the "
            "eigenvector quotient f_xy / f_xx is undefined there and the "
            "coordinate eta-Einstein characterization cannot be evaluated",
            witness=fxx_nv.witness,
        )

    disc = is_identically_zero(h["disc"], S.domain)
    if not disc:
        return disc, "the Ricci discriminant f_xy^2 - f_xx f_yy is not zero"
    aligned = is_identically_zero(
        S.xi[0] + sign * h["fxy"] / h["fxx"], S.domain
    )
    return aligned, ("coordinate conditions hold" if aligned
                     else "xi1 does not match -xi2 f_xy / f_xx")


def _xi_versus_null_eigenvector(S: ApctStructure, segre: SegreVerdict,
                                pts: np.ndarray) -> int | None:
    """Compare the Reeb field at pts[0] (from the sample's frame) with the
    null Ricci eigenvector of `segre`; returns the matching sign or None."""
    if segre.n_vector is None:
        return None
    n = np.asarray(segre.n_vector, dtype=float)
    xi = S.frame(pts).xi_vec[:, 0]
    scale = 1.0 + float(np.abs(n).max()) + float(np.abs(xi).max())
    for sign in (1, -1):
        if within(float(np.abs(xi - sign * n).max()), S.domain.sampling.tol,
                  scale):
            return sign
    return None


# --- the equivalence chain ---------------------------------------------------

class EquivalenceReport(NamedTuple):
    """Five mutually equivalent curvature statements, decided separately.

    flags carries one boolean per statement, the answer of its route in
    check (in the same order), which fails when the chain breaks.
    mixed marks the honest in-between case for the second flag: every
    sampled point is flat or eta-Einstein pointwise, but neither holds on
    the whole sampled domain; the flag counts that as satisfied.
    flatness compares `walker.flatness` (the zero tests of f_xx, f_xy and
    f_yy) with the curvature of f's jet at every sampled point, and
    scalar_curvature compares `walker.scalar_curvature_constant` with the
    gradient of the scalar curvature's jet there.
    """

    flags: dict[str, bool]
    mixed: bool
    check: Check
    flatness: Check
    scalar_curvature: Check


@analyzed
def curvature_equivalences(S: ApctStructure) -> EquivalenceReport:
    M = S.manifold
    M.require_spacelike_signature()
    pts, tol = S.domain.sample(), S.domain.sampling.tol
    frame = S.frame(pts)
    jet = eval_jet(M.f, pts, 2)
    R = curvature_from_jet(jet)
    rho, q, fxx = ricci_from_jet(jet)
    phi, xi, g, eta = frame.phi_mat, frame.xi_vec, frame.g, frame.eta_vec

    r_max = max_abs(R, 4)
    # the zero rule's 1 + scales is 1 + value_scale + that maximum, as
    # B - 1 is exact for 1 <= B < 2^53; the pointwise masks judge by it too
    scales = 1.0 + frame.value_scale + np.maximum(r_max, max_abs(rho, 2)) - 1.0
    reference = 1.0 + scales

    q_first, phi_first = points_first(q), points_first(phi)
    commute = np.abs(q_first @ phi_first - phi_first @ q_first).max(axis=(1, 2))
    # R is antisymmetric in its first pair: the commutator's (j, i) block is
    # minus its (i, j) block and its (i, i) blocks vanish, so the blocks
    # i < j, as one row, hold its largest entry
    upper = R[[0, 0, 1], [1, 2, 2]][None]
    curv_commute = np.einsum("mk...,ijml...->ijkl...", phi, upper)
    curv_commute -= np.einsum("ijkm...,lm...->ijkl...", upper, phi)
    curv_commute = max_abs(np.abs(curv_commute, out=curv_commute), 4)
    anti = max_abs(
        np.einsum("ai...,bj...,ab...->ij...", phi, phi, rho) + rho, 2)
    annihilate = max_abs(np.einsum("ijkl...,k...->ijl...", R, xi), 3)

    flat_pt = within(r_max, tol, reference)
    resid = np.array(eta_einstein_residual(rho, g, eta, fxx))
    eta_pt = (within(max_abs(resid, 1), tol, reference)
              & within(abs(fxx), tol, reference, exceeds=True))

    verdicts = {
        name: zero_verdict_from_samples(values, scales, pts, tol)
        for name, values in (("ricci_operator_commutes_with_phi", commute),
                             ("curvature_commutes_with_phi", curv_commute),
                             ("ricci_anti_invariant_under_phi", anti),
                             ("curvature_annihilates_reeb", annihilate))
    }

    flat = flatness(M)
    eta_verdict = eta_einstein_check(S)
    mixed = bool(
        np.all(flat_pt | eta_pt)
        and not flat.flat and not eta_verdict.is_eta_einstein
    )
    # in the chain's order, where the flat-or-eta-Einstein statement is second
    first, *rest = verdicts.items()
    routes = dict([first, ("flat_or_eta_einstein", Route(
        flat.flat or eta_verdict.is_eta_einstein or mixed)), *rest])
    check = Check.of("curvature_equivalences", None, *routes.values())
    flat_routes = Check.of(
        "flatness_routes", None, every(flat.conditions.values()),
        zero_verdict_from_samples(r_max, scales, pts, tol))
    scal_routes = Check.of(
        "scalar_curvature_routes", None, scalar_curvature_constant(M),
        zero_verdict_from_samples(
            eval_jet(scalar_curvature_field(M), pts, 1).coeffs[1:], scales,
            pts, tol))
    return EquivalenceReport({name: r.holds for name, r in routes.items()},
                             mixed, check, flat_routes, scal_routes)


# --- sectional curvatures ----------------------------------------------------

class SectionalReport(NamedTuple):
    """Sectional curvatures of the Reeb plane span(X, xi) and the phi-plane
    span(X, phi X) at a point, for X projected onto the kernel of eta.

    A plane whose induced metric is degenerate (relative to
    `sampling.PLANE_TOL`) has no sectional curvature; its value is None
    and the flag is set.
    """

    point: tuple[float, float, float]
    K_xi: float | None
    K_phi: float | None
    scal: float
    xi_plane_degenerate: bool
    phi_plane_degenerate: bool


def sectional_curvatures(S: ApctStructure, X, point) -> SectionalReport:
    """`sectional_profile` at one point of the domain (else
    OutOfDomainError) of a space-like Walker manifold (else
    UnsupportedSignatureError), as column 0 of its batch of one."""
    point, (K_xi, K_phi), (xi_deg, phi_deg), scal = _sectional(
        S, point, np.reshape(X, (1, 1, 3)))
    return SectionalReport(
        point, None if xi_deg else float(K_xi),
        None if phi_deg else float(K_phi), scal, bool(xi_deg), bool(phi_deg))


@pointwise
def _sectional(S: ApctStructure, pts: np.ndarray, X) -> tuple:
    """The points, K and its mask at pts[:m] (points last, the Reeb plane
    first), and the scalar curvature, for X of shape (m, 1, 3)."""
    S.manifold.require_spacelike_signature()
    K, degenerate = sectional_profile(S, pts, X)
    require_finite_sectional(K, degenerate, pts)
    return (pts, K[:, 0].T, degenerate[:, 0].T,
            eval_jet(S.manifold.f, pts, 2).derivative((2, 0, 0)))


@np.errstate(all="ignore")
def sectional_profile(S: ApctStructure, pts: np.ndarray,
                      X) -> tuple[np.ndarray, np.ndarray]:
    """K(X_h, xi) and K(X_h, phi X_h), X_h = X - eta(X) xi, for X of shape
    (m, d, 3): d directions at each of pts[:m], read from the frame and the
    kept order-2 jet of f over pts, with numpy's warnings off.

    Returns K, shape (m, d, 2) (the Reeb plane first), and the mask of
    degenerate planes (see `sampling.PLANE_TOL`), where K means nothing. A
    nondegenerate plane whose K is not finite is its caller's to refuse
    (see `require_finite_sectional`). Every product runs on contiguous
    points-first copies and R(u, v, v, u) is one einsum without optimize,
    so each entry has the bits of the batch of one at its point.
    """
    X = np.asarray(X, dtype=float)
    m, frame = len(X), S.frame(pts)
    R = curvature_from_jet(
        Jet3(2, eval_jet(S.manifold.f, pts, 2).coeffs[..., :m]))
    R, g, xi, eta, phi = (points_first(a[..., :m]) for a in (
        R, frame.g, frame.xi_vec, frame.eta_vec, frame.phi_mat))
    Xh = X - dot(eta[:, None], X)[..., None] * xi[:, None]
    # the planes span(u, v), (X_h, xi) and (X_h, phi X_h), on an axis of
    # their own
    u = np.stack((Xh, Xh), axis=2)
    v = np.stack((np.broadcast_to(xi[:, None], Xh.shape),
                  mat_vec(phi[:, None], Xh)), axis=2)
    gu, gv = (vec_mat(a, g[:, None, None]) for a in (u, v))
    guu, gvv, guv = dot(gu, u), dot(gv, v), dot(gu, v)
    den = guu * gvv - guv * guv
    degenerate = within(abs(den), PLANE_TOL, abs(guu * gvv) + guv * guv + 1e-300)
    # R(u, v, v, u) at point p, direction d and plane c
    pair = np.einsum("pdci,pdcj,pdck,pijkl,plm,pdcm->pdc", u, v, v, R, g, u)
    # a degenerate plane's den (0.0 among them) is not divided by
    return pair / np.where(degenerate, 1.0, den), degenerate


def require_finite_sectional(K: np.ndarray, degenerate: np.ndarray,
                             pts: np.ndarray) -> None:
    """EvaluationError at the first nondegenerate plane of a
    `sectional_profile`, in point, direction and then plane order, whose K
    is not finite (an overflow)."""
    bad = ~degenerate & ~is_finite(K)
    if bad.any():
        k, _, plane = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise EvaluationError("non-finite sectional curvature",
                              ("K_xi", "K_phi")[plane], pts[k])


# --- the eta-Einstein curvature profile --------------------------------------

class EtaEinsteinProfile(NamedTuple):
    """Aggregate curvature behavior of an eta-Einstein structure: constant
    nonzero scalar curvature C = 2 verdict.a, Ricci coefficients
    verdict.a = -verdict.b = C / 2, zero Reeb-plane sectional curvature,
    constant phi-plane sectional curvature -C / 2, and membership in exactly
    one of the two cosymplectic-type classes: paracosymplectic when the
    closed discriminant 2 f_xyz + f_x f_xy - f_xx f_y vanishes
    (discriminant holds), else almost paracosymplectic.

    When the verdict is not eta-Einstein, every other field is None.
    """

    verdict: EtaEinsteinVerdict
    scal_constant: bool | None = None
    k_xi_max: float | None = None
    k_phi_value: float | None = None
    k_phi_variance: float | None = None
    discriminant: Route | None = None
    matches_named_classes: bool | None = None


@analyzed
def eta_einstein_report(S: ApctStructure) -> EtaEinsteinProfile:
    """The eta-Einstein profile of S (see EtaEinsteinProfile), or the
    profile of its verdict alone when S is not eta-Einstein.

    The sectional curvatures are taken at the first five sample points,
    along _DIRECTIONS vectors each, with components uniform on [-1, 1]
    from the package's PCG64 stream seeded with the sample's seed + 1 (the
    draws of numpy's default_rng(seed + 1), see `sampling.PCG64Stream`), in
    point order, then direction order, then component order, all through
    one `sectional_profile`: the values of `sectional_curvatures` there.
    The statistics run over the nondegenerate planes in that order.
    """
    verdict = eta_einstein_check(S)
    if not verdict.is_eta_einstein:
        return EtaEinsteinProfile(verdict)

    h = f_hessian(S.manifold.f)
    pts = S.domain.sample()

    draws = PCG64Stream(S.domain.sampling.seed + 1).uniform(
        -1.0, 1.0, (min(5, pts.shape[0]), _DIRECTIONS, 3))
    K, degenerate = sectional_profile(S, pts, draws)
    require_finite_sectional(K, degenerate, pts)
    k_xi, k_phi = (K[..., i][~degenerate[..., i]] for i in (0, 1))
    k_xi_max = float(np.abs(k_xi).max(initial=0.0))
    k_phi_value = float(k_phi.mean()) if k_phi.size else None
    k_phi_variance = float(k_phi.var()) if k_phi.size else None

    disc_field = (2 * diff(h["fxy"], "z") + h["fx"] * h["fxy"]
                  - h["fxx"] * h["fy"])
    disc = is_identically_zero(disc_field, S.domain)

    named = named_classes(S).named
    matches = (
        named["paracosymplectic"].holds == disc.holds
        and named["almost_paracosymplectic"].holds == (not disc.holds)
    )

    return EtaEinsteinProfile(
        verdict,
        scal_constant=scalar_curvature_constant(S.manifold).holds,
        k_xi_max=k_xi_max,
        k_phi_value=k_phi_value,
        k_phi_variance=k_phi_variance,
        discriminant=disc,
        matches_named_classes=matches,
    )
