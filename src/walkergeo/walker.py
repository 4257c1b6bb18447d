"""Three-dimensional Walker metrics and their curvature, in closed form.

The metric, in coordinates (x, y, z), is

    g = [[0, 0, 1], [0, eps, 0], [1, 0, f(x, y, z)]],    eps = +1 or -1,

which carries the parallel null line field spanned by d/dx (the strict case
being f independent of x). The metric, connection and curvature kernels
read values or a jet of f over an (n, 3) batch of points (`eval_jet`) and
return plain numeric arrays, components first and the point axis last;
independent generic-formula oracles for the same quantities live in the
test suite.

Lowered-index curvature follows R(X, Y, Z, W) = g(R(X, Y)Z, W), where the
curvature operator sign convention is

    R(X, Y) = nabla_[X,Y] - nabla_X nabla_Y + nabla_Y nabla_X,

the convention under which the Ricci tensor below is the trace
rho(X, Y) = tr(Z -> R(X, Z)Y). The connection and curvature closed forms are
stated for eps = +1 (the only signature admitting the structures built on
top of this module); the verdicts built on them raise for eps = -1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UnsupportedSignatureError
from .expressions import (
    Expr, as_batch, diff, gradient, once, scalar, to_source,
)
from .jets import Jet3, eval_jet
from .sampling import Domain, Route, every, is_identically_zero, nonvanishing


class WalkerManifold:
    """Symbolic Walker metric: defining function f, sign eps, and domain."""

    def __init__(self, f: Expr, epsilon: int, domain: Domain):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        self.f = f
        self.epsilon = epsilon
        self.domain = domain

    def __repr__(self) -> str:
        return (
            f"WalkerManifold(f={to_source(self.f)!r}, epsilon={self.epsilon})"
        )

    def require_spacelike_signature(self) -> None:
        if self.epsilon != 1:
            raise UnsupportedSignatureError(
                "closed-form connection and curvature are implemented for "
                "epsilon = +1 only"
            )


def metric_arrays(f, eps: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The metric g and its inverse from the values of f over the points.

    The inverse is closed-form: g^11 = -f, g^13 = g^31 = 1, g^22 = eps,
    everything else zero; det(g) = -eps identically.
    """
    zero = np.full(np.shape(f), scalar(0, f))
    one = zero + 1.0
    e = eps * one
    return (np.array([[zero, zero, one], [zero, e, zero], [one, zero, f]]),
            np.array([[-f, zero, one], [zero, e, zero], [one, zero, zero]]))


def christoffel_from_jet(jet: Jet3) -> np.ndarray:
    """Levi-Civita connection coefficients from a jet of f of order >= 1;
    [k, i, j] holds Gamma^k_ij.

    Nonzero coefficients (eps = +1): Gamma^1_13 = f_x/2, Gamma^1_23 = f_y/2,
    Gamma^1_33 = (f f_x + f_z)/2, Gamma^2_33 = -f_y/2, Gamma^3_33 = -f_x/2,
    plus symmetry in the lower pair.
    """
    f = jet.value
    fx = jet.derivative((1, 0, 0))
    fy = jet.derivative((0, 1, 0))
    fz = jet.derivative((0, 0, 1))
    gamma = np.full((3, 3, 3) + np.shape(f), scalar(0, f))
    gamma[0, 0, 2] = gamma[0, 2, 0] = 0.5 * fx
    gamma[0, 1, 2] = gamma[0, 2, 1] = 0.5 * fy
    gamma[0, 2, 2] = 0.5 * (f * fx + fz)
    gamma[1, 2, 2] = -0.5 * fy
    gamma[2, 2, 2] = -0.5 * fx
    return gamma


def _hessian(jet: Jet3):
    """f, f_xx, f_xy and f_yy from a jet of f of order >= 2."""
    return (jet.value, jet.derivative((2, 0, 0)), jet.derivative((1, 1, 0)),
            jet.derivative((0, 2, 0)))


def curvature_from_jet(jet: Jet3) -> np.ndarray:
    """Curvature operator components R from a jet of f of order >= 2:
    R(d_i, d_j) d_k = sum_l R[i, j, k, l] d_l, under the sign convention in
    the module docstring.

    Only the (d_x, d_z) and (d_y, d_z) planes act nontrivially; the operator
    vanishes identically exactly when f_xx, f_xy, f_yy all vanish.
    """
    f, fxx, fxy, fyy = _hessian(jet)
    R = np.full((3, 3, 3, 3) + np.shape(f), scalar(0, f))
    R[0, 2, 0, 0] = -0.5 * fxx
    R[0, 2, 1, 0] = -0.5 * fxy
    R[0, 2, 2, 0] = -0.5 * f * fxx
    R[0, 2, 2, 1] = 0.5 * fxy
    R[0, 2, 2, 2] = 0.5 * fxx
    R[1, 2, 0, 0] = -0.5 * fxy
    R[1, 2, 1, 0] = -0.5 * fyy
    R[1, 2, 2, 0] = -0.5 * f * fxy
    R[1, 2, 2, 1] = 0.5 * fyy
    R[1, 2, 2, 2] = 0.5 * fxy
    R[2, :2] = -R[:2, 2]
    return R


def ricci_from_jet(jet: Jet3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ricci tensor rho, Ricci operator Q (g(QX, Y) = rho(X, Y)) and scalar
    curvature trace(Q) = f_xx from a jet of f of order >= 2."""
    f, fxx, fxy, fyy = _hessian(jet)
    rho = np.full((3, 3) + np.shape(f), scalar(0, f))
    rho[0, 2] = rho[2, 0] = 0.5 * fxx
    rho[1, 2] = rho[2, 1] = 0.5 * fxy
    rho[2, 2] = 0.5 * (f * fxx - fyy)
    q = np.full((3, 3) + np.shape(f), scalar(0, f))
    q[0, 0] = q[2, 2] = 0.5 * fxx
    q[0, 1] = q[1, 2] = 0.5 * fxy
    q[0, 2] = -0.5 * fyy
    return rho, q, fxx


def f_hessian(f: Expr) -> dict[str, Expr]:
    """f_x, f_y, the second partials f_xx, f_xy, f_yy and the Ricci
    discriminant f_xy^2 - f_xx f_yy, symbolically."""
    fx, fy = diff(f, "x"), diff(f, "y")
    fxx, fxy, fyy = diff(fx, "x"), diff(fx, "y"), diff(fy, "y")
    return {"fx": fx, "fy": fy, "fxx": fxx, "fxy": fxy, "fyy": fyy,
            "disc": fxy * fxy - fxx * fyy}


def scalar_curvature_field(M: WalkerManifold) -> Expr:
    """Scalar curvature as a symbolic field: f_xx."""
    return diff(diff(M.f, "x"), "x")


def scalar_curvature_constant(M: WalkerManifold) -> Route:
    """The route that holds iff the scalar curvature is constant: every
    partial of `scalar_curvature_field` vanishes on the sampled domain."""
    return every(is_identically_zero(d, M.domain)
                 for d in gradient(scalar_curvature_field(M)))


class FlatnessVerdict(NamedTuple):
    """Curvature-based flatness, with the alternative prose condition.

    flat is decided by vanishing of the curvature components (f_xx, f_xy,
    f_yy). A second, inequivalent condition (f_xx, f_yy, f_zz vanishing)
    circulates for this metric family; when the two disagree on the sampled
    domain, `note` records it instead of silently picking one.
    """

    flat: bool
    conditions: dict[str, Route]
    alternative_flat: bool
    note: str | None

    def __bool__(self) -> bool:
        return self.flat


def flatness(M: WalkerManifold) -> FlatnessVerdict:
    """The FlatnessVerdict of M, decided once per analysis."""
    M.require_spacelike_signature()
    return once(M, "flatness", (), lambda: _flatness(M))


def _flatness(M: WalkerManifold) -> FlatnessVerdict:
    fx, fy, fz = gradient(M.f)
    conditions = {
        "f_xx": is_identically_zero(diff(fx, "x"), M.domain),
        "f_xy": is_identically_zero(diff(fx, "y"), M.domain),
        "f_yy": is_identically_zero(diff(fy, "y"), M.domain),
    }
    flat = all(conditions.values())
    alt = bool(
        conditions["f_xx"]
        and conditions["f_yy"]
        and is_identically_zero(diff(fz, "z"), M.domain)
    )
    note = None
    if alt != flat:
        note = (
            "flatness decided by the curvature components f_xx, f_xy, f_yy; "
            "the alternative condition using f_zz disagrees on this domain "
            f"(curvature route: {flat}, f_zz route: {alt})"
        )
    return FlatnessVerdict(flat, conditions, alt, note)


def is_strict_walker(M: WalkerManifold) -> Route:
    """The route that holds iff the parallel null line field's metric
    function is x-independent (f_x vanishes on the sampled domain)."""
    return is_identically_zero(diff(M.f, "x"), M.domain)


class SegreVerdict(NamedTuple):
    """Algebraic type of the Ricci operator.

    kind is 'flat', 'type11_1_degenerate', or 'other'. In the degenerate
    non-flat case the eigenvalues at the sample's first point are (0, s, s)
    with s = f_xx/2 != 0; n_vector = -(f_xy/f_xx) d_x + d_y spans the
    kernel, v1 = d_x and v2 = (f_xy/f_xx) d_y + d_z span the s-eigenspace,
    and max_residual records how well Q n = 0, Q vi = s vi held
    numerically.
    """

    kind: str
    eigenvalues: tuple[float, float, float] | None = None
    n_vector: np.ndarray | None = None
    v1: np.ndarray | None = None
    v2: np.ndarray | None = None
    max_residual: float = 0.0
    degeneracy: Route | None = None
    fxx_nonvanishing: Route | None = None


def segre_type(M: WalkerManifold, pts) -> SegreVerdict:
    """Classify the Ricci operator: flat, degenerate {11;1} with a null
    eigenvector (f_xy^2 - f_xx f_yy = 0 != f_xx), or other; the
    eigenvectors at pts[0] of the (n, 3) sample pts, once per sample in an
    analysis."""
    M.require_spacelike_signature()
    pts = as_batch(pts)
    return once(M, "segre", (pts,), lambda: _segre_type(M, pts))


def _segre_type(M: WalkerManifold, pts: np.ndarray) -> SegreVerdict:
    if flatness(M).flat:
        return SegreVerdict(kind="flat", eigenvalues=(0.0, 0.0, 0.0))
    h = f_hessian(M.f)
    degeneracy = is_identically_zero(h["disc"], M.domain)
    fxx_nonzero = nonvanishing(h["fxx"], M.domain)
    if not (degeneracy and fxx_nonzero):
        return SegreVerdict(
            kind="other", degeneracy=degeneracy, fxx_nonvanishing=fxx_nonzero
        )
    # column 0 of the sample's order-2 jet of f (the frame keeps it) is pts[0]
    jet = eval_jet(M.f, pts, 2)
    _, fxx_v, fxy_v, _ = (a[0] for a in _hessian(jet))
    s = 0.5 * fxx_v
    ratio = fxy_v / fxx_v
    kernel = np.array([-ratio, 1.0, 0.0])
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([0.0, ratio, 1.0])
    q = ricci_from_jet(jet)[1][..., 0]
    scale = 1.0 + abs(s) + abs(ratio)
    residual = max(
        float(np.abs(q @ kernel).max()),
        float(np.abs(q @ v1 - s * v1).max()),
        float(np.abs(q @ v2 - s * v2).max()),
    ) / scale
    return SegreVerdict(
        kind="type11_1_degenerate",
        eigenvalues=(0.0, s, s),
        n_vector=kernel,
        v1=v1,
        v2=v2,
        max_residual=residual,
        degeneracy=degeneracy,
        fxx_nonvanishing=fxx_nonzero,
    )
