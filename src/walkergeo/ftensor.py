"""Structure tensor of the almost paracontact metric structure.

The central object is the covariant derivative of the fundamental 2-form,

    F(X, Y, Z) = g((nabla_X phi) Y, Z),

antisymmetric in its last two slots. On a Walker 3-manifold it collapses to
nine independent coefficient fields built from first derivatives of
(f, xi); that closed coordinate formula is the primary route here, and the
literal connection route (differentiate phi, correct with Christoffel
symbols, lower an index) is computed alongside as a cross-check.

The symbolic route (`diff` and the evaluator, the `_batch` functions) and
the jet route (the frame's Taylor jets, the `_at` functions) differ only in
method: each formula they share is written once and takes expressions or
arrays alike, namely the nine coefficients (`_coefficients`), d(eta) from
the partials of eta (`_d_eta`) and the normality defect
(`_normality_defect`). Each statement is checked by one that does not call
it: the coefficients by the connection route, d(eta) by its contraction out
of F, the defect by the component split in `classify.is_normal`. The trace
forms on the Reeb field are written twice on purpose, as expanded formulas
(`theta_xi_field`, `theta_star_xi_field`) and as contractions of F, because
the trace-form routes compare the two.

The value objects of two-route quantities (FTensorValue, TraceForms,
ExteriorData) record the normalized discrepancy between their routes
(`_discrepancy`, which raises at the first point where it is not finite);
ProjectionBundle holds one route's arrays.

Derived objects, each again by two independent routes:

  * the trace forms theta(X) = g^{ij} F(e_i, e_j, X) and
    theta*(X) = g^{ij} F(e_i, phi e_j, X), evaluated on the Reeb field:
    numeric contraction vs. expanded first-derivative formulas;
  * d(eta), the Lie derivative of g along the Reeb field, and nabla(eta):
    coordinate exterior/derivative formulas vs. contractions of F;
  * d(fundamental 2-form): cyclic sum of F vs. the coordinate exterior
    derivative;
  * the normality defect N - 2 d(eta) (x) xi, N the Nijenhuis torsion of
    phi on coordinate fields, against the component split.

The pointwise split of F into its four admissible components (the only
basic-class components a 3-dimensional structure can carry) uses the
defining shapes of the two trace-form components and the Reeb-square
component, leaving the fourth as remainder; the remainder is then audited
against the shape identities it must satisfy, so a tensor outside the
modeled direct sum is detected rather than silently projected.

Arrays are laid out components first, points last: F over an (n, 3)
batch of points is (3, 3, 3, n) (see `structure`); every view takes a
batch. Contractions are np.einsum on them. In an analysis (each view runs
in one, or joins the open one, see `sampling.analyzed`), the frames, each
view over a read-only batch and every symbolic field's values are formed
once; the eta partials and a batch's Reeb contractions are shared by the
routes that read them until the classification ends.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expressions import Expr, diff, evaluate_with_scale, gradient, once, scalar
from .sampling import analyzed, require_finite
from .structure import (
    ApctStructure, Frame, dot, max_abs, points_first, points_last,
)
from .walker import metric_arrays

_AXES = ("x", "y", "z")
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _coefficients(f, df, xi, dxi) -> tuple:
    """The nine coefficients of the structure tensor from f, its gradient
    df, the Reeb components xi and their partials dxi[a][k] = d_a xi_{k+1},
    as expressions or as arrays: the one statement of the coordinate
    formula, which the symbolic and the jet route both read.

    Each entry (a, b, c, value) places F(d_a, d_b, d_c) = value, with the
    antisymmetric partner F(d_a, d_c, d_b) = -value; slots not covered are
    identically zero.
    """
    fx, fy, fz = df
    xi1, xi2, xi3 = xi
    return (
        (0, 0, 1, dxi[0][2]),
        (0, 0, 2, -dxi[0][1]),
        (0, 1, 2, dxi[0][0] + xi3 * fx / 2),
        (1, 0, 1, dxi[1][2]),
        (1, 0, 2, -dxi[1][1]),
        (1, 1, 2, dxi[1][0] + xi3 * fy / 2),
        (2, 0, 1, dxi[2][2] - xi3 * fx / 2),
        (2, 0, 2, -dxi[2][1] + xi3 * fy / 2),
        (2, 1, 2, dxi[2][0]
         + (xi1 * fx + xi2 * fy + xi3 * fz + xi3 * f * fx) / 2),
    )


def coefficient_fields(S: ApctStructure) -> tuple[tuple[int, int, int, Expr], ...]:
    """The nine symbolic coefficients of the structure tensor (see
    `_coefficients`)."""
    f = S.manifold.f
    return _coefficients(f, gradient(f), S.xi,
                         [[diff(e, v) for e in S.xi] for v in _AXES])


def theta_xi_field(S: ApctStructure) -> Expr:
    """theta evaluated on the Reeb field, as a symbolic field.

    Expanded first-derivative formula; the numeric contraction route lives
    in theta_forms.
    """
    f = S.manifold.f
    fx, fy = diff(f, "x"), diff(f, "y")
    xi1, xi2, xi3 = S.xi
    return (
        xi1 * (diff(xi2, "x") - diff(xi3, "y"))
        - xi2 * (f * diff(xi3, "x") + diff(xi1, "x") + xi3 * fx - diff(xi3, "z"))
        + xi3 * (f * diff(xi2, "x") + diff(xi1, "y") + xi3 * fy - diff(xi2, "z"))
    )


def theta_star_xi_field(S: ApctStructure) -> Expr:
    """theta* evaluated on the Reeb field, as a symbolic field."""
    f = S.manifold.f
    fx, fy, fz = (diff(f, v) for v in _AXES)
    xi1, xi2, xi3 = S.xi
    u = f * xi3 + xi1
    return (
        xi1 * (u * diff(xi3, "x") + xi2 * diff(xi2, "x") - xi3 * diff(xi2, "y")
               - xi3 * (diff(xi3, "z") - xi3 * fx / 2))
        + xi2 * (u * diff(xi3, "y") - xi2 * diff(xi1, "x") - xi2 * diff(xi3, "z")
                 + xi3 * (diff(xi1, "y") + xi3 * fy / 2))
        + xi3 * (-u * (diff(xi1, "x") + diff(xi2, "y")) + xi2 * diff(xi2, "z")
                 + xi3 * (diff(xi1, "z") + xi3 * fz / 2))
    )


def _coordinate_route(frame: Frame) -> np.ndarray:
    """Structure tensor from the nine-coefficient coordinate formula."""
    f = frame.f
    coeffs = _coefficients(f.value, [f.derivative(e) for e in _UNIT],
                           frame.xi_vec, frame.xi_d)
    return _antisymmetric(coeffs, f.value)


def _antisymmetric(coeffs, like) -> np.ndarray:
    """F[a, b, c] = value, F[a, c, b] = -value, in like's shape and type."""
    F = np.full((3, 3, 3) + np.shape(like), scalar(0, like))
    for a, b, c, value in coeffs:
        F[a, b, c] = value
        F[a, c, b] = -value
    return F


def _connection_route(frame: Frame) -> np.ndarray:
    """Structure tensor assembled literally from nabla phi.

    (nabla_{d_a} phi) d_b has components d_a phi^l_b
    + Gamma^l_{am} phi^m_b - phi^l_m Gamma^m_{ab}; lowering the free index
    with g gives F(d_a, d_b, d_c).
    """
    nabla_phi = (
        frame.phi_d
        + np.einsum("lam...,mb...->alb...", frame.gamma, frame.phi_mat)
        - np.einsum("lm...,mab...->alb...", frame.phi_mat, frame.gamma)
    )
    return np.einsum("alb...,lc...->abc...", nabla_phi, frame.g)


class FTensorValue(NamedTuple):
    """Numeric structure tensor over (n, 3) points, its arrays read-only.
    This and every value object below holds the points in point, and its
    arrays have a trailing point axis.

    components[a, b, c] = F(d_a, d_b, d_c) by the coordinate formula;
    route_discrepancy is the largest difference against the connection
    route, normalized by (1 + frame scale). theta and theta_star are the
    trace forms on the coordinate fields, theta_xi and theta_star_xi the
    same evaluated on the Reeb field, reeb_square the covector
    F(xi, xi, .); the trace forms and the component shapes read them here.
    """

    point: np.ndarray
    components: np.ndarray
    theta: np.ndarray
    theta_star: np.ndarray
    theta_xi: np.ndarray
    theta_star_xi: np.ndarray
    reeb_square: np.ndarray
    route_discrepancy: np.ndarray


def _tensor_forms(F: np.ndarray, xi: np.ndarray, phi: np.ndarray,
                  ginv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta and theta* on the coordinate fields, and the Reeb square
    F(xi, xi, .), contracted out of F."""
    theta = np.einsum("ij...,ijc...->c...", ginv, F)
    mixed = np.einsum("ij...,mj...->im...", ginv, phi)
    return (theta, np.einsum("im...,imc...->c...", mixed, F),
            np.einsum("i...,j...,ijc...->c...", xi, xi, F))


@analyzed
def f_tensor_at(S: ApctStructure, pts) -> FTensorValue:
    """The structure tensor over the points."""
    return _f_tensor(S.frame(pts))


def _discrepancy(frame: Frame, *routes) -> np.ndarray:
    """The largest |a - b| of the routes (a, b, axes), over the leading
    `axes` (component) axes of a - b, per point over (1 + frame scale):
    the route discrepancy of a value object, which raises at the first
    point where it is not finite (see `require_finite`)."""
    return require_finite(np.maximum.reduce([
        max_abs(a - b, axes) for a, b, axes in routes
    ]) / (1.0 + frame.scale), frame.points)


def _f_tensor(frame: Frame) -> FTensorValue:
    coord = _coordinate_route(frame)
    discrepancy = _discrepancy(frame, (coord, _connection_route(frame), 3))
    theta, theta_star, reeb_square = _tensor_forms(
        coord, frame.xi_vec, frame.phi_mat, frame.ginv)
    for array in (coord, theta, theta_star, reeb_square):
        array.setflags(write=False)
    xi_first = points_first(frame.xi_vec)
    return FTensorValue(
        frame.points, coord, theta, theta_star,
        dot(points_first(theta), xi_first),
        dot(points_first(theta_star), xi_first), reeb_square, discrepancy,
    )


class TraceForms(NamedTuple):
    """theta and theta* over the points, on coordinate fields and on the Reeb
    field, with the discrepancy between contraction and expanded-formula
    routes."""

    point: np.ndarray
    theta: np.ndarray
    theta_star: np.ndarray
    theta_xi: np.ndarray
    theta_star_xi: np.ndarray
    route_discrepancy: np.ndarray


@analyzed
def theta_forms(S: ApctStructure, pts) -> TraceForms:
    frame = S.frame(pts)
    t = f_tensor_at(S, pts)
    closed = evaluate_with_scale(theta_xi_field(S), pts)[0]
    closed_star = evaluate_with_scale(theta_star_xi_field(S), pts)[0]
    return TraceForms(
        pts, t.theta, t.theta_star, t.theta_xi, t.theta_star_xi,
        _discrepancy(frame, (np.array([t.theta_xi, t.theta_star_xi]),
                             np.array([closed, closed_star]), 1)),
    )


class ExteriorData(NamedTuple):
    """d(eta), d(fundamental), Lie_xi g, and nabla(eta) over the points.

    Primary components come from the coordinate routes (exterior derivative
    of the 1-form eta, exterior derivative of the fundamental 2-form, and
    the covariant formula for nabla eta); route_discrepancy is the largest
    normalized difference against the structure-tensor contractions of the
    same objects.
    """

    point: np.ndarray
    d_eta: np.ndarray
    d_fundamental: np.ndarray
    lie_g: np.ndarray
    nabla_eta: np.ndarray
    route_discrepancy: np.ndarray


def _d_eta(eta_d: np.ndarray) -> np.ndarray:
    """d(eta)(d_i, d_j) = (d_i eta_j - d_j eta_i) / 2 on coordinate fields,
    from the partials eta_d[i, j] = d_i eta_j."""
    return (eta_d - eta_d.swapaxes(0, 1)) / 2


def _reeb_routes(F: np.ndarray, phi: np.ndarray, xi: np.ndarray):
    """d(eta), Lie_xi g and nabla(eta), contracted out of F through
    F(d_i, phi d_j, xi)."""
    contracted = np.einsum("imc...,mj...,c...->ij...", F, phi, xi)
    return (
        0.5 * (contracted.swapaxes(0, 1) - contracted),
        -contracted - contracted.swapaxes(0, 1),
        -contracted,
    )


@analyzed
def exterior_data_at(S: ApctStructure, pts) -> ExteriorData:
    frame = S.frame(pts)
    F = f_tensor_at(S, pts).components

    d_eta = _d_eta(frame.eta_d)

    # nabla eta as a matrix: (nabla_{d_i} eta)(d_j) = g(nabla_{d_i} xi, d_j)
    nabla_eta = points_last(points_first(frame.nabla_xi_matrix())
                            @ points_first(frame.g))
    lie_g = nabla_eta + nabla_eta.swapaxes(0, 1)

    # d of the fundamental 2-form w: (dw)_ijk = d_i w_jk - d_j w_ik + d_k w_ij.
    # Only g_33 varies, so d_a w_jk picks up phi^3_j f_a on k = 3.
    dw = np.einsum("alj...,lk...->ajk...", frame.phi_d, frame.g)
    f_d = np.array([frame.f.derivative(e) for e in _UNIT])
    dw[:, :, 2] += np.einsum("j...,a...->aj...", frame.phi_mat[2], f_d)
    d_fund = dw - dw.swapaxes(0, 1) + np.moveaxis(dw, 0, 2)

    # structure-tensor routes for the same objects; d(fundamental) is the
    # cyclic sum of F
    cyclic = F + np.moveaxis(F, 0, 2) + np.moveaxis(F, 2, 0)
    discrepancy = _discrepancy(frame, *zip(
        (d_eta, lie_g, nabla_eta, d_fund),
        _reeb_routes(F, frame.phi_mat, frame.xi_vec) + (cyclic,),
        (2, 2, 2, 3)))
    return ExteriorData(pts, d_eta, d_fund, lie_g, nabla_eta, discrepancy)


def _nijenhuis(phi: np.ndarray, pd: np.ndarray) -> np.ndarray:
    """N(d_i, d_j)^k from phi and its partials pd[a, i, j] = d_a phi^i_j."""
    # [phi d_i, phi d_j]^k, using [U, V]^k = u^m d_m v^k - v^m d_m u^k;
    # the phi^2 [d_i, d_j] term of the torsion drops for coordinate fields.
    # Each second contraction is the first with i and j swapped.
    bracket = np.einsum("mi...,mkj...->ijk...", phi, pd)
    # -phi [phi d_i, d_j] - phi [d_i, phi d_j]
    correction = np.einsum("km...,jmi...->ijk...", phi, pd)
    return ((bracket - bracket.swapaxes(0, 1))
            + (correction - correction.swapaxes(0, 1)))


def _normality_defect(nij, d_eta, xi) -> np.ndarray:
    """N - 2 d(eta) (x) xi from the torsion and d(eta): [i, j, k] is the
    k-th component at (d_i, d_j)."""
    return nij - 2 * np.einsum("ij...,k...->ijk...", d_eta, xi)


# --- component split ---------------------------------------------------------

@np.errstate(all="ignore")
def _component_arrays(F, xi, eta, phi, g, forms, scale, pts):
    """Vectorized split of F into its four admissible components, given
    F's `_tensor_forms`, with numpy's warnings off.

    All inputs may carry a trailing point axis. Returns (parts, theta_xi,
    theta_star_xi, model_defect) where parts maps the component labels to
    arrays shaped like F, summing to F exactly, and model_defect is the
    largest violation of the remainder-shape identities over
    (1 + scale + max |F|). It raises at the first of pts where the defect
    is not finite (see `require_finite`), which is where the split is not
    (a component that overflows): every entry reaches F10 = F - F5 - F6 -
    F12. Each antisymmetric pair of contractions is formed once: the second
    is the first with its last two axes swapped.
    """
    theta_form, theta_star_form, reeb_square = forms
    theta_xi = np.einsum("c...,c...->...", theta_form, xi)
    theta_star_xi = np.einsum("c...,c...->...", theta_star_form, xi)

    gphiphi = np.einsum("ai...,ab...,bj...->ij...", phi, g, phi)
    gphi = np.einsum("ab...,bj...->aj...", g, phi)
    f5 = np.einsum("...,j...,ik...->ijk...", theta_xi, eta, gphiphi)
    f5 = 0.5 * (f5 - f5.swapaxes(1, 2))
    f6 = np.einsum("...,j...,ik...->ijk...", theta_star_xi, eta, gphi)
    f6 = -0.5 * (f6 - f6.swapaxes(1, 2))
    f12 = np.einsum("i...,j...,k...->ijk...", eta, eta, reeb_square)
    f12 = f12 - f12.swapaxes(1, 2)
    f10 = F - f5 - f6 - f12

    # Remainder audit: the fourth component is characterized by
    # F(X, Y, Z) = -eta(Y) T(X, Z) + eta(Z) T(X, Y) with T = F(., ., xi)
    # symmetric and invariant under (X, Y) -> (phi X, phi Y).
    t = np.einsum("ijc...,c...->ij...", f10, xi)
    recon = np.einsum("j...,ik...->ijk...", eta, t)
    recon = -recon + recon.swapaxes(1, 2)
    d_recon = max_abs(f10 - recon, 3)
    d_sym = max_abs(t - t.swapaxes(0, 1), 2)
    t_phiphi = np.einsum("ai...,bj...,ab...->ij...", phi, phi, t)
    d_inv = max_abs(t - t_phiphi, 2)
    model_defect = np.maximum(d_recon, np.maximum(d_sym, d_inv))
    parts = {"G5": f5, "G6": f6, "G10": f10, "G12": f12}
    return parts, theta_xi, theta_star_xi, require_finite(
        model_defect / (1.0 + scale + max_abs(F, 3)), pts)


class ProjectionBundle(NamedTuple):
    """Split of the structure tensor over the points into the component shapes
    a 3-dimensional structure can carry.

    F5 + F6 + F10 + F12 recovers the input tensor up to the stored residual
    (zero up to rounding, by construction of F10 as the remainder). The
    split is meaningful only when the remainder part satisfies its shape
    identities, i.e. model_defect is within tol. A larger defect means the
    tensor falls outside the modeled direct sum.
    """

    point: np.ndarray
    F5: np.ndarray
    F6: np.ndarray
    F10: np.ndarray
    F12: np.ndarray
    residual: np.ndarray
    theta_xi: np.ndarray
    theta_star_xi: np.ndarray
    model_defect: np.ndarray


@analyzed
def project_components(S: ApctStructure, pts) -> ProjectionBundle:
    """The split over the points; EvaluationError at the first point
    where it is not finite (see `_component_arrays`)."""
    frame = S.frame(pts)
    t = f_tensor_at(S, pts)
    F = t.components
    parts, th, ths, defect = _component_arrays(
        F, frame.xi_vec, frame.eta_vec, frame.phi_mat, frame.g,
        (t.theta, t.theta_star, t.reeb_square), frame.scale, pts)
    return ProjectionBundle(
        pts, parts["G5"], parts["G6"], parts["G10"], parts["G12"],
        F - parts["G5"] - parts["G6"] - parts["G10"] - parts["G12"], th, ths,
        defect,
    )


# --- vectorized evaluation over many points ---------------------------------

def _evaluate(fields, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each field over the (n, 3) points, as rows of one (fields, n) array,
    and the largest magnitude any of them reached at each point."""
    rows, scale = [], np.zeros(len(pts))
    for e in fields:
        values, scales = evaluate_with_scale(e, pts)
        rows.append(values)
        scale = np.maximum(scale, scales)
    return np.array(rows, dtype=float), scale


def structure_tensor_batch(S: ApctStructure, pts) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-formula structure tensor over (n, 3) points.

    Returns (F, scale) with F shaped (3, 3, 3, n) and scale the per-point
    magnitude reference accumulated from every coefficient evaluation.
    """
    pts = np.asarray(pts, dtype=float)
    slots = coefficient_fields(S)
    values, scale = _evaluate([field for *_, field in slots], pts)
    coeffs = [(a, b, c, v) for (a, b, c, _), v in zip(slots, values)]
    return _antisymmetric(coeffs, scale), scale


class ComponentBatch(NamedTuple):
    """Component split over a batch of points, with the frame arrays of the
    symbolic route it comes from (xi, eta, phi, g evaluated from their
    expressions), point axis last; scale is the per-point magnitude
    reference of every field evaluated."""

    points: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    phi: np.ndarray
    g: np.ndarray
    tensor: np.ndarray
    scale: np.ndarray
    parts: dict[str, np.ndarray]
    theta_xi: np.ndarray
    theta_star_xi: np.ndarray
    model_defect: np.ndarray


def split_components_batch(S: ApctStructure, pts) -> ComponentBatch:
    pts = np.asarray(pts, dtype=float)
    values, frame_scale = _evaluate(
        (S.manifold.f,) + S.xi + S.eta + sum(S.phi, ()), pts)
    xi, eta, phi = values[1:4], values[4:7], values[7:].reshape((3, 3, -1))
    g, ginv = metric_arrays(values[0])
    F, tensor_scale = structure_tensor_batch(S, pts)
    scale = np.maximum(frame_scale, tensor_scale)
    parts, th, ths, defect = _component_arrays(
        F, xi, eta, phi, g, _tensor_forms(F, xi, phi, ginv), scale, pts)
    return ComponentBatch(pts, xi, eta, phi, g, F, scale, parts, th, ths, defect)


def _batch_reeb_routes(S: ApctStructure, batch: ComponentBatch):
    """`_reeb_routes` over a batch, formed once per batch in an analysis."""
    return once(batch, "reeb_routes", (),
                lambda: _reeb_routes(batch.tensor, batch.phi, batch.xi))


def d_eta_batch(S: ApctStructure, batch: ComponentBatch) -> np.ndarray:
    """d(eta) over a batch, contracted out of the structure tensor."""
    return _batch_reeb_routes(S, batch)[0]


def lie_g_batch(S: ApctStructure, batch: ComponentBatch) -> np.ndarray:
    """Lie derivative of g along the Reeb field over a batch."""
    return _batch_reeb_routes(S, batch)[1]


def fundamental_form_batch(batch: ComponentBatch) -> np.ndarray:
    """g(phi ., .) over a batch."""
    return np.einsum("lj...,lk...->jk...", batch.phi, batch.g)


def _gradients(fields, pts: np.ndarray) -> np.ndarray:
    """out[a, k, n] = d_a of the k-th field at the n-th point, by symbolic
    differentiation."""
    return np.stack([[evaluate_with_scale(diff(e, axis), pts)[0]
                      for axis in _AXES] for e in fields], axis=1)


def d_eta_coordinate_batch(S: ApctStructure, batch: ComponentBatch) -> np.ndarray:
    """d(eta) over a batch by the coordinate route (antisymmetrized partials
    of the symbolic eta entries), independent of the structure tensor.
    The partials are evaluated once per structure and sample array in an
    open analysis."""
    pts = batch.points
    return _d_eta(once(S, "eta_partials", (pts,),
                       lambda: _gradients(S.eta, pts)))


def normality_defect_batch(S: ApctStructure, batch: ComponentBatch) -> np.ndarray:
    """N - 2 d(eta) (x) xi over a batch; zero exactly when normal.

    Both ingredients come from coordinate routes (partials of phi and eta),
    so this stays independent of the structure-tensor pipeline.
    """
    # phi_d[a, i, j, n] = d_a phi^i_j
    phi_d = _gradients([e for row in S.phi for e in row], batch.points)
    nij = _nijenhuis(batch.phi, phi_d.reshape((3, 3, 3, -1)))
    return _normality_defect(nij, d_eta_coordinate_batch(S, batch), batch.xi)
