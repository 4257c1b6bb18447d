"""Almost paracontact metric structures on Walker 3-manifolds.

Given the metric function f (with eps = +1) and a candidate Reeb field
xi = (xi1, xi2, xi3) satisfying the unit constraint

    xi2^2 + f xi3^2 + 2 xi1 xi3 = 1,

the compatible structure is determined up to a sign choice: the contact form
is eta = xi3 dx + xi2 dy + (xi1 + f xi3) dz and the (1,1) field is

    phi = [[-xi2, xi1 + f xi3, -f xi2],
           [ xi3,           0,   -xi1],
           [   0,        -xi3,    xi2]]

(the (+) sign branch; the other branch is -phi). For eps = -1 no compatible
structure exists at all, so construction is rejected up front.

Every axiom is still validated numerically after construction: the defining
identities phi^2 = Id - eta (x) xi, eta(xi) = 1, phi xi = 0,
g(phi X, phi Y) = -g(X, Y) + eta(X) eta(Y), eta = g(xi, .),
g(phi X, Y) = -g(X, phi Y), g(xi, xi) = 1, plus the derived ones
(eta o phi = 0, phi^3 = phi, trace(phi) = 0).

A Frame bundles the order-1 jets of the structure's own fields f, xi, eta
and phi (the expressions above, so both sweep routes read one statement of
the construction) over a batch of points (one per analysis), with the
numeric arrays every tensor operation needs. Column k of a Frame's jet
arrays over the sample has the pointwise bits at pts[k], so a report
reads its representative point pts[0] there. The einsum columns of
`Frame.nabla_xi_matrix` are not bound to those bits: a column may differ
by one ulp from the matrix at its point's batch of one.
All an analysis (a report, a classifier) keeps is one table, each entry a
result of `expressions.once` (or a derivative): frames, verdicts, the
sample's structure tensor, the values on the sample of each field and of
each node two fields share, and each field's jets. Each entry is keyed by
every input it reads, a writable batch has no key, and nothing outlives
the analysis but the sample itself (`Domain.sample`, cached per domain,
so building a structure, `reject_poles` and the report share it).

Every numeric array of the package has one layout, that of the jet
coefficients over an (n, 3) batch of points: components first, points
last, C-contiguous. A vector is (3, n), a matrix (3, 3, n), and a[..., k]
is point k. The kernels see no other layout: a view at one point is column
0 of the point's batch of one (see `pointwise`). Contractions are np.einsum
on that layout, whose batch columns equal the pointwise results on
rational points. `@` runs on points-first copies (see `points_first`), and
so does the one einsum of `curvature.sectional_profile`, whose point axes
lead.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from .errors import (
    DegenerateInputError, EvaluationError, NonexistentStructureError,
    UnitConstraintError,
)
from .expressions import (
    Expr, ZERO, analysis, as_batch, as_expr, as_points, batch_of_one,
    divisor, evaluate_with_scale, once, to_source, variables, walk,
)
from .jets import eval_jet
from .sampling import (
    AXIOM_TOL, Domain, Route, bound, is_identically_zero,
)
from .walker import WalkerManifold, christoffel_from_jet, metric_arrays


# numpy's `@` picks its BLAS kernel by memory layout, so `@` runs on
# contiguous points-first copies: each batch row then gets the bits of the
# batch of one at its point.

def points_first(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose((a.ndim - 1, *range(a.ndim - 1))))


def points_last(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose((*range(1, a.ndim), 0)))


# Products of points-first vectors and matrices, each in the operation form
# of its single-point counterpart (u @ v, A @ u, u @ A).

def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def mat_vec(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    return (A @ u[..., :, None])[..., 0]


def vec_mat(u: np.ndarray, A: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ A)[..., 0, :]


def max_abs(a: np.ndarray, axes: int) -> np.ndarray:
    """Largest |entry| over the leading `axes` (component) axes, per point."""
    return np.abs(a).max(axis=tuple(range(axes)))


class Frame:
    """Order-1 jets of a structure's own fields f, xi, eta and phi over an
    (n, 3) batch of points, and the numeric arrays every tensor operation
    needs, each with a point axis last.

    scale is the largest |coefficient| of the f and xi jets per point,
    value_scale the largest |value| of f and xi. The derivative arrays
    (xi_d, eta_d, phi_d, gamma) put the differentiation axis first:
    xi_d[a, k] = d_a xi^k, phi_d[a, i, j] = d_a phi^i_j,
    gamma[k, i, j] = Gamma^k_ij.
    """

    __slots__ = (
        "points", "f", "xi", "eta", "phi",
        "xi_vec", "eta_vec", "phi_mat", "g", "ginv", "scale", "value_scale",
        "xi_d", "eta_d", "phi_d", "gamma", "__weakref__",
    )

    def __init__(self, structure: "ApctStructure", points):
        M = structure.manifold
        pts = self.points = as_batch(points)
        # the curvature routes read f's order-2 jet: propagated here once,
        # it is kept and cut to order 1 (see eval_jet); where it cannot be
        # formed, the curvature routes report that
        try:
            eval_jet(M.f, pts, 2)
        except EvaluationError:
            pass
        f = self.f = eval_jet(M.f, pts, 1)
        self.xi = tuple(eval_jet(e, pts, 1) for e in structure.xi)
        self.eta = tuple(eval_jet(e, pts, 1) for e in structure.eta)
        self.phi = tuple(tuple(eval_jet(e, pts, 1) for e in row)
                         for row in structure.phi)
        self.xi_vec = np.array([j.value for j in self.xi])
        self.eta_vec = np.array([j.value for j in self.eta])
        self.phi_mat = np.array([[e.value for e in row] for row in self.phi])
        self.g, self.ginv = metric_arrays(f.value)
        self.scale = np.abs(np.concatenate(
            [f.coeffs] + [jet.coeffs for jet in self.xi])).max(axis=0)
        self.value_scale = np.abs(np.array(
            [f.value] + [jet.value for jet in self.xi])).max(axis=0)
        # rows 1 to 3 of an order-1 jet are its x, y and z partials
        self.xi_d = np.stack([j.coeffs[1:4] for j in self.xi], axis=1)
        self.eta_d = np.stack([j.coeffs[1:4] for j in self.eta], axis=1)
        self.phi_d = np.stack([np.stack([e.coeffs[1:4] for e in row], axis=1)
                               for row in self.phi], axis=1)
        self.gamma = christoffel_from_jet(f)

    def nabla_xi_matrix(self) -> np.ndarray:
        """nab[i, k] = k-th component of nabla_{d_i} xi."""
        return self.xi_d + np.einsum("kim...,m...->ik...", self.gamma, self.xi_vec)


class ApctStructure:
    """Immutable bundle (manifold, xi, eta, phi). Its sample is its
    domain's, `S.domain.sample()`."""

    def __init__(self, manifold: WalkerManifold, xi):
        self.manifold = manifold
        self.xi = tuple(as_expr(c) for c in xi)
        xi1, xi2, xi3 = self.xi
        f = manifold.f
        self.eta = (xi3, xi2, xi1 + f * xi3)
        self.phi = (
            (-xi2, self.eta[2], -(f * xi2)),
            (xi3, ZERO, -xi1),
            (ZERO, -xi3, xi2),
        )

    def __repr__(self) -> str:
        xi = ", ".join(to_source(c) for c in self.xi)
        return f"ApctStructure(f={to_source(self.manifold.f)!r}, xi=({xi}))"

    @property
    def domain(self) -> Domain:
        return self.manifold.domain

    def frame(self, points) -> Frame:
        """Frame over an (n, 3) batch of points, once per analysis."""
        pts = as_batch(points)
        return once(self, "frame", (pts,), lambda: Frame(self, pts))


def pointwise(batch_view):
    """The view `batch_view(S, pts, *args)` over an (n, 3) batch of points,
    in an analysis of its own or the open one, answering at one point
    (shape (3,)) of S's domain too (else OutOfDomainError). There it runs
    on the point's batch of one (`expressions.batch_of_one`), so repeated
    views at a point share one frame, and returns column 0 (see
    `_column_0`). A writable batch keeps nothing in the analysis (see
    `expressions.once_key`), so each view on it is computed afresh."""
    @wraps(batch_view)
    def view(S: "ApctStructure", points, *args):
        pts = as_points(points)
        with analysis():
            if pts.ndim == 2:
                return batch_view(S, pts, *args)
            S.manifold.require_inside(pts)
            one = batch_of_one(pts)
            return _column_0(batch_view(S, one, *args), one)
    return view


def _column_0(value, one: np.ndarray):
    """value at the point of the batch of one: the point as a tuple, a
    tuple's entries each so, and an array's column 0 (a vector over the
    points gives its entry)."""
    if value is one:
        return tuple(one[0].tolist())
    if isinstance(value, tuple):
        return getattr(value, "_make", tuple)(_column_0(v, one) for v in value)
    return value[..., 0][()]


def unit_constraint_field(manifold: WalkerManifold, xi) -> Expr:
    """Residual of the unit-Reeb constraint as a symbolic field."""
    xi1, xi2, xi3 = (as_expr(c) for c in xi)
    return xi2**2 + manifold.f * xi3**2 + 2 * xi1 * xi3 - 1


def build_structure(manifold: WalkerManifold, xi) -> ApctStructure:
    """Construct the almost paracontact metric structure determined by xi.

    Rejects eps = -1 outright (no compatible structure exists for a
    time-like complementary direction) and rejects candidate Reeb fields
    violating the unit constraint, with a witness point. Then a denominator
    of f or xi that takes both signs on the sample is an input error (see
    `reject_poles`).
    """
    if manifold.epsilon != 1:
        raise NonexistentStructureError(
            "no almost paracontact metric structure exists on a Walker "
            "3-manifold with a time-like complementary direction "
            "(epsilon = -1); only epsilon = +1 admits a unit space-like "
            "Reeb field compatible with the metric"
        )
    residual = unit_constraint_field(manifold, xi)
    unit = is_identically_zero(residual, manifold.domain)
    if not unit:
        value = evaluate_with_scale(residual, np.array([unit.witness]))[0]
        raise UnitConstraintError(unit.witness, abs(value[0]))
    structure = ApctStructure(manifold, xi)
    reject_poles(structure)
    return structure


def reject_poles(S: ApctStructure) -> None:
    """DegenerateInputError when a denominator of f or xi (a node's
    `divisor`, the rule the evaluator's guard reads) takes both signs on
    the sample: a pole lies between sampled points. A denominator the
    domain requires nonzero or positive is not scanned; a pole of even
    order keeps its sign."""
    pts, seen = S.domain.sample(), set(S.domain.positive + S.domain.nonzero)
    for name, field in zip(("f", "xi1", "xi2", "xi3"), (S.manifold.f,) + S.xi):
        for node in walk(field):
            d = divisor(node)
            if d is None or d in seen or not variables(d):
                continue
            seen.add(d)
            v = evaluate_with_scale(d, pts)[0]
            if (v < 0.0).any() and (v > 0.0).any():
                k, m = sorted((int(np.argmax(v < 0.0)), int(np.argmax(v > 0.0))))
                raise DegenerateInputError(
                    f"denominator {to_source(d)} of {name} takes both signs on "
                    f"the domain, so {name} has a pole there: {v[k]:.3g} at "
                    f"{tuple(float(c) for c in pts[k])} and {v[m]:.3g}", pts[m])


def nabla_xi(S: ApctStructure, direction, point) -> np.ndarray:
    """Components of nabla_X xi at a point or over a batch, X given by
    constant components."""
    return np.einsum("i...,ik...->k...", np.asarray(direction, dtype=float),
                     _nabla_xi_matrix(S, point))


@pointwise
def _nabla_xi_matrix(S: ApctStructure, pts: np.ndarray) -> np.ndarray:
    return S.frame(pts).nabla_xi_matrix()


def validate_axioms(S: ApctStructure) -> dict[str, Route]:
    """Verify every defining and derived structure identity numerically:
    the route of each identity, by name.

    Residuals are matrix norms divided by (1 + scale) at each sampled point,
    scale the largest |value| of f and xi there (read from the sample's
    frame, the one the report's sweep uses); each route is the bound
    `sampling.AXIOM_TOL` on them, decided at the worst point (the first to
    attain the maximum).
    """
    fr = S.frame(S.domain.sample())
    scale = 1.0 + fr.value_scale
    phi, g, xi, eta = map(points_first, (fr.phi_mat, fr.g, fr.xi_vec, fr.eta_vec))
    phi2, gphi = phi @ phi, g @ phi
    residuals = {
        "phi_squared_is_id_minus_eta_xi":
            phi2 - (np.eye(3) - xi[..., :, None] * eta[..., None, :]),
        "eta_of_reeb_is_one": dot(eta, xi) - 1.0,
        "phi_kills_reeb": mat_vec(phi, xi),
        "phi_compatibility":
            phi.swapaxes(-1, -2) @ g @ phi
            - (-g + eta[..., :, None] * eta[..., None, :]),
        "eta_is_metric_dual_of_reeb": eta - mat_vec(g, xi),
        "phi_skew_adjoint": gphi + gphi.swapaxes(-1, -2),
        "reeb_is_unit_spacelike": dot(vec_mat(xi, g), xi) - 1.0,
        "eta_after_phi_vanishes": vec_mat(eta, phi),
        "phi_cubed_is_phi": phi2 @ phi - phi,
        "phi_trace_free": np.trace(phi, axis1=-2, axis2=-1),
    }
    n = len(fr.points)
    return {name: bound(np.abs(r).reshape(n, -1).max(axis=1) / scale,
                        AXIOM_TOL, fr.points)
            for name, r in residuals.items()}
