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

A Frame bundles jets of f, xi, eta, and phi over a batch of points (one per
analysis) or at one point (the pointwise API), with the numeric arrays every
tensor operation needs; frames are cached per structure. Contractions run
through `contract` (einsum's summation order, point axis innermost); the
analysis of a report memoizes verdicts and expression nodes, never arrays.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NonexistentStructureError, UnitConstraintError
from .expressions import Expr, ZERO, as_expr, to_source
from .jets import Jet3, eval_jet
from .sampling import Domain, SamplingConfig, is_identically_zero
from .walker import (
    WalkerManifold, christoffel_from_jet, metric_arrays, stack_matrix,
)

_E = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# Products of vectors and matrices over a leading batch axis. Each keeps the
# operation form of its single-point counterpart (u @ v, A @ u, u @ A), so
# numpy takes the same matmul path and every batch row matches its point.

def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def mat_vec(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    return (A @ u[..., :, None])[..., 0]


def vec_mat(u: np.ndarray, A: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ A)[..., 0, :]


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def max_abs(a: np.ndarray, axes: int) -> np.ndarray:
    """Largest |entry| over the trailing `axes` axes, per point."""
    return np.abs(a).max(axis=tuple(range(-axes, 0)))


@lru_cache(maxsize=None)
def _contraction_plan(subscripts: str, lead: int):
    """Per operand (axis order, summed axes, output axes of its view), the
    axis order back to point-first, and the terms (each operand's summed
    indices) in sum groups."""
    inputs, out = subscripts.replace("...", "").split("->")
    inputs = inputs.split(",")
    summed = [c for c in dict.fromkeys("".join(inputs)) if c not in out]
    groups = [list(itertools.product(range(3), repeat=len(summed)))]
    if summed and all(s[-1] == summed[-1] for s in inputs if summed[-1] in s):
        both = len(inputs) == 2 and all(summed[-1] in s for s in inputs)
        groups = [[head + (c,) for c in ((0, 2, 1) if both else (0, 1, 2))]
                  for head in itertools.product(range(3), repeat=len(summed) - 1)]
    views = [([lead + s.index(c) for c in summed + list(out) if c in s]
              + list(range(lead)), sum(c in s for c in summed),
              tuple(3 if c in s else 1 for c in out)) for s in inputs]
    back = list(range(len(out), len(out) + lead)) + list(range(len(out)))
    return views, back, [[[tuple(term[summed.index(c)] for c in summed if c in s)
                           for s in inputs] for term in group] for group in groups]


def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """np.einsum(subscripts, *operands), bit for bit, for two or more
    operands with the same leading point axes (`...`) and axes of length 3.

    The point axis runs innermost: each operand is viewed in (summed,
    output, point) axis order, uncopied, and each term is one in-place
    product over (output, point) axes; the full product tensor is never
    formed. The arithmetic is einsum's: factors multiply left to right in
    operand order; every sum starts from +0.0 (a lone -0.0 product gives
    +0.0); summed labels run in order of first appearance, the last
    fastest, adding terms one by one, unless the last summed label is the
    last axis of every operand that has it: then each run over it is
    summed apart (terms 0, 2, 1 when both of two operands have it, else 0,
    1, 2) and the run sums are added in turn.
    """
    lead_shape = operands[0].shape[:operands[0].ndim - len(
        subscripts.split(",", 1)[0].replace("...", ""))]
    plan, back, groups = _contraction_plan(subscripts, len(lead_shape))
    views = [op.transpose(axes).reshape((3,) * summed + outs + lead_shape)
             for op, (axes, summed, outs) in zip(operands, plan)]
    scratch = np.empty(np.broadcast_shapes(*(o for _, _, o in plan)) + lead_shape)
    total = None
    for group in groups:
        part = None
        for term in group:
            np.multiply(views[0][term[0]], views[1][term[1]], out=scratch)
            for view, index in zip(views[2:], term[2:]):
                np.multiply(scratch, view[index], out=scratch)
            if part is None:
                part = scratch + 0.0
            else:
                part += scratch
        if total is None:
            total = part
        else:
            total += part
    scratch = None      # freed before the result is laid out point-first
    return total.transpose(back).copy()


class Frame:
    """Jets and numeric arrays of one structure at a point (shape (3,)) or
    over a batch of points (shape (n, 3)); arrays then gain a leading axis.

    Derivative arrays (xi_d, eta_d, phi_d, gamma) require order >= 1; the
    layout puts the differentiation axis first: xi_d[a, k] = d_a xi^k,
    phi_d[a, i, j] = d_a phi^i_j, gamma[k, i, j] = Gamma^k_ij.
    """

    __slots__ = (
        "points", "point", "order", "f", "xi", "eta", "phi",
        "xi_vec", "eta_vec", "phi_mat", "g", "ginv", "scale",
        "xi_d", "eta_d", "phi_d", "gamma",
    )

    def __init__(self, structure: "ApctStructure", points, order: int):
        M = structure.manifold
        self.points = np.asarray(points, dtype=float)
        self.point = (tuple(float(c) for c in self.points)
                      if self.points.ndim == 1 else self.points)
        self.order = order
        self.f = eval_jet(M.f, self.points, order)
        self.xi = tuple(eval_jet(e, self.points, order) for e in structure.xi)
        xi1, xi2, xi3 = self.xi
        f = self.f
        self.eta = (xi3, xi2, xi1 + f * xi3)
        if structure.canonical_phi:
            zero = Jet3.constant(0.0, order, f.value.shape)
            self.phi = (
                (-xi2, self.eta[2], -(f * xi2)),
                (xi3, zero, -xi1),
                (zero, -xi3, xi2),
            )
        else:
            # overridden entries (negative controls) are evaluated as given
            self.phi = tuple(
                tuple(eval_jet(e, self.points, order) for e in row)
                for row in structure.phi
            )
        self.xi_vec = np.stack([j.value for j in self.xi], axis=-1)
        self.eta_vec = np.stack([j.value for j in self.eta], axis=-1)
        self.phi_mat = stack_matrix([[e.value for e in row] for row in self.phi])
        self.g, self.ginv = metric_arrays(f.value)
        self.scale = np.abs(np.concatenate(
            [f.coeffs] + [jet.coeffs for jet in self.xi])).max(axis=0)
        if order >= 1:
            self.xi_d = stack_matrix([[j.derivative(_E[a]) for j in self.xi]
                                      for a in range(3)])
            self.eta_d = stack_matrix([[j.derivative(_E[a]) for j in self.eta]
                                       for a in range(3)])
            self.phi_d = np.stack([
                stack_matrix([[e.derivative(_E[a]) for e in row]
                              for row in self.phi])
                for a in range(3)
            ], axis=-3)
            self.gamma = christoffel_from_jet(f)
        else:
            self.xi_d = self.eta_d = self.phi_d = self.gamma = None

    def nabla_xi_matrix(self) -> np.ndarray:
        """nab[i, k] = k-th component of nabla_{d_i} xi."""
        return self.xi_d + contract("...kim,...m->...ik", self.gamma, self.xi_vec)


class ApctStructure:
    """Immutable bundle (manifold, xi, eta, phi) plus frame/sample caches."""

    def __init__(self, manifold: WalkerManifold, xi, config: SamplingConfig,
                 phi_entries=None):
        self.manifold = manifold
        self.xi = tuple(as_expr(c) for c in xi)
        self.config = config
        xi1, xi2, xi3 = self.xi
        f = manifold.f
        self.eta = (xi3, xi2, xi1 + f * xi3)
        self.canonical_phi = phi_entries is None
        if phi_entries is None:
            self.phi = (
                (-xi2, xi1 + f * xi3, -(f * xi2)),
                (xi3, ZERO, -xi1),
                (ZERO, -xi3, xi2),
            )
        else:
            self.phi = tuple(tuple(as_expr(e) for e in row) for row in phi_entries)
        self._frames: dict[tuple, Frame] = {}

    def __repr__(self) -> str:
        xi = ", ".join(to_source(c) for c in self.xi)
        return f"ApctStructure(f={to_source(self.manifold.f)!r}, xi=({xi}))"

    @property
    def domain(self) -> Domain:
        return self.manifold.domain

    def frame(self, point, order: int = 1) -> Frame:
        """Frame at one point, or over an (n, 3) batch of points."""
        pts = np.asarray(point, dtype=float)
        key = (order, pts.shape, pts.tobytes())
        frame = self._frames.get(key)
        if frame is None:
            frame = Frame(self, pts, order)
            self._frames[key] = frame
        return frame

    def sample_points(self, cfg: SamplingConfig | None = None) -> np.ndarray:
        return self.domain.sample(cfg or self.config)

    def with_phi(self, phi_entries) -> "ApctStructure":
        """Copy with explicit phi entries (for negative-control validation)."""
        return ApctStructure(
            self.manifold, self.xi, self.config, phi_entries=phi_entries
        )


def unit_constraint_field(manifold: WalkerManifold, xi) -> Expr:
    """Residual of the unit-Reeb constraint as a symbolic field."""
    xi1, xi2, xi3 = (as_expr(c) for c in xi)
    return xi2**2 + manifold.f * xi3**2 + 2 * xi1 * xi3 - 1


def build_structure(manifold: WalkerManifold, xi,
                    cfg: SamplingConfig | None = None) -> ApctStructure:
    """Construct the almost paracontact metric structure determined by xi.

    Rejects eps = -1 outright (no compatible structure exists for a
    time-like complementary direction) and rejects candidate Reeb fields
    violating the unit constraint, with a witness point.
    """
    cfg = cfg or SamplingConfig()
    if manifold.epsilon != 1:
        raise NonexistentStructureError(
            "no almost paracontact metric structure exists on a Walker "
            "3-manifold with a time-like complementary direction "
            "(epsilon = -1); only epsilon = +1 admits a unit space-like "
            "Reeb field compatible with the metric"
        )
    residual = unit_constraint_field(manifold, xi)
    verdict = is_identically_zero(residual, manifold.domain, cfg)
    if not verdict.is_zero:
        raise UnitConstraintError(verdict.witness, verdict.witness_value)
    return ApctStructure(manifold, xi, cfg)


def nabla_xi(S: ApctStructure, direction, point) -> np.ndarray:
    """Components of nabla_X xi at a point, X given by constant components."""
    frame = S.frame(point, order=1)
    return np.asarray(direction, dtype=float) @ frame.nabla_xi_matrix()


class AxiomCheck(NamedTuple):
    name: str
    passed: bool
    max_residual: float
    witness: tuple[float, float, float] | None


class AxiomReport(NamedTuple):
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


def validate_axioms(S: ApctStructure, cfg: SamplingConfig | None = None,
                    tol: float = 1e-10) -> AxiomReport:
    """Verify every defining and derived structure identity numerically.

    Residuals are matrix norms divided by (1 + scale) at each sampled point;
    each check reports its worst point (the first to attain the maximum) as
    witness when it fails.
    """
    cfg = cfg or S.config
    fr = S.frame(S.sample_points(cfg), order=0)
    phi, g, xi, eta = fr.phi_mat, fr.g, fr.xi_vec, fr.eta_vec
    phi2 = phi @ phi
    gphi = g @ phi
    residuals = {
        "phi_squared_is_id_minus_eta_xi": phi2 - (np.eye(3) - outer(xi, eta)),
        "eta_of_reeb_is_one": (dot(eta, xi) - 1.0)[..., None],
        "phi_kills_reeb": mat_vec(phi, xi),
        "phi_compatibility":
            phi.swapaxes(-1, -2) @ g @ phi - (-g + outer(eta, eta)),
        "eta_is_metric_dual_of_reeb": eta - mat_vec(g, xi),
        "phi_skew_adjoint": gphi + gphi.swapaxes(-1, -2),
        "reeb_is_unit_spacelike": (dot(vec_mat(xi, g), xi) - 1.0)[..., None],
        "eta_after_phi_vanishes": vec_mat(eta, phi),
        "phi_cubed_is_phi": phi2 @ phi - phi,
        "phi_trace_free": np.trace(phi, axis1=-2, axis2=-1)[..., None],
    }
    checks = []
    for name, residual in residuals.items():
        per_point = max_abs(residual, residual.ndim - 1) / (1.0 + fr.scale)
        k = int(np.argmax(per_point))
        value = float(per_point[k])
        witness = None if value <= tol else tuple(float(c) for c in fr.points[k])
        checks.append(AxiomCheck(name, value <= tol, value, witness))
    return AxiomReport(tuple(checks))
