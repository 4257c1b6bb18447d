"""Independent numeric oracles used across the test suite.

Everything here recomputes geometry from first principles: finite
differences for derivatives, the generic coordinate formulas for the
connection and curvature, and plain index gymnastics for exterior and Lie
derivatives. Nothing imports the closed-form paths under test except the
expression evaluator, which test_expressions pins against raw Python
arithmetic first.

The last few helpers are objects only tests read: a frame's arrays at one
point, the fundamental 2-form, its cyclic wedge with eta and
d(fundamental) as the cyclic sum of F, by np.einsum on the package's
arrays, a structure with phi overridden, the discriminant that splits
the eta-Einstein structures between the two cosymplectic-type classes, and
the two-function family of paracontact metric structures. `build` makes a
structure from source strings on BOX, the box the test modules share.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from walkergeo.errors import InputError
from walkergeo.expressions import (
    ONE, ZERO, Call, Expr, Var, as_expr, diff, evaluate_with_scale, parse,
    to_source, variables,
)
from walkergeo.sampling import Domain, Interval, SamplingConfig
from walkergeo.structure import ApctStructure, build_structure
from walkergeo.walker import WalkerManifold

STEP = 1e-4
BOX = Domain((Interval(0.5, 2.0), Interval(0.5, 2.0), Interval(0.5, 2.0)))


def build(f: str, xi, sampling: SamplingConfig) -> ApctStructure:
    """The structure of f and the Reeb components xi (source strings) on
    BOX with the given sampling settings."""
    M = WalkerManifold(parse(f), 1, BOX._replace(sampling=sampling))
    return build_structure(M, tuple(parse(c) for c in xi))


def expr_fn(e):
    """Plain callable point -> float for a symbolic expression: column 0
    of its values on the point's batch of one."""
    def fn(p):
        value, _ = evaluate_with_scale(e, np.asarray([p], dtype=float))
        return float(value[0])
    return fn


def vector_fn(exprs):
    fns = [expr_fn(e) for e in exprs]
    def fn(p):
        return np.array([f(p) for f in fns])
    return fn


def fd_partial(fn, point, axis, step=STEP):
    """Central difference of a scalar- or array-valued callable."""
    p = np.asarray(point, dtype=float)
    e = np.zeros(3)
    e[axis] = step
    hi = np.asarray(fn(p + e), dtype=float)
    lo = np.asarray(fn(p - e), dtype=float)
    return (hi - lo) / (2.0 * step)


def fd_partial2(fn, point, a, b, step=STEP):
    """Nested central differences for a mixed second partial."""
    return fd_partial(lambda q: fd_partial(fn, q, b, step), point, a, step)


def fd_gradient(fn, point, step=STEP):
    return np.array([fd_partial(fn, point, i, step) for i in range(3)])


def metric_fn(f_expr, epsilon=1):
    """Lower-index Walker metric as a callable point -> (3, 3) array."""
    f = expr_fn(f_expr)
    def g_at(p):
        g = np.zeros((3, 3))
        g[0, 2] = g[2, 0] = 1.0
        g[1, 1] = float(epsilon)
        g[2, 2] = f(p)
        return g
    return g_at


def christoffel_oracle(g_fn, point, step=STEP):
    """gamma[k, i, j] from the generic formula
    (1/2) g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) with FD metric jets."""
    g = g_fn(point)
    ginv = np.linalg.inv(g)
    dg = np.array([fd_partial(g_fn, point, a, step) for a in range(3)])
    gamma = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                acc = 0.0
                for l in range(3):
                    acc += ginv[k, l] * (
                        dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def curvature_oracle(g_fn, point, step=STEP):
    """R[i, j, k, l] under the convention
    R(X, Y) = nabla_[X,Y] - nabla_X nabla_Y + nabla_Y nabla_X,
    so on coordinate fields
    R[i,j,k,l] = -d_i gamma^l_jk + d_j gamma^l_ik
                 - gamma^l_im gamma^m_jk + gamma^l_jm gamma^m_ik,
    with every gamma jet taken by finite differences."""
    gamma = christoffel_oracle(g_fn, point, step)
    dgamma = np.array([
        fd_partial(lambda q: christoffel_oracle(g_fn, q, step), point, a, step)
        for a in range(3)
    ])
    R = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    val = -dgamma[i][l, j, k] + dgamma[j][l, i, k]
                    for m in range(3):
                        val -= gamma[l, i, m] * gamma[m, j, k]
                        val += gamma[l, j, m] * gamma[m, i, k]
                    R[i, j, k, l] = val
    return R


def ricci_from_curvature(R):
    """rho[i, j] = sum_k R[i, k, j, k] for the convention above."""
    return np.einsum("ikjk->ij", R)


def d_one_form_oracle(omega_fn, point, step=STEP):
    """(d omega)[i, j] = d_i omega_j - d_j omega_i."""
    d = np.array([fd_partial(omega_fn, point, a, step) for a in range(3)])
    return d - d.T


def d_two_form_oracle(omega_fn, point, step=STEP):
    """(d omega)[i, j, k] = d_i omega_jk - d_j omega_ik + d_k omega_ij."""
    d = np.array([fd_partial(omega_fn, point, a, step) for a in range(3)])
    out = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = d[i][j, k] - d[j][i, k] + d[k][i, j]
    return out


def lie_metric_oracle(g_fn, xi_fn, point, step=STEP):
    """(L_xi g)[i, j] = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k."""
    g = g_fn(point)
    xi = xi_fn(point)
    dg = np.array([fd_partial(g_fn, point, a, step) for a in range(3)])
    dxi = np.array([fd_partial(xi_fn, point, a, step) for a in range(3)])
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for k in range(3):
                acc += xi[k] * dg[k][i, j]
                acc += g[k, j] * dxi[i][k]
                acc += g[i, k] * dxi[j][k]
            out[i, j] = acc
    return out


def random_points(domain_box, n, seed):
    """Deterministic interior points of [lo, hi]^3 boxes, margin 10%."""
    rng = np.random.default_rng(seed)
    box = np.asarray(domain_box, dtype=float)
    lo = box[:, 0]
    span = box[:, 1] - box[:, 0]
    return lo + span * (0.1 + 0.8 * rng.random((n, 3)))


FRAME_ARRAYS = ("xi_vec", "eta_vec", "phi_mat", "g", "ginv", "scale",
                "value_scale", "xi_d", "eta_d", "phi_d", "gamma")


def frame_at(S, point) -> SimpleNamespace:
    """The arrays of S's frame at one point, by name: column 0 of the frame
    of the point's batch of one (a frame takes batches only)."""
    frame = S.frame(np.array([point], dtype=float))
    return SimpleNamespace(**{name: getattr(frame, name)[..., 0]
                              for name in FRAME_ARRAYS})


def _fundamental(phi, g):
    """w = g(phi ., .): w_jk = phi^l_j g_lk, components first, any point
    axes last."""
    return np.einsum("lj...,lk...->jk...", phi, g)


def fundamental_form(frame):
    """The fundamental 2-form of a Frame, as an antisymmetric matrix."""
    return _fundamental(frame.phi_mat, frame.g)


def _eta_wedge_fundamental(eta, phi, g):
    """(eta ^ w)_ijk = eta_i w_jk + eta_j w_ki + eta_k w_ij."""
    w = _fundamental(phi, g)
    return (np.einsum("i...,jk...->ijk...", eta, w)
            + np.einsum("j...,ki...->ijk...", eta, w)
            + np.einsum("k...,ij...->ijk...", eta, w))


def eta_wedge_fundamental(frame):
    """Cyclic wedge of eta with the fundamental 2-form, from a Frame."""
    return _eta_wedge_fundamental(frame.eta_vec, frame.phi_mat, frame.g)


def eta_wedge_fundamental_batch(batch):
    """The same wedge over a ComponentBatch."""
    return _eta_wedge_fundamental(batch.eta, batch.phi, batch.g)


def d_fundamental_batch(batch):
    """d of the fundamental 2-form over a ComponentBatch: the cyclic sum
    F(X, Y, Z) + F(Y, Z, X) + F(Z, X, Y) of its structure tensor."""
    F = batch.tensor
    return F + np.moveaxis(F, 0, 2) + np.moveaxis(F, 2, 0)


def with_phi(S, phi_entries):
    """Copy of a structure with explicit phi entries (a negative control)."""
    bad = ApctStructure(S.manifold, S.xi)
    bad.phi = phi_entries
    return bad


def eta_einstein_discriminant(f: Expr) -> Expr:
    """2 f_xyz + f_x f_xy - f_xx f_y, symbolically: an eta-Einstein
    structure over f is paracosymplectic where it vanishes identically,
    else almost paracosymplectic."""
    fx, fy = diff(f, "x"), diff(f, "y")
    fxy = diff(fx, "y")
    return 2 * diff(fxy, "z") + fx * fxy - diff(fx, "x") * fy


def exp_of(arg: Expr) -> Expr:
    """exp(arg), folded to 1 at arg = 0."""
    if arg is ZERO:
        return ONE
    return Call("exp", arg)


def paracontact_family(psi, m, domain: Domain) -> ApctStructure:
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
    return build_structure(manifold, (xi1, ZERO, xi3))
