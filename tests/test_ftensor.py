import warnings
from functools import partial

import numpy as np
import pytest

from geometry_oracles import (
    build as build_on_box,
    d_fundamental_batch,
    d_one_form_oracle,
    d_two_form_oracle,
    eta_wedge_fundamental,
    frame_at,
    fundamental_form,
    lie_metric_oracle,
    metric_fn,
    vector_fn,
)
from test_contract import identical, operand
import walkergeo.ftensor as ftensor
from walkergeo.errors import EvaluationError
from walkergeo.expressions import diff, evaluate_with_scale
from walkergeo.ftensor import (
    coefficient_fields,
    d_eta_batch,
    exterior_data_at,
    f_tensor_at,
    fundamental_form_batch,
    lie_g_batch,
    normality_defect_batch,
    project_components,
    split_components_batch,
    structure_tensor_batch,
    theta_forms,
    theta_star_xi_field,
    theta_xi_field,
)
from walkergeo.manifest import load_manifest
from walkergeo.sampling import SamplingConfig, is_identically_zero
from walkergeo.structure import max_abs
from write_reports import MANIFESTS

CFG = SamplingConfig(samples=24, seed=13)
build = partial(build_on_box, sampling=CFG)


def points(S, n=6):
    return [tuple(float(c) for c in p) for p in S.domain.sample()[:n]]


NORMAL_MIX = ("x^2/y^2", ("x/y", "1", "0"))
PURE_G10 = ("x + z", ("exp(z/2)", "1", "0"))
NULL_SCALED = ("x/z", ("0", "0", "1/sqrt(x/z)"))
PURE_G12 = ("2*x + z", ("y", "1", "0"))
GENERIC = ("x^2 + y*z", ("x*y", "1", "0"))

ALL = [NORMAL_MIX, PURE_G10, NULL_SCALED, PURE_G12, GENERIC]
IDS = ["mix56", "g10", "g6g10", "g12", "generic"]


# ---------------------------------------------------------------- closed forms

def test_structure_tensor_closed_form_mix56():
    # F = (1/y){x1 y2 z3 - x1 y3 z2 + (x/y)(x2 y3 z2 - x2 y2 z3)}
    S = build(*NORMAL_MIX)
    for (x, y, z) in points(S):
        F = f_tensor_at(S, np.array([(x, y, z)]))
        want = np.zeros((3, 3, 3))
        want[0, 1, 2] = 1 / y
        want[0, 2, 1] = -1 / y
        want[1, 2, 1] = x / y ** 2
        want[1, 1, 2] = -x / y ** 2
        assert np.abs(F.components[..., 0] - want).max() <= 1e-12 * (1 + abs(x / y ** 2))
        assert F.route_discrepancy[..., 0] <= 1e-12


def test_structure_tensor_closed_form_g10():
    # F = -exp(z/2) {x3 y3 z2 - x3 y2 z3}
    S = build(*PURE_G10)
    for (x, y, z) in points(S):
        F = f_tensor_at(S, np.array([(x, y, z)])).components[..., 0]
        want = np.zeros((3, 3, 3))
        want[2, 2, 1] = -np.exp(z / 2)
        want[2, 1, 2] = np.exp(z / 2)
        assert np.abs(F - want).max() <= 1e-12 * (1 + np.exp(z / 2))


def test_structure_tensor_closed_form_null_scaled():
    # F = -(1/(2z sqrt(f))) {(z/x)(x1 y1 z2 - x1 y2 z1) + x1 y3 z2 - x1 y2 z3}
    S = build(*NULL_SCALED)
    for (x, y, z) in points(S):
        F = f_tensor_at(S, np.array([(x, y, z)])).components[..., 0]
        s = 1.0 / (2 * z * np.sqrt(x / z))
        want = np.zeros((3, 3, 3))
        want[0, 0, 1] = -s * z / x
        want[0, 1, 0] = s * z / x
        want[0, 2, 1] = -s
        want[0, 1, 2] = s
        assert np.abs(F - want).max() <= 1e-12 * (1 + s * (1 + z / x))


def test_structure_tensor_closed_form_g12():
    # F = x2 y2 z3 - x2 y3 z2 + y (x3 y2 z3 - x3 y3 z2)
    S = build(*PURE_G12)
    for (x, y, z) in points(S):
        F = f_tensor_at(S, np.array([(x, y, z)])).components[..., 0]
        want = np.zeros((3, 3, 3))
        want[1, 1, 2] = 1.0
        want[1, 2, 1] = -1.0
        want[2, 1, 2] = y
        want[2, 2, 1] = -y
        assert np.abs(F - want).max() <= 1e-12 * (1 + y)
        # a pure-G12 tensor is carried entirely by the Reeb covector slot
        bundle = project_components(S, np.array([(x, y, z)]))
        assert np.abs(bundle.F5[..., 0]).max() <= 1e-12 * (1 + y)
        assert np.abs(bundle.F6[..., 0]).max() <= 1e-12 * (1 + y)
        assert np.abs(bundle.F10[..., 0]).max() <= 1e-12 * (1 + y)


# ----------------------------------------------------------------- identities

@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_antisymmetry_in_last_two_slots(f, xi):
    S = build(f, xi)
    for p in points(S, 4):
        F = f_tensor_at(S, np.array([p])).components[..., 0]
        assert np.abs(F + F.transpose(0, 2, 1)).max() <= 1e-12 * (1 + np.abs(F).max())


@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_phi_slot_identity(f, xi):
    # F(X, phiY, phiZ) = F(X, Y, Z) + eta(Y) F(X, Z, xi) - eta(Z) F(X, Y, xi)
    S = build(f, xi)
    for p in points(S, 4):
        fr = frame_at(S, p)
        F = f_tensor_at(S, np.array([p])).components[..., 0]
        lhs = np.einsum("abc,bj,ck->ajk", F, fr.phi_mat, fr.phi_mat)
        Fxi = np.einsum("abc,c->ab", F, fr.xi_vec)
        rhs = (F + np.einsum("j,ak->ajk", fr.eta_vec, Fxi)
               - np.einsum("k,aj->ajk", fr.eta_vec, Fxi))
        assert np.abs(lhs - rhs).max() <= 1e-11 * (1 + fr.scale ** 2)


@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_coefficient_fields_assemble_the_tensor(f, xi):
    S = build(f, xi)
    coefs = coefficient_fields(S)
    assert len(coefs) == 9
    for p in points(S, 3):
        want = np.zeros((3, 3, 3))
        for a, b, c, field in coefs:
            v = evaluate_with_scale(field, np.asarray([p]))[0][0]
            want[a, b, c] = v
            want[a, c, b] = -v
        F = f_tensor_at(S, np.array([p])).components[..., 0]
        assert np.abs(F - want).max() <= 1e-12 * (1 + np.abs(want).max())


@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_routes_agree_everywhere(f, xi):
    S = build(f, xi)
    for p in points(S):
        one = np.array([p])
        assert f_tensor_at(S, one).route_discrepancy[..., 0] <= 1e-9
        assert theta_forms(S, one).route_discrepancy[..., 0] <= 1e-9
        assert exterior_data_at(S, one).route_discrepancy[..., 0] <= 1e-9


def test_components_are_read_only():
    S = build(*PURE_G12)
    t = f_tensor_at(S, np.array(points(S, 1)))
    with pytest.raises(ValueError):
        t.components[0, 0, 0] = 1.0


# ---------------------------------------------------------------- trace forms

def test_trace_forms_mix56():
    S = build(*NORMAL_MIX)
    for (x, y, z) in points(S):
        forms = theta_forms(S, np.array([(x, y, z)]))
        assert abs(forms.theta_xi[..., 0] + 1 / y) <= 1e-9 * (1 + 1 / y)
        assert abs(forms.theta_star_xi[..., 0] + 1 / y) <= 1e-9 * (1 + 1 / y)


def test_trace_forms_g10_vanish():
    S = build(*PURE_G10)
    for p in points(S):
        forms = theta_forms(S, np.array([p]))
        assert abs(forms.theta_xi[..., 0]) <= 1e-10
        assert abs(forms.theta_star_xi[..., 0]) <= 1e-10


def test_trace_forms_null_scaled():
    # theta = f_y/f = 0 and theta* = f_z/(2 f sqrt(f)) for a Reeb field
    # along the null direction
    S = build(*NULL_SCALED)
    for (x, y, z) in points(S):
        forms = theta_forms(S, np.array([(x, y, z)]))
        f = x / z
        fz = -x / z ** 2
        want = fz / (2 * f * np.sqrt(f))
        assert abs(forms.theta_xi[..., 0]) <= 1e-10
        assert abs(forms.theta_star_xi[..., 0] - want) <= 1e-9 * (1 + abs(want))


@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_divergence_of_reeb_is_minus_theta_star(f, xi):
    # (xi1)_x + (xi2)_y + (xi3)_z + theta*(xi) vanishes identically: the
    # fundamental 2-form always has components (xi3, -xi2, xi1), so its
    # exterior derivative is the Reeb divergence times the volume form
    S = build(f, xi)
    div = (diff(S.xi[0], "x") + diff(S.xi[1], "y") + diff(S.xi[2], "z"))
    assert is_identically_zero(div + theta_star_xi_field(S), S.domain)


def test_theta_field_closed_form_against_contraction():
    S = build(*GENERIC)
    for p in points(S):
        forms = theta_forms(S, np.array([p]))
        v = evaluate_with_scale(theta_xi_field(S), np.asarray([p]))[0][0]
        assert abs(forms.theta_xi[..., 0] - v) <= 1e-9 * (1 + abs(v))


# ------------------------------------------------------- exterior derivatives

@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_exterior_data_against_fd_oracles(f, xi):
    S = build(f, xi)
    g_fn = metric_fn(S.manifold.f)
    xi_fn = vector_fn(S.xi)
    eta_fn = vector_fn(S.eta)

    def fund_fn(p):
        fr = frame_at(S, p)
        return fundamental_form(fr)

    for p in points(S, 3):
        ex = exterior_data_at(S, np.array([p]))
        scale = 1 + frame_at(S, p).scale
        # the 1-form convention carries the 1/2: d eta(X,Y) =
        # (X eta(Y) - Y eta(X))/2 on coordinate fields
        assert np.abs(ex.d_eta[..., 0] - 0.5 * d_one_form_oracle(eta_fn, p)).max() \
            <= 1e-6 * scale
        assert np.abs(ex.d_fundamental[..., 0] - d_two_form_oracle(fund_fn, p)).max() \
            <= 1e-5 * scale
        assert np.abs(ex.lie_g[..., 0] - lie_metric_oracle(g_fn, xi_fn, p)).max() \
            <= 1e-6 * scale


def test_fundamental_form_components_are_reeb_components():
    # g(phi ., .) has entries (xi3, -xi2, xi1) regardless of f
    for f, xi in ALL:
        S = build(f, xi)
        for p in points(S, 3):
            fr = frame_at(S, p)
            om = fundamental_form(fr)
            xi1, xi2, xi3 = fr.xi_vec
            want = np.array([[0, xi3, -xi2], [-xi3, 0, xi1], [xi2, -xi1, 0]])
            assert np.abs(om - want).max() <= 1e-12 * (1 + fr.scale)


def test_eta_wedge_fundamental_is_volume_form():
    # eta ^ g(phi ., .) is the standard volume form for every structure:
    # a consequence of the unit constraint
    for f, xi in ALL:
        S = build(f, xi)
        for p in points(S, 3):
            w = eta_wedge_fundamental(frame_at(S, p))
            assert abs(w[0, 1, 2] - 1.0) <= 1e-12
            assert abs(w[0, 2, 1] + 1.0) <= 1e-12
            assert abs(w[0, 0, 1]) <= 1e-12


# -------------------------------------------------------------- component laws

def test_d_eta_proportional_to_fundamental_on_mix56():
    # with no G10/G12 present, d eta = (theta(xi)/2) g(phi ., .)
    S = build(*NORMAL_MIX)
    for p in points(S):
        one = np.array([p])
        ex = exterior_data_at(S, one)
        theta_xi = theta_forms(S, one).theta_xi[..., 0]
        fund = fundamental_form(frame_at(S, p))
        want = 0.5 * theta_xi * fund
        assert np.abs(ex.d_eta[..., 0] - want).max() <= 1e-9 * (1 + abs(theta_xi))


def test_d_eta_vanishes_on_g6_and_g10():
    for f, xi in (PURE_G10, NULL_SCALED):
        S = build(f, xi)
        for p in points(S):
            ex = exterior_data_at(S, np.array([p]))
            assert np.abs(ex.d_eta[..., 0]).max() <= 1e-10 * (1 + frame_at(S, p).scale)


def test_d_eta_reeb_law_on_g12():
    # d eta(X, Y) = (eta(X) F(xi, xi, phi Y) - eta(Y) F(xi, xi, phi X))/2
    S = build(*PURE_G12)
    for p in points(S):
        fr = frame_at(S, p)
        t = f_tensor_at(S, np.array([p]))
        ex = exterior_data_at(S, np.array([p]))
        rs_phi = t.reeb_square[..., 0] @ fr.phi_mat
        want = 0.5 * (np.einsum("i,j->ij", fr.eta_vec, rs_phi)
                      - np.einsum("j,i->ij", fr.eta_vec, rs_phi))
        assert np.abs(ex.d_eta[..., 0] - want).max() <= 1e-10 * (1 + fr.scale)


def test_d_fundamental_vanishes_without_g6():
    for f, xi in (NORMAL_MIX, PURE_G10, PURE_G12):
        # mix56 has a G6 part; its d(fundamental) need not vanish
        if (f, xi) == NORMAL_MIX:
            continue
        S = build(f, xi)
        for p in points(S):
            ex = exterior_data_at(S, np.array([p]))
            assert np.abs(ex.d_fundamental[..., 0]).max() <= 1e-10 * (1 + frame_at(S, p).scale)


def test_d_fundamental_law_with_g6_present():
    # d(fundamental) = -theta*(xi) eta ^ fundamental when the only
    # contribution comes from the G6 component
    for f, xi in (NORMAL_MIX, NULL_SCALED):
        S = build(f, xi)
        for p in points(S):
            one = np.array([p])
            ex = exterior_data_at(S, one)
            theta_star_xi = theta_forms(S, one).theta_star_xi[..., 0]
            wedge = eta_wedge_fundamental(frame_at(S, p))
            want = -theta_star_xi * wedge
            assert np.abs(ex.d_fundamental[..., 0] - want).max() \
                <= 1e-9 * (1 + abs(theta_star_xi))


# ------------------------------------------------------------------ normality

def test_normality_defect_vanishes_on_normal_structure():
    S = build(*NORMAL_MIX)
    batch = split_components_batch(S, S.domain.sample())
    defect = normality_defect_batch(S, batch)
    assert np.abs(defect).max() <= 1e-9 * (1 + batch.scale.max())


def test_normality_defect_nonzero_with_g10_present():
    S = build(*NULL_SCALED)
    batch = split_components_batch(S, S.domain.sample())
    defect = normality_defect_batch(S, batch)
    assert np.abs(defect).max() > 1e-4


def test_pointwise_normality_data_matches_batch():
    # the defect of the jet route (the frame of each point's batch of one)
    # against the symbolic batch route
    S = build(*GENERIC)
    pts = S.domain.sample()[:4]
    batch = split_components_batch(S, pts)
    defect = normality_defect_batch(S, batch)
    for i, p in enumerate(pts):
        one = np.array([p])
        fr = S.frame(one)
        jet_defect = ftensor._normality_defect(
            ftensor._nijenhuis(fr.phi_mat, fr.phi_d),
            exterior_data_at(S, one).d_eta, fr.xi_vec)
        assert np.abs(jet_defect[..., 0] - defect[..., i]).max() <= 1e-11


def test_nijenhuis_wrapper_contracts_vectors():
    # N(X, Y) on constant vectors: the torsion on coordinate fields summed
    # against their components, antisymmetric in X and Y
    S = build(*GENERIC)
    fr = S.frame(np.array(points(S, 1)))
    rng = np.random.default_rng(3)
    X, Y = rng.standard_normal(3), rng.standard_normal(3)
    N = ftensor._nijenhuis(fr.phi_mat, fr.phi_d)[..., 0]
    want = sum(X[i] * Y[j] * N[i, j] for i in range(3) for j in range(3))
    got = np.einsum("i,j,ijk->k", X, Y, N)
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(got + np.einsum("i,j,ijk->k", Y, X, N)).max() <= 1e-12


# ----------------------------------------------------------------- projections

@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_projection_sum_reconstructs_tensor(f, xi):
    S = build(f, xi)
    for p in points(S):
        one = np.array([p])
        F = f_tensor_at(S, one).components[..., 0]
        b = project_components(S, one)
        total = (b.F5 + b.F6 + b.F10 + b.F12)[..., 0]
        assert np.abs(F - total).max() <= 1e-9 * (1 + np.abs(F).max())
        assert np.abs(b.residual[..., 0]).max() <= 1e-9 * (1 + np.abs(F).max())
        assert b.model_defect[..., 0] <= 1e-9


def test_projection_formulas_null_scaled_setting():
    # xi along the null direction over f = x*y/z: every component has a
    # closed form driven by f_y/f and f_z/f
    S = build("x*y/z", ("0", "0", "1/sqrt(x*y/z)"))
    for (x, y, z) in points(S):
        f = x * y / z
        fy = x / z
        fz = -x * y / z ** 2
        r = np.sqrt(f)
        b = project_components(S, np.array([(x, y, z)]))
        F5, F6, F10, F12 = (a[..., 0] for a in (b.F5, b.F6, b.F10, b.F12))

        c5 = fy / (2 * f)
        want5 = np.zeros((3, 3, 3))
        want5[0, 2, 0] = c5 / r
        want5[1, 1, 0] = c5 / r
        want5[0, 0, 2] = -c5 / r
        want5[1, 0, 1] = -c5 / r
        want5[1, 1, 2] = c5 * r
        want5[1, 2, 1] = -c5 * r
        assert np.abs(F5 - want5).max() <= 1e-9 * (1 + abs(c5))

        c6 = -fz / (4 * f * r)
        want6 = np.zeros((3, 3, 3))
        want6[0, 1, 0] = c6 / f
        want6[0, 0, 1] = -c6 / f
        want6[0, 1, 2] = c6
        want6[1, 2, 0] = c6
        want6[0, 2, 1] = -c6
        want6[1, 0, 2] = -c6
        assert np.abs(F6 - want6).max() <= 1e-9 * (1 + abs(c6))

        c10 = fz / (4 * f ** 2)
        want10 = np.zeros((3, 3, 3))
        want10[0, 0, 1] = c10 / r
        want10[0, 1, 0] = -c10 / r
        want10[0, 2, 1] = c10 * r
        want10[1, 2, 0] = c10 * r
        want10[0, 1, 2] = -c10 * r
        want10[1, 0, 2] = -c10 * r
        assert np.abs(F10 - want10).max() <= 1e-9 * (1 + abs(c10))

        c12 = 1.0 / (2 * f * r)
        A = fy * c12
        B = (fz + f * (y / z)) / f * c12  # f_x = y/z here
        want12 = np.zeros((3, 3, 3))
        want12[0, 0, 2] = A
        want12[0, 2, 0] = -A
        want12[2, 0, 2] = A * f
        want12[2, 2, 0] = -A * f
        want12[0, 1, 0] = B
        want12[0, 0, 1] = -B
        want12[0, 1, 2] = B * f
        want12[0, 2, 1] = -B * f
        want12[2, 0, 1] = -B * f
        want12[2, 1, 0] = B * f
        want12[2, 1, 2] = B * f ** 2
        want12[2, 2, 1] = -B * f ** 2
        assert np.abs(F12 - want12).max() <= 1e-9 * (1 + abs(A) + abs(B) * f ** 2)

        # the G10 block evaluated on the Reeb slot is the symmetric matrix
        # -(f_z/4f^2)(x1 y2 + x2 y1)
        fr = frame_at(S, (x, y, z))
        T = np.einsum("ijk,k->ij", F10, fr.xi_vec)
        wantT = np.zeros((3, 3))
        wantT[0, 1] = wantT[1, 0] = -fz / (4 * f ** 2)
        assert np.abs(T - wantT).max() <= 1e-9 * (1 + abs(c10))


def test_projection_formulas_unit_y_setting():
    # xi = (xi1, 1, 0): closed forms in xi1's partials over any f
    S = build(*GENERIC)  # f = x^2 + y*z, xi1 = x*y
    for (x, y, z) in points(S):
        f = x ** 2 + y * z
        xi1 = x * y
        a1, a2, a3 = y, x, 0.0   # partials of xi1
        fx, fy = 2 * x, z
        b = project_components(S, np.array([(x, y, z)]))
        F5, F6, F10, F12 = (a[..., 0] for a in (b.F5, b.F6, b.F10, b.F12))

        s5 = -a1 / 2
        want5 = np.zeros((3, 3, 3))
        want5[0, 2, 1] = s5
        want5[2, 0, 1] = s5
        want5[0, 1, 2] = -s5
        want5[2, 1, 0] = -s5
        want5[2, 1, 2] = -s5 * f
        want5[2, 2, 1] = s5 * f
        want5[1, 1, 2] = s5 * xi1
        want5[2, 0, 2] = s5 * xi1
        want5[1, 2, 1] = -s5 * xi1
        want5[2, 2, 0] = -s5 * xi1
        assert np.abs(F5 - want5).max() <= 1e-9 * (1 + abs(s5) * (1 + f + xi1))

        s6 = a1 / 2
        want6 = np.zeros((3, 3, 3))
        want6[0, 1, 2] = s6
        want6[2, 0, 1] = s6
        want6[0, 2, 1] = -s6
        want6[2, 1, 0] = -s6
        want6[1, 2, 1] = s6 * xi1
        want6[2, 0, 2] = s6 * xi1
        want6[1, 1, 2] = -s6 * xi1
        want6[2, 2, 0] = -s6 * xi1
        want6[2, 2, 1] = s6 * xi1 ** 2
        want6[2, 1, 2] = -s6 * xi1 ** 2
        assert np.abs(F6 - want6).max() <= 1e-9 * (1 + abs(s6) * (1 + xi1) ** 2)

        s10 = xi1 * a2 + 0.5 * a1 * (xi1 ** 2 + f) - a3 - 0.5 * xi1 * fx - 0.5 * fy
        want10 = np.zeros((3, 3, 3))
        want10[2, 2, 1] = s10
        want10[2, 1, 2] = -s10
        assert np.abs(F10 - want10).max() <= 1e-9 * (1 + abs(s10))

        s12 = xi1 * a1 + a2
        want12 = np.zeros((3, 3, 3))
        want12[1, 1, 2] = s12
        want12[1, 2, 1] = -s12
        want12[2, 1, 2] = s12 * xi1
        want12[2, 2, 1] = -s12 * xi1
        assert np.abs(F12 - want12).max() <= 1e-9 * (1 + abs(s12) * (1 + xi1))

        # setting data: the Reeb square F(xi, xi, .) = (xi1 a1 + a2) y3
        t = f_tensor_at(S, np.array([(x, y, z)]))
        assert np.abs(t.reeb_square[..., 0] - np.array([0.0, 0.0, s12])).max() \
            <= 1e-9 * (1 + abs(s12))
        # theta(xi) = theta*(xi) = -(xi1)_x in this setting
        forms = theta_forms(S, np.array([(x, y, z)]))
        assert abs(forms.theta_xi[..., 0] + a1) <= 1e-9 * (1 + abs(a1))
        assert abs(forms.theta_star_xi[..., 0] + a1) <= 1e-9 * (1 + abs(a1))


# ---------------------------------------------------------------------- batch

@pytest.mark.parametrize("f,xi", ALL, ids=IDS)
def test_batch_matches_pointwise(f, xi):
    S = build(f, xi)
    pts = S.domain.sample()[:6]
    F_batch, _ = structure_tensor_batch(S, pts)
    comp = split_components_batch(S, pts)
    de = d_eta_batch(S, comp)
    lg = lie_g_batch(S, comp)
    df = d_fundamental_batch(comp)
    fb = fundamental_form_batch(comp)
    for i, p in enumerate(pts):
        one = np.array([p])
        F = f_tensor_at(S, one).components[..., 0]
        assert np.abs(F_batch[..., i] - F).max() <= 1e-12 * (1 + np.abs(F).max())
        b = project_components(S, one)
        for label, part in (("G5", b.F5), ("G6", b.F6), ("G10", b.F10),
                            ("G12", b.F12)):
            assert np.abs(comp.parts[label][..., i] - part[..., 0]).max() <= 1e-11
        ex = exterior_data_at(S, one)
        fr = frame_at(S, p)
        assert np.abs(de[..., i] - ex.d_eta[..., 0]).max() <= 1e-11 * (1 + fr.scale)
        assert np.abs(lg[..., i] - ex.lie_g[..., 0]).max() <= 1e-11 * (1 + fr.scale)
        assert np.abs(df[..., i] - ex.d_fundamental[..., 0]).max() <= 1e-11 * (1 + fr.scale)
        assert np.abs(fb[..., i] - fundamental_form(fr)).max() <= 1e-12 * (1 + fr.scale)


# --- antisymmetric pairs formed once ---------------------------------------

def split_with_both_contractions(F, xi, eta, phi, g, forms, scale):
    """`ftensor._component_arrays` with the second contraction of each
    antisymmetric pair formed as such."""
    theta_form, theta_star_form, reeb_square = forms
    theta_xi = np.einsum("c...,c...->...", theta_form, xi)
    theta_star_xi = np.einsum("c...,c...->...", theta_star_form, xi)
    gphiphi = np.einsum("ai...,ab...,bj...->ij...", phi, g, phi)
    gphi = np.einsum("ab...,bj...->aj...", g, phi)
    f5 = 0.5 * (np.einsum("...,j...,ik...->ijk...", theta_xi, eta, gphiphi)
                - np.einsum("...,k...,ij...->ijk...", theta_xi, eta, gphiphi))
    f6 = -0.5 * (np.einsum("...,j...,ik...->ijk...", theta_star_xi, eta, gphi)
                 - np.einsum("...,k...,ij...->ijk...", theta_star_xi, eta, gphi))
    f12 = (np.einsum("i...,j...,k...->ijk...", eta, eta, reeb_square)
           - np.einsum("i...,k...,j...->ijk...", eta, eta, reeb_square))
    f10 = F - f5 - f6 - f12
    t = np.einsum("ijc...,c...->ij...", f10, xi)
    recon = (-np.einsum("j...,ik...->ijk...", eta, t)
             + np.einsum("k...,ij...->ijk...", eta, t))
    t_phiphi = np.einsum("ai...,bj...,ab...->ij...", phi, phi, t)
    defect = np.maximum(max_abs(f10 - recon, 3), np.maximum(
        max_abs(t - t.swapaxes(0, 1), 2), max_abs(t - t_phiphi, 2)))
    parts = {"G5": f5, "G6": f6, "G10": f10, "G12": f12}
    return (parts, theta_xi, theta_star_xi,
            defect / (1.0 + scale + max_abs(F, 3)))


@pytest.mark.parametrize("lead", [(), (1,), (16,)])
def test_each_antisymmetric_pair_is_formed_once_with_the_same_bits(lead):
    rng = np.random.default_rng(len(lead) + 5)
    for _ in range(5):
        F, phi, g, ginv = (operand(rng, (3,) * k + lead) for k in (3, 2, 2, 2))
        xi, eta = operand(rng, (3,) + lead), operand(rng, (3,) + lead)
        forms = ftensor._tensor_forms(F, xi, phi, ginv)
        scale, pts = np.abs(operand(rng, lead)), operand(rng, lead + (3,))
        got = ftensor._component_arrays(F, xi, eta, phi, g, forms, scale, pts)
        want = split_with_both_contractions(F, xi, eta, phi, g, forms, scale)
        for label in want[0]:
            assert identical(got[0][label], want[0][label]), label
        for a, b in zip(got[1:], want[1:]):
            assert identical(np.asarray(a), np.asarray(b))
        pd = operand(rng, (3, 3, 3) + lead)
        nijenhuis_t = (
            (np.einsum("mi...,mkj...->ijk...", phi, pd)
             - np.einsum("mj...,mki...->ijk...", phi, pd))
            + (np.einsum("km...,jmi...->ijk...", phi, pd)
               - np.einsum("km...,imj...->ijk...", phi, pd)))
        assert identical(ftensor._nijenhuis(phi, pd), nijenhuis_t)


def test_a_component_split_that_overflows_raises_at_its_first_point():
    # f near 1e100: F is finite, but its Reeb-square component overflows,
    # and F10 = F - F5 - F6 - F12 meets inf - inf at every sampled point
    manifest = load_manifest(MANIFESTS / "overflow-contraction.manifest")
    S = manifest.build(samples=4)
    pts = S.domain.sample()
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # and no numpy warning before it
        for point, first in ((pts, pts[0]), (np.array([pts[2]]), pts[2])):
            with pytest.raises(EvaluationError, match=(
                    "non-finite value in 'a sampled residual'")) as info:
                project_components(S, point)
            assert info.value.point == tuple(first.tolist())


def test_a_batch_split_that_overflows_raises_at_its_first_point():
    # the split named_classes runs on the sample raises before a nan part
    # can reach a zero test, and with no numpy warning
    manifest = load_manifest(MANIFESTS / "overflow-contraction.manifest")
    S = manifest.build(samples=4)
    pts = S.domain.sample()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=(
                "non-finite value in 'a sampled residual'")) as info:
            split_components_batch(S, pts)
    assert info.value.point == tuple(pts[0].tolist())


def with_nan(a, at):
    """A float copy of a with nan at the index at."""
    a = np.array(a, dtype=float)
    a[at] = np.nan
    return a


# per value object, the function its second route reads and a fault that
# puts nan into that route's values at an index
ROUTE_FAULTS = {
    f_tensor_at: ("_connection_route", with_nan),
    theta_forms: ("evaluate_with_scale",
                  lambda out, at: (with_nan(out[0], at), out[1])),
    exterior_data_at: ("_reeb_routes",
                       lambda out, at: (with_nan(out[0], at), *out[1:])),
}


@pytest.mark.parametrize("view", ROUTE_FAULTS, ids=lambda v: v.__name__)
def test_a_non_finite_route_discrepancy_raises_at_its_first_point(
        monkeypatch, view):
    name, fault = ROUTE_FAULTS[view]
    original = getattr(ftensor, name)
    S = build(*GENERIC)
    pts = S.domain.sample()[:4]
    # nan at points 1 and 3 of a batch, or everywhere at one point
    for point, at in ((pts, (..., [1, 3])), (np.array([pts[1]]), ...)):
        monkeypatch.setattr(ftensor, name,
                            lambda *args: fault(original(*args), at))
        with pytest.raises(EvaluationError, match=(
                "non-finite value in 'a sampled residual'")) as info:
            view(S, point)
        assert info.value.point == tuple(pts[1].tolist())
