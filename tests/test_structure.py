from functools import partial

import numpy as np
import pytest

from geometry_oracles import (
    BOX, build as build_on_box, christoffel_oracle, fd_partial, frame_at,
    metric_fn, vector_fn, with_phi,
)
from walkergeo.curvature import sectional_curvatures
from walkergeo.errors import NonexistentStructureError, UnitConstraintError
from walkergeo.expressions import analysis, evaluate_with_scale, parse, to_source
from walkergeo.ftensor import (
    exterior_data_at, f_tensor_at, normality_data_at, project_components,
    theta_forms,
)
from walkergeo.jets import eval_jet
from walkergeo.sampling import SamplingConfig, is_identically_zero
from walkergeo.structure import (
    Frame,
    build_structure,
    nabla_xi,
    unit_constraint_field,
    validate_axioms,
)
from walkergeo.walker import WalkerManifold

CFG = SamplingConfig(samples=32, seed=9)
build = partial(build_on_box, sampling=CFG)

# (f, xi) pairs covering the Reeb shapes the classifier cares about
STRUCTURES = [
    ("x^2", ("0", "1", "0")),
    ("x^2/y^2", ("x/y", "1", "0")),
    ("x/z", ("0", "0", "1/sqrt(x/z)")),
    ("2*x", ("(1 - 2*x*exp(2*z - 4*y))/(2*exp(z - 2*y))", "0", "exp(z - 2*y)")),
    ("x + z", ("exp(z/2)", "-1", "0")),  # xi2 = -1 branch
]



@pytest.mark.parametrize("f,xi", STRUCTURES, ids=[s[0] for s in STRUCTURES])
def test_all_axioms_hold(f, xi):
    S = build(f, xi)
    routes = validate_axioms(S)
    for name, route in routes.items():
        assert route.holds, f"{name}: residual {route.residual}"
    assert len(routes) == 10
    assert "phi_squared_is_id_minus_eta_xi" in routes
    assert "phi_compatibility" in routes


def test_unit_constraint_field_source():
    M = WalkerManifold(parse("x^2"), 1, BOX)
    field = unit_constraint_field(M, (parse("0"), parse("1"), parse("0")))
    assert is_identically_zero(field, BOX._replace(sampling=CFG))


def test_phi_closed_form_unit_y():
    # xi = d_y forces phi = [[-1, 0, -f], [0, 0, 0], [0, 0, 1]], eta = dy
    S = build("x^2", ("0", "1", "0"))
    fr = frame_at(S, (1.3, 0.8, 1.1))
    f = 1.3 ** 2
    assert np.allclose(fr.phi_mat,
                       [[-1, 0, -f], [0, 0, 0], [0, 0, 1]], atol=1e-14)
    assert np.allclose(fr.eta_vec, [0, 1, 0], atol=1e-14)


def test_phi_closed_form_null_scaled():
    # xi = (0, 0, 1/sqrt(f)) forces phi = [[0, sqrt(f), 0],
    # [1/sqrt(f), 0, 0], [0, -1/sqrt(f), 0]], eta = (dx + f dz)/sqrt(f)
    S = build("x/z", ("0", "0", "1/sqrt(x/z)"))
    p = (1.2, 0.9, 0.6)
    fr = frame_at(S, p)
    r = np.sqrt(1.2 / 0.6)
    assert np.allclose(fr.phi_mat,
                       [[0, r, 0], [1 / r, 0, 0], [0, -1 / r, 0]], atol=1e-12)
    assert np.allclose(fr.eta_vec, [1 / r, 0, r], atol=1e-12)


@pytest.mark.parametrize("f,xi", STRUCTURES, ids=[s[0] for s in STRUCTURES])
def test_eta_is_metric_dual(f, xi):
    S = build(f, xi)
    for p in S.domain.sample()[:8]:
        fr = frame_at(S, p)
        assert np.abs(fr.eta_vec - fr.g @ fr.xi_vec).max() <= 1e-12 * (1 + fr.scale)
        assert abs(fr.eta_vec @ fr.xi_vec - 1.0) <= 1e-12 * (1 + fr.scale)


def test_frame_cache_returns_same_object():
    S = build("x^2", ("0", "1", "0"))
    pts = S.domain.sample()
    with analysis():
        assert S.frame(pts) is S.frame(pts)
    # outside an analysis nothing is kept
    assert S.frame(pts) is not S.frame(pts)
    # a frame takes batches only; a point is a view's batch of one
    with pytest.raises(ValueError, match="batch"):
        S.frame((1.0, 1.0, 1.0))


def test_views_at_a_point_share_its_batch_of_one(monkeypatch):
    # every pointwise view runs on the point's batch of one, made once per
    # analysis and keyed by the point, so the views there build one frame
    S = build("x^2/y^2", ("x/y", "1", "0"))
    built = []
    init = Frame.__init__
    monkeypatch.setattr(Frame, "__init__",
                        lambda self, *args: built.append(init(self, *args)))
    p, X = (1.0, 1.5, 0.75), (1.0, 0.0, 0.0)
    views = (f_tensor_at, theta_forms, exterior_data_at, normality_data_at,
             project_components, lambda S, p: nabla_xi(S, X, p),
             lambda S, p: sectional_curvatures(S, X, p))
    with analysis():
        for point in (p, np.array(p), list(p)):
            for view in views:
                view(S, point)
    assert len(built) == 1
    # outside an analysis nothing is kept
    f_tensor_at(S, p)
    f_tensor_at(S, p)
    assert len(built) == 3


@pytest.mark.parametrize("f,xi", STRUCTURES, ids=[s[0] for s in STRUCTURES])
def test_value_scale_is_the_order_0_scale(f, xi):
    S = build(f, xi)
    pts = S.domain.sample()
    for points in (pts, pts[3:4]):
        # outside an analysis each jet is computed afresh
        jets = [eval_jet(e, points, 0) for e in (S.manifold.f,) + S.xi]
        scale = np.abs(np.concatenate([j.coeffs for j in jets])).max(axis=0)
        value_scale = Frame(S, points).value_scale
        assert value_scale.shape == scale.shape
        assert np.array_equal(value_scale, scale)


@pytest.mark.parametrize("f,xi", STRUCTURES, ids=[s[0] for s in STRUCTURES])
def test_frame_jets_are_the_structure_fields_jets(f, xi):
    # eta and phi are stated once, as expressions: the frame holds their jets
    S = build(f, xi)
    pts = S.domain.sample()
    for points in (pts, pts[3:4]):
        with analysis():
            fr = S.frame(points)
            for k in range(3):
                assert fr.eta[k] is eval_jet(S.eta[k], points, 1)
                for j in range(3):
                    assert fr.phi[k][j] is eval_jet(S.phi[k][j], points, 1)


@pytest.mark.parametrize("f,xi", STRUCTURES[:4], ids=[s[0] for s in STRUCTURES[:4]])
def test_nabla_xi_against_oracle(f, xi):
    S = build(f, xi)
    g_fn = metric_fn(S.manifold.f)
    xi_fn = vector_fn(S.xi)
    for p in S.domain.sample()[:4]:
        p = tuple(float(c) for c in p)
        gamma = christoffel_oracle(g_fn, p)
        for a in range(3):
            direction = np.zeros(3)
            direction[a] = 1.0
            got = nabla_xi(S, direction, p)
            want = fd_partial(xi_fn, p, a) + gamma[:, a, :] @ xi_fn(p)
            assert np.abs(got - want).max() <= 1e-6 * (1 + np.abs(want).max())


def test_corrupted_phi_fails_validation():
    S = build("x^2", ("0", "1", "0"))
    entries = [[to_source(e) for e in row] for row in S.phi]
    # flip the sign of phi^2_3; compatibility and skew-adjointness both break
    entries[1][2] = to_source(-S.phi[1][2] + parse("1"))
    bad = with_phi(S, tuple(tuple(parse(e) for e in row) for row in entries))
    routes = validate_axioms(bad)
    failed = {name for name, route in routes.items() if not route.holds}
    assert failed, "corruption must trip at least one axiom"
    for name in failed:
        assert routes[name].witness is not None


def test_unit_constraint_violation_rejected():
    M = WalkerManifold(parse("x^2"), 1, BOX)
    with pytest.raises(UnitConstraintError) as info:
        build_structure(M, (parse("0"), parse("2"), parse("0")))
    assert "(" in str(info.value)  # witness point is part of the message


def test_unit_constraint_residual_is_the_field_at_its_witness():
    # xi2^2 + f xi3^2 + 2 xi1 xi3 - 1 = x^2 + 2x for f = x^2, xi = (x, 1, 1):
    # nonzero on the whole box, so the first sampled point is the witness
    M = WalkerManifold(parse("x^2"), 1, BOX)
    with pytest.raises(UnitConstraintError) as info:
        build_structure(M, (parse("x"), parse("1"), parse("1")))
    w = info.value.witness
    assert w == tuple(M.domain.sample()[0].tolist())
    assert info.value.residual == pytest.approx(w[0]**2 + 2 * w[0], rel=1e-12)


def test_timelike_complement_rejected():
    M = WalkerManifold(parse("x^2"), -1, BOX)
    with pytest.raises(NonexistentStructureError):
        build_structure(M, (parse("0"), parse("1"), parse("0")))


def test_eta_symbolic_components():
    S = build("x/z", ("0", "0", "1/sqrt(x/z)"))
    # eta = (xi3, xi2, xi1 + f*xi3) as symbolic fields
    eta3 = S.eta[2]
    v, _ = evaluate_with_scale(eta3, np.array([[1.2, 0.9, 0.6]]))
    assert abs(v[0] - np.sqrt(2.0)) <= 1e-12
