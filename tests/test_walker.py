import numpy as np
import pytest

from geometry_oracles import (
    christoffel_oracle,
    curvature_oracle,
    metric_fn,
    random_points,
    ricci_from_curvature,
)
from walkergeo.errors import UnsupportedSignatureError
from walkergeo.expressions import parse
from walkergeo.jets import eval_jet
from walkergeo.sampling import Domain, Interval, SamplingConfig
from walkergeo.walker import (
    WalkerManifold,
    christoffel_from_jet,
    curvature_from_jet,
    flatness,
    is_strict_walker,
    metric_arrays,
    ricci_from_jet,
    scalar_curvature_field,
    segre_type,
)

BOX = Domain((Interval(0.5, 2.0), Interval(0.5, 2.0), Interval(0.5, 2.0)))
BOX_ARRAY = [(0.5, 2.0)] * 3

# metric functions exercising every derivative the closed forms consume
F_SOURCES = ["x^2", "x^2/y^2", "y*z", "x + z", "x*y*z + x^3",
             "x^2 + y^2", "exp(z - 2*y)*x"]


def manifold(source, eps=1):
    return WalkerManifold(parse(source), eps, BOX)


def one(point):
    """A point as a batch of one: column 0 of each kernel's arrays is the
    point."""
    return np.array([point], dtype=float)


def metric(M, pts):
    """g and its inverse over the points."""
    return metric_arrays(eval_jet(M.f, pts, 0).value, M.epsilon)


def test_metric_values():
    M = manifold("x^2")
    g, ginv = (a[..., 0] for a in metric(M, one((2.0, 0.7, 0.9))))
    assert g[2, 2] == 4.0
    assert g[0, 2] == 1.0 and g[1, 1] == 1.0
    assert ginv[0, 0] == -4.0
    assert ginv[0, 2] == 1.0 and ginv[1, 1] == 1.0


def test_metric_timelike_complement():
    M = manifold("x^2", eps=-1)
    g, ginv = (a[..., 0] for a in metric(M, one((1.0, 1.0, 1.0))))
    assert g[1, 1] == -1.0
    assert ginv[1, 1] == -1.0


@pytest.mark.parametrize("source", F_SOURCES)
def test_inverse_metric(source):
    M = manifold(source)
    gs, ginvs = metric(M, random_points(BOX_ARRAY, 10, seed=1))
    for g, ginv in zip(np.moveaxis(gs, -1, 0), np.moveaxis(ginvs, -1, 0)):
        assert np.abs(g @ ginv - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(g) + 1.0) <= 1e-12


@pytest.mark.parametrize("source", F_SOURCES)
def test_christoffel_against_generic_oracle(source):
    M = manifold(source)
    g_fn = metric_fn(M.f)
    pts = random_points(BOX_ARRAY, 6, seed=2)
    gammas = christoffel_from_jet(eval_jet(M.f, pts, 1))
    for k, p in enumerate(pts):
        gamma = gammas[..., k]
        oracle = christoffel_oracle(g_fn, p)
        assert np.abs(gamma - oracle).max() <= 1e-6


def test_christoffel_closed_form_spot_check():
    M = manifold("x^2")
    gamma = christoffel_from_jet(eval_jet(M.f, one((1.0, 0.7, 0.9)), 1))[..., 0]
    # nabla_{d_z} d_z = (f f_x + f_z)/2 d_x - f_y/2 d_y - f_x/2 d_z
    assert abs(gamma[0, 2, 2] - 1.0) <= 1e-14
    assert abs(gamma[1, 2, 2]) <= 1e-14
    assert abs(gamma[2, 2, 2] + 1.0) <= 1e-14
    # Gamma^1_13 = f_x/2 = x
    assert abs(gamma[0, 0, 2] - 1.0) <= 1e-14
    assert abs(gamma[0, 2, 0] - 1.0) <= 1e-14
    # d_x is parallel along itself and d_y
    assert np.abs(gamma[:, 0, 0]).max() == 0.0
    assert np.abs(gamma[:, 0, 1]).max() == 0.0


@pytest.mark.parametrize("source", F_SOURCES)
def test_curvature_against_fd_oracle(source):
    M = manifold(source)
    g_fn = metric_fn(M.f)
    pts = random_points(BOX_ARRAY, 4, seed=3)
    Rs = curvature_from_jet(eval_jet(M.f, pts, 2))
    for k, p in enumerate(pts):
        R = Rs[..., k]
        oracle = curvature_oracle(g_fn, p)
        # nested finite differences: truncation error scales with magnitude
        assert np.abs(R - oracle).max() <= 1e-6 * (1 + np.abs(R).max())


def test_curvature_closed_form_spot_check():
    # R(d_y, d_z) d_y = -(f_yy/2) d_x; f = x^2/y^2 gives f_yy = 6 at (1,1,1)
    M = manifold("x^2/y^2")
    R = curvature_from_jet(eval_jet(M.f, one((1.0, 1.0, 1.0)), 2))[..., 0]
    assert np.allclose(R[1, 2, 1], [-3.0, 0.0, 0.0], atol=1e-12)
    # the (d_x, d_y) plane is always flat
    assert np.abs(R[0, 1]).max() == 0.0


@pytest.mark.parametrize("source", F_SOURCES)
def test_curvature_symmetries(source):
    M = manifold(source)
    pts = random_points(BOX_ARRAY, 4, seed=4)
    Rs = curvature_from_jet(eval_jet(M.f, pts, 2))
    gs, _ = metric(M, pts)
    for k in range(len(pts)):
        R, g = Rs[..., k], gs[..., k]
        low = np.einsum("ijkl,lm->ijkm", R, g)
        assert np.abs(low + low.transpose(1, 0, 2, 3)).max() <= 1e-10
        assert np.abs(low + low.transpose(0, 1, 3, 2)).max() <= 1e-10
        assert np.abs(low - low.transpose(2, 3, 0, 1)).max() <= 1e-10
        bianchi = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        assert np.abs(bianchi).max() <= 1e-10


@pytest.mark.parametrize("source", F_SOURCES)
def test_ricci_against_curvature_trace(source):
    M = manifold(source)
    pts = random_points(BOX_ARRAY, 5, seed=5)
    jet = eval_jet(M.f, pts, 2)
    rhos, qs, scals = ricci_from_jet(jet)
    Rs = curvature_from_jet(jet)
    _, ginvs = metric(M, pts)
    for k in range(len(pts)):
        rho, q, scal = rhos[..., k], qs[..., k], scals[k]
        assert np.abs(rho - ricci_from_curvature(Rs[..., k])).max() <= 1e-12
        ginv = ginvs[..., k]
        assert np.abs(
            ginv @ rho - q).max() <= 1e-12
        assert abs(np.trace(q) - scal) <= 1e-12


def test_ricci_closed_form():
    M = manifold("x^2 + y^2")
    rho, q, scal = (a[..., 0] for a in ricci_from_jet(
        eval_jet(M.f, one((1.0, 1.0, 1.0)), 2)))
    f, fxx, fyy = 2.0, 2.0, 2.0
    want = np.array([[0, 0, fxx / 2], [0, 0, 0],
                     [fxx / 2, 0, (f * fxx - fyy) / 2]])
    assert np.abs(rho - want).max() <= 1e-12
    assert scal == 2.0


def test_scalar_curvature_field():
    M = manifold("x^2/y^2")
    field = scalar_curvature_field(M)
    from walkergeo.expressions import evaluate_with_scale
    v, _ = evaluate_with_scale(field, one((1.0, 1.0, 1.0)))
    assert abs(v[0] - 2.0) <= 1e-14


@pytest.mark.parametrize("source,expect", [
    ("y*z", True),      # all of f_xx, f_xy, f_yy vanish
    ("x + z", True),    # linear in x
    ("x^2", False),
    ("x*y", False),     # f_xy = 1 even though f_xx = f_yy = 0
])
def test_flatness(source, expect):
    v = flatness(manifold(source))
    assert v.flat is expect


def test_flatness_note_when_conditions_disagree():
    # f = x*y: curvature says non-flat, the x/y/z pure-second-partial
    # condition says flat; f = z^2: the reverse
    v = flatness(manifold("x*y"))
    assert not v.flat and v.alternative_flat and v.note is not None
    v = flatness(manifold("z^2"))
    assert v.flat and not v.alternative_flat and v.note is not None
    assert flatness(manifold("y*z")).note is None


def test_strict_walker():
    assert is_strict_walker(manifold("y*z"))
    assert not is_strict_walker(manifold("x^2"))


def test_segre_flat():
    v = segre_type(manifold("y*z"), one((1.0, 1.0, 1.0)))
    assert v.kind == "flat"
    assert v.eigenvalues == (0.0, 0.0, 0.0)


def test_segre_degenerate():
    v = segre_type(manifold("x^2"), one((1.0, 1.0, 1.0)))
    assert v.kind == "type11_1_degenerate"
    assert np.allclose(sorted(v.eigenvalues), [0.0, 1.0, 1.0], atol=1e-12)
    # kernel vector: -(f_xy/f_xx) d_x + d_y = d_y here
    assert np.allclose(v.n_vector, [0.0, 1.0, 0.0], atol=1e-12)
    _, q, _ = ricci_from_jet(eval_jet(manifold("x^2").f, one((1.0, 1.0, 1.0)), 2))
    q = q[..., 0]
    assert np.abs(q @ v.n_vector).max() <= 1e-12
    for vec in (v.v1, v.v2):
        assert np.abs(q @ vec - vec).max() <= 1e-12


def test_segre_other():
    v = segre_type(manifold("x^2 + y^2"), one((1.0, 1.0, 1.0)))
    assert v.kind == "other"


def test_timelike_complement_curvature_unsupported():
    # the verdicts built on the eps = +1 closed forms refuse eps = -1
    M = manifold("x^2", eps=-1)
    with pytest.raises(UnsupportedSignatureError):
        flatness(M)
    with pytest.raises(UnsupportedSignatureError):
        segre_type(M, one((1.0, 1.0, 1.0)))
