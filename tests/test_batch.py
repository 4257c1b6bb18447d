"""The batched evaluation path against its batch-of-one views.

Reports evaluate every sample point in one batch; the pointwise API
evaluates one point. Both must give the same bits (np.array_equal, never
allclose): an operation whose rounding depends on the batch size would make
a report drift from the pointwise values it documents. Every batched array
is laid out components first, points last, and is C-contiguous, so slice
[..., k] is point k.
"""

import sys

import numpy as np
import pytest

import walkergeo.expressions
from test_jets import FIELDS
from walkergeo import parse_manifest
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.expressions import parse
from walkergeo.ftensor import (
    exterior_data_at, f_tensor_at, normality_data_at, project_components,
    theta_forms,
)
from walkergeo.jets import eval_jet
from walkergeo.report import build_report
from walkergeo.walker import (
    christoffel_at, christoffel_from_jet, curvature_at, curvature_from_jet,
    ricci_at, ricci_from_jet,
)
from write_reports import read_manifest

NAMES = [fixture.name for fixture in FIXTURES]
FRAME_ARRAYS = ("xi_vec", "eta_vec", "phi_mat", "g", "ginv", "scale")
DERIVATIVE_ARRAYS = ("xi_d", "eta_d", "phi_d", "gamma")


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def points_last(a, n: int) -> bool:
    """C-contiguous with the point axis (length n) last."""
    return (isinstance(a, np.ndarray) and a.flags.c_contiguous
            and a.ndim >= 1 and a.shape[-1] == n)


# Each fixture has a Reeb component that is identically 0, so its arrays
# hold structural zeros, on which sums in another order keep their bits;
# dense-curvature has none. constant-rational has constant f and xi whose
# eta_3 = xi1 + f xi3 the constructors fold exactly as a rational, so the
# frame's eta and phi read that constant
MANIFESTS = {stem: read_manifest(stem)
             for stem in ("dense-curvature", "constant-rational")}


# einsum's kernels unroll by batch size, so each fixture is built at three
# sample sizes; a 16-point case keeps the fixture's name as its id
@pytest.fixture(scope="module", params=[
    pytest.param((name, samples), id=name + suffix)
    for samples, suffix in ((16, ""), (3, "-3"), (512, "-512"))
    for name in NAMES + list(MANIFESTS)
])
def structure(request):
    name, samples = request.param
    if name in MANIFESTS:
        return parse_manifest(MANIFESTS[name]).build(samples=samples)
    return load_fixture(name).build(samples=samples)


def columns(pts):
    """(k, pts[k]) for every point of a small batch, and for the first two,
    the middle and the last of a large one."""
    n = len(pts)
    ks = range(n) if n <= 16 else (0, 1, n // 2, n - 1)
    return [(k, pts[k]) for k in ks]


def test_frame_rows_match_point_frames(structure):
    S = structure
    pts = S.sample_points()
    batch = S.frame(pts)
    names = FRAME_ARRAYS + DERIVATIVE_ARRAYS
    for name in names:
        assert points_last(getattr(batch, name), len(pts)), name
    for k, p in columns(pts):
        single = S.frame(tuple(p))
        for name in names:
            assert same(getattr(batch, name)[..., k],
                        getattr(single, name)), (name, k)


def test_value_objects_match_point_views(structure):
    S = structure
    pts = S.sample_points()
    t = f_tensor_at(S, pts)
    tf = theta_forms(S, pts)
    ex = exterior_data_at(S, pts)
    pr = project_components(S, pts)
    nd = normality_data_at(S, pts)
    for batch, view, fields in (
        (t, lambda p: f_tensor_at(S, p),
         ("components", "theta_xi", "theta_star_xi", "reeb_square",
          "route_discrepancy")),
        (tf, lambda p: theta_forms(S, p),
         ("theta", "theta_star", "theta_xi", "theta_star_xi",
          "route_discrepancy")),
        (ex, lambda p: exterior_data_at(S, p),
         ("d_eta", "d_fundamental", "lie_g", "nabla_eta",
          "route_discrepancy")),
        (pr, lambda p: project_components(S, p),
         ("F5", "F6", "F10", "F12", "residual", "theta_xi",
          "theta_star_xi", "model_defect")),
        (nd, lambda p: normality_data_at(S, p), ("nijenhuis", "defect")),
    ):
        for name in fields:
            assert points_last(getattr(batch, name), len(pts)), \
                (type(batch).__name__, name)
        for k, p in columns(pts):
            p = tuple(p)
            single = view(p)
            assert single.point == p
            for name in fields:
                assert same(getattr(batch, name)[..., k],
                            getattr(single, name)), \
                    (type(single).__name__, name, k)


def test_walker_tensors_match_point_views(structure):
    M = structure.manifold
    pts = structure.sample_points()
    gamma = christoffel_from_jet(eval_jet(M.f, pts, 1))
    jet = eval_jet(M.f, pts, 2)
    R = curvature_from_jet(jet)
    rho, q, fxx = ricci_from_jet(jet)
    for array in (gamma, R, rho, q, fxx):
        assert points_last(array, len(pts))
    for k, p in columns(pts):
        assert same(gamma[..., k], christoffel_at(M, p).components)
        assert same(R[..., k], curvature_at(M, p).components)
        point_rho, point_q, point_fxx = ricci_at(M, p)
        assert same(rho[..., k], point_rho.components)
        assert same(q[..., k], point_q.components)
        assert same(fxx[k], point_fxx)


@pytest.mark.parametrize("source", FIELDS)
def test_jet_rows_match_point_jets(source):
    e = parse(source)
    pts = 0.5 + 1.2 * np.random.default_rng(3).random((64, 3))
    for order in range(4):
        batch = eval_jet(e, pts, order)
        for k, p in enumerate(pts):
            assert same(batch.coeffs[:, k], eval_jet(e, p, order).coeffs), \
                (order, k)


def count_diff_calls(monkeypatch, run) -> int:
    """diff calls made by run(), through every module that bound diff."""
    original = walkergeo.expressions.diff
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("walkergeo") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch.setattr(module, key, counting)
        run()
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_symbolic_work_does_not_grow_with_samples(monkeypatch, name):
    manifest = load_fixture(name)
    counts = [
        count_diff_calls(monkeypatch, lambda: build_report(
            manifest.build(samples=samples), name=name))
        for samples in (8, 32)
    ]
    assert counts[0] == counts[1] > 0
