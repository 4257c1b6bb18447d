"""The batched evaluation path against its batches of one.

Reports evaluate every sample point in one batch; a batch of one evaluates
one point. Frames, jets and the Walker tensors hold no contraction, and
for them both must give the same bits (np.array_equal, never allclose): an
operation whose rounding depends on the batch size would make a report's
value at its representative point pts[0] depend on the rest of the
sample. The value objects of `ftensor` contract with np.einsum, whose
summation order may differ between a batch and a point, so here only their
layout is checked; tests/test_exact.py compares their columns with the
batches of one in exact arithmetic. Every batched array is laid out components
first, points last, and is C-contiguous, so slice [..., k] is point k.
"""

import sys

import numpy as np
import pytest

import walkergeo.expressions
import walkergeo.ftensor as ftensor
from test_jets import FIELDS
from walkergeo import parse_manifest
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.expressions import parse
from walkergeo.ftensor import (
    exterior_data_at, f_tensor_at, project_components, theta_forms,
)
from walkergeo.jets import eval_jet
from walkergeo.report import build_report
from walkergeo.walker import (
    christoffel_from_jet, curvature_from_jet, ricci_from_jet,
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
# hold structural zeros; dense-curvature has none. constant-rational has
# constant f and xi whose eta_3 = xi1 + f xi3 the constructors fold exactly
# as a rational, so the frame's eta and phi read that constant
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
    pts = S.domain.sample()
    batch = S.frame(pts)
    names = FRAME_ARRAYS + DERIVATIVE_ARRAYS
    for name in names:
        assert points_last(getattr(batch, name), len(pts)), name
    for k, p in columns(pts):
        single = S.frame(pts[k:k + 1])
        for name in names:
            assert same(getattr(batch, name)[..., k],
                        getattr(single, name)[..., 0]), (name, k)


def test_value_objects_match_point_views(structure):
    S = structure
    pts = S.domain.sample()
    t = f_tensor_at(S, pts)
    tf = theta_forms(S, pts)
    ex = exterior_data_at(S, pts)
    pr = project_components(S, pts)
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
    ):
        for name in fields:
            assert points_last(getattr(batch, name), len(pts)), \
                (type(batch).__name__, name)
        for k, p in columns(pts):
            one = np.array([p])
            single = view(one)
            assert single.point is one
            for name in fields:
                assert points_last(getattr(single, name), 1), (name, k)
    # the matrix of nabla xi and the Nijenhuis torsion, as the frame forms
    # them: each batch column is the batch of one there, to the rounding of
    # the einsum that forms the matrix of nabla xi
    for kernel in (lambda fr: fr.nabla_xi_matrix(),
                   lambda fr: ftensor._nijenhuis(fr.phi_mat, fr.phi_d)):
        batch = kernel(S.frame(pts))
        assert points_last(batch, len(pts))
        for k, p in columns(pts):
            view = kernel(S.frame(np.array([p])))[..., 0]
            assert np.abs(batch[..., k] - view).max() <= 1e-13 * (
                1.0 + np.abs(view).max()), k


def test_walker_tensors_match_point_views(structure):
    M = structure.manifold
    pts = structure.domain.sample()
    gamma = christoffel_from_jet(eval_jet(M.f, pts, 1))
    jet = eval_jet(M.f, pts, 2)
    R = curvature_from_jet(jet)
    rho, q, fxx = ricci_from_jet(jet)
    for array in (gamma, R, rho, q, fxx):
        assert points_last(array, len(pts))
    for k, p in columns(pts):
        one = pts[k:k + 1]
        assert same(gamma[..., k],
                    christoffel_from_jet(eval_jet(M.f, one, 1))[..., 0])
        one_jet = eval_jet(M.f, one, 2)
        assert same(R[..., k], curvature_from_jet(one_jet)[..., 0])
        point_rho, point_q, point_fxx = ricci_from_jet(one_jet)
        assert same(rho[..., k], point_rho[..., 0])
        assert same(q[..., k], point_q[..., 0])
        assert same(fxx[k], point_fxx[0])


@pytest.mark.parametrize("source", FIELDS)
def test_jet_rows_match_point_jets(source):
    e = parse(source)
    pts = 0.5 + 1.2 * np.random.default_rng(3).random((64, 3))
    for order in range(4):
        batch = eval_jet(e, pts, order)
        for k in range(len(pts)):
            one = eval_jet(e, pts[k:k + 1], order)
            assert same(batch.coeffs[:, k], one.coeffs[:, 0]), (order, k)


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
