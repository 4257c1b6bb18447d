from functools import partial

import numpy as np
import pytest

from geometry_oracles import (
    build as build_on_box, eta_einstein_discriminant, frame_at,
)
from walkergeo import report
from walkergeo.classify import named_classes
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.curvature import (
    curvature_equivalences,
    eta_einstein_check,
    ricci_residual_fields,
    sectional_profile,
)
from walkergeo.errors import DegenerateInputError, EvaluationError
from walkergeo.manifest import parse_manifest
from walkergeo.report import build_report
from walkergeo.sampling import PCG64Stream, SamplingConfig, is_identically_zero
from walkergeo.jets import eval_jet
from walkergeo.walker import (
    curvature_from_jet, flatness, scalar_curvature_constant, segre_type,
)
from write_reports import read_manifest

CFG = SamplingConfig(samples=24, seed=23)
build = partial(build_on_box, sampling=CFG)


# -------------------------------------------------------------- ricci relation

def test_ricci_residual_fields_vanish_on_parabolic():
    S = build("x^2", ("0", "1", "0"))
    fields = ricci_residual_fields(S)
    assert len(fields) == 6
    for field in fields:
        assert is_identically_zero(field, S.domain)


def test_eta_einstein_parabolic():
    S = build("x^2", ("0", "1", "0"))
    v = eta_einstein_check(S)
    assert v.is_eta_einstein
    assert abs(v.a - 1.0) <= 1e-12
    assert abs(v.b + 1.0) <= 1e-12
    assert not v.check.fails and v.check.routes[1].holds
    assert v.fxx_nonzero
    assert v.segre.kind == "type11_1_degenerate"
    assert v.xi_matches_N in (1, -1)


def test_eta_einstein_with_mixed_term():
    # f = x^2 + y*z keeps the discriminant degenerate
    S = build("x^2 + y*z", ("0", "1", "0"))
    v = eta_einstein_check(S)
    assert v.is_eta_einstein and not v.check.fails
    assert abs(v.a - 1.0) <= 1e-12 and abs(v.b + 1.0) <= 1e-12


def test_eta_einstein_negative_sign_branch():
    # xi2 = -1 flips the eigenvector matching sign
    S = build("x^2", ("0", "-1", "0"))
    v = eta_einstein_check(S)
    assert v.is_eta_einstein and not v.check.fails


def test_eta_einstein_requires_alignment():
    # f = (x + y)^2 has degenerate discriminant but needs xi1 = -f_xy/f_xx = -1
    aligned = build("(x + y)^2", ("-1", "1", "0"))
    assert eta_einstein_check(aligned).is_eta_einstein
    misaligned = build("(x + y)^2", ("0", "1", "0"))
    v = eta_einstein_check(misaligned)
    assert not v.is_eta_einstein
    assert not v.check.fails
    assert "xi1" in v.check.detail


def test_not_eta_einstein_when_discriminant_splits():
    S = build("x^2 + y^2", ("0", "1", "0"))
    v = eta_einstein_check(S)
    assert not v.is_eta_einstein
    assert not v.check.fails
    assert "discriminant" in v.check.detail


def test_flat_is_not_eta_einstein():
    S = build("y*z", ("0", "1", "0"))
    v = eta_einstein_check(S)
    assert not v.is_eta_einstein
    assert not v.check.fails
    assert not v.fxx_nonzero


def test_degenerate_quotient_raises_with_witness():
    # f_xx = 2(y - 1.25)^2 vanishes on an interior slice without being
    # identically zero, so the eigenvector quotient f_xy/f_xx is undefined
    # there and the check must refuse rather than guess
    S = build("x^2 * (y - 1.25)^2", ("0", "1", "0"),
              sampling=SamplingConfig(samples=24, seed=23, tol=1e-2))
    with pytest.raises(DegenerateInputError) as info:
        eta_einstein_check(S)
    assert info.value.witness is not None


def test_wrong_reeb_shape_fails_coordinate_route():
    m = load_fixture("g6g10-almost-alpha")
    v = eta_einstein_check(m.build())
    assert not v.is_eta_einstein
    assert "xi3" in v.check.detail


# -------------------------------------------------------------- equivalences

def test_equivalences_all_true_on_parabolic():
    S = build("x^2", ("0", "1", "0"))
    rep = curvature_equivalences(S)
    assert not rep.check.fails
    assert all(rep.flags.values())
    assert set(rep.flags) == {
        "ricci_operator_commutes_with_phi",
        "flat_or_eta_einstein",
        "curvature_commutes_with_phi",
        "ricci_anti_invariant_under_phi",
        "curvature_annihilates_reeb",
    }
    assert not rep.mixed


def test_equivalences_all_true_on_flat():
    S = build("y*z", ("0", "1", "0"))
    rep = curvature_equivalences(S)
    assert not rep.check.fails
    assert all(rep.flags.values())
    assert flatness(S.manifold).flat
    assert not eta_einstein_check(S).is_eta_einstein


def test_equivalences_all_false_on_mix56():
    m = load_fixture("g5g6-normal")
    rep = curvature_equivalences(m.build())
    assert not rep.check.fails
    assert not any(rep.flags.values())


def test_equivalences_agree_across_fixtures():
    for name in ("g0-parallel", "g10-almost-paracosymplectic", "g12-pure",
                 "paracontact-exponential"):
        m = load_fixture(name)
        rep = curvature_equivalences(m.build())
        assert not rep.check.fails, name
        assert len(set(rep.flags.values())) == 1


# ----------------------------------------------------------------- sectional

def sectional_at(S, X, point):
    """K (the Reeb plane first) and the degenerate flags of the one plane
    pair of direction X at a point: entry [0, 0] of its batch of one."""
    K, degenerate = sectional_profile(S, np.array([point]), [[X]])
    return K[0, 0], degenerate[0, 0]


def test_sectional_parabolic_values():
    S = build("x^2", ("0", "1", "0"))
    one = np.array([(1.0, 1.0, 1.0)])
    (K_xi, K_phi), degenerate = sectional_at(S, (0.0, 0.0, 1.0), one[0])
    assert abs(K_xi) <= 1e-12
    assert abs(K_phi + 1.0) <= 1e-12
    scal = eval_jet(S.manifold.f, one, 2).derivative((2, 0, 0))[..., 0]
    assert abs(scal - 2.0) <= 1e-12
    assert not degenerate.any()


def test_sectional_direction_along_reeb_degenerates():
    S = build("x^2", ("0", "1", "0"))
    _, degenerate = sectional_at(S, (0.0, 1.0, 0.0), (1.0, 1.0, 1.0))
    assert degenerate.all()


def test_sectional_invariant_under_reeb_component():
    # X and X + c xi span the same horizontal data
    S = build("x^2", ("0", "1", "0"))
    K1, _ = sectional_at(S, (0.3, 0.0, 1.0), (1.2, 0.8, 1.5))
    K2, _ = sectional_at(S, (0.3, 5.0, 1.0), (1.2, 0.8, 1.5))
    assert abs(K1[1] - K2[1]) <= 1e-10
    assert abs(K1[0] - K2[0]) <= 1e-10


# A report reads the representative point pts[0] as column 0 of its sample's
# arrays; the point's batch of one must give the same bits there, at sample
# sizes for which numpy's batched kernels take their small-batch and long
# paths.
REPRESENTATIVE_SAMPLES = [1, 3, 64, 512]

DIRECTIONS = {"d_z": (0.0, 0.0, 1.0), "d_y": (0.0, 1.0, 0.0),
              "d_x": (1.0, 0.0, 0.0), "d_x + d_y + d_z": (1.0, 1.0, 1.0)}


def bits(value):
    return None if value is None else float(value).hex()


# On the fixtures every R(u, v, v, u) sum at pts[0] comes out exact in any
# order. The dense-curvature manifest's curvature is dense there, so a change
# of summation order in the sectional kernel changes the bits of K_xi. It is
# test data only: the benchmark checks every corpus fixture against recorded
# digests.
MANIFESTS = {fixture.name: fixture.manifest_text for fixture in FIXTURES}
MANIFESTS["dense-curvature"] = read_manifest("dense-curvature")


@pytest.mark.parametrize("samples", REPRESENTATIVE_SAMPLES)
@pytest.mark.parametrize("name", list(MANIFESTS))
def test_report_sectional_curvatures_are_the_pointwise_ones(name, samples):
    S = parse_manifest(MANIFESTS[name]).build(samples=samples)
    report = build_report(S, name=name)
    assert report.exit_status == 0
    section = report.curvature["sectional"]
    point = tuple(S.domain.sample()[0])
    X = DIRECTIONS[section["direction"]]
    K, degenerate = sectional_at(S, X, point)
    assert tuple(degenerate) == (section["xi_plane_degenerate"],
                                 section["phi_plane_degenerate"])
    for plane, key in enumerate(("K_xi", "K_phi")):
        want = None if degenerate[plane] else bits(K[plane])
        assert want == bits(section[key])
    if not degenerate[0]:
        assert bits(reference_k_xi(S, point, X)) == bits(section["K_xi"])


def reference_k_xi(S, point, X):
    """K(X_h, xi) at a point, summed as the sectional kernel sums it:
    R(u, v, v, u) by one einsum without optimize, over the Gram
    determinant of the plane."""
    frame = frame_at(S, point)
    R = curvature_from_jet(
        eval_jet(S.manifold.f, np.array([point], dtype=float), 2))[..., 0]
    g, xi = frame.g, frame.xi_vec
    u = np.asarray(X, dtype=float)
    u = u - (frame.eta_vec @ u) * xi
    guu, gvv, guv = float(u @ g @ u), float(xi @ g @ xi), float(u @ g @ xi)
    pair = float(np.einsum("i,j,k,ijkl,lm,m->", u, xi, xi, R, g, u))
    return pair / (guu * gvv - guv * guv)


@pytest.mark.parametrize("samples", REPRESENTATIVE_SAMPLES)
@pytest.mark.parametrize("name", list(MANIFESTS))
def test_profile_entries_are_the_batch_of_one(name, samples):
    # every entry of one points x directions call has the bits of the
    # batch of one at its point and direction
    S = parse_manifest(MANIFESTS[name]).build(samples=samples)
    pts = S.domain.sample()
    draws = PCG64Stream(7).uniform(-1.0, 1.0, (min(5, len(pts)), 8, 3))
    K, degenerate = sectional_profile(S, pts, draws)
    assert K.shape == degenerate.shape == draws.shape[:2] + (2,)
    for k, directions in enumerate(draws):
        for d, X in enumerate(directions):
            K_one, flags = sectional_at(S, X, pts[k])
            assert tuple(flags) == tuple(degenerate[k, d]), (k, d)
            for plane in (0, 1):
                if not flags[plane]:
                    assert bits(K_one[plane]) == bits(K[k, d, plane]), (
                        k, d, plane)


# the report's four candidates at pts[0]: the pick is the first whose two
# planes are nondegenerate, else the last; a non-finite K is refused only
# up to the pick, the candidates the report would have tried one by one,
# and the first in candidate, then Reeb-before-phi order is named
PICKS = [
    # (candidates with a degenerate Reeb plane, non-finite entries
    # (candidate, plane), the plane named or None)
    ((), [(1, 0)], None),
    ((), [(3, 1), (2, 0)], None),
    ((), [(0, 0)], "K_xi"),
    ((0,), [(0, 1)], "K_phi"),
    ((0,), [(1, 0), (0, 1)], "K_phi"),
    ((0, 1), [(2, 1), (2, 0)], "K_xi"),
    ((0, 1, 2), [(3, 0)], "K_xi"),
    ((0, 1, 2, 3), [(3, 1)], "K_phi"),
]


@pytest.mark.parametrize("degenerate_at, bad, named", PICKS)
def test_the_pick_refuses_a_non_finite_k_up_to_the_pick(
        monkeypatch, degenerate_at, bad, named):
    S = parse_manifest(MANIFESTS["eta-einstein-parabolic"]).build(samples=3)
    pts = S.domain.sample()
    K, degenerate = np.full((1, 4, 2), -1.0), np.zeros((1, 4, 2), bool)
    degenerate[0, list(degenerate_at), 0] = True
    for candidate, plane in bad:   # a non-finite K on a nondegenerate plane
        K[0, candidate, plane] = np.nan
        degenerate[0, candidate, plane] = False

    def profile(S_, pts_, X):
        assert S_ is S and pts_ is pts and np.shape(X) == (1, 4, 3)
        return K, degenerate

    monkeypatch.setattr(report, "sectional_profile", profile)
    if named is None:
        assert report._pick_direction(S, pts)[0] == "d_z"
        return
    with pytest.raises(EvaluationError) as caught:
        report._pick_direction(S, pts)
    assert caught.value.subexpression == named
    assert caught.value.point == tuple(float(c) for c in pts[0])


@pytest.mark.parametrize("samples", REPRESENTATIVE_SAMPLES)
def test_xi_matches_n_is_the_pointwise_comparison(samples):
    S = load_fixture("eta-einstein-parabolic").build(samples=samples)
    verdict = eta_einstein_check(S)
    point = tuple(S.domain.sample()[0])
    # the comparison at the point, from the frame there
    n = segre_type(S.manifold, np.array([point])).n_vector
    xi = frame_at(S, point).xi_vec
    allowed = S.domain.sampling.tol * (1.0 + np.abs(n).max() + np.abs(xi).max())
    signs = [sign for sign in (1, -1) if np.abs(xi - sign * n).max() <= allowed]
    assert signs and verdict.xi_matches_N == signs[0]


# -------------------------------------------------------------------- profile
# An eta-Einstein structure has constant scalar curvature C = 2a, a = -b =
# C / 2, zero Reeb-plane and constant phi-plane sectional curvature -C / 2,
# and is paracosymplectic exactly when `eta_einstein_discriminant` vanishes,
# else almost paracosymplectic.

def profile_draws(S) -> np.ndarray:
    """50 directions at each of the first five sample points, components
    uniform on [-1, 1] from the sample's seed + 1."""
    return PCG64Stream(S.domain.sampling.seed + 1).uniform(
        -1.0, 1.0, (min(5, len(S.domain.sample())), 50, 3))


def profile_planes(S) -> tuple[np.ndarray, np.ndarray]:
    """K of the nondegenerate Reeb planes and of the nondegenerate
    phi-planes along `profile_draws`, from one `sectional_profile` call,
    in point, then direction order."""
    K, degenerate = sectional_profile(S, S.domain.sample(), profile_draws(S))
    return K[..., 0][~degenerate[..., 0]], K[..., 1][~degenerate[..., 1]]


def splits_by_discriminant(S) -> bool:
    """Whether the named classes put S in paracosymplectic exactly when
    the discriminant vanishes, and in almost paracosymplectic otherwise."""
    disc = is_identically_zero(eta_einstein_discriminant(S.manifold.f),
                               S.domain)
    named = named_classes(S).named
    return (named["paracosymplectic"].holds == disc.holds
            and named["almost_paracosymplectic"].holds == (not disc.holds))


def test_profile_parabolic():
    S = build("x^2", ("0", "1", "0"))
    v = eta_einstein_check(S)
    assert v.is_eta_einstein
    assert scalar_curvature_constant(S.manifold) and abs(2 * v.a - 2.0) <= 1e-12
    assert abs(v.a - 1.0) <= 1e-12 and abs(v.b + 1.0) <= 1e-12
    k_xi, k_phi = profile_planes(S)
    assert np.abs(k_xi).max(initial=0.0) <= 1e-9
    assert abs(k_phi.mean() + 1.0) <= 1e-9
    assert k_phi.var() <= 1e-9
    assert is_identically_zero(eta_einstein_discriminant(S.manifold.f),
                               S.domain)
    assert splits_by_discriminant(S)


@pytest.mark.parametrize("samples", REPRESENTATIVE_SAMPLES)
@pytest.mark.parametrize("f", ["x^2", "x^2 + y*z"])
def test_profile_is_the_pointwise_sectional_curvatures(f, samples):
    # the profile reads each probe point's column of the sample; the
    # batches of one on the same draws give the same bits
    S = build(f, ("0", "1", "0"), sampling=SamplingConfig(samples=samples))
    k_xi, k_phi = profile_planes(S)
    one_xi, one_phi = [], []
    for p, directions in zip(S.domain.sample(), profile_draws(S)):
        for X in directions:
            K, degenerate = sectional_at(S, X, p)
            if not degenerate[0]:
                one_xi.append(abs(K[0]))
            if not degenerate[1]:
                one_phi.append(K[1])
    assert one_phi
    assert bits(np.abs(k_xi).max(initial=0.0)) == bits(max(one_xi, default=0.0))
    assert bits(k_phi.mean()) == bits(np.mean(one_phi))
    assert bits(k_phi.var()) == bits(np.var(one_phi))


def test_profile_detects_almost_paracosymplectic():
    S = build("x^2 + y*z", ("0", "1", "0"))
    assert eta_einstein_check(S).is_eta_einstein
    assert scalar_curvature_constant(S.manifold)
    assert not is_identically_zero(eta_einstein_discriminant(S.manifold.f),
                                   S.domain)
    assert splits_by_discriminant(S)
    assert profile_planes(S)[1].var() <= 1e-9


def test_profile_not_applicable_without_eta_einstein():
    S = build("x^2 + y^2", ("0", "1", "0"))
    v = eta_einstein_check(S)
    assert not v.is_eta_einstein
    assert v.a is None
