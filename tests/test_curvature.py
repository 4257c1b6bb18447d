import numpy as np
import pytest

from walkergeo.classify import named_classes
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.curvature import (
    curvature_equivalences,
    eta_einstein_check,
    eta_einstein_report,
    ricci_residual_fields,
    sectional_curvatures,
)
from walkergeo.errors import DegenerateInputError
from walkergeo.expressions import parse
from walkergeo.manifest import parse_manifest
from walkergeo.report import build_report
from walkergeo.sampling import Domain, Interval, SamplingConfig, is_identically_zero
from walkergeo.structure import build_structure
from walkergeo.walker import WalkerManifold, curvature_at, segre_type
from write_reports import read_manifest

BOX = Domain((Interval(0.5, 2.0), Interval(0.5, 2.0), Interval(0.5, 2.0)))
CFG = SamplingConfig(samples=24, seed=23)


def build(f, xi, cfg=CFG):
    M = WalkerManifold(parse(f), 1, BOX)
    return build_structure(M, tuple(parse(c) for c in xi), cfg)


# -------------------------------------------------------------- ricci relation

def test_ricci_residual_fields_vanish_on_parabolic():
    S = build("x^2", ("0", "1", "0"))
    fields = ricci_residual_fields(S)
    assert len(fields) == 6
    for field in fields:
        assert is_identically_zero(field, S.domain, CFG)


def test_eta_einstein_parabolic():
    S = build("x^2", ("0", "1", "0"))
    v = eta_einstein_check(S, CFG)
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
    v = eta_einstein_check(S, CFG)
    assert v.is_eta_einstein and not v.check.fails
    assert abs(v.a - 1.0) <= 1e-12 and abs(v.b + 1.0) <= 1e-12


def test_eta_einstein_negative_sign_branch():
    # xi2 = -1 flips the eigenvector matching sign
    S = build("x^2", ("0", "-1", "0"))
    v = eta_einstein_check(S, CFG)
    assert v.is_eta_einstein and not v.check.fails


def test_eta_einstein_requires_alignment():
    # f = (x + y)^2 has degenerate discriminant but needs xi1 = -f_xy/f_xx = -1
    aligned = build("(x + y)^2", ("-1", "1", "0"))
    assert eta_einstein_check(aligned, CFG).is_eta_einstein
    misaligned = build("(x + y)^2", ("0", "1", "0"))
    v = eta_einstein_check(misaligned, CFG)
    assert not v.is_eta_einstein
    assert not v.check.fails
    assert "xi1" in v.check.detail


def test_not_eta_einstein_when_discriminant_splits():
    S = build("x^2 + y^2", ("0", "1", "0"))
    v = eta_einstein_check(S, CFG)
    assert not v.is_eta_einstein
    assert not v.check.fails
    assert "discriminant" in v.check.detail


def test_flat_is_not_eta_einstein():
    S = build("y*z", ("0", "1", "0"))
    v = eta_einstein_check(S, CFG)
    assert not v.is_eta_einstein
    assert not v.check.fails
    assert not v.fxx_nonzero


def test_degenerate_quotient_raises_with_witness():
    # f_xx = 2(y - 1.25)^2 vanishes on an interior slice without being
    # identically zero, so the eigenvector quotient f_xy/f_xx is undefined
    # there and the check must refuse rather than guess
    cfg = SamplingConfig(samples=24, seed=23, tol=1e-2)
    S = build("x^2 * (y - 1.25)^2", ("0", "1", "0"), cfg=cfg)
    with pytest.raises(DegenerateInputError) as info:
        eta_einstein_check(S, cfg)
    assert info.value.witness is not None


def test_wrong_reeb_shape_fails_coordinate_route():
    m = load_fixture("g6g10-almost-alpha")
    v = eta_einstein_check(m.build(), m.sampling)
    assert not v.is_eta_einstein
    assert "xi3" in v.check.detail


# -------------------------------------------------------------- equivalences

def test_equivalences_all_true_on_parabolic():
    S = build("x^2", ("0", "1", "0"))
    rep = curvature_equivalences(S, CFG)
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
    rep = curvature_equivalences(S, CFG)
    assert not rep.check.fails
    assert all(rep.flags.values())
    assert rep.flat.flat
    assert not rep.eta_einstein.is_eta_einstein


def test_equivalences_all_false_on_mix56():
    m = load_fixture("g5g6-normal")
    rep = curvature_equivalences(m.build(), m.sampling)
    assert not rep.check.fails
    assert not any(rep.flags.values())


def test_equivalences_agree_across_fixtures():
    for name in ("g0-parallel", "g10-almost-paracosymplectic", "g12-pure",
                 "paracontact-exponential"):
        m = load_fixture(name)
        rep = curvature_equivalences(m.build(), m.sampling)
        assert not rep.check.fails, name
        assert len(set(rep.flags.values())) == 1


# ----------------------------------------------------------------- sectional

def test_sectional_parabolic_values():
    S = build("x^2", ("0", "1", "0"))
    rep = sectional_curvatures(S, np.array([0.0, 0.0, 1.0]), (1.0, 1.0, 1.0))
    assert abs(rep.K_xi) <= 1e-12
    assert abs(rep.K_phi + 1.0) <= 1e-12
    assert abs(rep.scal - 2.0) <= 1e-12
    assert not rep.xi_plane_degenerate
    assert not rep.phi_plane_degenerate


def test_sectional_direction_along_reeb_degenerates():
    S = build("x^2", ("0", "1", "0"))
    rep = sectional_curvatures(S, np.array([0.0, 1.0, 0.0]), (1.0, 1.0, 1.0))
    assert rep.xi_plane_degenerate and rep.phi_plane_degenerate
    assert rep.K_xi is None and rep.K_phi is None


def test_sectional_invariant_under_reeb_component():
    # X and X + c xi span the same horizontal data
    S = build("x^2", ("0", "1", "0"))
    r1 = sectional_curvatures(S, np.array([0.3, 0.0, 1.0]), (1.2, 0.8, 1.5))
    r2 = sectional_curvatures(S, np.array([0.3, 5.0, 1.0]), (1.2, 0.8, 1.5))
    assert abs(r1.K_phi - r2.K_phi) <= 1e-10
    assert abs(r1.K_xi - r2.K_xi) <= 1e-10


# A report reads the representative point pts[0] as column 0 of its sample's
# arrays; the pointwise API must give the same bits there, at sample sizes
# for which numpy's batched kernels take their small-batch and long paths.
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
    point = tuple(S.sample_points()[0])
    rep = sectional_curvatures(S, DIRECTIONS[section["direction"]], point)
    assert bits(rep.K_xi) == bits(section["K_xi"])
    assert bits(rep.K_phi) == bits(section["K_phi"])
    assert rep.xi_plane_degenerate == section["xi_plane_degenerate"]
    assert rep.phi_plane_degenerate == section["phi_plane_degenerate"]
    if not rep.xi_plane_degenerate:
        X = DIRECTIONS[section["direction"]]
        assert bits(reference_k_xi(S, point, X)) == bits(section["K_xi"])


def reference_k_xi(S, point, X):
    """K(X_h, xi) at a point, summed as the sectional kernel sums it:
    R(u, v, v, u) by one einsum without optimize, over the Gram
    determinant of the plane."""
    frame = S.frame(point)
    R = curvature_at(S.manifold, point).components
    g, xi = frame.g, frame.xi_vec
    u = np.asarray(X, dtype=float)
    u = u - (frame.eta_vec @ u) * xi
    guu, gvv, guv = float(u @ g @ u), float(xi @ g @ xi), float(u @ g @ xi)
    pair = float(np.einsum("i,j,k,ijkl,lm,m->", u, xi, xi, R, g, u))
    return pair / (guu * gvv - guv * guv)


@pytest.mark.parametrize("samples", REPRESENTATIVE_SAMPLES)
def test_xi_matches_n_is_the_pointwise_comparison(samples):
    S = load_fixture("eta-einstein-parabolic").build(samples=samples)
    verdict = curvature_equivalences(S).eta_einstein
    point = tuple(S.sample_points()[0])
    # the comparison at the point, from the frame there
    n = segre_type(S.manifold, point, S.config).n_vector
    xi = S.frame(point).xi_vec
    allowed = S.config.tol * (1.0 + np.abs(n).max() + np.abs(xi).max())
    signs = [sign for sign in (1, -1) if np.abs(xi - sign * n).max() <= allowed]
    assert signs and verdict.xi_matches_N == signs[0]


# -------------------------------------------------------------------- profile

def test_profile_parabolic():
    S = build("x^2", ("0", "1", "0"))
    prof = eta_einstein_report(S, CFG)
    assert prof.verdict.is_eta_einstein
    assert prof.scal_constant and abs(2 * prof.verdict.a - 2.0) <= 1e-12
    assert (abs(prof.verdict.a - 1.0) <= 1e-12
            and abs(prof.verdict.b + 1.0) <= 1e-12)
    assert prof.k_xi_max <= 1e-9
    assert abs(prof.k_phi_value + 1.0) <= 1e-9
    assert prof.k_phi_variance <= 1e-9
    assert prof.discriminant.holds
    assert prof.matches_named_classes


def test_profile_detects_almost_paracosymplectic():
    S = build("x^2 + y*z", ("0", "1", "0"))
    prof = eta_einstein_report(S, CFG)
    assert prof.verdict.is_eta_einstein
    assert prof.scal_constant
    assert not prof.discriminant.holds
    assert not prof.discriminant.holds
    assert prof.matches_named_classes
    assert prof.k_phi_variance <= 1e-9


def test_profile_not_applicable_without_eta_einstein():
    S = build("x^2 + y^2", ("0", "1", "0"))
    prof = eta_einstein_report(S, CFG)
    assert not prof.verdict.is_eta_einstein
    assert prof.verdict.a is None
