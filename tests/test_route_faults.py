"""Fault injection: a route that goes wrong must surface as an exit-3
failure that says where and by how much.

Each case perturbs one route on a fixture that reaches its check: the
residual that route tests gets 10 * tol * (1 + scale) added at one sample
row, ROW, and nowhere else. The other routes of the check still hold, so
the check fails; its failure must name the check, give that row of the
sample as the witness (the first row where the faulted residual exceeds
its bound) and give the faulted route's residual as the magnitude.

The routes are perturbed where their residual is formed: an array kernel
of the component split (faulted output), a symbolic field's sampled zero
test, or the per-point residual handed to a zero test of the curvature
chain or of the report's jet route for a strict Walker metric.

A formula that the symbolic and the jet route share is written once, so a
fault in it reaches both uses; each must still be caught by a statement
that does not call it. The formula-fault cases flip one term of each
shared formula and expect exit 3 naming the check that compares it with
its independent statement.
"""

import json

import numpy as np
import pytest

from walkergeo import classify, curvature, ftensor
from walkergeo import report as report_module
from walkergeo.cli import main
from walkergeo.corpus import load_fixture
from walkergeo.expressions import evaluate_with_scale, gradient
from walkergeo.report import build_report
from walkergeo.sampling import zero_verdict_from_samples

ROW = 5


def bumped(values, scales, tol):
    """A copy of values (points last) with 10 * tol * (1 + scale) added to
    its first component at ROW."""
    values = np.array(values, dtype=float)
    values.reshape(-1, values.shape[-1])[0, ROW] += 10 * tol * (1 + scales[ROW])
    return values


def kernel(name):
    """Fault the classify array kernel `name(S, batch)`; the route's
    verdict is the zero test named_classes applies to it."""
    def install(monkeypatch, S):
        original, seen = getattr(classify, name), []

        def faulted(S, batch):
            out = bumped(original(S, batch), batch.scale, S.domain.sampling.tol)
            seen.append(zero_verdict_from_samples(
                out, batch.scale, batch.points, S.domain.sampling.tol))
            return out
        monkeypatch.setattr(classify, name, faulted)
        return seen
    return install


def field(module, pick):
    """Fault the sampled zero test, in `module`, of the field pick(S)."""
    def install(monkeypatch, S):
        original, target, seen = module.is_identically_zero, pick(S), []

        def faulted(e, domain):
            if e is not target:
                return original(e, domain)
            pts, tol = domain.sample(), domain.sampling.tol
            values, scales = evaluate_with_scale(e, pts)
            scales = np.broadcast_to(scales, (len(pts),))
            values = bumped(np.broadcast_to(values, (len(pts),)), scales, tol)
            seen.append(zero_verdict_from_samples(values, scales, pts, tol))
            return seen[-1]
        monkeypatch.setattr(module, "is_identically_zero", faulted)
        return seen
    return install


def first_zero_test(module):
    """Fault the first per-point residual `module` hands to a zero test:
    in curvature, the first statement of the equivalence chain, the Ricci
    operator commuting with phi; in report, the f_x of f's jet, the second
    route of strict_walker."""
    def install(monkeypatch, S):
        original, seen = module.zero_verdict_from_samples, []

        def faulted(values, scales, pts, tol):
            if not seen:
                values = bumped(values, scales, tol)
                seen.append(original(values, scales, pts, tol))
                return seen[-1]
            return original(values, scales, pts, tol)
        monkeypatch.setattr(module, "zero_verdict_from_samples", faulted)
        return seen
    return install


def drift(S):
    """The z-drift of xi1 in the coordinate conditions for xi2 = +1."""
    return classify._setting_fields(S, 1)[2]


def scaled_null_condition(S):
    """f_z + f f_x, a coordinate condition for a Reeb field along dz."""
    f = S.manifold.f
    fx, _, fz = gradient(f)
    return fz + f * fx


CASES = [
    ("g0-parallel", "classification:paracosymplectic",
     kernel("d_eta_coordinate_batch")),
    ("g10-almost-paracosymplectic", "classification:almost_paracosymplectic",
     kernel("d_eta_coordinate_batch")),
    ("g6g10-almost-alpha", "classification:almost_alpha_paracosymplectic",
     kernel("d_eta_coordinate_batch")),
    ("g0-parallel", "classification:paracosymplectic [xi3 = 0, xi2 = +1]",
     field(classify, drift)),
    ("g6g10-almost-alpha",
     "classification:almost_alpha_paracosymplectic [reeb along dz]",
     field(classify, scaled_null_condition)),
    # the numeric route holds; the symbolic one is faulted
    ("paracontact-exponential", "paracontact_routes",
     field(classify, lambda S: classify.paracontact_condition_fields(S)[0])),
    ("eta-einstein-parabolic", "eta_einstein_routes",
     field(curvature, lambda S: curvature.ricci_residual_fields(S)[5])),
    ("eta-einstein-parabolic", "curvature_equivalences",
     first_zero_test(curvature)),
    # f = y z is strict Walker; g0-parallel's f = x is not, so its jet
    # route already fails at the first row
    ("flat-bilinear", "strict_walker_routes", first_zero_test(report_module)),
    # the closed theta(xi) - 2 and the first partial of theta*(xi); the
    # numeric trace form and the divergence's jet hold
    ("paracontact-exponential", "g5bar_routes",
     field(classify, lambda S: ftensor.theta_xi_field(S) - 2)),
    ("paracontact-exponential", "theta_star_constant_routes",
     field(classify, lambda S: gradient(ftensor.theta_star_xi_field(S))[0])),
]


@pytest.mark.parametrize("fixture, check, install", CASES,
                         ids=[f"{check}@{fixture}" for fixture, check, _ in CASES])
def test_a_faulted_route_fails_with_its_witness_and_residual(
        monkeypatch, fixture, check, install):
    S = load_fixture(fixture).build()
    pts, tol = S.domain.sample(), S.domain.sampling.tol
    seen = install(monkeypatch, S)
    report = build_report(S, name=fixture)

    assert report.exit_status == 3
    failures = {entry["check"]: entry for entry in report.failures}
    assert check in failures, sorted(failures)
    entry = failures[check]
    faulted = seen[-1]
    assert not faulted.holds
    # the witness is the sample row where the faulted residual first
    # exceeds its bound, and only ROW was perturbed
    assert faulted.witness == tuple(pts[ROW])
    assert entry["witness"] == [float(c) for c in pts[ROW]]
    assert entry["magnitude"] == faulted.residual
    assert tol < entry["magnitude"] != 1.0


def test_a_disagreement_names_the_check_and_both_answers(monkeypatch, capsys):
    # a Reeb field made Killing (L_xi g = 0) on a paracontact structure: the
    # cross route of K-paracontact (paracontact and Killing) holds, while
    # its deciding route, para-Sasakian, fails as the structure is not normal
    monkeypatch.setattr(classify, "lie_g_batch",
                        lambda S, batch: np.zeros((3, 3, len(batch.scale))))
    argv = ["examples", "run", "paracontact-exponential", "--samples", "64",
            "--report"]
    detail = "para-Sasakian route vs. paracontact with Killing Reeb field"
    assert main([*argv, "machine"]) == 3
    tree = json.loads(capsys.readouterr().out)
    assert [entry["check"] for entry in tree["failures"]] == [
        "classification:k_paracontact"]
    assert tree["route_agreement"]["disagreements"] == [
        {"check": "k_paracontact", "primary": False, "cross": True,
         "detail": detail}]

    assert main([*argv, "text"]) == 3
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("  disagreements:")
    assert lines[start:start + 5] == [
        "  disagreements:",
        '    - check: "k_paracontact"',
        "      primary: false",
        "      cross: true",
        f'      detail: "{detail}"',
    ]


COEFFICIENTS = ftensor._coefficients


def flipped_coefficients(*args):
    """The nine coefficients with the sign of F(d_y, d_x, d_y) = d_y xi3,
    a single term, flipped."""
    coeffs = list(COEFFICIENTS(*args))
    a, b, c, value = coeffs[3]
    coeffs[3] = (a, b, c, -value)
    return tuple(coeffs)


def flipped_residual(rho, g, eta, fxx):
    """The eta-Einstein residual with the sign of its a g term flipped."""
    a = fxx / 2
    return tuple(rho[i, j] + a * g[i, j] + a * eta[i] * eta[j]
                 for i, j in curvature._UPPER)


FORMULA_FAULTS = [
    # checked by the connection route
    ("paracontact-exponential", "structure_tensor_routes",
     ftensor, "_coefficients", flipped_coefficients),
    # checked by d(eta) contracted out of F
    ("paracontact-exponential", "exterior_derivative_routes",
     ftensor, "_d_eta", lambda eta_d: (eta_d + eta_d.swapaxes(0, 1)) / 2),
    # the factor 2 dropped; checked by the component split
    ("g5g6-normal", "normality_routes", ftensor, "_normality_defect",
     lambda nij, d_eta, xi: nij - np.einsum("ij...,k...->ijk...", d_eta, xi)),
    # checked by the coordinate characterization
    ("eta-einstein-parabolic", "eta_einstein_routes",
     curvature, "eta_einstein_residual", flipped_residual),
]


@pytest.mark.parametrize(
    "fixture, check, module, name, fault", FORMULA_FAULTS,
    ids=[f"{name}@{fixture}" for fixture, _, _, name, _ in FORMULA_FAULTS])
def test_a_faulted_shared_formula_fails_its_check(
        monkeypatch, fixture, check, module, name, fault):
    S = load_fixture(fixture).build()
    monkeypatch.setattr(module, name, fault)
    report = build_report(S, name=fixture)

    assert report.exit_status == 3
    assert check in [entry["check"] for entry in report.failures]
