"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Every test prints exactly one `[criterion N] PASS/FAIL` line (visible with
-v via the test name, and in captured output on failure) and asserts the
collected problem list is empty, so a partial failure still reports which
guarantee broke and why.
"""

import numpy as np

from geometry_oracles import (
    christoffel_oracle,
    curvature_oracle,
    d_fundamental_batch,
    eta_einstein_discriminant,
    eta_wedge_fundamental_batch,
    metric_fn,
    paracontact_family,
    random_points,
)
from walkergeo.classify import (
    classify_basic,
    is_normal,
    is_paracontact_metric,
    named_classes,
)
from walkergeo.cli import main
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.curvature import (
    curvature_equivalences,
    eta_einstein_check,
    sectional_profile,
)
from walkergeo.expressions import parse
from walkergeo.ftensor import (
    d_eta_batch,
    d_eta_coordinate_batch,
    exterior_data_at,
    f_tensor_at,
    fundamental_form_batch,
    split_components_batch,
    theta_forms,
)
from walkergeo.jets import eval_jet
from walkergeo.sampling import (
    Domain, Interval, PCG64Stream, SamplingConfig, is_identically_zero,
)
from walkergeo.structure import build_structure
from walkergeo.walker import (
    WalkerManifold,
    christoffel_from_jet,
    curvature_from_jet,
    metric_arrays,
    ricci_from_jet,
    scalar_curvature_constant,
    segre_type,
)

BOX = Domain((Interval(0.5, 2.0), Interval(0.5, 2.0), Interval(0.5, 2.0)))
BOX16 = BOX._replace(sampling=SamplingConfig(samples=16, seed=3))


def conclude(number, label, problems):
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {number}] {status}: {label}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def built(name, samples=64, seed=42):
    m = load_fixture(name)
    return m.build(samples=samples, seed=seed)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_example_corpus_classifies_as_documented():
    problems = []

    # (i) parallel structure: no components, paracosymplectic, F == 0
    S = built("g0-parallel")
    v = named_classes(S)
    if v.basic.members:
        problems.append(f"(i) members {set(v.basic.members)}, wanted none")
    if not v.named["paracosymplectic"]:
        problems.append("(i) not paracosymplectic")
    batch = split_components_batch(S, S.domain.sample())
    top = float(np.abs(batch.tensor).max())
    if top > 1e-9:
        problems.append(f"(i) structure tensor max |F| = {top:.2e}")

    # (ii) normal G5 + G6 mix with both trace forms equal to -1/y
    S = built("g5g6-normal")
    v = named_classes(S)
    if set(v.basic.members) != {"G5", "G6"}:
        problems.append(f"(ii) members {set(v.basic.members)}")
    if not v.normality.is_normal:
        problems.append("(ii) not normal")
    pts = S.domain._replace(
        sampling=SamplingConfig(samples=100, seed=11)).sample()
    b = split_components_batch(S, pts)
    want = -1.0 / pts[:, 1]
    for label, got in (("theta", b.theta_xi), ("theta*", b.theta_star_xi)):
        gap = np.abs(got - want) / (1.0 + np.abs(want))
        if gap.max() > 1e-9:
            problems.append(f"(ii) {label} off by {gap.max():.2e}")

    # (iii) pure G10 with vanishing trace forms
    S = built("g10-almost-paracosymplectic")
    v = named_classes(S)
    if set(v.basic.members) != {"G10"}:
        problems.append(f"(iii) members {set(v.basic.members)}")
    if not v.named["almost_paracosymplectic"]:
        problems.append("(iii) not almost paracosymplectic")
    b = split_components_batch(S, S.domain.sample())
    top = max(float(np.abs(b.theta_xi).max()),
              float(np.abs(b.theta_star_xi).max()))
    if top > 1e-9 * (1.0 + float(b.scale.max())):
        problems.append(f"(iii) trace forms reach {top:.2e}")

    # (iv) G6 + G10 with theta* = -1/(2 z sqrt(x/z))
    S = built("g6g10-almost-alpha")
    v = named_classes(S)
    if set(v.basic.members) != {"G6", "G10"}:
        problems.append(f"(iv) members {set(v.basic.members)}")
    pts = S.domain.sample()
    b = split_components_batch(S, pts)
    x, z = pts[:, 0], pts[:, 2]
    want = -1.0 / (2.0 * z * np.sqrt(x / z))
    gap = np.abs(b.theta_star_xi - want) / (1.0 + np.abs(want))
    if gap.max() > 1e-9:
        problems.append(f"(iv) theta* off by {gap.max():.2e}")

    # (v) pure G12: the split returns the whole tensor in the G12 slot
    S = built("g12-pure")
    v = named_classes(S)
    if set(v.basic.members) != {"G12"}:
        problems.append(f"(v) members {set(v.basic.members)}")
    b = split_components_batch(S, S.domain.sample())
    residual = float(np.abs(b.tensor - b.parts["G12"]).max())
    if residual > 1e-9:
        problems.append(f"(v) F - F12 residual {residual:.2e}")

    conclude(1, "example corpus classifies as documented", problems)


# --------------------------------------------------------------- criterion 2

def test_criterion_2_paracontact_family_members_and_perturbation():
    problems = []
    for psi, m in (("z", "0"), ("1", "1")):
        S = paracontact_family(parse(psi), parse(m), BOX16)
        v = is_paracontact_metric(S)
        if not (v.is_paracontact and v.check.routes[1].holds):
            problems.append(f"family psi={psi}, m={m} not paracontact")
        if v.check.fails:
            problems.append(f"family psi={psi}, m={m} routes disagree")

    # perturb the metric function of the psi(z)=z member and rebuild the
    # Reeb field so the unit constraint still holds
    f = parse("2*x + x^2")
    xi3 = parse("exp(z - 2*y)")
    xi1 = (1 - f * xi3**2) / (2 * xi3)
    S = build_structure(WalkerManifold(f, 1, BOX16), (xi1, parse("0"), xi3))
    v = is_paracontact_metric(S)
    if v.is_paracontact or v.check.routes[1].holds:
        problems.append("perturbed member still reported paracontact")
    if v.check.fails:
        problems.append("perturbed member routes disagree")
    witnesses = [c.witness for c in v.conditions if not c.holds]
    if not witnesses and v.check.routes[1].witness is None:
        problems.append("perturbed member rejected without a witness")

    conclude(2, "paracontact family accepted, perturbation rejected "
                "with witness", problems)


# --------------------------------------------------------------- criterion 3

def _random_polynomial(rng, degree, terms):
    monomials = [(i, j, k)
                 for i in range(degree + 1)
                 for j in range(degree + 1)
                 for k in range(degree + 1)
                 if 0 < i + j + k <= degree]
    pieces = []
    chosen = rng.choice(len(monomials), size=min(terms, len(monomials)),
                        replace=False)
    for sel in chosen:
        i, j, k = monomials[int(sel)]
        coef = float(rng.uniform(-1.0, 1.0))
        mono = "*".join(["x"] * i + ["y"] * j + ["z"] * k)
        pieces.append(f"({coef:.6f})*{mono}")
    return parse(" + ".join(pieces))


def test_criterion_3_normal_and_paracontact_exclude_each_other():
    problems = []
    rng = np.random.default_rng(20260815)

    def check(S, label):
        nv = is_normal(S)
        pv = is_paracontact_metric(S)
        if nv.is_normal and pv.is_paracontact:
            problems.append(f"{label} is both normal and paracontact")

    for fixture in FIXTURES:
        check(load_fixture(fixture.name).build(samples=16), fixture.name)

    for trial in range(200):
        f = _random_polynomial(rng, 2, 3)
        if trial % 2 == 0:
            # unit-y shape: xi3 = 0, xi2 = +-1, free xi1
            sign = int(rng.choice((-1, 1)))
            xi = (_random_polynomial(rng, 2, 2), parse(str(sign)), parse("0"))
        else:
            # xi3 bounded away from zero on the box; xi1 forced by the
            # unit constraint
            c = float(rng.uniform(0.5, 2.0))
            slope = float(rng.uniform(-0.2, 0.2))
            xi3 = parse(f"{c:.6f} + ({slope:.6f})*x")
            xi2 = _random_polynomial(rng, 1, 2)
            xi1 = (1 - xi2**2 - f * xi3**2) / (2 * xi3)
            xi = (xi1, xi2, xi3)
        S = build_structure(WalkerManifold(f, 1, BOX16), xi)
        check(S, f"random structure {trial}")

    conclude(3, "normal and paracontact metric never hold together "
                "(corpus + 200 randomized structures)", problems)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_dual_route_agreement():
    problems = []
    worst = 0.0
    for fixture in FIXTURES:
        S = load_fixture(fixture.name).build(samples=64, seed=42)
        pts = S.domain.sample()
        batch = split_components_batch(S, pts)
        norm = 1.0 + batch.scale

        de_coord = d_eta_coordinate_batch(S, batch)
        de_tensor = d_eta_batch(S, batch)
        dfund_tensor = d_fundamental_batch(batch)

        de_jet = np.empty_like(de_coord)
        dfund_jet = np.empty_like(dfund_tensor)
        local = 0.0
        for n, p in enumerate(pts):
            one = np.array([p])
            t = f_tensor_at(S, one)
            local = max(local, float(t.route_discrepancy[..., 0]))
            local = max(local,
                        float(theta_forms(S, one).route_discrepancy[..., 0]))
            ex = exterior_data_at(S, one)
            local = max(local, float(ex.route_discrepancy[..., 0]))
            de_jet[..., n] = ex.d_eta[..., 0]
            dfund_jet[..., n] = ex.d_fundamental[..., 0]

        spread = np.abs(de_coord - de_tensor).reshape(-1, len(pts)).max(0)
        local = max(local, float((spread / norm).max()))
        spread = np.abs(de_jet - de_tensor).reshape(-1, len(pts)).max(0)
        local = max(local, float((spread / norm).max()))
        spread = np.abs(dfund_jet - dfund_tensor).reshape(-1, len(pts)).max(0)
        local = max(local, float((spread / norm).max()))

        worst = max(worst, local)
        if local > 1e-9:
            problems.append(f"{fixture.name}: route discrepancy {local:.2e}")

    conclude(4, f"dual-route agreement over all fixtures x 64 points "
                f"(max discrepancy {worst:.2e})", problems)


# --------------------------------------------------------------- criterion 5

def test_criterion_5_projection_completeness_and_vanishing_laws():
    problems = []
    for fixture in FIXTURES:
        S = load_fixture(fixture.name).build(samples=64, seed=42)
        pts = S.domain.sample()
        batch = split_components_batch(S, pts)
        norm = 1.0 + batch.scale

        total = (batch.parts["G5"] + batch.parts["G6"]
                 + batch.parts["G10"] + batch.parts["G12"])
        residual = np.abs(batch.tensor - total).reshape(-1, len(pts)).max(0)
        if float((residual / norm).max()) > 1e-9:
            problems.append(f"{fixture.name}: four-way residual "
                            f"{(residual / norm).max():.2e}")
        if float(batch.model_defect.max()) > 1e-9:
            problems.append(f"{fixture.name}: model defect "
                            f"{batch.model_defect.max():.2e}")

        members = set(classify_basic(S).members)
        de = d_eta_batch(S, batch)
        fund = fundamental_form_batch(batch)
        dfund = d_fundamental_batch(batch)
        wedge = eta_wedge_fundamental_batch(batch)
        theta = batch.theta_xi
        theta_star = batch.theta_star_xi

        def law(name, gap):
            top = float((np.abs(gap).reshape(-1, len(pts)).max(0)
                         / norm).max())
            if top > 1e-9:
                problems.append(f"{fixture.name}: {name} off by {top:.2e}")

        if not members & {"G10", "G12"}:
            law("d(eta) = (theta/2) fundamental", de - 0.5 * theta * fund)
        if members <= {"G6", "G10"}:
            law("d(eta) = 0", de)
        if "G6" not in members:
            law("d(fundamental) = 0", dfund)
        law("d(fundamental) = -theta* eta^fundamental",
            dfund + theta_star * wedge)
        if "G5" not in members:
            law("theta(xi) = 0", batch.theta_xi)
        if "G6" not in members:
            law("theta*(xi) = 0", batch.theta_star_xi)

    conclude(5, "four-way projection completeness and per-class "
                "vanishing laws on every fixture", problems)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_eta_einstein_fixture_profile():
    problems = []
    S = built("eta-einstein-parabolic")
    v = eta_einstein_check(S)
    if not v.is_eta_einstein or v.check.fails:
        problems.append("not recognized as eta-Einstein via both routes")
    if abs(v.a - 1.0) > 1e-9 or abs(v.b + 1.0) > 1e-9:
        problems.append(f"coefficients a={v.a}, b={v.b}, wanted 1, -1")

    if not scalar_curvature_constant(S.manifold) or abs(2 * v.a - 2.0) > 1e-9:
        problems.append(f"scal {2 * v.a}, wanted constant 2")
    # the sectional curvatures along 50 directions at each of the first
    # five sample points, in one points x directions call
    draws = PCG64Stream(S.domain.sampling.seed + 1).uniform(
        -1.0, 1.0, (5, 50, 3))
    K, degenerate = sectional_profile(S, S.domain.sample(), draws)
    k_xi, k_phi = (K[..., i][~degenerate[..., i]] for i in (0, 1))
    k_xi_max = float(np.abs(k_xi).max(initial=0.0))
    if k_xi_max > 1e-9:
        problems.append(f"Reeb-plane curvature reaches {k_xi_max:.2e}")
    if (not k_phi.size or abs(k_phi.mean() + 1.0) > 1e-9
            or k_phi.var() > 1e-9):
        problems.append(
            f"phi-plane curvature {k_phi.mean()} "
            f"(variance {k_phi.var():.2e}), wanted constant -1")
    if not is_identically_zero(eta_einstein_discriminant(S.manifold.f),
                               S.domain):
        problems.append("not flagged paracosymplectic")
    if not named_classes(S).named["paracosymplectic"]:
        problems.append("named classifier disagrees on paracosymplectic")

    point = (1.0, 1.0, 1.0)
    seg = segre_type(S.manifold, np.array([point]))
    if seg.kind != "type11_1_degenerate":
        problems.append(f"Segre kind {seg.kind}")
    else:
        if np.abs(seg.n_vector - np.array([0.0, 1.0, 0.0])).max() > 1e-12:
            problems.append(f"kernel vector {seg.n_vector}, wanted d_y")
        if sorted(seg.eigenvalues) != [0.0, 1.0, 1.0]:
            problems.append(f"eigenvalues {seg.eigenvalues}")
    _, q, _ = ricci_from_jet(eval_jet(S.manifold.f, np.array([point]), 2))
    q_xi = q[..., 0] @ np.array([0.0, 1.0, 0.0])
    if np.abs(q_xi).max() > 1e-12:
        problems.append(f"Q xi = {q_xi}, wanted 0")

    conclude(6, "parabolic fixture: a=1, b=-1, scal=2, K(X,xi)=0, "
                "K(X,phiX)=-1, degenerate Segre type", problems)


# --------------------------------------------------------------- criterion 7

def test_criterion_7_equivalence_flags_agree_everywhere():
    problems = []
    for fixture in FIXTURES:
        S = load_fixture(fixture.name).build(samples=32, seed=42)
        rep = curvature_equivalences(S)
        if rep.check.fails or len(set(rep.flags.values())) != 1:
            problems.append(f"{fixture.name}: flags {rep.flags}")
            continue
        uniform = next(iter(rep.flags.values()))
        if fixture.name in ("eta-einstein-parabolic", "flat-bilinear"):
            if not uniform:
                problems.append(f"{fixture.name}: expected all-true flags")
        if fixture.name == "g5g6-normal" and uniform:
            problems.append("g5g6-normal: expected all-false flags")
        # a structure with no components at all is flat or eta-Einstein
        if named_classes(S).named["paracosymplectic"] and not uniform:
            problems.append(f"{fixture.name}: paracosymplectic but not "
                            "flat or eta-Einstein")
    conclude(7, "the five curvature equivalences agree on every fixture "
                "(all-true on the parabolic and flat ones, all-false on "
                "the normal mix)", problems)


# --------------------------------------------------------------- criterion 8

def test_criterion_8_geometry_matches_independent_oracles():
    problems = []
    for source in ("x^2", "x^2/y^2", "x/z", "2*x + z", "x^2 + y*z"):
        M = WalkerManifold(parse(source), 1, BOX)
        g_fn = metric_fn(M.f)
        pts = random_points(((0.5, 2.0),) * 3, 12, seed=8)
        gammas = christoffel_from_jet(eval_jet(M.f, pts, 1))
        Rs = curvature_from_jet(eval_jet(M.f, pts, 2))
        gs, _ = metric_arrays(eval_jet(M.f, pts, 0).value)
        for k, p in enumerate(pts):
            gamma = gammas[..., k]
            gamma_fd = christoffel_oracle(g_fn, p)
            if np.abs(gamma - gamma_fd).max() > 1e-6 * (1 + np.abs(gamma).max()):
                problems.append(f"f={source}: Christoffel vs oracle at {p}")
                break

            R = Rs[..., k]
            R_fd = curvature_oracle(g_fn, p)
            if np.abs(R - R_fd).max() > 1e-6 * (1 + np.abs(R).max()):
                problems.append(f"f={source}: curvature vs oracle at {p}")
                break

            low = np.einsum("ijkm,ml->ijkl", R, gs[..., k])
            scale = 1e-10 * (1 + np.abs(low).max())
            if np.abs(low + np.transpose(low, (1, 0, 2, 3))).max() > scale:
                problems.append(f"f={source}: pair antisymmetry at {p}")
                break
            if np.abs(low - np.transpose(low, (2, 3, 0, 1))).max() > scale:
                problems.append(f"f={source}: pair symmetry at {p}")
                break
            bianchi = (low + np.transpose(low, (1, 2, 0, 3))
                       + np.transpose(low, (2, 0, 1, 3)))
            if np.abs(bianchi).max() > scale:
                problems.append(f"f={source}: first Bianchi at {p}")
                break

    conclude(8, "Christoffel/curvature match finite-difference oracles; "
                "Bianchi and pair symmetries hold", problems)


# --------------------------------------------------------------- criterion 9

TIMELIKE = """\
name = timelike
epsilon = -1
f = "x^2"
xi1 = 0
xi2 = 1
xi3 = 0
domain.x = [0.5, 2]
domain.y = [0.5, 2]
domain.z = [0.5, 2]
"""

BAD_REEB = TIMELIKE.replace("epsilon = -1", "epsilon = 1") \
                   .replace("name = timelike", "name = bad-reeb") \
                   .replace("xi2 = 1", "xi2 = 2")


def test_criterion_9_structural_rejections_exit_1(capsys, tmp_path):
    problems = []

    path = tmp_path / "timelike.walker"
    path.write_text(TIMELIKE, encoding="utf-8")
    status = main(["analyze", str(path)])
    err = capsys.readouterr().err
    if status != 1:
        problems.append(f"timelike manifest exited {status}, wanted 1")
    if not err.startswith("structural rejection:"):
        problems.append(f"timelike stderr: {err!r}")

    path = tmp_path / "bad-reeb.walker"
    path.write_text(BAD_REEB, encoding="utf-8")
    status = main(["analyze", str(path)])
    err = capsys.readouterr().err
    if status != 1:
        problems.append(f"constraint violation exited {status}, wanted 1")
    if not err.startswith("structural rejection:"):
        problems.append(f"constraint stderr: {err!r}")
    if "(" not in err:
        problems.append("constraint rejection carries no witness point")

    with capsys.disabled():
        conclude(9, "time-like signature and unit-constraint violations "
                    "exit with status 1 (the latter with a witness)",
                 problems)
