"""The run plan of tests/write_reports.py, the report-identity evidence."""

import json

import pytest

import write_reports
from walkergeo.corpus import FIXTURES
from write_reports import (
    FINDINGS, MANIFESTS, REPORTS, main, plan, skeleton, write,
)


def test_the_plan_holds_every_input_once(tmp_path):
    runs = plan(tmp_path)
    names = [run.name for run in runs]
    assert len(set(names)) == len(names)
    assert len(names) >= 182 and len(names) >= write_reports.EXPECTED
    for samples, seed in write_reports.FIXTURE_RUNS:
        for fixture in FIXTURES:
            for report in REPORTS:
                assert f"{fixture.name}-{samples}-{seed}.{report}" in names
    stems = [path.stem for directory in (MANIFESTS, FINDINGS)
             for path in directory.iterdir()]
    stems += list(write_reports.CHAINS)
    assert {"restricted", "dense-curvature", "constant-rational",
            "sqrt-constraint", "two-guard-constraint", "parabolic-98x",
            "parabolic-100x"} <= set(stems)
    for stem in stems:
        for samples in (64, 512):
            for report in REPORTS:
                assert f"findings-{stem}-{samples}.{report}" in names
    for seed in (42, 7):
        generated = [name for name in names
                     if name.startswith(f"gen-{seed}-")]
        assert generated and all(name.endswith("-64.machine")
                                 for name in generated)
    for report in REPORTS:
        assert f"faulted-paracontact-exponential-64.{report}" in names


def test_a_run_writes_its_output_and_exit_status(tmp_path):
    run = {run.name: run for run in plan(tmp_path)}["g5g6-normal-1-42.machine"]
    assert run.args == ("-m", "walkergeo.cli", "examples", "run", "g5g6-normal",
                        "--samples", "1", "--seed", "42", "--report", "machine")
    assert write(run, write_reports.ROOT / "src", tmp_path)
    output = (tmp_path / run.name).read_text()
    report, status = output.rsplit("\n", 2)[:2]
    assert json.loads(report)["name"] == "g5g6-normal"
    assert status == "exit status 0"
    beside = (tmp_path / f"{run.name}.skeleton").read_text()
    assert beside == skeleton(output)
    assert beside.startswith("exit status 0\n")
    assert 'name = "g5g6-normal"\n' in beside


# a machine report as the CLI prints it, then the exit status line
REPORT = {
    "curvature": {"flat": False, "kind": "other", "value": None,
                  "scal": {"expression": "2 * y^2", "constant": True,
                           "sample_range": [0.5, 6.5]}},
    "failures": [{"check": "component_model", "magnitude": 1.7e-08,
                  "witness": [1.9, 1.8, 1.6]}],
    "sampling": {"samples": 64, "seed": 42, "tol": 1e-09},
    "structure_validity": {"axioms": {"phi_kills_reeb": {
        "holds": True, "max_residual": 0.0}}},
    "route_agreement": {"disagreements": [{"check": "k_paracontact",
                                           "detail": "a route vs. another",
                                           "primary": False}]},
}


def output(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\nexit status 3\n"


def test_a_skeleton_holds_the_non_float_leaves():
    assert skeleton(output(REPORT)).splitlines() == [
        "exit status 3",
        "curvature.flat = false",
        "curvature.kind = \"other\"",
        "curvature.scal.constant = true",
        "curvature.value = null",
        "failures[0].check = \"component_model\"",
        "route_agreement.disagreements[0].check = \"k_paracontact\"",
        "route_agreement.disagreements[0].primary = false",
        "sampling.samples = 64",
        "sampling.seed = 42",
        "structure_validity.axioms.phi_kills_reeb.holds = true",
    ]
    # an output with no JSON report is its exit status alone
    assert skeleton("input error: f does not parse\nexit status 2\n") == (
        "exit status 2\n")


def test_a_float_change_keeps_the_skeleton_and_a_flipped_verdict_does_not():
    base = skeleton(output(REPORT))
    digits = json.loads(json.dumps(REPORT))
    digits["failures"][0]["magnitude"] = 2.5e-08
    digits["curvature"]["scal"]["sample_range"] = [0.25, 7.0]
    digits["structure_validity"]["axioms"]["phi_kills_reeb"][
        "max_residual"] = 1e-16
    digits["curvature"]["scal"]["expression"] = "2 * (y^2)"
    assert skeleton(output(digits)) == base
    flipped = json.loads(json.dumps(REPORT))
    flipped["structure_validity"]["axioms"]["phi_kills_reeb"]["holds"] = False
    assert skeleton(output(flipped)) != base
    assert skeleton(output(REPORT).replace("exit status 3",
                                           "exit status 0")) != base


def test_a_short_plan_or_a_missing_input_is_refused(tmp_path, monkeypatch):
    src, out = str(write_reports.ROOT / "src"), tmp_path / "out"
    monkeypatch.setattr(write_reports, "EXPECTED", 10**6)
    assert main([src, str(out)]) == 1 and not out.exists()
    monkeypatch.setattr(write_reports, "FINDINGS", tmp_path / "missing")
    with pytest.raises(SystemExit, match="input directory missing"):
        plan(tmp_path)
