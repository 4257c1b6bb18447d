"""The run plan of tests/write_reports.py, the report-identity evidence."""

import json

import pytest

import write_reports
from walkergeo.corpus import FIXTURES
from write_reports import FINDINGS, MANIFESTS, REPORTS, main, plan, write


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
            "parabolic-98x", "parabolic-100x"} <= set(stems)
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
    report, status = (tmp_path / run.name).read_text().rsplit("\n", 2)[:2]
    assert json.loads(report)["name"] == "g5g6-normal"
    assert status == "exit status 0"


def test_a_short_plan_or_a_missing_input_is_refused(tmp_path, monkeypatch):
    src, out = str(write_reports.ROOT / "src"), tmp_path / "out"
    monkeypatch.setattr(write_reports, "EXPECTED", 10**6)
    assert main([src, str(out)]) == 1 and not out.exists()
    monkeypatch.setattr(write_reports, "FINDINGS", tmp_path / "missing")
    with pytest.raises(SystemExit, match="input directory missing"):
        plan(tmp_path)
