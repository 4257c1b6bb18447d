import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkergeo
from walkergeo.cli import main
from walkergeo.corpus import FIXTURES, load_fixture
from walkergeo.errors import ConsistencyError
from walkergeo.report import ClassificationReport, build_report
from write_reports import chain_manifests, read_manifest

PARABOLIC = read_manifest("parabolic")

TIMELIKE = PARABOLIC.replace("epsilon = 1", "epsilon = -1")

BROKEN_REEB = PARABOLIC.replace('xi2 = 1', 'xi2 = "x"')

SRC = str(Path(walkergeo.__file__).resolve().parents[1])


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write(tmp_path, text, name="m.walker"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------ plumbing

def test_examples_list(capsys):
    status, out, err = run(capsys, "examples", "list")
    assert status == 0 and err == ""
    for fixture in FIXTURES:
        assert fixture.name in out
        assert fixture.description in out


def test_examples_run_clean(capsys):
    status, out, err = run(capsys, "examples", "run", "eta-einstein-parabolic",
                           "--report", "machine")
    assert status == 0 and err == ""
    tree = json.loads(out)
    assert tree["name"] == "eta-einstein-parabolic"
    assert tree["failures"] == []
    assert tree["curvature"]["eta_einstein"]["holds"] is True


def test_analyze_manifest_file(capsys, tmp_path):
    path = write(tmp_path, PARABOLIC)
    status, out, err = run(capsys, "analyze", path)
    assert status == 0 and err == ""
    assert "parabolic" in out
    assert "basic_classes" in out


def test_sampling_flags_reach_report(capsys, tmp_path):
    path = write(tmp_path, PARABOLIC)
    status, out, _ = run(capsys, "analyze", path, "--samples", "9",
                         "--seed", "77", "--tol", "1e-8",
                         "--report", "machine")
    assert status == 0
    tree = json.loads(out)
    assert tree["sampling"] == {"samples": 9, "seed": 77, "tol": 1e-8}


@pytest.mark.parametrize("flags, message", [
    (("--samples", "0"), "samples must be positive, got 0"),
    (("--samples", "-3"), "samples must be positive, got -3"),
    (("--seed", "-1"), "seed must be nonnegative, got -1"),
    (("--tol", "nan"), "tol must be strictly between 0 and 1, got nan"),
    (("--tol", "-1"), "tol must be strictly between 0 and 1, got -1.0"),
])
def test_bad_sampling_flags_exit_2_like_the_manifest(capsys, flags, message):
    status, out, err = run(capsys, "examples", "run", "g0-parallel",
                           "--report", "machine", *flags)
    assert (status, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_machine_report_is_deterministic(capsys, tmp_path):
    path = write(tmp_path, PARABOLIC)
    _, first, _ = run(capsys, "analyze", path, "--report", "machine")
    _, second, _ = run(capsys, "analyze", path, "--report", "machine")
    assert first == second


def test_text_and_machine_carry_same_data(capsys, tmp_path):
    path = write(tmp_path, PARABOLIC)
    _, text, _ = run(capsys, "analyze", path)
    _, machine, _ = run(capsys, "analyze", path, "--report", "machine")
    tree = json.loads(machine)

    def leaves(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield f"{key}:"
                yield from leaves(value)
        elif isinstance(node, list):
            for value in node:
                yield from leaves(value)
        else:
            yield json.dumps(node)

    for piece in leaves(tree):
        assert piece in text, piece


# ----------------------------------------------------------------- failures

def test_timelike_manifest_exits_1(capsys, tmp_path):
    path = write(tmp_path, TIMELIKE)
    status, out, err = run(capsys, "analyze", path)
    assert status == 1
    assert out == ""
    assert err.startswith("structural rejection:")


def test_broken_reeb_exits_1_with_witness(capsys, tmp_path):
    path = write(tmp_path, BROKEN_REEB)
    status, out, err = run(capsys, "analyze", path)
    assert status == 1 and out == ""
    # the witness is the first sampled point past the bound; the residual
    # is |xi2^2 + f*xi3^2 + 2*xi1*xi3 - 1| there
    assert err == (
        "structural rejection: unit constraint xi2^2 + f*xi3^2 + 2*xi1*xi3 "
        "= 1 violated at (1.7075043856180703, 1.7119111846047406, "
        "1.272988341563213) (residual 1.916e+00)\n")


def test_malformed_manifest_exits_2(capsys, tmp_path):
    path = write(tmp_path, "name = broken\n")
    status, _, err = run(capsys, "analyze", path)
    assert status == 2
    assert err.startswith("input error:")


def test_missing_manifest_exits_2(capsys, tmp_path):
    status, _, err = run(capsys, "analyze", str(tmp_path / "absent.walker"))
    assert status == 2
    assert err.startswith("input error:")


def test_unknown_example_exits_2(capsys):
    status, _, err = run(capsys, "examples", "run", "no-such-example")
    assert status == 2
    assert err.startswith("input error:")
    assert "known examples" in err


POLE = PARABOLIC.replace('"x^2"', '"1/(x - 1)"')


def test_pole_between_samples_exits_2_with_two_witnesses(capsys, tmp_path):
    path = write(tmp_path, POLE)
    status, out, err = run(capsys, "analyze", path)
    assert status == 2 and out == ""
    assert err.startswith("input error: denominator x - 1 of f takes both signs")
    assert err.count(" at (") == 2


def test_the_first_pole_in_fold_order_is_named(capsys, tmp_path):
    # children left to right before their parent, as the walkers visit them
    f = '"1/(2 + 1/(z - 1)) + 1/(y - 1)"'
    path = write(tmp_path, PARABOLIC.replace('"x^2"', f))
    status, _, err = run(capsys, "analyze", path)
    assert status == 2
    assert err.startswith("input error: denominator z - 1 of f")


def test_pole_of_a_negative_power_in_xi_exits_2(capsys, tmp_path):
    path = write(tmp_path, PARABOLIC.replace("xi1 = 0", 'xi1 = "(y - 1)^-3"'))
    status, _, err = run(capsys, "analyze", path)
    assert status == 2
    assert err.startswith("input error: denominator y - 1 of xi1")


@pytest.mark.parametrize("key", ["require_nonzero", "require_positive"])
def test_a_required_denominator_is_not_scanned(capsys, tmp_path, key):
    # the domain's requirement is the user's word for the denominator; the
    # positive one excludes the pole side, the nonzero one keeps both sides
    path = write(tmp_path, POLE + f'{key} = "x - 1"\n')
    status, _, err = run(capsys, "analyze", path)
    assert "denominator" not in err
    assert status == 0, err


def test_structural_rejection_comes_before_the_pole_scan(capsys, tmp_path):
    path = write(tmp_path, POLE.replace('xi2 = 1', 'xi2 = "x"'))
    status, _, err = run(capsys, "analyze", path)
    assert status == 1
    assert err.startswith("structural rejection:")


def run_process(*argv):
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "walkergeo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_jet_overflow_exits_2_without_traceback(tmp_path):
    path = write(tmp_path, PARABOLIC.replace('"x^2"', '"exp(exp(10*x))"'))
    done = run_process("analyze", path)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("input error: non-finite value")


def test_overflowing_sectional_curvature_exits_2_without_traceback(tmp_path):
    # f_xx ~ 4e4 exp(200 x) overflows the curvature products, so a sectional
    # curvature at pts[0] comes out nan
    text = PARABOLIC.replace('"x^2"', '"exp(200*x)"').replace("seed = 5\n", "")
    done = run_process("analyze", write(tmp_path, text), "--report", "machine")
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(
        "input error: non-finite sectional curvature in 'K_phi' at point (")


# a literal the parser accepts: twice it is past float range
BIG = "17" + "0" * 307


@pytest.mark.parametrize("f, box_x, node", [
    # diff folds N + N, past float range, only as a node
    (f"{BIG}*x + {BIG}*x", "[0.5, 1]", f"{BIG} * x + {BIG} * x"),
    (f"{BIG} + {BIG}", "[0.5, 2]", f"{BIG} + {BIG}"),
], ids=["sum-in-f", "constant-sum"])
def test_an_overflowing_sum_exits_2_naming_it(tmp_path, f, box_x, node):
    text = PARABOLIC.replace('"x^2"', f'"{f}"').replace(
        "domain.x = [0.5, 2]", f"domain.x = {box_x}")
    done = run_process("analyze", write(tmp_path, text))
    assert done.returncode == 2 and done.stdout == ""
    # one line, no numpy warning before it
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith(
        f"input error: non-finite value in '{node}' at point (")


def test_machine_report_refuses_a_non_finite_value():
    report = ClassificationReport(
        name="t", sampling={}, structure_validity={}, basic_classes={},
        named_classes={}, curvature={"K_phi": float("nan")},
        route_agreement={}, failures=())
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()


def test_expression_at_the_depth_limit_is_analyzed(capsys, tmp_path):
    terms = "+".join(["x"] * walkergeo.expressions.MAX_DEPTH)
    path = write(tmp_path, PARABOLIC.replace('"x^2"', f'"{terms}"'))
    status, out, err = run(capsys, "analyze", path)
    assert status == 0 and err == ""


def test_expression_past_the_depth_limit_exits_2(capsys, tmp_path):
    terms = "+".join(["x"] * (walkergeo.expressions.MAX_DEPTH + 1))
    path = write(tmp_path, PARABOLIC.replace('"x^2"', f'"{terms}"'))
    status, out, err = run(capsys, "analyze", path)
    assert status == 2 and out == ""
    assert err.startswith("input error:") and "nests deeper" in err


def test_derivatives_nested_past_the_recursion_limit_are_analyzed(tmp_path):
    # the third derivatives of a quotient chain nest about ten times deeper
    # than the chain, past Python's default recursion limit
    chains = chain_manifests()
    path = write(tmp_path, chains["parabolic-98x"])
    done = run_process("analyze", path)
    assert done.returncode == 0 and done.stderr == ""
    # the 100-level chain alone ends without a traceback: its f_xx fails
    # the nonvanishing test at a sampled point, which the error names
    path = write(tmp_path, chains["parabolic-100x"])
    done = run_process("analyze", path)
    assert "Traceback" not in done.stderr
    assert "nest too deeply" not in done.stderr
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        "input error: f_xx vanishes at a sampled point but not identically, "
        "so the eigenvector quotient f_xy / f_xx is undefined there and the "
        "coordinate eta-Einstein characterization cannot be evaluated at "
        "(1.7075043856180703, 1.7119111846047406, 1.272988341563213)\n")


def test_consistency_failure_exits_3(capsys, tmp_path, monkeypatch):
    def boom(structure, cfg=None, name="structure"):
        raise ConsistencyError("routes disagree beyond tolerance")

    monkeypatch.setattr("walkergeo.cli.build_report", boom)
    path = write(tmp_path, PARABOLIC)
    status, _, err = run(capsys, "analyze", path)
    assert status == 3
    assert err.startswith("internal consistency failure:")


def test_unexpected_exception_exits_3_in_one_line(capsys, tmp_path,
                                                  monkeypatch):
    def boom(structure, cfg=None, name="structure"):
        raise ValueError("unexpected shape")

    monkeypatch.setattr("walkergeo.cli.build_report", boom)
    path = write(tmp_path, PARABOLIC)
    status, out, err = run(capsys, "analyze", path)
    assert status == 3 and out == ""
    assert err == "internal error: ValueError: unexpected shape\n"


# ------------------------------------------------------------- report shape

def test_report_exit_status_tracks_failures():
    m = load_fixture("flat-bilinear")
    report = build_report(m.build(), name=m.name)
    assert report.exit_status == 0
    flagged = ClassificationReport(
        name=report.name,
        sampling=report.sampling,
        structure_validity=report.structure_validity,
        basic_classes=report.basic_classes,
        named_classes=report.named_classes,
        curvature=report.curvature,
        route_agreement=report.route_agreement,
        failures=({"check": "demo", "witness": (1.0, 1.0, 1.0),
                   "magnitude": 1.0},),
    )
    assert flagged.exit_status == 3


def test_report_tree_round_trips_through_json():
    m = load_fixture("g12-pure")
    report = build_report(m.build(), name=m.name)
    tree = report.as_tree()
    assert json.loads(report.to_json()) == tree
    assert tree["basic_classes"]["display"] == "G12"
    assert tree["route_agreement"]["agree"] is True


def test_text_report_nests_dicts_and_opens_list_items_with_a_dash():
    report = ClassificationReport(
        name="t", sampling={"samples": np.int64(4)}, structure_validity={},
        basic_classes={"normal": np.bool_(True)},
        named_classes={"a": {"b": np.array([1.0, 2.5])}},
        curvature={"scal": np.float64(0.5)}, route_agreement={},
        failures=({"check": "x", "witness": {"point": (0.5,)}},
                  {"check": "y"}, {}))
    assert report.render_text().splitlines() == [
        'name: "t"',
        "sampling:",
        "  samples: 4",
        "structure_validity: {}",
        "basic_classes:",
        "  normal: true",
        "named_classes:",
        "  a:",
        "    b: [1.0, 2.5]",
        "curvature:",
        "  scal: 0.5",
        "route_agreement: {}",
        "failures:",
        '  - check: "x"',
        "    witness:",
        "      point: [0.5]",
        '  - check: "y"',
    ]


def test_every_failure_entry_names_a_witness():
    m = load_fixture("g0-parallel")
    report = build_report(m.build(), name=m.name)
    for entry in report.failures:
        assert entry["witness"] is not None


@pytest.mark.parametrize("fixture", [f.name for f in FIXTURES])
def test_examples_run_whole_corpus(capsys, fixture):
    status, out, _ = run(capsys, "examples", "run", fixture,
                         "--report", "machine")
    assert status == 0
    assert json.loads(out)["failures"] == []
