"""One value per sample: the domain carries its sampling settings.

A sample is fixed by the box, its constraints and the settings samples,
seed and tol, and every sampled decision of an analysis must read the same
sample. So the settings live in one place, `Domain.sampling`, and no
function takes them beside the structure it analyzes. The package's
sources are read, as tests/test_tolerances.py reads them, so a second
holder of the settings fails as soon as it is written:

- no function, method or lambda has a parameter named `cfg` or `config`,
  or one annotated `SamplingConfig`;
- `SamplingConfig(...)` is called only in sampling.py, as the default of
  `Domain.sampling`, and in manifest.py, which reads a manifest's settings.
"""

import ast
import inspect
from pathlib import Path

import pytest

import walkergeo
from walkergeo import (
    ApctStructure, DegenerateInputError, Manifest, SamplingConfig,
    build_report, load_fixture, parse_manifest,
)
from walkergeo.cli import main

SOURCES = sorted(Path(walkergeo.__file__).parent.glob("*.py"))
SETTING_NAMES = {"cfg", "config"}


def parameters(node) -> list[ast.arg]:
    args = node.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg))]


def setting_parameters(tree: ast.AST) -> list[str]:
    """Parameters that would take sampling settings (see the module notes)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            found += [f"line {arg.lineno}: {arg.arg}"
                      for arg in parameters(node)
                      if arg.arg in SETTING_NAMES or (
                          arg.annotation is not None and "SamplingConfig"
                          in ast.unparse(arg.annotation))]
    return found


def config_calls(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
            and (node.func.id if isinstance(node.func, ast.Name)
                 else node.func.attr) == "SamplingConfig"]


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_sampling_settings(path):
    assert setting_parameters(parsed(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_settings_are_made_only_by_the_domain_and_the_manifest(path):
    tree = parsed(path)
    calls = config_calls(tree)
    if path.name == "sampling.py":
        domain = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "Domain")
        lines = range(domain.lineno, domain.end_lineno + 1)
        assert len(calls) == 1 and calls[0].lineno in lines
    elif path.name != "manifest.py":
        assert calls == []


@pytest.mark.parametrize("source", [
    "def flatness(M, cfg=None):\n    pass",
    "def sample(self, settings: SamplingConfig):\n    pass",
    "def report(S, *, sampling: SamplingConfig | None = None):\n    pass",
    "key = lambda e, domain, cfg: (e, cfg)",
    "class A:\n    def run(self, config):\n        pass",
])
def test_the_scan_finds_a_parameter_taking_settings(source):
    assert setting_parameters(ast.parse(source))


def test_the_scan_finds_settings_made_elsewhere():
    assert config_calls(ast.parse("cfg = sampling.SamplingConfig(8)"))
    assert config_calls(ast.parse("S = build(M, xi, SamplingConfig())"))


def test_no_public_function_accepts_sampling_settings():
    for name in walkergeo.__all__:
        value = getattr(walkergeo, name)
        if not inspect.isfunction(value):
            continue
        for param in inspect.signature(value).parameters.values():
            assert param.name not in SETTING_NAMES | {"samples", "seed",
                                                     "tol"}, name
            assert "SamplingConfig" not in str(param.annotation), name


def test_structure_and_manifest_hold_no_second_copy():
    m = load_fixture("g5g6-normal")
    S = m.build(samples=8, seed=3)
    assert S.domain.sampling == SamplingConfig(8, 3)
    assert not [v for v in vars(S).values() if isinstance(v, SamplingConfig)]
    assert not [v for v in m if isinstance(v, SamplingConfig)]
    assert "sampling" not in Manifest._fields
    assert not hasattr(ApctStructure, "sample_points")


# x = 0.52 is a pole of f inside the box [0.5, 2]: 512 points straddle it,
# while the first 16 of seed 42 all lie to its right
POLE = """name = pole
epsilon = 1
f = "x^2 + 1/(x - 0.52)"
xi1 = "0"
xi2 = "1"
xi3 = "0"
domain.x = [0.5, 2]
domain.y = [0.5, 2]
domain.z = [0.5, 2]
"""


def test_a_pole_the_sample_straddles_is_an_input_error(tmp_path, capsys):
    m = parse_manifest(POLE)
    with pytest.raises(DegenerateInputError, match="x - 0.52"):
        m.build(samples=512)
    path = tmp_path / "pole.manifest"
    path.write_text(POLE, encoding="utf-8")
    assert main(["analyze", str(path), "--samples", "512"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: denominator x - 0.52")


def test_a_structure_is_analyzed_only_on_its_own_sample():
    # built on 16 points, S cannot be reported on 512 others
    S = parse_manifest(POLE).build(samples=16)
    with pytest.raises(TypeError):
        build_report(S, SamplingConfig(samples=512, seed=42))
    report = build_report(S, name="pole")
    assert report.sampling == {"samples": 16, "seed": 42, "tol": 1e-9}
    assert report.exit_status == 0
