from fractions import Fraction

import pytest

from walkergeo.errors import ManifestError, StructuralRejection
from walkergeo.expressions import evaluate_with_scale
from walkergeo.manifest import load_manifest, parse_manifest

GOOD = """\
# comment and blank lines are ignored

name = demo
epsilon = 1
const.C = 1/2
f = "C * x + z"
xi1 = "exp(C * z)"
xi2 = 1
xi3 = 0
domain.x = [0.5, 2]
domain.y = [0.5, 2]
domain.z = [0.5, 2]
require_positive = "x"
require_nonzero = "y"
samples = 12
seed = 7
tol = 1e-8
"""


def test_parse_good_manifest():
    m = parse_manifest(GOOD)
    assert m.name == "demo"
    assert m.epsilon == 1
    assert m.f_source == "C * x + z"
    assert m.xi_sources == ("exp(C * z)", "1", "0")
    assert m.constants == {"C": Fraction(1, 2)}
    assert m.domain.sampling.samples == 12
    assert m.domain.sampling.seed == 7
    assert m.domain.sampling.tol == 1e-8
    assert m.domain.intervals[0].lo == 0.5
    assert len(m.domain.positive) == 1
    assert len(m.domain.nonzero) == 1


def test_defaults_when_sampling_keys_absent():
    text = "\n".join(
        line for line in GOOD.splitlines()
        if not line.startswith(("samples", "seed", "tol"))
    )
    m = parse_manifest(text)
    assert m.domain.sampling == (64, 42, 1e-9)


def test_build_applies_overrides():
    S = parse_manifest(GOOD).build(samples=5, seed=99, tol=1e-7)
    assert S.domain.sampling.samples == 5
    assert S.domain.sampling.seed == 99
    assert S.domain.sampling.tol == 1e-7
    # unset overrides keep manifest values
    T = parse_manifest(GOOD).build(seed=3)
    assert T.domain.sampling == (12, 3, 1e-8)


def test_constants_reach_expressions():
    m = parse_manifest(GOOD)
    # f = x/2 + z at (1, 1, 1)
    value = evaluate_with_scale(m.f, [(1.0, 1.0, 1.0)])[0][0]
    assert abs(value - 1.5) <= 1e-12


def _swap(key, replacement):
    return "\n".join(
        replacement if line.startswith(key) else line
        for line in GOOD.splitlines()
    )


@pytest.mark.parametrize("text,fragment", [
    ("name demo", "expected 'key = value'"),
    ("name =", "name has no value"),
    ("name = a\nname = b", "name given twice (line 2)"),
    ("flavor = mild", "unknown key 'flavor' (line 1)"),
    ("const.2x = 1", "constant name '2x' is not an identifier"),
    ("const.C = 1\nconst.C = 2", "constant C defined twice (line 2)"),
])
def test_line_level_errors(text, fragment):
    with pytest.raises(ManifestError) as info:
        parse_manifest(text)
    assert fragment in str(info.value)


def test_missing_required_key_has_no_line():
    text = "\n".join(
        line for line in GOOD.splitlines() if not line.startswith("f =")
    )
    with pytest.raises(ManifestError) as info:
        parse_manifest(text)
    assert str(info.value) == "missing required key f"
    assert info.value.line is None


@pytest.mark.parametrize("replacement,fragment", [
    ("epsilon = 2", "epsilon must be 1 or -1, got 2"),
    ("epsilon = big", "epsilon must be an integer, got 'big'"),
    ("domain.x = 0.5, 2", "domain.x must be a closed interval"),
    ("domain.x = [0.5]", "domain.x must have exactly two endpoints, got '[0.5]'"),
    ("domain.x = [a, b]", "domain.x endpoints must be numbers"),
    ("domain.x = [2, 0.5]", "domain.x is empty: [2.0, 0.5]"),
    ("samples = 0", "samples must be positive, got 0"),
    ("seed = -1", "seed must be nonnegative, got -1"),
    ("tol = fuzzy", "tol must be a number, got 'fuzzy'"),
    ("tol = 1.5", "tol must be strictly between 0 and 1, got 1.5"),
    ("f = \"x +\"", "f does not parse"),
    ("xi2 = \"q\"", "xi2 does not parse"),
    ("const.C = z", "const.C must be a rational number"),
    ("const.C = 1e400", "const.C is too large for a float, got '1e400'"),
    ("domain.x = [0, 1e400]", "domain.x must span a finite width"),
    ("domain.x = [-1e308, 1e308]", "domain.x must span a finite width"),
    ("f = \"1" + "0" * 400 + "\"", "number too large for a float"),
])
def test_value_level_errors(replacement, fragment):
    key = replacement.split("=")[0].strip().split()[0]
    with pytest.raises(ManifestError) as info:
        parse_manifest(_swap(key, replacement))
    assert fragment in str(info.value)
    assert info.value.line is not None


def test_timelike_epsilon_parses_but_build_rejects():
    m = parse_manifest(_swap("epsilon", "epsilon = -1"))
    assert m.epsilon == -1
    with pytest.raises(StructuralRejection):
        m.build()


def test_unquoted_expression_value():
    m = parse_manifest(_swap("f", "f = C * x + z"))
    assert m.f_source == "C * x + z"


def test_load_manifest_roundtrip(tmp_path):
    path = tmp_path / "demo.walker"
    path.write_text(GOOD, encoding="utf-8")
    m = load_manifest(path)
    assert m.name == "demo"


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError) as info:
        load_manifest(tmp_path / "absent.walker")
    assert str(info.value).startswith("cannot read manifest:")
