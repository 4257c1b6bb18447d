"""Metamorphic tests: a symmetry of the problem changes no verdict.

Each case rewrites a fixture's manifest by a map that carries an almost
paracontact metric structure to an equivalent one, analyzes both in
process and compares their verdict skeletons (`write_reports.skeleton`:
the exit status and every leaf of the machine report that is not a float,
an expression string or a witness).

Stage 0 covers ξ → −ξ: φ is linear in ξ (`structure`), so the rewritten
manifest carries (−φ, −ξ, −η, g), again an almost paracontact metric
structure on the same Walker manifold, since each axiom is even in
(φ, ξ, η) or says that an odd expression vanishes. The structure tensor
g((∇_X φ)Y, Z) changes sign as a whole, so no zero test changes. The
Walker isometry (x, y, z) = (λx', y', z'/λ) is left for later stages.
"""

import re

import pytest

from walkergeo.cli import main
from walkergeo.corpus import FIXTURES
from write_reports import skeleton

XI = re.compile(r'^(xi[123]) = "(.*)"$', re.MULTILINE)


def negate_xi(text):
    """The manifest with each `xiN = "e"` written as `xiN = "-(e)"`."""
    negated, count = XI.subn(r'\1 = "-(\2)"', text)
    assert count == 3
    return negated


def verdicts(capsys, tmp_path, text, samples):
    path = tmp_path / "m.manifest"
    path.write_text(text, encoding="utf-8")
    status = main(["analyze", str(path), "--samples", str(samples),
                   "--seed", "42", "--report", "machine"])
    return skeleton(capsys.readouterr().out + f"exit status {status}\n")


@pytest.mark.parametrize("samples", [64, 512])
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.name)
def test_negating_xi_keeps_every_verdict(capsys, tmp_path, fixture, samples):
    text = fixture.manifest_text
    assert (verdicts(capsys, tmp_path, negate_xi(text), samples)
            == verdicts(capsys, tmp_path, text, samples))
