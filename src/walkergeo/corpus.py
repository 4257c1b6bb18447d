"""Built-in example corpus.

Small manifests that together exercise every class the analyzer can
distinguish: the integrable case, mixed and pure component classes, both
paracontact instances, an eta-Einstein metric, and a flat one. Each entry
is a complete manifest text; `examples run <name>` analyzes one of them.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .manifest import Manifest, parse_manifest

__all__ = ["Fixture", "FIXTURES", "fixture_names", "get_fixture",
           "load_fixture"]


class Fixture(NamedTuple):
    name: str
    description: str
    manifest_text: str


_BOX = """domain.x = [0.5, 2]
domain.y = [0.5, 2]
domain.z = [0.5, 2]
"""

FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="g0-parallel",
        description=(
            "Structure tensor vanishes identically: the integrable case G0, "
            "a paracosymplectic structure."),
        manifest_text=(
            "name = g0-parallel\n"
            "epsilon = 1\n"
            "const.C = 1\n"
            'f = "x"\n'
            'xi1 = "exp((C - z)/2)"\n'
            'xi2 = "1"\n'
            'xi3 = "0"\n' + _BOX),
    ),
    Fixture(
        name="g5g6-normal",
        description=(
            "Normal structure realizing G5 + G6; both trace forms equal "
            "-1/y."),
        manifest_text=(
            "name = g5g6-normal\n"
            "epsilon = 1\n"
            'f = "x^2/y^2"\n'
            'xi1 = "x/y"\n'
            'xi2 = "1"\n'
            'xi3 = "0"\n' + _BOX),
    ),
    Fixture(
        name="g10-almost-paracosymplectic",
        description=(
            "Pure G10 with both trace forms zero: an almost "
            "paracosymplectic structure that is not paracosymplectic."),
        manifest_text=(
            "name = g10-almost-paracosymplectic\n"
            "epsilon = 1\n"
            "const.C = 1\n"
            "const.C1 = 0\n"
            'f = "C*x + z"\n'
            'xi1 = "exp((C*z + C1)/2)"\n'
            'xi2 = "1"\n'
            'xi3 = "0"\n' + _BOX),
    ),
    Fixture(
        name="g6g10-almost-alpha",
        description=(
            "Reeb field along the null direction scaled by 1/sqrt(f); "
            "realizes G6 + G10, almost alpha-paracosymplectic with "
            "nonconstant alpha."),
        manifest_text=(
            "name = g6g10-almost-alpha\n"
            "epsilon = 1\n"
            'f = "x/z"\n'
            'xi1 = "0"\n'
            'xi2 = "0"\n'
            'xi3 = "1/sqrt(x/z)"\n'
            'require_positive = "x/z"\n' + _BOX),
    ),
    Fixture(
        name="g12-pure",
        description=(
            "Pure G12: the whole structure tensor is carried by the Reeb "
            "covector."),
        manifest_text=(
            "name = g12-pure\n"
            "epsilon = 1\n"
            "const.C = 2\n"
            "const.C1 = 0\n"
            'f = "C*x + z"\n'
            'xi1 = "(C/2)*y + C1"\n'
            'xi2 = "1"\n'
            'xi3 = "0"\n' + _BOX),
    ),
    Fixture(
        name="paracontact-exponential",
        description=(
            "Paracontact metric structure: xi3 = exp(z - 2y) over f = 2x, "
            "with xi1 fixed by the unit constraint. Sits in G5bar + G10."),
        manifest_text=(
            "name = paracontact-exponential\n"
            "epsilon = 1\n"
            'f = "2*x"\n'
            'xi1 = "(1 - 2*x*exp(2*z - 4*y))/(2*exp(z - 2*y))"\n'
            'xi2 = "0"\n'
            'xi3 = "exp(z - 2*y)"\n' + _BOX),
    ),
    Fixture(
        name="paracontact-constant",
        description=(
            "Paracontact metric structure over the constant metric "
            "function f = 1, with xi3 = exp(-2y)."),
        manifest_text=(
            "name = paracontact-constant\n"
            "epsilon = 1\n"
            'f = "1"\n'
            'xi1 = "(1 - exp(-4*y))/(2*exp(-2*y))"\n'
            'xi2 = "0"\n'
            'xi3 = "exp(-2*y)"\n' + _BOX),
    ),
    Fixture(
        name="eta-einstein-parabolic",
        description=(
            "eta-Einstein structure on f = x^2: the Ricci tensor equals "
            "a g + b eta(x)eta with a = 1, b = -1."),
        manifest_text=(
            "name = eta-einstein-parabolic\n"
            "epsilon = 1\n"
            'f = "x^2"\n'
            'xi1 = "0"\n'
            'xi2 = "1"\n'
            'xi3 = "0"\n' + _BOX),
    ),
    Fixture(
        name="flat-bilinear",
        description=(
            "Flat Walker metric f = y*z: curvature vanishes while the "
            "structure sits in G10."),
        manifest_text=(
            "name = flat-bilinear\n"
            "epsilon = 1\n"
            'f = "y*z"\n'
            'xi1 = "0"\n'
            'xi2 = "1"\n'
            'xi3 = "0"\n' + _BOX),
    ),
)


def fixture_names() -> tuple[str, ...]:
    return tuple(f.name for f in FIXTURES)


def get_fixture(name: str) -> Fixture:
    for fixture in FIXTURES:
        if fixture.name == name:
            return fixture
    known = ", ".join(fixture_names())
    raise InputError(f"no example named '{name}'; known examples: {known}")


def load_fixture(name: str) -> Manifest:
    return parse_manifest(get_fixture(name).manifest_text)
