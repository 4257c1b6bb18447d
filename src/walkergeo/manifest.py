"""Flat key-value manifest files describing one structure each.

A manifest is line-oriented text. Blank lines and lines starting with #
are ignored; every other line is `key = value`. Keys:

    name            short identifier for reports
    epsilon         1 or -1 (the sign of the middle metric coefficient)
    f               metric function, quoted expression in x, y, z
    xi1 xi2 xi3     Reeb field components, quoted expressions
    const.NAME      rational value bound to NAME inside the expressions
    domain.x        closed interval, written [lo, hi] (same for .y, .z)
    require_positive  expression that must stay positive on the domain
    require_nonzero   expression that must stay away from zero
    samples seed tol  sampling controls (defaults 64 / 42 / 1e-9)

require_positive and require_nonzero may repeat; every other key may
appear once. Expression values may be wrapped in double quotes; the
quotes are optional but keep manifests diff-friendly when expressions
contain spaces. The whole file is parsed and every expression compiled
before any geometry runs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, ManifestError, ParseError
from .expressions import Expr, parse
from .sampling import Domain, Interval, SamplingConfig
from .structure import ApctStructure, build_structure
from .walker import WalkerManifold

_SINGLE_KEYS = {
    "name", "epsilon", "f", "xi1", "xi2", "xi3",
    "domain.x", "domain.y", "domain.z", "samples", "seed", "tol",
}
_REPEAT_KEYS = {"require_positive", "require_nonzero"}
_REQUIRED = ("name", "epsilon", "f", "xi1", "xi2", "xi3",
             "domain.x", "domain.y", "domain.z")


class Manifest(NamedTuple):
    """Parsed manifest: sources plus compiled expressions and domain, which
    carries the manifest's sampling controls (`Domain.sampling`)."""

    name: str
    epsilon: int
    f_source: str
    xi_sources: tuple[str, str, str]
    constants: dict[str, Fraction]
    f: Expr
    xi: tuple[Expr, Expr, Expr]
    domain: Domain

    def build(self, samples: int | None = None, seed: int | None = None,
              tol: float | None = None) -> ApctStructure:
        """Construct the structure on the domain, with optional sampling
        overrides."""
        domain = self.domain._replace(
            sampling=self.domain.sampling.with_overrides(samples, seed, tol))
        return build_structure(WalkerManifold(self.f, self.epsilon, domain),
                               self.xi)


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _parse_interval(value: str, key: str, line: int) -> Interval:
    body = value.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ManifestError(
            f"{key} must be a closed interval written [lo, hi], got "
            f"{value!r}", line=line,
        )
    pieces = body[1:-1].split(",")
    if len(pieces) != 2:
        raise ManifestError(
            f"{key} must have exactly two endpoints, got {value!r}",
            line=line,
        )
    try:
        lo, hi = float(pieces[0]), float(pieces[1])
    except ValueError:
        raise ManifestError(
            f"{key} endpoints must be numbers, got {value!r}", line=line
        ) from None
    if not lo < hi:
        raise ManifestError(
            f"{key} is empty: [{lo}, {hi}]", line=line
        )
    if not hi - lo <= sys.float_info.max:
        raise ManifestError(
            f"{key} must span a finite width, got {value!r}", line=line
        )
    return Interval(lo, hi)


def _parse_fraction(value: str, key: str, line: int) -> Fraction:
    try:
        q = Fraction(value.strip())
    except (ValueError, ZeroDivisionError):
        raise ManifestError(
            f"{key} must be a rational number (like 2, -1/3, or 0.25), "
            f"got {value!r}", line=line,
        ) from None
    if abs(q) > sys.float_info.max:
        raise ManifestError(f"{key} is too large for a float, got {value!r}",
                            line=line)
    return q


def _parse_number(kind, value: str, key: str, line: int):
    """int(value) or float(value), as `kind` says."""
    try:
        return kind(value.strip())
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ManifestError(
            f"{key} must be {what}, got {value!r}", line=line
        ) from None


def _compile(source: str, constants, key: str, line: int) -> Expr:
    try:
        return parse(source, constants)
    except ParseError as exc:
        raise ManifestError(
            f"{key} does not parse: {exc}", line=line
        ) from exc


def parse_manifest(text: str) -> Manifest:
    entries: dict[str, tuple[str, int]] = {}
    repeats: dict[str, list[tuple[str, int]]] = {k: [] for k in _REPEAT_KEYS}
    constants_raw: dict[str, tuple[str, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ManifestError(
                f"expected 'key = value', got {stripped!r}", line=lineno
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ManifestError(f"{key} has no value", line=lineno)
        if key in _REPEAT_KEYS:
            repeats[key].append((value, lineno))
        elif key.startswith("const."):
            name = key[len("const."):]
            if not name.isidentifier():
                raise ManifestError(
                    f"constant name {name!r} is not an identifier",
                    line=lineno,
                )
            if name in constants_raw:
                raise ManifestError(
                    f"constant {name} defined twice", line=lineno
                )
            constants_raw[name] = (value, lineno)
        elif key in _SINGLE_KEYS:
            if key in entries:
                raise ManifestError(f"{key} given twice", line=lineno)
            entries[key] = (value, lineno)
        else:
            raise ManifestError(f"unknown key {key!r}", line=lineno)

    for key in _REQUIRED:
        if key not in entries:
            raise ManifestError(f"missing required key {key}")

    constants = {
        name: _parse_fraction(value, f"const.{name}", line)
        for name, (value, line) in constants_raw.items()
    }

    value, line = entries["epsilon"]
    epsilon = _parse_number(int, value, "epsilon", line)
    if epsilon not in (1, -1):
        raise ManifestError(
            f"epsilon must be 1 or -1, got {epsilon}", line=line
        )

    f_source = _unquote(entries["f"][0])
    f = _compile(f_source, constants, "f", entries["f"][1])
    xi_sources = []
    xi = []
    for key in ("xi1", "xi2", "xi3"):
        source = _unquote(entries[key][0])
        xi_sources.append(source)
        xi.append(_compile(source, constants, key, entries[key][1]))

    intervals = tuple(
        _parse_interval(entries[key][0], key, entries[key][1])
        for key in ("domain.x", "domain.y", "domain.z")
    )
    positive = tuple(
        _compile(_unquote(value), constants, "require_positive", line)
        for value, line in repeats["require_positive"]
    )
    nonzero = tuple(
        _compile(_unquote(value), constants, "require_nonzero", line)
        for value, line in repeats["require_nonzero"]
    )
    sampling = SamplingConfig()
    for key, kind in (("samples", int), ("seed", int), ("tol", float)):
        if key in entries:
            value, line = entries[key]
            number = _parse_number(kind, value, key, line)
            try:
                sampling = sampling.with_overrides(**{key: number})
            except InputError as exc:
                raise ManifestError(str(exc), line=line) from None

    return Manifest(
        name=entries["name"][0],
        epsilon=epsilon,
        f_source=f_source,
        xi_sources=tuple(xi_sources),
        constants=constants,
        f=f,
        xi=tuple(xi),
        domain=Domain(intervals, positive, nonzero, sampling),
    )


def load_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    return parse_manifest(text)
