"""Exception types shared across the package.

Every package error sits under exactly one of three bases, and the command
line maps each base to its exit status:

  * StructuralRejection, exit 1: no valid structure exists for the data
    (epsilon = -1, unit constraint violated, an operation defined only for
    epsilon = +1);
  * InputError, exit 2: the input cannot be analyzed (bad expressions or
    manifests, a field that cannot be evaluated at a point, an empty or
    degenerate domain);
  * ConsistencyError, exit 3: two independent routes disagreed.
"""

from __future__ import annotations


class WalkergeoError(Exception):
    """Base class for all package errors."""


class InputError(WalkergeoError):
    """Malformed user input: expression source, manifest file, CLI args."""


class ParseError(InputError):
    """Syntax error in expression source, with the offending position."""

    def __init__(self, message: str, source: str, position: int):
        self.source = source
        self.position = position
        super().__init__(f"{message} at position {position} in {source!r}")


class UnboundIdentifierError(ParseError):
    """Identifier that is neither a coordinate nor a bound constant."""


class ExponentError(ParseError):
    """Exponent that is not a literal integer."""


class ManifestError(InputError):
    """Malformed manifest file, with the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class EvaluationError(InputError):
    """A field could not be evaluated at a point: the first point of a
    batch where it fails, and `rows`, the boolean mask over that batch of
    every point where it fails (None when no mask was given; see
    `expressions.raise_at`)."""

    def __init__(self, reason: str, subexpression: str, point, rows=None):
        self.reason = reason
        self.subexpression = subexpression
        self.point = tuple(float(c) for c in point)
        self.rows = rows
        super().__init__(
            f"{reason} in {subexpression!r} at point {self.point}"
        )


class EmptyDomainError(InputError):
    """Rejection sampling failed to find any point satisfying the constraints."""


class OutOfDomainError(InputError):
    """A point outside the declared domain. Nothing in the package raises
    it, as every view takes a batch of points; it stays a name that error
    handlers may list."""

    def __init__(self, point):
        self.point = tuple(float(c) for c in point)
        super().__init__(f"point {self.point} is outside the declared domain")


class StructuralRejection(WalkergeoError):
    """The manifest describes data on which no valid structure exists."""


class NonexistentStructureError(StructuralRejection):
    """Raised for epsilon = -1: no almost paracontact metric structure
    exists on a three-dimensional Walker manifold whose parallel null
    distribution is complemented by a time-like direction."""


class UnitConstraintError(StructuralRejection):
    """The candidate Reeb field is not unit space-like: the algebraic
    constraint xi2^2 + f*xi3^2 + 2*xi1*xi3 = 1 fails at a witness point."""

    def __init__(self, witness, residual: float):
        self.witness = tuple(float(c) for c in witness)
        self.residual = float(residual)
        super().__init__(
            "unit constraint xi2^2 + f*xi3^2 + 2*xi1*xi3 = 1 violated "
            f"at {self.witness} (residual {self.residual:.3e})"
        )


class UnsupportedSignatureError(StructuralRejection):
    """Operation defined only for epsilon = +1 called with epsilon = -1."""


class DegenerateInputError(InputError):
    """Input degenerates on part of the domain (e.g. f_xx vanishes at some
    sampled points but not identically while a condition route divides by it)."""

    def __init__(self, message: str, witness):
        self.witness = tuple(float(c) for c in witness)
        super().__init__(f"{message} at {self.witness}")


class ConsistencyError(WalkergeoError):
    """Two independent computation routes disagreed beyond tolerance.

    Signals an implementation bug, never a property of the input.
    """
