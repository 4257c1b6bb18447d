"""Batch columns against points, in exact arithmetic.

Reports evaluate every sample point in one batch; the pointwise API
evaluates one point. The value objects of `ftensor` are built both ways on
rational points, whose every kernel then runs in exact arithmetic: each
contraction is a sum of exact terms, so column k of every array must equal
the pointwise result at pts[k] as a number, whatever order np.einsum adds
the terms in. Float results are not compared: their rounding depends on
the summation order (Goldberg, "What every computer scientist should know
about floating-point arithmetic", 1991).

Q is the exact scalar, a Fraction whose arithmetic stays in Q. It takes
the kernels' float literals (0, 0.5, 1, 2 and 6, either sign) exactly and
refuses any other float operand, so a float that leaks into an exact run
fails the test, as does an entry of another type.
"""

from fractions import Fraction

import numpy as np
import pytest

from walkergeo import parse_manifest
from walkergeo.corpus import load_fixture
from walkergeo.ftensor import (
    exterior_data_at, f_tensor_at, normality_data_at, project_components,
    theta_forms,
)
from write_reports import read_manifest

LITERALS = frozenset({0.0, 0.5, 1.0, 2.0, 6.0})


def _operand(other):
    if isinstance(other, float):
        if abs(other) not in LITERALS:
            raise TypeError(f"float {other!r} in exact arithmetic")
        return Fraction(other)
    return other


def _exact(name):
    method = getattr(Fraction, name)

    def apply(self, other):
        result = method(self, _operand(other))
        return Q(result) if isinstance(result, Fraction) else result
    return apply


class Q(Fraction):
    """An exact rational scalar (see the module notes)."""

    __slots__ = ()

    def __neg__(self):
        return Q(-Fraction(self))

    def __pos__(self):
        return self

    def __abs__(self):
        return Q(abs(Fraction(self)))


for _name in ("add", "sub", "mul", "truediv", "pow"):
    for _dunder in (f"__{_name}__", f"__r{_name}__"):
        setattr(Q, _dunder, _exact(_dunder))


def _einsum_takes_objects() -> bool:
    one = np.array([Q(1)], dtype=object)
    try:
        return np.einsum("i...,i...->...", one, one) == 1
    except TypeError:
        return False


pytestmark = pytest.mark.skipif(
    not _einsum_takes_objects(),
    reason=f"np.einsum of numpy {np.__version__} refuses object arrays")

# rational fields without exp or sqrt: dense-curvature has no structural
# zeros; constant-rational has constant f and xi
STRUCTURES = ("dense-curvature", "constant-rational", "g5g6-normal",
              "g12-pure", "eta-einstein-parabolic", "flat-bilinear")
MANIFESTS = ("dense-curvature", "constant-rational")
VIEWS = (
    (f_tensor_at, ("components", "theta", "theta_star", "theta_xi",
                   "theta_star_xi", "reeb_square", "route_discrepancy")),
    (theta_forms, ("theta", "theta_star", "theta_xi", "theta_star_xi",
                   "route_discrepancy")),
    (exterior_data_at, ("d_eta", "d_fundamental", "lie_g", "nabla_eta",
                        "route_discrepancy")),
    (project_components, ("F5", "F6", "F10", "F12", "residual", "theta_xi",
                          "theta_star_xi", "model_defect")),
    (normality_data_at, ("nijenhuis", "defect")),
)


def rational_points(S) -> np.ndarray:
    """S's sample, each coordinate the nearest fraction with denominator at
    most 100 (in the closed box), as an object array of Q."""
    return np.array([[Q(Fraction(c).limit_denominator(100)) for c in p]
                     for p in S.domain.sample()], dtype=object)


def exact(a) -> bool:
    return all(type(x) is Q for x in np.asarray(a).flat)


def test_q_refuses_a_float_outside_the_literals():
    assert exact([Q(3, 10) + 0.5, 2.0 * Q(1, 3), Q(1, 4) ** 2, -Q(1), 1 / Q(3)])
    with pytest.raises(TypeError, match="0.3"):
        Q(1) + 0.3


@pytest.mark.parametrize("samples", (3, 16))
@pytest.mark.parametrize("name", STRUCTURES)
def test_batch_columns_equal_points_exactly(name, samples):
    manifest = (parse_manifest(read_manifest(name)) if name in MANIFESTS
                else load_fixture(name))
    S = manifest.build(samples=samples)
    pts = rational_points(S)
    for view, fields in VIEWS:
        batch = view(S, pts)
        for k, p in enumerate(pts):
            single = view(S, tuple(p))
            assert single.point == tuple(p)
            for field in fields:
                column = getattr(batch, field)[..., k]
                point = getattr(single, field)
                where = (view.__name__, field, k)
                assert exact(column) and exact(point), where
                assert np.array_equal(column, point), where
