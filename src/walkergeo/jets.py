"""Third-order jets: values plus all partial derivatives up to order 3.

A jet stores the truncated Taylor expansion of a scalar field at a point,
indexed by multi-indices (i, j, k) with i + j + k <= order. Coefficients are
Taylor coefficients (derivative divided by i! j! k!), which makes products
plain truncated polynomial multiplication; `derivative` converts back.

Coefficients form one array shaped (coefficients,) + (n,) over an (n, 3)
batch of points, or (coefficients,) at a single point, a batch-of-one view:
the package's one layout, components first and points last (see structure).
Each operation acts on whole rows in one order, so a batch row is bit for
bit the single-point jet: products accumulate `out[gamma] += a[alpha] *
b[beta]` from 0.0 in a fixed split order, and the exp and reciprocal tables
call math.exp and Python `**` per point (numpy rounds differently).
Jets are not memoized: nothing evaluated here is kept between calls.

`eval_jet` propagates jets bottom-up through an expression AST, so every
partial derivative up to the requested order comes out of one pass, with no
symbolic differentiation and no finite differencing. Unary functions are
applied by composing with their univariate Taylor expansion around the inner
value; that needs the same domain guards as plain evaluation (nonzero
divisors, positive sqrt arguments).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError
from .expressions import (
    Add, Call, Const, Div, Expr, Mul, Neg, Num, Pow, Sub, Var, to_source,
)

MAX_ORDER = 3

_AXES = {"x": 0, "y": 1, "z": 2}


def _indices(order: int) -> list[tuple[int, int, int]]:
    return [
        (i, j, k)
        for total in range(order + 1)
        for i in range(total, -1, -1)
        for j in range(total - i, -1, -1)
        for k in (total - i - j,)
    ]


_INDICES = {order: _indices(order) for order in range(MAX_ORDER + 1)}
_ROW = {order: {alpha: r for r, alpha in enumerate(_INDICES[order])}
        for order in range(MAX_ORDER + 1)}

def _product_table(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every way of splitting each multi-index gamma into two factors, as
    rows (gamma, left factor, right factor), gamma by gamma."""
    row = _ROW[order]
    table = [
        (g, row[ai, aj, ak], row[gi - ai, gj - aj, gk - ak])
        for g, (gi, gj, gk) in enumerate(_INDICES[order])
        for ai, aj, ak in np.ndindex(gi + 1, gj + 1, gk + 1)
    ]
    return tuple(np.array(column) for column in zip(*table))


_PRODUCT = {order: _product_table(order) for order in _ROW}


def _per_point(fn, values: np.ndarray) -> np.ndarray:
    """fn on each value as a Python float (libm rounding); overflow -> inf."""
    out = []
    for u in np.ravel(values).tolist():
        try:
            out.append(fn(u))
        except OverflowError:
            out.append(math.inf)
    return np.array(out).reshape(np.shape(values))


class Jet3:
    """Truncated Taylor expansions up to order <= 3, at one point or over a
    batch of points (see the module notes for the coefficient layout)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: np.ndarray):
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int, shape: tuple = ()) -> "Jet3":
        coeffs = np.zeros((len(_INDICES[order]),) + shape)
        coeffs[0] = value
        return cls(order, coeffs)

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, alpha: tuple[int, int, int]):
        """Partial derivative d^|alpha| / dx^i dy^j dz^k at the point(s)."""
        i, j, k = alpha
        factorial = math.factorial(i) * math.factorial(j) * math.factorial(k)
        return self.coeffs[_ROW[self.order][alpha]] * factorial

    def partial(self, axis: int) -> "Jet3":
        """Jet of the partial derivative along an axis, one order lower."""
        if self.order == 0:
            raise ValueError("cannot lower an order-0 jet")
        lifted = [tuple(a + (i == axis) for i, a in enumerate(alpha))
                  for alpha in _INDICES[self.order - 1]]
        return Jet3(self.order - 1, np.array([
            self.coeffs[_ROW[self.order][alpha]] * alpha[axis] for alpha in lifted
        ]))

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.order, self.coeffs + other.coeffs)

    def __sub__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.order, self.coeffs - other.coeffs)

    def __neg__(self) -> "Jet3":
        return Jet3(self.order, -self.coeffs)

    def __mul__(self, other: "Jet3") -> "Jet3":
        assert self.order == other.order
        gamma, left, right = _PRODUCT[self.order]
        out = np.zeros_like(self.coeffs)
        # unbuffered: each gamma's terms are added one by one, in table order
        np.add.at(out, gamma, self.coeffs[left] * other.coeffs[right])
        return Jet3(self.order, out)

    def compose(self, derivs) -> "Jet3":
        """Apply a univariate function given its derivatives at self.value.

        derivs = (f(u0), f'(u0), ..., f^(order)(u0)). Evaluated by Horner's
        scheme in w = self - u0, which is nilpotent under truncation.
        """
        taylor = [d / math.factorial(k) for k, d in enumerate(derivs)]
        w = Jet3(self.order, self.coeffs.copy())
        w.coeffs[0] = 0.0
        result = Jet3.constant(taylor[-1], self.order, self.value.shape)
        for c in reversed(taylor[:-1]):
            result = result * w
            result.coeffs[0] += c
        return result

    def reciprocal(self) -> "Jet3":
        u0 = self.value
        numerators = (1.0, -1.0, 2.0, -6.0)
        derivs = [1.0 / u0] + [
            numerators[n] / _per_point(lambda u, n=n: u ** (n + 1), u0)
            for n in range(1, self.order + 1)
        ]
        return self.compose(derivs)

    def __truediv__(self, other: "Jet3") -> "Jet3":
        return self * other.reciprocal()

    def intpow(self, exponent: int) -> "Jet3":
        if exponent < 0:
            return self.reciprocal().intpow(-exponent)
        result = Jet3.constant(1.0, self.order, self.value.shape)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exp(self) -> "Jet3":
        """exp; an overflowing value becomes inf, which eval_jet reports."""
        e = _per_point(math.exp, self.value)
        return self.compose([e] * (self.order + 1))

    def sqrt(self) -> "Jet3":
        u0 = self.value
        s = np.sqrt(u0)
        derivs = [s, 0.5 / s, -0.25 / (s * u0), 0.375 / (s * u0 * u0)]
        return self.compose(derivs[: self.order + 1])


def eval_jet(e: Expr, point, order: int = MAX_ORDER) -> Jet3:
    """Value and all partial derivatives of `e` up to `order`, at one point
    (shape (3,)) or over a batch of points (shape (n, 3)).

    Domain violations (zero divisor, non-positive sqrt argument, overflow)
    raise EvaluationError naming the offending subexpression and the first
    point where it fails.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 3)
    shape = pts.shape[:1]

    def check(bad: np.ndarray, reason: str, node: Expr) -> None:
        if bad.any():
            raise EvaluationError(reason, to_source(node), pts[int(np.argmax(bad))])

    def finite(out: Jet3, node: Expr) -> Jet3:
        check(~np.isfinite(out.coeffs).all(axis=0), "non-finite value", node)
        return out

    def ev(node: Expr) -> Jet3:
        if isinstance(node, (Num, Const)):
            return Jet3.constant(float(node.value), order, shape)
        if isinstance(node, Var):
            axis = _AXES[node.name]
            jet = Jet3.constant(pts[:, axis], order, shape)
            if order >= 1:
                jet.coeffs[1 + axis] = 1.0
            return jet
        if isinstance(node, Add):
            return ev(node.left) + ev(node.right)
        if isinstance(node, Sub):
            return ev(node.left) - ev(node.right)
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Mul):
            return finite(ev(node.left) * ev(node.right), node)
        if isinstance(node, Div):
            denominator = ev(node.right)
            check(denominator.value == 0.0, "division by zero", node)
            return finite(ev(node.left) / denominator, node)
        if isinstance(node, Pow):
            base = ev(node.base)
            if node.exponent < 0:
                check(base.value == 0.0, "division by zero", node)
            return finite(base.intpow(node.exponent), node)
        if isinstance(node, Call):
            arg = ev(node.arg)
            if node.func == "sqrt":
                check(arg.value <= 0.0, "sqrt of a non-positive argument", node)
                return arg.sqrt()
            return finite(arg.exp(), node)
        raise TypeError(f"cannot evaluate {type(node).__name__}")

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        jet = ev(e)
    return Jet3(order, jet.coeffs[:, 0]) if single else jet
