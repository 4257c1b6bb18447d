"""Third-order jets: values plus all partial derivatives up to order 3.

A jet stores the truncated Taylor expansion of a scalar field at a point,
indexed by multi-indices (i, j, k) with i + j + k <= order. Coefficients are
Taylor coefficients (derivative divided by i! j! k!), which makes products
plain truncated polynomial multiplication; `derivative` converts back.

Coefficients form one array shaped (coefficients, n) over an (n, 3) batch
of points: the package's one layout, components first and points last
(see structure), and no other. Each operation acts on whole rows in one
order, so a batch row is bit for bit the jet of the batch of one at its
point: a product adds each gamma's terms a[alpha] * b[beta] one by one, in
a fixed split order, to +0.0, as column sums (see `_product_table`); and
the exp and reciprocal tables call math.exp and Python `**` per point
(numpy rounds differently), mapped in C. So `walker.segre_type` reads the
jet at pts[0] in column 0 of the sample's. Each field's jet is computed
once per analysis and points, kept as a result of `expressions.once` like
every other entry of the analysis, and a lower order is cut from it (see
`eval_jet`).

`eval_jet` propagates jets bottom-up through an expression DAG, by one
`expressions.fold` of a per-node jet rule, so every partial derivative up
to the requested order comes out of one pass, with no symbolic
differentiation and no finite differencing. Unary functions are
applied by composing with their univariate Taylor expansion around the inner
value; that needs the domain rules of plain evaluation (nonzero divisors,
positive sqrt arguments, finite results), and each node calls the same
statement of them, `expressions.guard` and `expressions.guard_finite`. So
where a value fails, its jet fails at the same node, for the same reason,
on the same points; a jet fails too, at the first node whose jet holds a
non-finite coefficient, where only a higher coefficient overflows (a
sqrt's coefficients grow like u0^(1/2 - k)). Every node but a negation
is checked, so a jet that is returned or kept is finite, unless a
variable, or a negation chain over one, is read at a non-finite input
coordinate.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, product, repeat

import numpy as np

from .expressions import (
    _BINARY, Call, Const, Expr, Neg, Num, Pow, Var, as_batch, fold, guard,
    guard_finite, once, scalar,
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

def _product_table(order: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Every way of splitting each multi-index gamma into two factors, as
    rows of the left and of the right factor, gamma by gamma; and the term
    columns: column k holds each gamma's k-th term, or the index one past
    the last term (a +0.0 pad) when gamma has fewer."""
    row = _ROW[order]
    splits = [[(row[ai, aj, ak], row[gi - ai, gj - aj, gk - ak])
               for ai, aj, ak in product(range(gi + 1), range(gj + 1),
                                         range(gk + 1))]
              for gi, gj, gk in _INDICES[order]]
    starts = [0, *accumulate(map(len, splits))]
    columns = tuple(np.array([start + k if k < len(s) else starts[-1]
                              for s, start in zip(splits, starts)])
                    for k in range(max(map(len, splits))))
    left, right = np.array([term for s in splits for term in s]).T
    return left, right, columns


_PRODUCT = {order: _product_table(order) for order in _ROW}


def _per_point(fn, values: np.ndarray, *more) -> np.ndarray:
    """fn(value, *more) on each value as a Python float (libm rounding);
    overflow -> inf."""
    flat = np.ravel(values).tolist()
    try:
        out = list(map(fn, flat, *map(repeat, more)))
    except OverflowError:   # rare: again point by point
        out = []
        for u in flat:
            try:
                out.append(fn(u, *more))
            except OverflowError:
                out.append(math.inf)
    return np.array(out).reshape(np.shape(values))


class Jet3:
    """Truncated Taylor expansions up to order <= 3 over a batch of points
    (see the module notes for the coefficient layout)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: np.ndarray):
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int, shape: tuple = ()) -> "Jet3":
        coeffs = np.full((len(_INDICES[order]),) + shape, scalar(0, value))
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

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.order, self.coeffs + other.coeffs)

    def __sub__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.order, self.coeffs - other.coeffs)

    def __neg__(self) -> "Jet3":
        return Jet3(self.order, -self.coeffs)

    def __mul__(self, other: "Jet3") -> "Jet3":
        assert self.order == other.order
        left, right, (first, *columns) = _PRODUCT[self.order]
        terms = np.zeros((len(left) + 1,) + self.coeffs.shape[1:],
                         self.coeffs.dtype)
        np.multiply(self.coeffs[left], other.coeffs[right], out=terms[:-1])
        # column by column: a sum started at +0.0 is never -0.0, so adding
        # the +0.0 pad changes no value and no sign of zero
        out = terms[first]
        out += 0.0
        for column in columns:
            out += terms[column]
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
            numerators[n] / _per_point(operator.pow, u0, n + 1)
            for n in range(1, self.order + 1)
        ]
        return self.compose(derivs)

    def __truediv__(self, other: "Jet3") -> "Jet3":
        return self * other.reciprocal()

    def intpow(self, exponent: int) -> "Jet3":
        """self ** exponent by repeated squaring, from the first factor and
        up to the exponent's last bit, so each product formed is used; the
        constant 1 at exponent 0. At +-1 the lone factor is returned plus
        0, the bits of its product with 1: a product's sums start at +0.0,
        so a -0.0 coefficient becomes +0.0."""
        n = abs(exponent)
        if n == 0:
            return Jet3.constant(scalar(1, self.coeffs), self.order,
                                 self.value.shape)
        base = self.reciprocal() if exponent < 0 else self
        if n == 1:
            return Jet3(self.order, base.coeffs + scalar(0, base.coeffs))
        result = None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def exp(self) -> "Jet3":
        """exp; an overflowing value becomes inf, which eval_jet reports."""
        e = _per_point(math.exp, self.value)
        return self.compose([e] * (self.order + 1))

    def sqrt(self) -> "Jet3":
        u0 = self.value
        s = np.sqrt(u0)
        derivs = [s, 0.5 / s, -0.25 / (s * u0), 0.375 / (s * u0 * u0)]
        return self.compose(derivs[: self.order + 1])


def eval_jet(e: Expr, points, order: int = MAX_ORDER) -> Jet3:
    """Value and all partial derivatives of `e` up to `order` over a batch
    of points (shape (n, 3)), by one `fold`: a shared subtree's jet is
    computed once, children before parents.

    Domain violations (zero divisor, non-positive sqrt argument, a
    non-finite coefficient at any node but a negation) raise
    EvaluationError naming the first offending subexpression in that
    order, the first point where it fails and every such point (`rows`),
    by the evaluator's rules (`expressions.guard`, `guard_finite`).

    The jet of each field is kept, read-only, in the points' jets,
    `once(pts, "jets", (), dict)` (a writable batch's for the call alone,
    see `expressions.once_key`); a field that raised is not kept. A call
    at the kept order returns the kept jet; one at a lower order returns
    its leading rows (see `_cut`); a larger field uses either as a leaf.
    That changes no bit: a coefficient of degree d comes from those of
    degree <= d by the same operations at every order, except that a
    higher order adds Horner steps in w = u - u0 (see `compose`). Those
    reach degree d only as products with w's zero constant term, added to
    sums that start at +0.0; each product is +-0.0, since a non-finite
    factor would give a nan that reaches the jet, and a returned jet is
    finite (see the module notes).
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    pts = as_batch(points)
    table = once(pts, "jets", (), dict)
    kept = table.get(e)
    jet = _cut(kept, order)
    if jet is None:
        jet = _propagate(e, pts, order, table)
        jet.coeffs.setflags(write=False)
        if kept is None or order > kept.order:
            table[e] = jet
    return jet


def _cut(kept: Jet3 | None, order: int) -> Jet3 | None:
    """The jet at `order` a kept jet gives: itself, or its leading rows
    when it is of a higher order. A kept jet is finite (see `eval_jet`),
    but for a variable, or a negation chain over one, read at a
    non-finite coordinate, whose rows are the same at every order."""
    if kept is not None:
        if kept.order == order:
            return kept
        if kept.order > order:
            return Jet3(order, kept.coeffs[:len(_INDICES[order])])
    return None


def _propagate(e: Expr, pts: np.ndarray, order: int, table: dict) -> Jet3:
    """The jet of e over the points: one `fold` of ev, a field whose jet
    the points' table keeps standing as a leaf (see eval_jet)."""
    shape = pts.shape[:1]

    def ev(node: Expr, args: list[Jet3]) -> Jet3:
        if isinstance(node, (Num, Const)):
            return Jet3.constant(scalar(node.value, pts), order, shape)
        if isinstance(node, Var):
            axis = _AXES[node.name]
            jet = Jet3.constant(pts[:, axis], order, shape)
            if order >= 1:
                jet.coeffs[1 + axis] = scalar(1, pts)
            return jet
        guard(node, args[-1].value, pts)
        if isinstance(node, Neg):
            out = -args[0]
        elif isinstance(node, Pow):
            out = args[0].intpow(node.exponent)
        elif isinstance(node, Call):
            out = args[0].sqrt() if node.func == "sqrt" else args[0].exp()
        else:
            out = _BINARY[type(node)](*args)
        guard_finite(node, out.coeffs, pts)
        return out

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return fold(e, ev, lambda node: _cut(table.get(node), order))
