"""Exact symbolic scalar fields on R^3 in coordinates (x, y, z).

The expression language is deliberately tiny: rational literals, the three
coordinates, named constants bound to rational values, the four arithmetic
operations, literal integer powers, and the unary functions exp and sqrt.
Everything downstream (metrics, structure tensors, classification conditions)
is built from these nodes, differentiated exactly, and then evaluated
numerically at sampled points.

Grammar accepted by `parse` (a strict superset of the required one: a single
leading sign is allowed so that components like -1 can be written directly):

    expr    := ["+"|"-"] term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := base ("^" ["-"] integer)?
    base    := number | identifier | "(" expr ")"
             | ("exp"|"sqrt") "(" expr ")"
    number  := digits ("." digits)?

ASTs are immutable and interned (hash-consed): a constructor returns the
live node of that type with those fields when there is one, so equal trees
are one object and == and hash are identity. `to_source` prints an
expression so that reparsing reproduces the exact tree (`parse(to_source(e))
is e` for trees no deeper than MAX_DEPTH); to keep that property the
printer parenthesizes right operands of same-precedence binary nodes and
negated right operands of + and -.

Each walker (`diff`, `to_source`, `depth`, `walk`, the evaluator and the
jets) is a per-node rule given to `fold`, one iterative post-order pass over
the DAG as on an operation tape (Griewank and Walther, Evaluating
Derivatives, 2008): nothing recurses per level, so derived fields may nest
deeply. All one analysis keeps is one table, a dict: each derivative
under its (node, variable), and every other entry (a batch's kept values
and jets, frames, verdicts) a result of `once`, keyed by `once_key` from
every input it reads (as in hash-consing practice: Filliatre and Conchon,
Type-safe modular hash-consing, 2006).
Every walker and `once` use the `current` table, the open analysis's or
one that lives for the call alone, under one rule: `diff` and the
evaluator keep each node, the jets each field, from its first
computation. A writable batch, which may change in place, has no key, so
what is made on one is kept nowhere.

Numeric literals are exact `Fraction`s. The smart constructors used by
`diff` and by the Python operator overloads only ever produce fractions with
denominators of the form 2^a * 5^b (always printable as finite decimals), so
round-tripping is lossless.
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import Mapping, Union
from weakref import WeakValueDictionary

import numpy as np

from .errors import (
    EvaluationError, ExponentError, ParseError, UnboundIdentifierError,
)

Rational = Union[int, Fraction]

_VARIABLES = ("x", "y", "z")
_FUNCTIONS = ("exp", "sqrt")

# Deepest tree (and parenthesis nesting) `parse` accepts: it bounds the
# recursive-descent parser's nesting, and `parse(to_source(e)) is e` holds
# for trees up to this depth. The walkers over parsed and derived fields do
# not recurse, so they need no bound.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


_set = object.__setattr__  # fills the slots of a new, then immutable, node

# Every live node by (type, *fields): equal trees are one object.
_NODES: WeakValueDictionary = WeakValueDictionary()


class Expr:
    """Base class for AST nodes: immutable and interned, so a constructor
    given the fields of a live node returns that node and == is identity;
    provides arithmetic operator sugar."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                _set(node, name, value)
            _NODES[key] = node
        return node

    def __reduce__(self):   # a copy or unpickled node is interned too
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = (repr(getattr(self, name)) for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponents must be literal integers")
        return pow_of(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_source(self)


class Num(Expr):
    """Nonnegative rational literal (negatives are Neg-wrapped)."""

    __slots__ = __match_args__ = ("value",)

    def __new__(cls, value: Fraction):
        return super().__new__(
            cls, value if isinstance(value, Fraction) else Fraction(value))


class Const(Expr):
    """Named constant bound to a rational value at parse/build time."""

    __slots__ = __match_args__ = ("name", "value")


class Var(Expr):
    __slots__ = __match_args__ = ("name",)


class _Binary(Expr):
    __slots__ = __match_args__ = ("left", "right")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")


class Call(Expr):
    __slots__ = __match_args__ = ("func", "arg")


class Neg(Expr):
    __slots__ = __match_args__ = ("arg",)


X = Var("x")
Y = Var("y")
Z = Var("z")
ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def as_expr(value) -> Expr:
    """Coerce an int, Fraction, or Expr into an Expr.

    Floats are rejected: literals must stay exact rationals in float range.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not scalar fields")
    if isinstance(value, (int, Fraction)):
        if abs(value) > sys.float_info.max:
            # a count of digits, as str() refuses an int past 4300 digits
            whole = abs(int(value))
            k = int(whole.bit_length() * math.log10(2))
            raise ValueError("number too large for a float: "
                             f"{k + (whole >= 10**k)} digits")
        return _num(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a scalar field")


def _num(q: Fraction) -> Expr:
    if q < 0:
        return Neg(Num(-q))
    return Num(q)


def _fold(q: Fraction) -> Expr | None:
    """The constant q, or None past float range: as the parser, the
    constructors make no Num a float cannot hold, so a sum, product or
    power that overflows stays a node, which evaluation names."""
    return _num(q) if abs(q) <= sys.float_info.max else None


def add(a: Expr, b: Expr) -> Expr:
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(a.value + b.value) or Add(a, b)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(a.value * b.value) or Mul(a, b)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if a is ZERO:
        return ZERO
    if b is ONE:
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0:
        q = a.value / b.value
        if q.denominator == 1:
            return _fold(q) or Div(a, b)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Neg):
        return a.arg
    if isinstance(a, Num):
        return _num(-a.value)
    return Neg(a)


def pow_of(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Num) and exponent > 0:
        return _fold(base.value**exponent) or Pow(base, exponent)
    return Pow(base, exponent)


def variables(e: Expr) -> frozenset[str]:
    """Names of the coordinates the expression actually mentions."""
    return frozenset(node.name for node in walk(e) if isinstance(node, Var))


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, _Binary):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, (Call, Neg)):
        return (node.arg,)
    return ()


def walk(e: Expr) -> list[Expr]:
    """Each distinct node of e once, in `fold` order: a DAG is not unfolded."""
    nodes: list[Expr] = []
    fold(e, lambda node, _: nodes.append(node))
    return nodes


def fold(e: Expr, rule, known=lambda node: None):
    """rule(node, [results of its children]) for each distinct node of e
    (by identity), children left to right before their parent; the root's
    result. known(node) gives a node's result when it is already known, or
    None: such a node stands as a leaf, and its subtree is not entered. A
    child's result is dropped once its last parent has used it. Iterative,
    so the depth of e is bounded by memory alone."""
    hit = known(e)
    if hit is not None:
        return hit
    # distinct nodes, each after its children; the parent edges into each
    uses, order, results, children = {e: 0}, [], {}, _children(e)
    stack = [(e, children, iter(children))]
    while stack:
        for child in stack[-1][2]:
            if child in uses:
                uses[child] += 1
                continue
            uses[child] = 1
            results[child] = known(child)
            if results[child] is None:
                children = _children(child)
                stack.append((child, children, iter(children)))
                break
        else:
            order.append(stack.pop()[:2])
    for node, children in order:
        results[node] = rule(node, [results[c] for c in children])
        for child in children:
            uses[child] -= 1
            if not uses[child]:
                del results[child]
    return results[e]


def depth(e: Expr) -> int:
    """Nodes on the longest root-to-leaf path."""
    return fold(e, lambda node, depths: 1 + max(depths, default=0))


# ---------------------------------------------------------------------------
# Differentiation


# One table holds all one analysis keeps, until it closes (see `analysis`):
# each result of `once` under `once_key`, and each derivative of `diff`
# under its (node, variable).
_ANALYSIS: ContextVar[dict | None] = ContextVar("analysis", default=None)


def current() -> dict:
    """The open analysis's table, or a new one that lives only for the
    caller's call, so a call made outside an analysis keeps nothing for the
    next."""
    table = _ANALYSIS.get()
    return {} if table is None else table


@contextmanager
def analysis():
    """The open analysis's table, or a new one that closes, with all it
    keeps, when the block ends."""
    token = _ANALYSIS.set(current())
    try:
        yield _ANALYSIS.get()
    finally:
        _ANALYSIS.reset(token)


def once_key(owner, name, key: tuple) -> tuple | None:
    """The key of a result of `once`: owner and every batch of points in
    key by identity (the entry keeps them alive, so an id stays unique),
    the rest of key as given. None when owner or key holds a writable
    batch or a list (points given as nested lists), which may change in
    place: such a result is kept nowhere."""
    if type(owner) is np.ndarray and owner.flags.writeable:
        return None
    out = [id(owner), name]
    for part in key:
        if type(part) is list:
            return None
        if type(part) is np.ndarray:
            if part.flags.writeable:
                return None
            part = id(part)
        out.append(part)
    return tuple(out)


def once(owner, name, key: tuple, build):
    """build(), once per (owner, name, key) in the `current` analysis, under
    `once_key`, so key must name every other input the result reads."""
    k = once_key(owner, name, key)
    if k is None:
        return build()
    table = current()
    if k not in table:
        table[k] = (owner, key, build())
    return table[k][2]


def release(owner, name: str, key: tuple) -> None:
    """Drop a result of `once` that no later step needs (sample arrays)."""
    current().pop(once_key(owner, name, key), None)


def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to 'x', 'y', or 'z'.

    One `fold` of `_derive`, memoized per (node, variable) in the `current`
    analysis: a node in the memo stands as a leaf, and each node
    differentiated enters it. So a derivative shares the derivative
    objects of its shared subtrees and DAG-shaped inputs stay DAG-shaped.
    """
    if var not in _VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    memo = current()

    def rule(node: Expr, derivatives: list[Expr]) -> Expr:
        d = memo[node, var] = _derive(node, var, derivatives)
        return d

    return fold(e, rule, lambda node: memo.get((node, var)))


def _derive(e: Expr, var: str, d: list[Expr]) -> Expr:
    """One differentiation rule: the derivative of e from those of its
    children, d (in `_children` order)."""
    if isinstance(e, (Num, Const)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return add(d[0], d[1])
    if isinstance(e, Sub):
        return sub(d[0], d[1])
    if isinstance(e, Neg):
        return neg(d[0])
    if isinstance(e, Mul):
        return add(mul(d[0], e.right), mul(e.left, d[1]))
    if isinstance(e, Div):
        return div(sub(mul(d[0], e.right), mul(e.left, d[1])), pow_of(e.right, 2))
    if isinstance(e, Pow):
        power = pow_of(e.base, e.exponent - 1)
        return mul(mul(_num(Fraction(e.exponent)), power), d[0])
    if isinstance(e, Call):
        if e.func == "exp":
            return mul(e, d[0])
        if e.func == "sqrt":
            return div(d[0], mul(_num(Fraction(2)), e))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def gradient(e: Expr) -> tuple[Expr, Expr, Expr]:
    return (diff(e, "x"), diff(e, "y"), diff(e, "z"))


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 10
_PREC_NEG = 15
_PREC_MUL = 20
_PREC_POW = 30
_PREC_ATOM = 40


def _precedence(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _decimal(q: Fraction) -> str:
    """Finite-decimal rendering; exact for denominators 2^a * 5^b."""
    if q.denominator == 1:
        return str(q.numerator)
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        # Not finitely printable; falls back to a quotient (reparses as Div).
        return f"{q.numerator}/{q.denominator}"
    k = max(twos, fives)
    scaled = q.numerator * 10**k // q.denominator
    digits = str(scaled).zfill(k + 1)
    return f"{digits[:-k]}.{digits[-k:]}"


def to_source(e: Expr) -> str:
    """Render an AST, by one `fold` of `_text`, to source text that reparses
    to the identical tree. A tree deeper than MAX_DEPTH (such as a derivative
    of a deep input) still prints, but its text does not reparse."""
    return fold(e, _text)


def _text(e: Expr, texts: list[str]) -> str:
    """One printing rule: the text of e from those of its children."""

    def wrap(i: int, minimum: int) -> str:
        low = _precedence(_children(e)[i]) < minimum
        return f"({texts[i]})" if low else texts[i]

    if isinstance(e, Num):
        return _decimal(e.value)
    if isinstance(e, (Const, Var)):
        return e.name
    if isinstance(e, Add):
        return f"{wrap(0, _PREC_ADD)} + {wrap(1, _PREC_NEG + 1)}"
    if isinstance(e, Sub):
        return f"{wrap(0, _PREC_ADD)} - {wrap(1, _PREC_NEG + 1)}"
    if isinstance(e, Mul):
        return f"{wrap(0, _PREC_MUL)} * {wrap(1, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{wrap(0, _PREC_MUL)} / {wrap(1, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{wrap(0, _PREC_NEG + 1)}"
    if isinstance(e, Pow):
        return f"{wrap(0, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({texts[0]})"
    raise TypeError(f"cannot print {type(e).__name__}")


# ---------------------------------------------------------------------------
# Parsing


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind  # 'num', 'ident', 'op', 'end'
        self.text = text
        self.position = position


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                if j >= n or not source[j].isdecimal():
                    raise ParseError("malformed number", source, i)
                while j < n and source[j].isdecimal():
                    j += 1
            tokens.append(_Token("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", source, i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, constants: Mapping[str, Fraction]):
        self.source = source
        self.constants = constants
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, text: str) -> _Token:
        token = self.peek()
        if token.kind != "op" or token.text != text:
            raise ParseError(f"expected {text!r}", self.source, token.position)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(
                f"unexpected trailing input {token.text!r}",
                self.source,
                token.position,
            )
        return e

    def expr(self) -> Expr:
        token = self.peek()
        negate = False
        if token.kind == "op" and token.text in "+-":
            self.advance()
            negate = token.text == "-"
        e = self.term()
        if negate:
            e = Neg(e)
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in "+-":
                self.advance()
                right = self.term()
                e = Add(e, right) if token.text == "+" else Sub(e, right)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in "*/":
                self.advance()
                right = self.factor()
                e = Mul(e, right) if token.text == "*" else Div(e, right)
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            e = Pow(e, self.integer_exponent())
        return e

    def nested(self, opening: _Token) -> Expr:
        """The expression after an opening parenthesis, and its closing one."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, self.source, opening.position)
        e = self.expr()
        self.expect_op(")")
        self.nesting -= 1
        return e

    def in_float_range(self, value, token: _Token):
        if abs(value) > sys.float_info.max:
            raise ParseError("number too large for a float", self.source,
                             token.position)
        return value

    def integer_exponent(self) -> int:
        sign = 1
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            sign = -1
        token = self.peek()
        if token.kind != "num" or "." in token.text:
            raise ExponentError(
                "exponent must be a literal integer",
                self.source,
                token.position,
            )
        self.advance()
        return sign * self.in_float_range(int(token.text), token)

    def base(self) -> Expr:
        token = self.peek()
        if token.kind == "num":
            self.advance()
            return Num(self.in_float_range(Fraction(token.text), token))
        if token.kind == "ident":
            self.advance()
            name = token.text
            if name in _FUNCTIONS:
                return Call(name, self.nested(self.expect_op("(")))
            if name in _VARIABLES:
                return Var(name)
            if name in self.constants:
                return Const(name, Fraction(self.constants[name]))
            raise UnboundIdentifierError(
                f"unbound identifier {name!r}", self.source, token.position
            )
        if token.kind == "op" and token.text == "(":
            return self.nested(self.advance())
        raise ParseError(
            f"unexpected token {token.text!r}" if token.kind != "end"
            else "unexpected end of input",
            self.source,
            token.position,
        )


def parse(source: str, constants: Mapping[str, Rational] | None = None) -> Expr:
    """Parse expression source into an AST.

    `constants` binds identifier names to exact rational values; any other
    identifier besides x, y, z, exp, sqrt is rejected with its position, and
    so is a tree deeper than MAX_DEPTH.
    """
    bound = {name: Fraction(v) for name, v in (constants or {}).items()}
    for name in bound:
        if name in _VARIABLES or name in _FUNCTIONS:
            raise ValueError(f"constant name {name!r} shadows a builtin")
    e = _Parser(source, bound).parse()
    if depth(e) > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, source, 0)
    return e


# ---------------------------------------------------------------------------
# Numeric evaluation


# the arithmetic of a binary node, on value arrays and jets alike
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           Div: operator.truediv}


def as_batch(points) -> np.ndarray:
    """points as an (n, 3) batch, the one layout the evaluator, the jets and
    the kernels take (ValueError otherwise): as floats, or as given when
    exact, an object array of a scalar type that takes float literals
    exactly, which every kernel keeps."""
    pts = np.asarray(points)
    if pts.dtype != object:
        pts = pts.astype(float, copy=False)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (n, 3) batch, not {pts.shape}")
    return pts


def scalar(value, like):
    """value as a float, or as 0 * like's first exact entry + value."""
    like = np.asarray(like)
    return float(value) if like.dtype != object else like.flat[0] * 0 + value


def is_finite(a) -> np.ndarray:
    """np.isfinite, true everywhere on exact scalars."""
    a = np.asarray(a)
    return np.isfinite(a) if a.dtype != object else np.ones(a.shape, bool)


def evaluate_with_scale(e: Expr, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate over a batch of points (shape (n, 3)).

    Returns (values, scale) where scale at each point is the largest
    magnitude any subexpression attained there. Zero tests divide residuals
    by (1 + scale), so cancellation-heavy identities are judged relative to
    the size of the quantities that cancelled.

    The expression is evaluated by one `fold` over its DAG: a subtree
    reached twice (`diff` reuses operand objects) is evaluated once per
    call, children left to right. Values are those of a tree walk.

    Each node's (values, scale), read-only, is kept from its first
    evaluation in the points' values, `once(pts, "values", (), dict)`,
    where it stands as a leaf of later calls; a node's values and scale
    depend on its subtree alone, so this changes no bit. The values of a
    writable batch are kept for the call alone (see `once_key`).

    Raises EvaluationError on division by exactly zero, sqrt of a
    non-positive argument, or a non-finite result (overflow), by the domain
    rules `guard` and `guard_finite`, reporting the offending subexpression,
    the first offending point and the mask of every offending point
    (`rows`); a node that raises is not kept.
    """
    pts = as_batch(points)
    return _walk(e, pts, once(pts, "values", (), dict))


def raise_at(bad: np.ndarray, reason: str, node: Expr | str,
             pts: np.ndarray) -> None:
    """EvaluationError at node, or at a label where no node is at hand,
    and the first of the (n, 3) points where bad holds, with bad as its
    `rows`: every point node refuses."""
    if bad.any():
        where = node if isinstance(node, str) else to_source(node)
        raise EvaluationError(reason, where, pts[bad.argmax()], bad)


def divisor(node: Expr) -> Expr | None:
    """The child node divides by, or None: the right operand of a Div, the
    base of a negative Pow; node's last child either way."""
    divides = type(node) is Div or type(node) is Pow and node.exponent < 0
    return _children(node)[-1] if divides else None


def guard(node: Expr, operand, pts: np.ndarray) -> None:
    """The domain rules on a node's operands, the evaluator's and the jets'
    alike: given the value of node's last child over the (n, 3) points, a
    zero divisor (see `divisor`) or a non-positive sqrt argument refuses
    its point (see `raise_at`). Each rule acts elementwise, so a point is
    refused on any batch exactly when it is refused on its batch of one."""
    if divisor(node) is not None:
        raise_at(operand == 0.0, "division by zero", node, pts)
    elif type(node) is Call and node.func == "sqrt":
        raise_at(operand <= 0.0, "sqrt of a non-positive argument", node, pts)


def guard_finite(node: Expr | str, values: np.ndarray,
                 pts: np.ndarray) -> None:
    """The domain rule on a result, values over the (n, 3) points (points
    last): a node's values, its jet's coefficients or a labelled residual
    (see `raise_at`). A point where an entry is not finite is refused.
    A negation of finite entries is finite, so it alone is not checked;
    a sqrt is, since its Taylor coefficients grow like u0^(1/2 - k) and
    overflow where its value does not. One `is_finite` pass when all are
    finite."""
    if type(node) is Neg:
        return
    finite = is_finite(values)
    if not finite.all():
        raise_at(~finite.reshape(-1, len(pts)).all(axis=0), "non-finite value",
                 node, pts)


def _walk(e: Expr, pts: np.ndarray, kept: dict) -> tuple[np.ndarray, np.ndarray]:
    """(values, scale) of e over the (n, 3) points: one `fold` of
    `_evaluate_node`, each node's result made read-only and kept in kept,
    the points' table, where a kept node stands as a leaf."""

    def keep(node: Expr, args) -> tuple[np.ndarray, np.ndarray]:
        out = kept[node] = _evaluate_node(node, args, pts)
        for array in out:
            array.setflags(write=False)
        return out

    with np.errstate(over="ignore", divide="ignore"):
        return fold(e, keep, kept.get)


def _evaluate_node(node: Expr, args, pts: np.ndarray):
    """The evaluator's rule: (values, scale) of node over the points from
    those of its children, args (in `_children` order), where the domain
    rules (`guard`, `guard_finite`) hold: an overflow raises, under
    `_walk`'s errstate, so with no warning."""
    kind = type(node)
    if kind in (Num, Const, Var):
        v = (pts[:, _VARIABLES.index(node.name)] if kind is Var
             else np.full(pts.shape[0], scalar(node.value, pts)))
        return v, np.abs(v)
    (a, scale), *rest = args
    if kind is Neg:
        return -a, scale
    guard(node, args[-1][0], pts)
    if kind in _BINARY:
        b, b_scale = rest[0]
        v = _BINARY[kind](a, b)
        scale = np.maximum(scale, b_scale)
    elif kind is Pow:
        v = a ** node.exponent   # the bits of a ** float(exponent)
    else:
        v = np.sqrt(a) if node.func == "sqrt" else np.exp(a)
    guard_finite(node, v, pts)
    return v, np.maximum(scale, np.abs(v))
