"""Seeded random manifests for the generated-deep workload.

Expressions use only the manifest grammar: + - * / ^ exp sqrt, the
variables x y z and rational literals. Every tree is complete to exactly
DEPTH levels, so manifests of one slot shape cost about the same and the
cost of a set varies little from seed to seed.

Accepted inputs satisfy the unit constraint by construction, in one of
three Reeb shapes:

    unit_y    xi = (h, +-1, 0)
    exp_s     xi3 = exp(u), xi2 = s, xi1 = (1 - s^2 - f xi3^2) / (2 xi3)
    exp_zero  the same with s = 0

Rejected inputs are rejected by construction: epsilon = -1, or
xi = (h, 1 + c, 0) with c >= 1/2. Denominators and sqrt arguments come from
a grammar that stays positive on the positive box, and exp arguments and
s are sums of scaled coordinates. A draw whose fields exceed LIMIT in
magnitude on a grid over the box is drawn again. Outcomes are never
inspected: a set is used exactly as drawn.
"""

from __future__ import annotations

import math
import random

DEPTH = 3
SAMPLES = 32
BOX = (0.5, 2.0)
# Largest |f|, |xi1|, |xi2|, |xi3| allowed on a grid over the box; a draw
# beyond it is drawn again. Larger fields reach the range where accepted
# structures end in exit 3 (see findings in spec.json).
LIMIT = 100.0
_GRID = tuple(BOX[0] + (BOX[1] - BOX[0]) * i / 3 for i in range(4))

# Slots of one round: the Reeb shape of each manifest, rejections placed by
# construction. The exp_s shape, which dominates the symbolic work, fills
# 70% of the slots, so the median analysis falls well inside that group
# and not on the edge between two groups of different cost.
SHAPES = (
    ("reject_epsilon", "reject_unit", "unit_y", "unit_y", "exp_zero",
     "exp_zero") + ("exp_s",) * 14
)

_VARS = ("x", "y", "z")
_LITERALS = ("1", "2", "1/2", "1/3", "3/2", "2/3")
_SCALES = ("1/2", "1/3", "1/4")


class _Trees:
    """Expression trees as manifest source text, drawn from one rng."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _leaf(self) -> str:
        if self.rng.random() < 0.6:
            return self.rng.choice(_VARS)
        return self.rng.choice(_LITERALS)

    def positive(self, depth: int) -> str:
        """Tree whose value is positive at every point of the positive box."""
        if depth == 0:
            return self._leaf()
        op = self.rng.choice(("+", "*", "/", "exp", "sqrt", "^"))
        if op == "exp":
            return f"exp({self.bounded(depth - 1)})"
        if op == "sqrt":
            return f"sqrt({self.positive(depth - 1)})"
        if op == "^":
            return f"({self.positive(depth - 1)})^{self.rng.choice((2, 3, -1))}"
        return f"({self.positive(depth - 1)} {op} {self.positive(depth - 1)})"

    def bounded(self, depth: int) -> str:
        """Sum of 2^depth terms c*v with c <= 1/2, so at most 2^depth."""
        if depth == 0:
            return f"{self.rng.choice(_SCALES)}*{self.rng.choice(_VARS)}"
        op = self.rng.choice("+-")
        return f"({self.bounded(depth - 1)} {op} {self.bounded(depth - 1)})"

    def any(self, depth: int) -> str:
        """Tree of the given depth with either sign."""
        if depth == 0:
            return self._leaf()
        op = self.rng.choice(("+", "-", "*", "/", "sqrt", "^", "neg", "exp"))
        if op == "exp":
            return f"exp({self.bounded(depth - 1)})"
        if op == "sqrt":
            return f"sqrt({self.positive(depth - 1)})"
        if op == "^":
            return f"({self.any(depth - 1)})^2"
        if op == "neg":
            return f"(-({self.any(depth - 1)}))"
        if op == "/":
            return f"({self.any(depth - 1)} / {self.positive(depth - 1)})"
        return f"({self.any(depth - 1)} {op} {self.any(depth - 1)})"


def _reeb(trees: _Trees, shape: str, f: str) -> tuple[str, str, str]:
    rng = trees.rng
    if shape == "unit_y":
        return trees.any(DEPTH), rng.choice(("1", "-1")), "0"
    u = trees.bounded(DEPTH - 1)
    s = "0" if shape == "exp_zero" else trees.bounded(DEPTH - 1)
    xi3 = f"exp({u})"
    xi1 = f"(1 - ({s})^2 - ({f})*({xi3})^2)/(2*{xi3})"
    return xi1, s, xi3


def _largest(source: str) -> float:
    """Largest |value| of a field on the grid; inf when it overflows."""
    code = compile(source.replace("^", "**"), "<field>", "eval")
    functions = {"exp": math.exp, "sqrt": math.sqrt, "__builtins__": {}}
    try:
        return max(abs(eval(code, functions, {"x": x, "y": y, "z": z}))
                   for x in _GRID for y in _GRID for z in _GRID)
    except OverflowError:
        return math.inf


def _fields(shape: str, trees: _Trees) -> tuple[str, int, tuple[str, str, str]]:
    """(f, epsilon, xi) of one draw of the given slot shape."""
    rng = trees.rng
    f = trees.any(DEPTH)
    if shape == "reject_epsilon":
        return f, -1, _reeb(trees, rng.choice(("unit_y", "exp_s", "exp_zero")), f)
    if shape == "reject_unit":
        # (h, 1 + c, 0) with c >= 1/2: the constraint residual is at least
        # 5/4 at every point, so the rejection holds by construction.
        c = rng.choice(("1/2", "1", "2"))
        return f, 1, (trees.any(DEPTH), f"1 + {c}", "0")
    return f, 1, _reeb(trees, shape, f)


def manifest_text(name: str, shape: str, rng: random.Random,
                  samples: int = SAMPLES) -> str:
    """One manifest of the given slot shape, fields within LIMIT."""
    trees = _Trees(rng)
    while True:
        f, epsilon, xi = _fields(shape, trees)
        if max(_largest(e) for e in (f, *xi)) <= LIMIT:
            break
    lo, hi = BOX
    return (
        f"name = {name}\n"
        f"epsilon = {epsilon}\n"
        f'f = "{f}"\n'
        f'xi1 = "{xi[0]}"\n'
        f'xi2 = "{xi[1]}"\n'
        f'xi3 = "{xi[2]}"\n'
        f"domain.x = [{lo}, {hi}]\n"
        f"domain.y = [{lo}, {hi}]\n"
        f"domain.z = [{lo}, {hi}]\n"
        f"samples = {samples}\n"
    )


def manifest_set(seed: int, rounds: int = 1,
                 samples: int = SAMPLES) -> list[tuple[str, bool, str]]:
    """(name, built_to_be_rejected, text) for `rounds` copies of SHAPES."""
    rng = random.Random(seed)
    out = []
    for r in range(rounds):
        for i, shape in enumerate(SHAPES):
            name = f"gen-{seed}-{r}-{i}-{shape}"
            out.append((name, shape.startswith("reject"),
                        manifest_text(name, shape, rng, samples)))
    return out
