"""Domains, deterministic point sampling, and numeric zero testing.

A Domain is an open coordinate box plus constraint fields required to be
strictly positive or bounded away from zero, and the settings of its
sample (`SamplingConfig`: samples, seed, tol), the one place they are
held. The sampler rejects candidate points violating a constraint; it
never clamps. A constraint that cannot be evaluated at some candidates
raises with their rows (`EvaluationError.rows`), which are dropped before
the rest is evaluated again (`Domain._admissible`), so no loop runs over
points. Candidates come in batches from one `PCG64Stream` per
domain, seeded with the domain's seed:
a PCG64 in numpy's uint64 arithmetic that draws the doubles numpy's
`default_rng(seed).uniform` draws, bit for bit, without loading numpy's
random module. The stream is the package's own code, so the sample, and
every witness and report, is fixed by walkergeo alone: numpy's policy
(NEP 19) lets `Generator` methods change their output between numpy
versions.

Every sampled decision of the package is a `Route`: whether it holds, the
first sampled point where it fails, and its deciding residual.
`is_identically_zero` is the package's notion of an identity holding on a
domain: an expression is zero when at every sampled point its magnitude is
at most tol * (1 + scale), where scale is the largest magnitude any
subexpression attained there. Dividing by the scale keeps the test honest
for cancellation-heavy identities. `nonvanishing` is its opposite bound,
`bound` the route of a per-point maximum, and `every` the conjunction of
routes. Within one analysis (`analyzed`) each field is tested once, and
each verdict function runs once per arguments. A residual that is not
finite (an overflow, or inf - inf) decides nothing: `require_finite`
raises at its first point, for every route here and for the route
discrepancies and component split of `ftensor`.

Every tolerance comparison of the package, here and in the modules that
judge their own residuals, is `within`: a magnitude at most a tolerance
times a reference magnitude, or its negation. The tolerances are the
user's tol (`Domain.sampling.tol`) and the three constants beside
`within`, so this module is the one place the smallness rule is stated.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from typing import Iterable, NamedTuple

import numpy as np

from .errors import EmptyDomainError, EvaluationError, InputError
from .expressions import (
    ZERO, Expr, analysis, evaluate_with_scale, guard_finite, once,
)

_MAX_BATCHES = 200

# The package's tolerances besides the sampling tol, each relative to the
# reference magnitude its caller hands to `within`.
# A constraint field within this of 0, relative to 1 + its scale, rejects
# its point, so later evaluation stays well scaled (`Domain._admissible`)
CONSTRAINT_MARGIN = 1e-7
# the largest normalized residual an axiom may leave (`validate_axioms`)
AXIOM_TOL = 1e-10
# a plane whose Gram determinant is within this of 0, relative to the sizes
# of its terms, is degenerate (`curvature.sectional_profile`)
PLANE_TOL = 1e-8


def within(values, tol: float, reference, exceeds: bool = False):
    """values <= tol * reference, elementwise; with exceeds, its negation
    values > tol * reference. A nan satisfies neither, so a rule that fails
    where `~within(...)` holds fails at a nan (see `_unless`)."""
    return values > tol * reference if exceeds else values <= tol * reference


class Interval(NamedTuple("Interval", [("lo", float), ("hi", float)])):
    """Nonempty closed interval [lo, hi], however made (`_make` and
    `_replace` too); immutable, equal by its ends to another Interval. A
    tuple, so a Domain hashes in C, and one object per recent (lo, hi) of
    the same types, so equal boxes compare in C."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if not lo < hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return _interval(cls, lo, hi)

    def __eq__(self, other):
        return type(other) is Interval and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__
    _make = classmethod(lambda cls, ends: cls(*ends))


@lru_cache(maxsize=1024, typed=True)
def _interval(cls, lo, hi) -> Interval:
    return tuple.__new__(cls, (lo, hi))


# What each sampling control must be: (test, requirement).
_CONTROLS = {
    "samples": (lambda v: v > 0, "positive"),
    "seed": (lambda v: v >= 0, "nonnegative"),
    "tol": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
}


class SamplingConfig(NamedTuple):
    samples: int = 64
    seed: int = 42
    tol: float = 1e-9

    def with_overrides(self, samples=None, seed=None, tol=None) -> "SamplingConfig":
        """Copy with the given controls replaced; a value a manifest may
        not hold either is an InputError."""
        given = {"samples": samples, "seed": seed, "tol": tol}
        for key, value in given.items():
            test, requirement = _CONTROLS[key]
            if value is not None and not test(value):
                raise InputError(f"{key} must be {requirement}, got {value}")
        return self._replace(**{key: value for key, value in given.items()
                                if value is not None})


class Domain(NamedTuple):
    """A box, the constraint fields that cut it, and the settings of its
    sample: the sample (`sample`), and every sampled decision on the
    domain, is fixed by this one value."""

    intervals: tuple[Interval, Interval, Interval]
    positive: tuple[Expr, ...] = ()
    nonzero: tuple[Expr, ...] = ()
    sampling: SamplingConfig = SamplingConfig()

    def _admissible(self, pts: np.ndarray) -> np.ndarray:
        """Mask of points satisfying every constraint with margin. Where a
        constraint raises, the rows the error names (`EvaluationError.rows`)
        are dropped and the rest evaluated again, until an evaluation
        succeeds: a dropped row gets nan, which `within` refuses (an
        evaluated value is finite, see `expressions.guard_finite`). Each
        domain rule acts elementwise, so a point is refused exactly when
        its batch of one raises, and each failing rule costs one evaluation
        more, however many points the batch holds."""
        ok = np.ones(pts.shape[0], dtype=bool)
        for field, positive in [(f, True) for f in self.positive] + [
            (f, False) for f in self.nonzero
        ]:
            kept, rows = np.ones(pts.shape[0], dtype=bool), pts
            while True:
                try:
                    values, scales = evaluate_with_scale(field, rows)
                    break
                except EvaluationError as error:
                    kept[kept] = ~error.rows
                    rows = pts[kept]
            if rows is not pts:
                spread = np.full((2, pts.shape[0]), np.nan)
                spread[:, kept] = values, scales
                values, scales = spread
            ok &= within(
                values if positive else np.abs(values), CONSTRAINT_MARGIN,
                1.0 + scales, exceeds=True)
        return ok


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _seed_state(seed: int) -> tuple[int, int]:
    """(initstate, initseq) that numpy's SeedSequence(seed) gives PCG64:
    the seed's 32-bit words hashed and mixed into a pool of 4, the pool
    hashed out to 8 words, paired little-endian into 4 uint64, then taken
    as two 128-bit numbers, high word first."""
    entropy = [seed >> 32 * k & _MASK32
               for k in range(max(1, (seed.bit_length() + 31) // 32))]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    u64 = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


def _words(value: int) -> tuple[np.ndarray, np.ndarray]:
    """A number below 2**128 as its (high, low) uint64 words."""
    return (np.array([value >> 64], dtype=np.uint64),
            np.array([value & _MASK64], dtype=np.uint64))


_LOW32, _ZERO = np.uint64(_MASK32), _words(0)
_S11, _S32, _S58, _S63 = (np.uint64(k) for k in (11, 32, 58, 63))


def _muladd(a, b, c):
    """The words of a * b + c mod 2**128, each given by its words (uint64
    arithmetic wraps mod 2**64; the high word of al * bl is formed from
    32-bit halves)."""
    (ah, al), (bh, bl), (ch, cl) = a, b, c
    a1, a0, b1, b0 = al >> _S32, al & _LOW32, bl >> _S32, bl & _LOW32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = (a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
          + al * bh + ah * bl)
    lo = al * bl + cl
    return hi + ch + (lo < cl), lo


@lru_cache(maxsize=4)
def _jumps(n: int, inc: int):
    """Words of A_k and C_k, k = 1..n, such that k steps of PCG64 with
    increment inc take a state s to A_k * s + C_k: A_k = M**k, and C_k is
    where k steps take state 0. Doubled from k = 1, as steps m + k are
    steps k after steps m: A_(m+k) = A_k * A_m, C_(m+k) = A_k * C_m + C_k."""
    A, C = _words(_PCG_MULT), _words(inc)
    while A[0].size < n:
        Am, Cm = (A[0][-1:], A[1][-1:]), (C[0][-1:], C[1][-1:])
        A2, C2 = _muladd(A, Am, _ZERO), _muladd(A, Cm, C)
        A = tuple(np.concatenate(w) for w in zip(A, A2))
        C = tuple(np.concatenate(w) for w in zip(C, C2))
    return tuple(w[:n] for w in A), tuple(w[:n] for w in C)


class PCG64Stream:
    """The doubles numpy's `default_rng(seed).uniform` draws, bit for bit,
    for a nonnegative int seed of any size, without numpy's random module:
    numpy's SeedSequence seeds PCG64 (XSL-RR 128/64, O'Neill 2014), and
    each uniform is (x >> 11) * 2**-53 of one 64-bit output x. A draw of
    n doubles takes all n states at once from the current one through
    `_jumps`, in numpy; the state carries over from one `uniform` call
    to the next."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        self.inc = (initseq << 1 | 1) & _MASK128
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _MASK128

    def uniform(self, lo, hi, shape) -> np.ndarray:
        """Doubles lo + (hi - lo) * u over `shape`, drawn in C order."""
        n = math.prod(shape)
        A, C = _jumps(n, self.inc)
        sh, sl = _muladd(A, _words(self.state), C)
        if n:
            self.state = int(sh[-1]) << 64 | int(sl[-1])
        # XSL-RR: the xor of the halves, rotated right by the top 6 bits
        x, r = sh ^ sl, sh >> _S58
        x = x >> r | x << (-r & _S63)
        return lo + (hi - lo) * ((x >> _S11).reshape(shape) * 2.0**-53)


@lru_cache(maxsize=256)
def _sample_cached(domain: Domain) -> np.ndarray:
    """`Domain.sample`: the deterministic (n, 3) array of admissible
    points, read-only, found again with no Python frame. It is the one
    cache that outlives an analysis: building a structure (`reject_poles`)
    and its report, which run in different analyses, read one drawn
    sample, and every step of a report that calls `domain.sample()` gets
    this one array, the batch its kept values are keyed by."""
    n = domain.sampling.samples
    stream = PCG64Stream(domain.sampling.seed)
    los = np.array([iv.lo for iv in domain.intervals])
    his = np.array([iv.hi for iv in domain.intervals])
    collected: list[np.ndarray] = []
    count = 0
    batch = max(n * 2, 64)
    for _ in range(_MAX_BATCHES):
        candidates = stream.uniform(los, his, (batch, 3))
        good = candidates[domain._admissible(candidates)]
        if good.size:
            collected.append(good)
            count += good.shape[0]
        if count >= n:
            pts = np.concatenate(collected)[:n]
            pts.setflags(write=False)
            return pts
    raise EmptyDomainError(
        f"could not draw {n} admissible points from the domain "
        f"after {_MAX_BATCHES} batches; constraints may exclude the box"
    )


Domain.sample = _sample_cached


class Route(NamedTuple):
    """One sampled decision: whether it holds, its witness (the first
    sampled point where it fails, or None) and the deciding residual. It
    is true when it holds."""

    holds: bool
    witness: tuple[float, float, float] | None = None
    residual: float = 0.0

    def __bool__(self) -> bool:
        return self.holds


# the constant route of a Reeb shape that rules the answer out
NEVER = Route(False)


def negated(route: Route) -> Route:
    """The route 'not route', with route's residual and no witness."""
    return Route(not route.holds, None, route.residual)


def every(routes: Iterable[Route]) -> Route:
    """The conjunction of routes, drawn in order only up to the first that
    fails, which decides it; when all hold, the last decides."""
    for part in routes:
        if not part.holds:
            break
    return part


def require_finite(values, pts):
    """values, a sampled residual at the (n, 3) points, one per value,
    by the evaluator's rule (`expressions.guard_finite`) under the label
    "a sampled residual": EvaluationError at the first point whose value
    is not finite, with every such point as its `rows`. Every non-finite
    residual the package meets raises here."""
    guard_finite("a sampled residual", values, pts)
    return values


def bound(values, tol: float, pts) -> Route:
    """The route max(values) <= tol over the sample points, decided at
    the first point attaining the maximum, where a nan or inf raises."""
    k = int(values.argmax())   # the first nan, if any
    require_finite(values[k:k + 1], pts[k:k + 1])
    return Route(bool(within(values[k], tol, 1.0)), tuple(pts[k].tolist()),
                 float(values[k]))


def zero_verdict_from_samples(values: np.ndarray, scales, pts: np.ndarray,
                              tol: float) -> Route:
    """Zero test for per-point magnitudes already in hand: it holds when
    |value| <= tol * (1 + scale) at every point. Its residual is the
    largest |value| / (1 + scale), its witness the first point past the
    bound.

    values: (n,) or (..., n) residual components per point (points last);
    scales: (n,) or scalar reference magnitude each point's residual is
    judged against.
    """
    values = np.abs(np.asarray(values, dtype=float))
    values = values.reshape(-1, values.shape[-1]).max(axis=0)
    scales = 1.0 + np.asarray(scales, dtype=float)
    return _unless(~within(values, tol, scales), pts,
                   float((values / scales).max(initial=0.0)), values)


def _unless(bad: np.ndarray, pts: np.ndarray, residual: float,
            values: np.ndarray) -> Route:
    """The route that holds unless bad holds at a point, the first such
    point its witness. A rule marks nan bad, and a failing route raises
    at its first non-finite value, if any (see `require_finite`)."""
    if not bad.any():
        return Route(True, None, residual)
    require_finite(values, pts)
    return Route(False, tuple(float(c) for c in pts[int(np.argmax(bad))]),
                 residual)


def analyzed(run):
    """Run `run(S, ...)` once per analysis and arguments: through `once`,
    keyed by the function and the arguments (a keyword one as its
    (name, value) pair), in the open analysis, or in a new one (see
    `expressions.analysis`), with numpy's warnings off: each route checks
    the values it decides (see `require_finite`). The sample is S's own,
    `S.domain.sample()`, so the arguments are the whole key."""
    @wraps(run)
    def memoized(S, *args, **kwargs):
        with analysis(), np.errstate(all="ignore"):
            return once(S, memoized, (*args, *sorted(kwargs.items())),
                        lambda: run(S, *args, **kwargs))
    return memoized


def is_identically_zero(e: Expr, domain: Domain) -> Route:
    """Sampled zero test of a symbolic field over a domain."""
    return once(e, "zero", (domain,), lambda: _zero_test(e, domain))


def _zero_test(e: Expr, domain: Domain) -> Route:
    pts = domain.sample()
    if e is ZERO:
        return Route(True)     # what evaluating the literal 0 gives
    values, scales = evaluate_with_scale(e, pts)
    return zero_verdict_from_samples(values, scales, pts, domain.sampling.tol)


def nonvanishing(e: Expr, domain: Domain) -> Route:
    """Check the field is bounded away from zero on the sampled domain:
    it holds when |value| > tol * (1 + scale) at every point. Its residual
    is the smallest |value| / (1 + scale), its witness the first point
    where the field vanishes.

    Used for conditions of the form 'quantity != 0' (e.g. a denominator or a
    coefficient that a classification requires to be nonzero).
    """
    return once(e, "nonvanishing", (domain,), lambda: _nonvanishing(e, domain))


def _nonvanishing(e: Expr, domain: Domain) -> Route:
    pts = domain.sample()
    values, scales = evaluate_with_scale(e, pts)
    return _unless(
        ~within(np.abs(values), domain.sampling.tol, 1.0 + scales,
                exceeds=True), pts,
        float((np.abs(values) / (1.0 + scales)).min()), values)
