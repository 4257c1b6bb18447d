"""Domains, deterministic point sampling, and numeric zero testing.

A Domain is an open coordinate box plus constraint fields required to be
strictly positive or bounded away from zero. The sampler rejects candidate
points violating a constraint; it never clamps. All randomness is driven by
the seed in SamplingConfig, so identical inputs yield identical points,
witnesses, and reports.

`is_identically_zero` is the package's notion of an identity holding on a
domain: an expression is ZERO when at every sampled point its magnitude is
at most tol * (1 + scale), where scale is the largest magnitude any
subexpression attained there. Dividing by the scale keeps the test honest
for cancellation-heavy identities. A NONZERO verdict carries the first
witness point. Within one analysis (`analyzed`) each field is tested once.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .errors import EmptyDomainError, EvaluationError, InputError
from .expressions import ZERO, Expr, derivative_scope, evaluate_with_scale

# Constraint margin: rejected points are those within this relative distance
# of a constraint's singular locus, so later evaluation stays well scaled.
_CONSTRAINT_MARGIN = 1e-7

_MAX_BATCHES = 200


class Interval:
    """Nonempty closed interval [lo, hi]; immutable, equal by its ends."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is Interval and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"


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
    intervals: tuple[Interval, Interval, Interval]
    positive: tuple[Expr, ...] = ()
    nonzero: tuple[Expr, ...] = ()

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        for c, interval in zip(p, self.intervals):
            if not interval.lo <= c <= interval.hi:
                return False
        return bool(np.all(self._admissible(p.reshape(1, 3))))

    def _admissible(self, pts: np.ndarray) -> np.ndarray:
        """Mask of points satisfying every constraint with margin."""
        ok = np.ones(pts.shape[0], dtype=bool)
        for field, positive in [(f, True) for f in self.positive] + [
            (f, False) for f in self.nonzero
        ]:
            try:
                values, scales = evaluate_with_scale(field, pts)
            except EvaluationError:
                values, scales = _evaluate_pointwise(field, pts)
            margin = _CONSTRAINT_MARGIN * (1.0 + scales)
            good = np.isfinite(values)
            if positive:
                good &= values > margin
            else:
                good &= np.abs(values) > margin
            ok &= good
        return ok

    def sample(self, cfg: SamplingConfig) -> np.ndarray:
        """Deterministic (n, 3) array of admissible points."""
        return _sample_cached(self, cfg)


def _evaluate_pointwise(field: Expr, pts: np.ndarray):
    """Fallback when a batch evaluation fails inside a constraint:
    points where the constraint itself cannot be evaluated are rejected."""
    values = np.full(pts.shape[0], np.nan)
    scales = np.zeros(pts.shape[0])
    for i in range(pts.shape[0]):
        try:
            v, s = evaluate_with_scale(field, pts[i])
            values[i], scales[i] = v, s
        except EvaluationError:
            pass
    return values, scales


@lru_cache(maxsize=256)
def _sample_cached(domain: Domain, cfg: SamplingConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    los = np.array([iv.lo for iv in domain.intervals])
    his = np.array([iv.hi for iv in domain.intervals])
    collected: list[np.ndarray] = []
    count = 0
    batch = max(cfg.samples * 2, 64)
    for _ in range(_MAX_BATCHES):
        candidates = rng.uniform(los, his, size=(batch, 3))
        good = candidates[domain._admissible(candidates)]
        if good.size:
            collected.append(good)
            count += good.shape[0]
        if count >= cfg.samples:
            pts = np.concatenate(collected)[: cfg.samples]
            pts.setflags(write=False)
            return pts
    raise EmptyDomainError(
        f"could not draw {cfg.samples} admissible points from the domain "
        f"after {_MAX_BATCHES} batches; constraints may exclude the box"
    )


class ZeroVerdict(NamedTuple):
    """Outcome of a sampled zero test.

    max_residual is the largest |value| / (1 + scale) seen; for a NONZERO
    verdict, witness is the first sampled point exceeding tolerance and
    witness_value the field's value there.
    """

    is_zero: bool
    max_residual: float
    witness: tuple[float, float, float] | None = None
    witness_value: float | None = None

    def __bool__(self) -> bool:
        return self.is_zero


def zero_verdict_from_samples(values: np.ndarray, scales, pts: np.ndarray,
                              tol: float) -> ZeroVerdict:
    """Zero test for per-point magnitudes already in hand.

    values: (n,) or (..., n) residual components per point (points last);
    scales: (n,) or scalar reference magnitude each point's residual is
    judged against.
    """
    values = np.abs(np.asarray(values, dtype=float))
    if values.ndim > 1:
        values = values.reshape(-1, values.shape[-1]).max(axis=0)
    scales = np.broadcast_to(np.asarray(scales, dtype=float), values.shape)
    allowed = tol * (1.0 + scales)
    residuals = values / (1.0 + scales)
    bad = values > allowed
    if not bad.any():
        return ZeroVerdict(True, float(residuals.max(initial=0.0)))
    first = int(np.argmax(bad))
    return ZeroVerdict(
        False,
        float(residuals.max(initial=0.0)),
        witness=tuple(float(c) for c in pts[first]),
        witness_value=float(values[first]),
    )


class Analysis:
    """What one analysis of a structure has worked out (see `analyzed`):
    results of `once`, each kept with its owner."""

    def __init__(self, structure):
        self.structure = structure
        self.results: dict[tuple, tuple] = {}   # key -> (owner, result)


_ANALYSIS: ContextVar[Analysis | None] = ContextVar("analysis", default=None)


def analyzed(run):
    """Run `run(S, cfg, ...)`, cfg defaulting to S.config, in the analysis
    of S: the open one, or a new one with its own derivative scope, which
    also keeps each field's values on the sample and its jets. There `once`
    builds each verdict (per field) and each shared result once; a shared
    sample array is kept until `release`."""
    @wraps(run)
    def within(S, cfg=None, *args, **kwargs):
        cfg = cfg or S.config
        active = _ANALYSIS.get()
        if active is not None and active.structure is S:
            return run(S, cfg, *args, **kwargs)
        token = _ANALYSIS.set(Analysis(S))
        try:
            with derivative_scope():
                return run(S, cfg, *args, **kwargs)
        finally:
            _ANALYSIS.reset(token)
    return within


def once(owner, name: str, domain: Domain, cfg: SamplingConfig, build):
    """build(), once per (owner, name, cfg) in the open analysis of a
    structure on `domain`, the owner by identity (interned fields are equal
    only when identical; a sample array owner fixes the config; pass None).
    Without such an analysis, every time."""
    analysis = _ANALYSIS.get()
    if analysis is None or analysis.structure.domain is not domain:
        return build()
    key = (id(owner), name, cfg)
    if key not in analysis.results:
        analysis.results[key] = (owner, build())
    return analysis.results[key][1]


def release(owner, name: str, cfg: SamplingConfig) -> None:
    """Drop a result of `once` that no later step needs (sample arrays)."""
    if _ANALYSIS.get() is not None:
        _ANALYSIS.get().results.pop((id(owner), name, cfg), None)


def is_identically_zero(e: Expr, domain: Domain,
                        cfg: SamplingConfig = SamplingConfig()) -> ZeroVerdict:
    """Sampled zero test of a symbolic field over a domain."""
    return once(e, "zero", domain, cfg, lambda: _zero_test(e, domain, cfg))


def _zero_test(e: Expr, domain: Domain, cfg: SamplingConfig) -> ZeroVerdict:
    pts = domain.sample(cfg)
    if e is ZERO:
        return ZeroVerdict(True, 0.0)     # what evaluating the literal 0 gives
    values, scales = evaluate_with_scale(e, pts)
    return zero_verdict_from_samples(values, scales, pts, cfg.tol)


class NonvanishingVerdict(NamedTuple):
    """Whether |field| stays above tolerance at every sampled point."""

    everywhere: bool
    min_residual: float
    vanishing_point: tuple[float, float, float] | None = None

    def __bool__(self) -> bool:
        return self.everywhere


def nonvanishing(e: Expr, domain: Domain,
                 cfg: SamplingConfig = SamplingConfig()) -> NonvanishingVerdict:
    """Check the field is bounded away from zero on the sampled domain.

    Used for conditions of the form 'quantity != 0' (e.g. a denominator or a
    coefficient that a classification requires to be nonzero).
    """
    return once(e, "nonvanishing", domain, cfg,
                lambda: _nonvanishing(e, domain, cfg))


def _nonvanishing(e: Expr, domain: Domain,
                  cfg: SamplingConfig) -> NonvanishingVerdict:
    pts = domain.sample(cfg)
    values, scales = evaluate_with_scale(e, pts)
    residuals = np.abs(values) / (1.0 + scales)
    bad = np.abs(values) <= cfg.tol * (1.0 + scales)
    if not bad.any():
        return NonvanishingVerdict(True, float(residuals.min()))
    first = int(np.argmax(bad))
    return NonvanishingVerdict(
        False,
        float(residuals.min()),
        vanishing_point=tuple(float(c) for c in pts[first]),
    )
