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
witness point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyDomainError, EvaluationError
from .expressions import Expr, evaluate_with_scale

# Constraint margin: rejected points are those within this relative distance
# of a constraint's singular locus, so later evaluation stays well scaled.
_CONSTRAINT_MARGIN = 1e-7

_MAX_BATCHES = 200


@dataclass(frozen=True, slots=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    samples: int = 64
    seed: int = 42
    tol: float = 1e-9

    def with_overrides(self, samples=None, seed=None, tol=None) -> "SamplingConfig":
        return SamplingConfig(
            samples=self.samples if samples is None else samples,
            seed=self.seed if seed is None else seed,
            tol=self.tol if tol is None else tol,
        )


@dataclass(frozen=True, slots=True)
class Domain:
    intervals: tuple[Interval, Interval, Interval]
    positive: tuple[Expr, ...] = ()
    nonzero: tuple[Expr, ...] = ()

    @classmethod
    def box(cls, x: tuple[float, float], y: tuple[float, float],
            z: tuple[float, float], positive=(), nonzero=()) -> "Domain":
        return cls(
            intervals=(Interval(*x), Interval(*y), Interval(*z)),
            positive=tuple(positive),
            nonzero=tuple(nonzero),
        )

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


@dataclass(frozen=True, slots=True)
class ZeroVerdict:
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

    values: (n,) or (n, ...) residual components per point; scales: (n,) or
    scalar reference magnitude each point's residual is judged against.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim > 1:
        values = np.abs(values).reshape(values.shape[0], -1).max(axis=1)
    else:
        values = np.abs(values)
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


def is_identically_zero(e: Expr, domain: Domain,
                        cfg: SamplingConfig = SamplingConfig()) -> ZeroVerdict:
    """Sampled zero test of a symbolic field over a domain."""
    pts = domain.sample(cfg)
    values, scales = evaluate_with_scale(e, pts)
    return zero_verdict_from_samples(values, scales, pts, cfg.tol)


@dataclass(frozen=True, slots=True)
class NonvanishingVerdict:
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
