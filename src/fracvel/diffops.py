"""Finite differences, fractional variation, and oscillation primitives.

Everything here is pre-limit: plain array arithmetic over explicit
increments.  Limit classification lives in the estimator module.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Direction",
    "OscillationEstimate",
    "domain_of",
    "difference",
    "fractional_variation",
    "variation_values",
    "interval_oscillation",
    "refine_oscillation",
    "variation_tail_oscillation",
    "tail_spread",
]

# Doubling the sample count is considered settled below this relative change.
OSC_REL_CHANGE = 1e-3

# Hard ceiling on oscillation sampling: 2**16 subintervals.
OSC_SAMPLE_CAP = 2 ** 16 + 1

_TINY = np.finfo(float).tiny


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class OscillationEstimate:
    """A sampled sup-inf value with its sampling metadata."""

    value: float
    n_samples: int
    refined: bool


def domain_of(f):
    """Domain attached to f, or the whole line for bare callables."""
    dom = getattr(f, "domain", None)
    if dom is None:
        return (-math.inf, math.inf)
    return (float(dom[0]), float(dom[1]))


def _check_eps(eps) -> None:
    if not np.all(np.isfinite(eps)) or np.any(np.asarray(eps) <= 0.0):
        raise ValueError("increments must be positive and finite")


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {beta}")


def _check_window(f, x: float, eps: float, direction: Direction) -> None:
    lo, hi = domain_of(f)
    if direction is Direction.FORWARD:
        inside = lo <= x and x + eps <= hi
    else:
        inside = lo <= x - eps and x <= hi
    if not inside:
        raise DomainError(
            f"probe of width {eps:g} at x={x:g} ({direction.value}) "
            f"leaves the domain [{lo:g}, {hi:g}]")


def _feval(f, t):
    return np.asarray(f(np.asarray(t, dtype=float)), dtype=float)


def difference(f, x: float, eps: float, direction: Direction) -> float:
    """One-sided difference of f at x over the increment eps.

    Forward gives f(x+eps) - f(x); backward gives f(x) - f(x-eps).
    """
    eps = float(eps)
    _check_eps(eps)
    _check_window(f, x, eps, direction)
    if direction is Direction.FORWARD:
        return float(_feval(f, x + eps) - _feval(f, x))
    return float(_feval(f, x) - _feval(f, x - eps))


def variation_values(f, x, beta: float, direction: Direction, eps) -> np.ndarray:
    """Fractional variation difference/eps**beta over an array of increments.

    The whole array is evaluated in one vectorized call so deep schedules
    stay cheap.  x may also be a 1-D array of base points, giving one row
    per point from a single call on the (points x increments) array.
    f(x) itself is evaluated one point at a time, as a scalar: numpy may
    round a scalar power differently from an array one, and this keeps
    every row bit for bit equal to its single-point result.
    """
    eps = np.asarray(eps, dtype=float)
    _check_eps(eps)
    _check_beta(beta)
    xs = np.asarray(x, dtype=float)
    width = float(eps.max())
    fx = np.empty(xs.shape + (1,))
    for i, v in enumerate(xs.flat):
        _check_window(f, float(v), width, direction)
        fx.flat[i] = _feval(f, v)
    if direction is Direction.FORWARD:
        delta = _feval(f, xs[..., None] + eps) - fx
    else:
        delta = fx - _feval(f, xs[..., None] - eps)
    return delta / eps ** beta


def fractional_variation(f, x: float, eps: float, beta: float,
                         direction: Direction) -> float:
    """Difference quotient against eps**beta; the pre-limit velocity value."""
    return float(variation_values(f, x, beta, direction, [float(eps)])[0])


def _osc_offsets(n: int) -> np.ndarray:
    # arange/(n-1) so that the 2n-1 refinement reproduces every coarse
    # point bit-exactly (numerator and denominator both double)
    return np.arange(n, dtype=float) / (n - 1)


def _osc_sampled(f, x: float, eps: float, direction: Direction, n: int) -> float:
    offs = _osc_offsets(n)
    t = x + eps * offs if direction is Direction.FORWARD else x - eps * offs
    v = _feval(f, t)
    return float(np.max(v) - np.min(v))


def interval_oscillation(f, x: float, eps: float, direction: Direction,
                         n_samples: int = 129) -> OscillationEstimate:
    """Sampled oscillation sup f - inf f over [x, x+eps] (or [x-eps, x]).

    Uses n_samples uniform points including both endpoints.  The refined
    flag records whether doubling the resolution moved the estimate by
    less than a 1e-3 relative change, which is the cheap signal that the
    sampling has resolved the finest structure in the window.
    """
    eps = float(eps)
    _check_eps(eps)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    _check_window(f, x, eps, direction)
    coarse = _osc_sampled(f, x, eps, direction, n_samples)
    fine = _osc_sampled(f, x, eps, direction, 2 * n_samples - 1)
    refined = (fine - coarse) <= OSC_REL_CHANGE * max(fine, _TINY)
    return OscillationEstimate(coarse, n_samples, bool(refined))


def refine_oscillation(f, x: float, eps: float, direction: Direction,
                       n0: int = 17, rel_change: float = OSC_REL_CHANGE,
                       cap: int = OSC_SAMPLE_CAP) -> OscillationEstimate:
    """Oscillation by sample doubling until the estimate settles.

    Grids are nested (n -> 2n-1), so the estimate is non-decreasing and
    the first doubling that gains less than rel_change stops the ladder.
    Hitting the cap returns the last value with refined=False.
    """
    eps = float(eps)
    _check_eps(eps)
    _check_window(f, x, eps, direction)
    n = int(n0)
    if n < 3:
        raise ValueError("n0 must be at least 3")
    prev = _osc_sampled(f, x, eps, direction, n)
    while 2 * n - 1 <= cap:
        n = 2 * n - 1
        cur = _osc_sampled(f, x, eps, direction, n)
        if cur - prev <= rel_change * max(cur, _TINY):
            return OscillationEstimate(cur, n, True)
        prev = cur
    return OscillationEstimate(prev, n, False)


def tail_spread(values) -> float:
    """Max minus min over the trailing half (ceil(N/2) entries) of a sequence."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 values")
    tail = values[-math.ceil(values.size / 2):]
    return float(np.max(tail) - np.min(tail))


def variation_tail_oscillation(f, x: float, beta: float, direction: Direction,
                               schedule) -> OscillationEstimate:
    """Spread of the fractional variation over the deep end of a schedule.

    Accepts anything with an increments(x) method, or a plain array of
    increments.  The spread is taken over the last ceil(N/2) entries; a
    vanishing spread is the sharp existence signal for the velocity.
    The refined flag compares against the last-quarter spread.
    """
    if hasattr(schedule, "increments"):
        eps = schedule.increments(x)
    else:
        eps = np.asarray(schedule, dtype=float)
    vals = variation_values(f, x, beta, direction, eps)
    half = math.ceil(vals.size / 2)
    spread = tail_spread(vals)
    quarter = vals[-max(2, vals.size // 4):]
    inner = float(np.max(quarter) - np.min(quarter))
    refined = abs(spread - inner) <= OSC_REL_CHANGE * max(spread, _TINY)
    return OscillationEstimate(spread, half, bool(refined))
