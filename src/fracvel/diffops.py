"""Fractional variation and oscillation primitives.

Everything here is pre-limit: plain array arithmetic over explicit
increments.  Limit classification lives in the estimator module.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "Direction",
    "domain_of",
    "variation_values",
]

# Doubling the sample count is considered settled below this relative change.
OSC_REL_CHANGE = 1e-3

# Hard ceiling on oscillation sampling: 2**16 subintervals.
OSC_SAMPLE_CAP = 2 ** 16 + 1

# Points in the first grid of the oscillation doubling ladder.
OSC_N0 = 17

_TINY = np.finfo(float).tiny


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


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


def _osc_offsets(n: int) -> np.ndarray:
    # arange/(n-1) so that the 2n-1 refinement reproduces every coarse
    # point bit-exactly (numerator and denominator both double)
    return np.arange(n, dtype=float) / (n - 1)


def _check_windows(f, x: float, eps: np.ndarray, direction: Direction) -> None:
    """Raise what _check_eps and _check_window raise for the first bad entry of eps."""
    lo, hi = domain_of(f)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(eps) & (eps > 0.0)
        if direction is Direction.FORWARD:
            ok &= (lo <= x) & (x + eps <= hi)
        else:
            ok &= (lo <= x - eps) & (x <= hi)
    if not ok.all():
        bad = float(eps[np.argmin(ok)])
        _check_eps(bad)
        _check_window(f, x, bad, direction)


def _window_points(x: float, eps, offs, direction: Direction):
    part = eps * offs
    return x + part if direction is Direction.FORWARD else x - part


def _window_extrema(f, x: float, eps: np.ndarray, offs: np.ndarray,
                    direction: Direction, with_x: bool = False):
    """Max and min of f over x + e*offs (x - e*offs backward), per e in eps.

    Whole rows go to f, at most OSC_SAMPLE_CAP points a call unless one
    row alone holds more.  with_x adds x itself to the first call and
    folds f(x) into every row: each window starts there.
    """
    hi = np.empty(eps.size)
    lo = np.empty(eps.size)
    step = max(1, (OSC_SAMPLE_CAP - 1) // offs.size)
    fx = None
    for i in range(0, eps.size, step):
        t = _window_points(x, eps[i:i + step, None], offs, direction)
        shape = t.shape
        first = with_x and i == 0
        if first:
            # the offset-0 point, formed as for any window
            t = np.append(t, _window_points(x, 0.0, 0.0, direction))
        v = np.broadcast_to(_feval(f, t.ravel()), (t.size,))
        if first:
            fx, v = v[-1], v[:-1]
        v = v.reshape(shape)
        hi[i:i + step] = v.max(axis=1)
        lo[i:i + step] = v.min(axis=1)
    if fx is not None:
        np.maximum(hi, fx, out=hi)
        np.minimum(lo, fx, out=lo)
    return hi, lo


def _osc_ladder(f, x: float, eps, direction: Direction, n0: int = OSC_N0,
                cap: int = OSC_SAMPLE_CAP):
    """Sampled oscillation sup f - inf f over each window of eps, by doubling.

    The window of an increment e is [x, x+e] forward and [x-e, x]
    backward.  It is first sampled on n0 uniform points, endpoints
    included, and then on nested grids n -> 2n-1, so the estimate never
    decreases.  The first doubling that gains less than OSC_REL_CHANGE
    relative stops that window's ladder (refined=True); a window whose
    next grid would pass cap keeps its last value with refined=False.
    The library always starts from OSC_N0 points under OSC_SAMPLE_CAP;
    n0 and cap are there for tests (n0 = cap gives one fixed grid of n0
    points, and n0 is not checked).  Returns three arrays, one entry per
    increment: the value, the number of samples it rests on and the
    refined flag.

    All windows are sampled together: the first grid in one pass, then
    each doubling samples only the new midpoints of the windows that
    have not settled, folding them into running maxima and minima.  The
    nested grids make this exact: every coarse offset reappears bit for
    bit at an even index of the finer grid, so the extrema over the
    union are the extrema over the full grid.  That holds for any f
    whose value at a point does not depend on the other points of the
    call.
    """
    eps = np.asarray(eps, dtype=float)
    _check_windows(f, x, eps, direction)
    n = int(n0)
    hi, lo = _window_extrema(f, x, eps, _osc_offsets(n)[1:], direction, with_x=True)
    value = hi - lo
    n_samples = np.full(eps.size, n)
    refined = np.zeros(eps.size, dtype=bool)
    active = np.arange(eps.size)
    while active.size and 2 * n - 1 <= cap:
        n = 2 * n - 1
        h, l = _window_extrema(f, x, eps[active], _osc_offsets(n)[1::2], direction)
        hi[active] = np.maximum(hi[active], h)
        lo[active] = np.minimum(lo[active], l)
        cur = hi[active] - lo[active]
        settled = cur - value[active] <= OSC_REL_CHANGE * np.maximum(cur, _TINY)
        value[active] = cur
        n_samples[active] = n
        refined[active] = settled
        active = active[~settled]
    return value, n_samples, refined
