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

# Batched paths (scan rows, oscillation annuli, quadrature rows) call the
# evaluator on at most this many points at a time, unless one row alone
# holds more: this bounds the evaluator's working set.
EVAL_CALL_POINTS = 2 ** 16 + 1

# Points in the first grid of each annulus of the oscillation doubling
# ladder: at ratio 1/2 the same spacing as 17 points over the whole window.
OSC_N0 = 9

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


def _check_windows(f, x, eps, direction: Direction) -> None:
    """Raise what _check_eps and _check_window raise for the first bad
    (x, eps) pair, x and eps broadcast against each other."""
    lo, hi = domain_of(f)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(eps) & (eps > 0.0)
        if direction is Direction.FORWARD:
            ok = ok & (lo <= x) & (x + eps <= hi)
        else:
            ok = ok & (lo <= x - eps) & (x <= hi)
    if not ok.all():
        i = np.argmin(ok)
        x, eps = np.broadcast_arrays(x, eps)
        bad = float(eps.flat[i])
        _check_eps(bad)
        _check_window(f, float(x.flat[i]), bad, direction)


def _feval(f, t):
    return np.asarray(f(np.asarray(t, dtype=float)), dtype=float)


def _row_blocks(n_rows: int, row_len: int):
    """Slices of consecutive rows, in order, for the evaluator calls over
    n_rows rows of row_len points: as many rows a call as fit in
    EVAL_CALL_POINTS points, and at least one."""
    step = max(1, EVAL_CALL_POINTS // row_len)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def variation_values(f, x, beta: float, direction: Direction, eps) -> np.ndarray:
    """Fractional variation difference/eps**beta over an array of increments.

    x may be a point or a 1-D array of base points, giving one row per
    point.  f(x) and every f(x +- eps) come from one vectorized call on
    the (points x (1 + increments)) array x +- [0, eps...], so deep
    schedules and whole grids stay cheap.
    """
    eps = np.asarray(eps, dtype=float)
    _check_eps(eps)
    _check_beta(beta)
    xs = np.asarray(x, dtype=float)
    steps = np.concatenate(([0.0], eps))
    t = xs[..., None] + steps if direction is Direction.FORWARD else xs[..., None] - steps
    # t holds each window's ends x and x +- max(eps), and rounding keeps
    # order, so t lies in the domain exactly when every window does
    lo, hi = domain_of(f)
    if t.size and not lo <= t.min() <= t.max() <= hi:
        _check_windows(f, xs, eps.max(), direction)
    v = _feval(f, t)
    if v.shape != t.shape:
        v = np.broadcast_to(v, t.shape)
    if direction is Direction.FORWARD:
        delta = v[..., 1:] - v[..., :1]
    else:
        delta = v[..., :1] - v[..., 1:]
    return delta / eps ** beta


def _osc_offsets(n: int) -> np.ndarray:
    # arange/(n-1) so that the 2n-1 refinement reproduces every coarse
    # point bit-exactly (numerator and denominator both double)
    return np.arange(n, dtype=float) / (n - 1)


def _annulus_points(x: float, outer, inner, offs, direction: Direction):
    # outer*o + inner*(1-o) is outer at o=1 and inner at o=0 exactly, at
    # any ratio, so no point leaves the window [x, x+outer] (x-outer backward)
    part = outer * offs + inner * (1.0 - offs)
    return x + part if direction is Direction.FORWARD else x - part


def _annulus_extrema(f, x: float, outer: np.ndarray, inner: np.ndarray,
                     offs: np.ndarray, direction: Direction):
    """Max and min of f over the points of each annulus at offsets offs.

    Row k holds the points between inner[k] and outer[k] away from x
    (_annulus_points).  Whole rows go to f, in the blocks of _row_blocks.
    Also returns the value at the last row's first offset: f(x) when that
    row is [0, e] and offs starts at 0.
    """
    hi = np.empty(outer.size)
    lo = np.empty(outer.size)
    for rows in _row_blocks(outer.size, offs.size):
        t = _annulus_points(x, outer[rows, None], inner[rows, None], offs, direction)
        v = np.broadcast_to(_feval(f, t.ravel()), (t.size,)).reshape(t.shape)
        hi[rows] = v.max(axis=1)
        lo[rows] = v.min(axis=1)
    return hi, lo, v[-1, 0]


def _osc_ladder(f, x: float, eps, direction: Direction, n0: int = OSC_N0,
                cap: int = OSC_SAMPLE_CAP):
    """Sampled oscillation sup f - inf f over each window of eps, by doubling.

    The window of an increment e is [x, x+e] forward and [x-e, x]
    backward.  eps runs from the largest increment down, as every
    schedule does, so each window holds all the deeper ones.  Row k of
    the ladder samples only the annulus between eps[k+1] and eps[k] away
    from x; the last row samples [0, eps[-1]], whose first point is x
    itself.  A row starts from n0 uniform points, both ends included,
    and doubles on nested grids n -> 2n-1.  Its stop rule reads the
    oscillation over its own samples plus f(x): the first doubling that
    gains less than OSC_REL_CHANGE relative stops that row
    (refined=True), and a row whose next grid would pass cap keeps its
    samples with refined=False.  A window's value is the max minus the
    min over its own row and every deeper one, folded from the deepest
    row out, so it never increases as e shrinks.  The library always
    starts from OSC_N0 points under OSC_SAMPLE_CAP; n0 and cap are there
    for tests (n0 = cap gives one fixed grid of n0 points per annulus,
    and n0 is not checked).  Returns three arrays, one entry per
    increment: the window's value, and the number of samples of its
    annulus and that annulus's refined flag.

    All rows are sampled together: the first grid in one pass, which
    brings f(x) with it, then each doubling samples only the new
    midpoints of the rows that have not settled, folding them into
    running maxima and minima.  The nested grids make this exact: every
    coarse offset reappears bit for bit at an even index of the finer
    grid, so the extrema over the union are the extrema over the full
    grid.  That holds for any f whose value at a point does not depend
    on the other points of the call.
    """
    eps = np.asarray(eps, dtype=float)
    _check_windows(f, x, eps, direction)
    inner = np.append(eps[1:], 0.0)
    n = int(n0)
    hi, lo, fx = _annulus_extrema(f, x, eps, inner, _osc_offsets(n), direction)
    # each row's stop rule reads f(x); the last row holds it already, so
    # this leaves every fold unchanged
    np.maximum(hi, fx, out=hi)
    np.minimum(lo, fx, out=lo)
    own = hi - lo
    n_samples = np.full(eps.size, n)
    refined = np.zeros(eps.size, dtype=bool)
    active = np.arange(eps.size)
    while active.size and 2 * n - 1 <= cap:
        n = 2 * n - 1
        h, l, _ = _annulus_extrema(f, x, eps[active], inner[active],
                                   _osc_offsets(n)[1::2], direction)
        hi[active] = np.maximum(hi[active], h)
        lo[active] = np.minimum(lo[active], l)
        cur = hi[active] - lo[active]
        settled = cur - own[active] <= OSC_REL_CHANGE * np.maximum(cur, _TINY)
        own[active] = cur
        n_samples[active] = n
        refined[active] = settled
        active = active[~settled]
    value = (np.maximum.accumulate(hi[::-1])[::-1]
             - np.minimum.accumulate(lo[::-1])[::-1])
    return value, n_samples, refined
