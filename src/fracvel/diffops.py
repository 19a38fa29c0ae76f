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


_SIGN = {Direction.FORWARD: 1.0, Direction.BACKWARD: -1.0}


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


def _inside(f, p, q):
    """The one domain rule: whether the span between p and q, in either
    order, lies in f's domain, an interval, so whether both ends do.
    p and q may be arrays; NaN is outside."""
    lo, hi = domain_of(f)
    return (lo <= p) & (p <= hi) & (lo <= q) & (q <= hi)


def _check_window(f, x: float, eps: float, direction: Direction) -> None:
    if not _inside(f, x, x + _SIGN[direction] * eps):
        lo, hi = domain_of(f)
        raise DomainError(
            f"probe of width {eps:g} at x={x:g} ({direction.value}) "
            f"leaves the domain [{lo:g}, {hi:g}]")


def _check_windows(f, x, eps, direction: Direction) -> None:
    """Raise what _check_eps and _check_window raise for the first bad
    (x, eps) pair, x and eps broadcast against each other."""
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(eps) & (eps > 0.0) & _inside(f, x, x + _SIGN[direction] * eps)
    if not ok.all():
        i = np.argmin(ok)
        x, eps = np.broadcast_arrays(x, eps)
        bad = float(eps.flat[i])
        _check_eps(bad)
        _check_window(f, float(x.flat[i]), bad, direction)


def _feval(f, t):
    """f at t as floats: every library call of f goes through here.  An
    array t reaches f as one 1-D float array and the values come back in
    t's shape, one value broadcast to it; a float t reaches f unchanged.
    Under np.errstate(over="ignore", invalid="ignore"), a value that
    overflows, or inf - inf, is non-finite, reported as diverged."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not isinstance(t, np.ndarray):
            return np.asarray(f(t), dtype=float)
        v = np.asarray(f(t.reshape(-1)), dtype=float)
    if v.size == 1 and t.size != 1:
        return np.broadcast_to(v.reshape(()), t.shape)
    return v.reshape(t.shape)


def _agree(cur, prev, rel: float):
    """The one settle rule of a doubling: whether |cur - prev| is within rel
    of the larger magnitude (or the smallest normal).  NaN never settles."""
    return np.abs(cur - prev) <= rel * np.maximum(np.maximum(np.abs(cur), np.abs(prev)), _TINY)


def _row_blocks(n_rows: int, row_len: int):
    """Slices of consecutive rows, in order, for the evaluator calls over
    n_rows rows of row_len points: as many rows a call as fit in
    EVAL_CALL_POINTS points, and at least one."""
    step = max(1, EVAL_CALL_POINTS // row_len)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _variation_quotient(fx, fe, direction: Direction, scale):
    """(f(x+eps) - f(x)) / scale forward, (f(x) - f(x-eps)) / scale
    backward, from f(x) and the values fe at x +- eps, scale being
    eps**beta.  Callers evaluate it under np.errstate(over="ignore",
    invalid="ignore"): an overflow or inf - inf is a non-finite
    variation, which classifies as diverged."""
    delta = fe - fx if direction is Direction.FORWARD else fx - fe
    return delta / scale


def variation_values(f, x, beta: float, direction: Direction, eps) -> np.ndarray:
    """Fractional variation difference/eps**beta over an array of increments.

    x may be a point or a 1-D array of base points, giving one row per
    point.  f(x) and every f(x +- eps) come from one _feval call on
    the (points x (1 + increments)) array x +- [0, eps...], so deep
    schedules and whole grids stay cheap.
    """
    eps = np.asarray(eps, dtype=float)
    _check_eps(eps)
    _check_beta(beta)
    xs = np.asarray(x, dtype=float)
    # x + -e is x - e bit for bit, and x + -0.0 is x
    t = xs[..., None] + _SIGN[direction] * np.concatenate(([0.0], eps))
    # t holds each window's ends x and x +- max(eps), and rounding keeps
    # order, so t lies in the domain exactly when every window does
    if t.size and not _inside(f, t.min(), t.max()):
        _check_windows(f, xs, eps.max(), direction)
    v = _feval(f, t)
    with np.errstate(over="ignore", invalid="ignore"):
        return _variation_quotient(v[..., :1], v[..., 1:], direction, eps ** beta)


def _osc_offsets(n: int, start: int = 0, step: int = 1) -> np.ndarray:
    # arange/(n-1) so that the 2n-1 refinement reproduces every coarse
    # point bit-exactly (numerator and denominator both double); start
    # and step pick every step-th offset of the n-point grid, same bits
    return np.arange(start, n, step, dtype=float) / (n - 1)


def _annulus_points(x: float, outer, inner, offs):
    # outer and inner are signed distances from x, positive forward and
    # negative backward; outer*o + inner*(1-o) is outer at o=1 and inner
    # at o=0 exactly, at any ratio, so no point leaves the window between
    # x and x+outer; and negating both distances negates each sum
    # exactly, so a backward point x + -p is x - p bit for bit
    return x + (outer * offs + inner * (1.0 - offs))


def _annulus_values(f, x: float, outer: np.ndarray, inner: np.ndarray, offs: np.ndarray):
    """f at the points of each annulus at offsets offs, by blocks of rows:
    (rows, values) pairs, one _feval call per block of _row_blocks.

    Row k holds the points between the signed distances inner[k] and
    outer[k] from x (_annulus_points), one column per offset.
    """
    for rows in _row_blocks(outer.size, offs.size):
        yield rows, _feval(f, _annulus_points(x, outer[rows, None], inner[rows, None], offs))


def _annulus_extrema(f, x: float, outer: np.ndarray, inner: np.ndarray, offs: np.ndarray):
    """Max and min of f over the points of each annulus at offsets offs."""
    hi = np.empty(outer.size)
    lo = np.empty(outer.size)
    for rows, v in _annulus_values(f, x, outer, inner, offs):
        hi[rows] = v.max(axis=1)
        lo[rows] = v.min(axis=1)
    return hi, lo


def _check_ladder_windows(f, x: float, eps: np.ndarray, directions) -> None:
    """Raise what _check_windows raises for the first side of directions
    with a bad window.  Rounding keeps order, so when every increment is
    positive and finite each side's windows lie in the domain exactly
    when its widest does: one scalar test a side, and _check_windows
    only for a side that fails it."""
    top, low = float(eps.max()), float(eps.min())
    for direction in directions:
        if not (0.0 < low and top < math.inf and _inside(f, x, x + _SIGN[direction] * top)):
            _check_windows(f, x, eps, direction)


@np.errstate(over="ignore", invalid="ignore")
def _osc_ladder(f, x: float, eps, directions, n0: int = OSC_N0,
                cap: int = OSC_SAMPLE_CAP):
    """Sampled oscillation sup f - inf f over each window of eps, by
    doubling, on each side of directions.

    The window of an increment e is [x, x+e] forward and [x-e, x]
    backward.  eps runs from the largest increment down, as every
    schedule does, so each window holds all the deeper ones.  Row k of
    a side's ladder samples only the annulus between eps[k+1] and eps[k]
    away from x; its last row samples [0, eps[-1]], whose first point is
    x itself.  A row starts from n0 uniform points, both ends included,
    and doubles on nested grids n -> 2n-1.  Its stop rule reads the
    oscillation over its own samples plus f(x): the first doubling that
    gains less than OSC_REL_CHANGE relative stops that row
    (refined=True), and a row whose next grid would pass cap keeps its
    samples with refined=False.  A row whose oscillation is +inf on its
    first grid, or NaN on any grid, keeps the samples it has with
    refined=False: its extrema only widen and a NaN stays, so no finer
    grid could settle it (and a NaN a finer grid might hold is not
    looked for).  A window's value is the max minus the min over its
    own row and every deeper one of its side, folded from the deepest
    row out, so it never increases as e shrinks.  The
    library always starts from OSC_N0 points under OSC_SAMPLE_CAP; n0
    and cap are there for tests (n0 = cap gives one fixed grid of n0
    points per annulus, and n0 is not checked).

    Every side's windows are checked, in the order of directions, before
    anything is evaluated.  Returns five arrays with one row per
    direction: each window's value, the number of samples of its annulus
    and that annulus's refined flag, one per increment; f(x), one per
    side; and f(x +- eps), one per increment.  The last two come from
    the first grid, whose offsets 0 and 1 give the points x and x +- e
    bit for bit as variation_values forms them, so they are the values
    it would evaluate (_variation_quotient turns them into variations).

    The rows of all sides are sampled together.  Every row with a
    finite first grid takes the first doubling, so when 2*n0-1 <= cap
    the first grid and that doubling are one level: one evaluator call
    per block over each row's 2*n0-1 points, the n0 grid first and its
    midpoints after.  A row that is not finite on its first grid keeps
    that grid's extrema, so its n0 - 1 midpoints are evaluated and never
    read.  Each later doubling samples only the new midpoints of the
    rows still refining, gathered once into compact arrays, and folds
    them into running maxima and minima; a row is written back when it
    leaves.  The nested grids make this exact: every coarse offset
    reappears bit for bit at an even index of the finer grid, so the
    extrema over the union are the extrema over the full grid.  That
    holds for any f whose value at a point does not depend on the other
    points of the call.

    The ladder runs under np.errstate(over="ignore", invalid="ignore"),
    as _feval does: extrema of opposite sign near the largest double
    overflow their difference to inf, and an annulus whose samples are
    all inf of one sign gives inf - inf, a NaN oscillation.
    """
    eps = np.asarray(eps, dtype=float)
    _check_ladder_windows(f, x, eps, directions)
    sides, k = len(directions), eps.size
    # each side's row of signed distances from x, down to its own zero
    dist = np.array([_SIGN[d] for d in directions])[:, None] * np.concatenate((eps, [0.0]))
    outer = dist[:, :-1].ravel()
    inner = dist[:, 1:].ravel()
    n = int(n0)
    double = 2 * n - 1 <= cap
    # the n-point grid, then, when the first doubling fits under cap, the
    # midpoints that double it
    offs = (np.concatenate((_osc_offsets(2 * n - 1, 0, 2), _osc_offsets(2 * n - 1, 1, 2)))
            if double else _osc_offsets(n))
    hi, lo, mid_hi, mid_lo = np.empty((4, outer.size))
    ends = np.empty((outer.size, 2))
    for block, v in _annulus_values(f, x, outer, inner, offs):
        # each part is a run of whole columns, so each row reduces over
        # contiguous values, as a call of that part alone would
        grid, mids = v[:, :n], v[:, n:]
        hi[block] = grid.max(axis=1)
        lo[block] = grid.min(axis=1)
        ends[block, 0] = grid[:, 0]
        ends[block, 1] = grid[:, -1]
        if double:
            mid_hi[block] = mids.max(axis=1)
            mid_lo[block] = mids.min(axis=1)
    # each row's stop rule reads f(x); each side's last row holds it
    # already, so this leaves every fold unchanged
    fx = ends[k - 1::k, 0]
    side_hi, side_lo = hi.reshape(sides, k), lo.reshape(sides, k)
    np.maximum(side_hi, fx[:, None], out=side_hi)
    np.minimum(side_lo, fx[:, None], out=side_lo)
    n_samples = np.full(outer.size, n)
    refined = np.zeros(outer.size, dtype=bool)
    if double:
        own = hi - lo
        # an infinite row stays infinite, its max only rising and its min
        # only falling, and np.maximum and np.minimum keep a NaN
        finite = np.isfinite(own)
        np.maximum(hi, mid_hi, out=hi, where=finite)
        np.minimum(lo, mid_lo, out=lo, where=finite)
        n = 2 * n - 1
        cur = hi - lo
        refined = _agree(cur, own, OSC_REL_CHANGE)
        n_samples[finite] = n
        rows = np.flatnonzero(finite & ~(refined | np.isnan(cur)))
        if rows.size:
            # the rows still refining, gathered: their distances, their
            # extrema and their last oscillation
            r_outer, r_inner, r_hi, r_lo, own = (a[rows] for a in (outer, inner, hi, lo, cur))
            while rows.size and 2 * n - 1 <= cap:
                n = 2 * n - 1
                h, l = _annulus_extrema(f, x, r_outer, r_inner, _osc_offsets(n, 1, 2))
                np.maximum(r_hi, h, out=r_hi)
                np.minimum(r_lo, l, out=r_lo)
                cur = r_hi - r_lo
                settled = _agree(cur, own, OSC_REL_CHANGE)
                leave = settled | np.isnan(cur)
                if leave.any():
                    gone = rows[leave]
                    hi[gone], lo[gone] = r_hi[leave], r_lo[leave]
                    n_samples[gone] = n
                    refined[gone] = settled[leave]
                    stay = ~leave
                    rows, r_outer, r_inner, r_hi, r_lo, cur = (
                        a[stay] for a in (rows, r_outer, r_inner, r_hi, r_lo, cur))
                own = cur
            # the rows the cap stopped keep their samples, unrefined
            hi[rows], lo[rows] = r_hi, r_lo
            n_samples[rows] = n
    hi = hi.reshape(sides, k)[:, ::-1]
    lo = lo.reshape(sides, k)[:, ::-1]
    value = (np.maximum.accumulate(hi, axis=1)[:, ::-1]
             - np.minimum.accumulate(lo, axis=1)[:, ::-1])
    return (value, n_samples.reshape(sides, k), refined.reshape(sides, k),
            fx, ends[:, 1].reshape(sides, k))
