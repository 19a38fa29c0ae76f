"""Grid scans for velocity change sets and interval-theorem verdicts.

A scan estimates one-sided velocities at every grid point and flags the
points where a converged, clearly nonzero value appears.  For functions
whose roughness lives on a null set the flagged fraction falls off like
1/n as the grid refines; the verifiers below reuse the same machinery to
check the classical interval theorems in their fractional form.

Every probe, in a scan or a verifier, goes through _batch_limits, the
one place that decides each probe's ladder and its evaluator call: the
probes that share a direction, a fitted schedule and a ladder length
are evaluated together as (points x increments) arrays, and each
reports exactly what velocity_limit reports there.  A scan reports its
probes as columns, one tuple per field of ScanPoints.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .diffops import (Direction, _check_beta, _feval, _inside, _row_blocks, domain_of,
                      variation_values)
from .errors import DomainError, PreconditionError
from .estimator import (
    DEFAULT_SCHEDULE,
    MIN_USABLE,
    EpsilonSchedule,
    LimitStatus,
    _classify_rows,
    _count_above,
    velocity_limit,
)

__all__ = [
    "Theorem",
    "ScanPoints",
    "ChangeSetReport",
    "scan_change_set",
    "null_measure_trend",
    "IntervalVerdict",
    "verify_rolle",
    "verify_mean_value",
    "verify_weak_darboux",
]

SCAN_TOL = 1e-4
VERIFY_TOL = 1e-3


class Theorem(enum.Enum):
    ROLLE = "rolle"
    MEAN_VALUE = "mean_value"
    WEAK_DARBOUX = "weak_darboux"


class ScanPoints(NamedTuple):
    """A scan's probes in grid order, one tuple per column."""

    x: Tuple[float, ...]
    direction: Tuple[Direction, ...]
    status: Tuple[LimitStatus, ...]
    value: Tuple[float, ...]
    flagged: Tuple[bool, ...]


@dataclass(frozen=True)
class ChangeSetReport:
    interval: Tuple[float, float]
    beta: float
    grid_points: int
    flag_threshold: float
    flagged: Tuple[Tuple[float, float, Direction], ...]
    flagged_fraction: float
    points: ScanPoints


def _require_margin(f, a: float, b: float, eps0: float) -> None:
    if not _inside(f, a - eps0, b + eps0):
        lo, hi = domain_of(f)
        raise DomainError(
            f"scan of [{a:g}, {b:g}] needs probes within [{a - eps0:g}, {b + eps0:g}], "
            f"outside the domain [{lo:g}, {hi:g}]")


def _grid_size(n) -> int:
    """n as an int, at least the 3 points a grid with an interior needs."""
    n = int(n)
    if n < 3:
        raise ValueError(f"need at least 3 grid points, got {n}")
    return n


def _grid_probes(xs: np.ndarray):
    """Abscissae and forward flags of a scan's probes, in grid order:
    forward from every point but the last, backward from every point
    but the first."""
    n = xs.size
    keep = np.ones(2 * n, dtype=bool)
    keep[[1, 2 * n - 2]] = False
    return np.repeat(xs, 2)[keep], np.tile([True, False], n)[keep]


def _both_sides(xs: np.ndarray):
    """Abscissae and forward flags of the forward and then the backward
    probe of each point of xs."""
    return np.repeat(xs, 2), np.tile([True, False], xs.size)


def _direction(forward: bool) -> Direction:
    return Direction.FORWARD if forward else Direction.BACKWARD


def _batch_limits(f, xs: np.ndarray, forward: np.ndarray, beta: float,
                  schedule: EpsilonSchedule, tol: float):
    """Status and value of the velocity limit at each probe, as arrays.

    Probe i is at xs[i], forward where forward[i] and backward
    elsewhere.  Each probe's schedule is fitted to its domain margin (a
    probe past the domain's far end keeps the whole schedule); a
    probe it leaves no room gets status None, any other one what
    velocity_limit reports with the fitted schedule.  Before evaluation,
    each probe gets its fit, once per distinct margin cut, and its ladder
    length above the round-off floor, once per distinct fit.  The first
    probe whose ladder is shorter than MIN_USABLE or whose window leaves
    the domain ends the batch.  The probes before it are grouped by
    direction, fit and length; each group, in the order of its first
    probe, is evaluated as (points x increments) blocks of one evaluator
    call each and classified row by row.

    Returns (status, value, stop, error): stop is the first probe that
    fails by itself, or len(xs), error what velocity_limit raises there,
    or None, and the arrays hold every result before stop.  The probe
    that ends the batch fails before any evaluation.  A batch that fails,
    as when the evaluator raises, is replayed probe by probe through
    velocity_limit, in order, and a clean replay's results stand, as
    rl_integral's do.
    """
    lo, hi = domain_of(f)
    with np.errstate(invalid="ignore"):
        margin = np.where(forward, hi - xs, xs - lo)
    # probe i uses fits[fit_of[i]], none where that is None: a margin short of
    # eps0 takes its cut's fit, and a NaN one, which alone cuts none, fits
    # none.  A negative margin puts the probe past the domain's far end, so it
    # keeps the whole schedule, whose window leaves the domain.
    fits = [schedule]
    fit_of = np.zeros(xs.size, dtype=int)
    kept = schedule._usable(xs)
    short = np.flatnonzero(~(margin >= schedule.eps0) & ~(margin < 0.0))
    if short.size:
        _, first, cut_of = np.unique(_count_above(schedule.raw(), margin[short]),
                                     return_index=True, return_inverse=True)
        fit_of[short] = 1 + cut_of
        fits += [schedule.fitted(margin=m) for m in margin[short[first]].tolist()]
        for j, fit in enumerate(fits[1:]):
            rows = short[cut_of == j]
            kept[rows] = 0 if fit is None else fit._usable(xs[rows])
    eps0 = np.array([math.nan if fit is None else fit.eps0 for fit in fits])[fit_of]
    has_fit = ~np.isnan(eps0)
    inside = _inside(f, xs, xs + np.where(forward, eps0, -eps0))
    fails = np.flatnonzero(has_fit & ((kept < MIN_USABLE) | ~inside))
    stop = int(fails[0]) if fails.size else xs.size
    group = np.where(has_fit, (2 * fit_of + ~forward) * (schedule.count + 1) + kept, -1)
    group[stop:] = -1
    status = np.full(xs.size, None, dtype=object)
    value = np.full(xs.size, np.nan)
    _, first = np.unique(group, return_index=True)
    # velocity_limit checks order, ladder and window before evaluating
    replay = [stop] if stop < xs.size else []
    try:
        for i in np.sort(first):
            if group[i] >= 0:
                rows = np.flatnonzero(group == group[i])
                eps = fits[fit_of[i]].raw()[:kept[i]]
                # variation_values adds a column for f(x) itself
                for block in _row_blocks(rows.size, eps.size + 1):
                    idx = rows[block]
                    vals = variation_values(f, xs[idx], beta, _direction(forward[i]), eps)
                    _, status[idx], value[idx], _ = _classify_rows(vals, tol)
    except Exception:
        replay = np.flatnonzero(group >= 0).tolist() + replay
    for i in replay:
        try:
            lim = velocity_limit(f, float(xs[i]), beta, _direction(forward[i]),
                                 fits[fit_of[i]], tol)
        except Exception as err:
            return status, value, i, err
        status[i], value[i] = lim.status, lim.value
    return status, value, xs.size, None


def scan_change_set(f, interval, beta: float, n: int,
                    flag_threshold: Optional[float] = None,
                    schedule: Optional[EpsilonSchedule] = None,
                    tol: float = SCAN_TOL) -> ChangeSetReport:
    """Flag grid points whose one-sided velocity converges past a threshold.

    Endpoints are probed from inside the interval only; interior points
    get both directions.  A point is flagged when its limit status is
    converged and |value| exceeds flag_threshold (default 10*tol).  The
    flagged fraction counts distinct abscissae, so a cusp caught from
    both sides still counts once.  Each probe reports exactly what
    velocity_limit reports there; the grid is evaluated one direction
    at a time as (points x increments) arrays.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"interval must be ordered, got ({a}, {b})")
    n = _grid_size(n)
    schedule = schedule or DEFAULT_SCHEDULE
    threshold = 10.0 * tol if flag_threshold is None else float(flag_threshold)
    _require_margin(f, a, b, schedule.eps0)

    px, forward = _grid_probes(np.linspace(a, b, n))
    status, value, _, error = _batch_limits(f, px, forward, beta, schedule, tol)
    if error is not None:
        raise error
    hit = (status == LimitStatus.CONVERGED) & (np.abs(value) > threshold)
    sides = np.where(forward, Direction.FORWARD, Direction.BACKWARD)
    # a diverged probe's value is the one math.nan object classify_limit
    # uses, so two runs of the same scan compare equal
    values = value.astype(object)
    values[np.isnan(value)] = math.nan
    points = ScanPoints(*(tuple(c.tolist()) for c in (px, sides, status, values, hit)))
    flagged = zip(px[hit].tolist(), value[hit].tolist(), sides[hit].tolist())
    fraction = np.unique(px[hit]).size / n
    return ChangeSetReport((a, b), float(beta), n, threshold,
                           tuple(flagged), fraction, points)


def null_measure_trend(f, interval, beta: float, refinements,
                       flag_threshold: Optional[float] = None,
                       schedule: Optional[EpsilonSchedule] = None,
                       tol: float = SCAN_TOL):
    """Flagged fraction at a ladder of grid resolutions.

    For isolated cusps the fraction should fall like 1/n, the numerical
    footprint of the change set having measure zero.  Returns a list of
    (n, fraction) pairs in the given order.
    """
    refs = [int(n) for n in refinements]
    if any(n < 3 for n in refs) or any(y <= x for x, y in zip(refs, refs[1:])):
        raise ValueError("refinements must be increasing and at least 3")
    out = []
    for n in refs:
        rep = scan_change_set(f, interval, beta, n, flag_threshold, schedule, tol)
        out.append((n, rep.flagged_fraction))
    return out


@dataclass(frozen=True)
class IntervalVerdict:
    theorem: Theorem
    holds: bool
    witness: Optional[Dict[str, float]]
    notes: str


def verify_rolle(f, a: float, b: float, beta: float, n: int = 101,
                 schedule: Optional[EpsilonSchedule] = None,
                 tol: float = VERIFY_TOL) -> IntervalVerdict:
    """Find an interior point whose one-sided velocities split signs.

    Hypothesis: f(a) and f(b) agree within tol.  Every interior grid
    point is probed from both sides; a point qualifies when the forward
    and backward velocities take opposite (weak) signs.  With weak
    inequalities almost every point of a flat region qualifies, so the
    witness is the qualifying point with the widest split between the
    two sides: that is where the extremum actually sits.  All probes are
    evaluated as one batch; the verdict fails at the first grid point
    where either side does not converge, and a probe that fails by
    itself raises once the points before it settle nothing.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    _check_beta(beta)
    n = _grid_size(n)
    schedule = schedule or DEFAULT_SCHEDULE
    fa, fb = float(_feval(f, a)), float(_feval(f, b))
    if abs(fa - fb) > tol:
        raise PreconditionError(
            f"endpoint values differ by {abs(fa - fb):g} > tol={tol:g}")

    px, forward = _both_sides(np.linspace(a, b, n)[1:-1])
    status, value, stop, error = _batch_limits(f, px, forward, beta, schedule, tol)
    best = None
    best_split = -1.0
    checked = 0
    # the forward and then the backward result of each point, whole pairs before stop
    end = stop - stop % 2
    for x, sf, sb, vf, vb in zip(px[:end:2].tolist(), status[:end:2], status[1:end:2],
                                 value[:end:2].tolist(), value[1:end:2].tolist()):
        if sf is None or sb is None:
            continue
        checked += 1
        if sf is not LimitStatus.CONVERGED or sb is not LimitStatus.CONVERGED:
            return IntervalVerdict(
                Theorem.ROLLE, False, None,
                f"velocity scan fails at x={x:g}: "
                f"forward {sf.value}, backward {sb.value}")
        up_down = vf <= tol and vb >= -tol
        down_up = vf >= -tol and vb <= tol
        if up_down or down_up:
            split = abs(vf - vb)
            if split > best_split:
                best_split = split
                best = {"x": x, "forward": vf, "backward": vb}
    if error is not None:
        raise error
    if checked == 0:
        return IntervalVerdict(Theorem.ROLLE, False, None,
                               "no interior point leaves room for the schedule")
    if best is None:
        return IntervalVerdict(Theorem.ROLLE, False, None,
                               "no interior grid point splits signs")
    return IntervalVerdict(
        Theorem.ROLLE, True, best,
        f"widest sign split among {checked} interior points")


def verify_mean_value(f, a: float, b: float, beta: float,
                      schedule: Optional[EpsilonSchedule] = None,
                      tol: float = VERIFY_TOL, *, grid_n: int = 33) -> IntervalVerdict:
    """Check the endpoint form of the fractional mean value relation.

    The ratio r = (f(b)-f(a)) / (b-a)**beta must be attained by the
    forward velocity at a or the backward velocity at b; below order one
    there is no interior c playing the classical role, and the notes
    report how many interior grid points (out of grid_n, at least 1)
    attain r anyway.  The endpoint at b is probed only when a does not
    attain r; the interior grid is one batch.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not 0.0 < beta < 1.0:
        raise PreconditionError(
            f"the endpoint form needs order in (0, 1), got {beta}")
    grid_n = int(grid_n)
    if grid_n < 1:
        raise ValueError(f"need at least 1 interior grid point, got {grid_n}")
    schedule = schedule or DEFAULT_SCHEDULE
    fa, fb = float(_feval(f, a)), float(_feval(f, b))
    if abs(fa - fb) <= tol:
        raise PreconditionError(
            f"endpoint values agree within tol={tol:g}; the ratio is degenerate")

    r = (fb - fa) / (b - a) ** beta

    def attains(xs, forward):
        """Velocities at the probes, and where they attain r."""
        status, value, _, error = _batch_limits(f, xs, forward, beta, schedule, tol)
        if error is not None:
            raise error
        return status, value, (status == LimitStatus.CONVERGED) & (np.abs(value - r) <= tol)

    witness = None
    for x, fwd, endpoint in ((a, True, 0.0), (b, False, 1.0)):
        _, value, hit = attains(np.array([x]), np.array([fwd]))
        if hit[0]:
            witness = {"x": x, "endpoint": endpoint, "velocity": float(value[0]), "ratio": r}
            break

    status, _, hit = attains(*_both_sides(np.linspace(a, b, grid_n + 2)[1:-1]))
    skipped = status.tolist().count(None)
    attained = int(np.count_nonzero(hit.reshape(grid_n, 2).any(axis=1)))
    notes = (f"ratio {r:.6g}; interior attainment: {attained} of {grid_n} grid points"
             + (f" ({skipped} side probes skipped for domain room)" if skipped else ""))
    return IntervalVerdict(Theorem.MEAN_VALUE, witness is not None, witness, notes)


def verify_weak_darboux(f, a: float, b: float, beta: float, n: int = 101,
                        schedule: Optional[EpsilonSchedule] = None,
                        tol: float = VERIFY_TOL,
                        target: Optional[float] = None) -> IntervalVerdict:
    """Weak intermediate-value check for the velocity along a grid.

    At order one a target between the endpoint derivatives must be given
    and is matched within the grid's own resolution (the largest jump
    between adjacent grid velocities).  Below order one the only testable
    content is degenerate: when both endpoint velocities vanish, some
    grid point must also carry a vanishing velocity; with nonzero
    endpoint velocities the weak form asserts nothing and the verdict
    holds vacuously.  All probes are evaluated as one batch; the verdict
    fails at the first grid point without room or convergence, and a
    probe that fails by itself raises once the points before it settle
    nothing.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    _check_beta(beta)
    n = _grid_size(n)
    if beta == 1.0 and target is None:
        raise ValueError("order-one check needs an explicit target value")
    schedule = schedule or DEFAULT_SCHEDULE

    xs = np.linspace(a, b, n)
    # forward from every point but the last, backward from the last
    forward = np.arange(n) < n - 1
    status, v, stop, error = _batch_limits(f, xs, forward, beta, schedule, tol)
    for x, st in zip(xs[:stop].tolist(), status[:stop]):
        if st is None:
            return IntervalVerdict(Theorem.WEAK_DARBOUX, False, None,
                                   f"no room for the schedule at x={x:g}")
        if st is not LimitStatus.CONVERGED:
            return IntervalVerdict(
                Theorem.WEAK_DARBOUX, False, None,
                f"velocity scan fails at x={x:g}: {st.value}")
    if error is not None:
        raise error

    if beta == 1.0:
        lo, hi = min(v[0], v[-1]), max(v[0], v[-1])
        if not lo <= target <= hi:
            return IntervalVerdict(
                Theorem.WEAK_DARBOUX, False, None,
                f"target {target:g} outside endpoint velocity range [{lo:g}, {hi:g}]")
        gaps = float(np.max(np.abs(np.diff(v))))
        i = int(np.argmin(np.abs(v - target)))
        holds = bool(abs(v[i] - target) <= max(tol, gaps))
        witness = {"x": float(xs[i]), "velocity": float(v[i]), "target": float(target)}
        return IntervalVerdict(
            Theorem.WEAK_DARBOUX, holds, witness,
            f"closest grid velocity at resolution {gaps:.3g}")

    if abs(v[0]) <= tol and abs(v[-1]) <= tol:
        i = 1 + int(np.argmin(np.abs(v[1:-1])))
        holds = bool(abs(v[i]) <= tol)
        witness = {"x": float(xs[i]), "velocity": float(v[i])}
        return IntervalVerdict(Theorem.WEAK_DARBOUX, holds, witness,
                               "endpoint velocities vanish; checking an interior zero")
    return IntervalVerdict(
        Theorem.WEAK_DARBOUX, True, None,
        "endpoint velocities are nonzero; the weak form asserts nothing here")
