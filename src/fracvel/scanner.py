"""Grid scans for velocity change sets and interval-theorem verdicts.

A scan estimates one-sided velocities at every grid point and flags the
points where a converged, clearly nonzero value appears.  For functions
whose roughness lives on a null set the flagged fraction falls off like
1/n as the grid refines; the verifiers below reuse the same machinery to
check the classical interval theorems in their fractional form.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .diffops import Direction, domain_of
from .errors import DomainError, PreconditionError
from .estimator import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    LimitEstimate,
    LimitStatus,
    _velocity_limits,
    velocity_limit,
)

__all__ = [
    "Theorem",
    "GridPointResult",
    "ChangeSetReport",
    "scan_change_set",
    "null_measure_trend",
    "IntervalVerdict",
    "verify_rolle",
    "verify_mean_value",
    "verify_weak_darboux",
]

SCAN_TOL = 1e-4


class Theorem(enum.Enum):
    ROLLE = "rolle"
    MEAN_VALUE = "mean_value"
    WEAK_DARBOUX = "weak_darboux"


@dataclass(frozen=True)
class GridPointResult:
    x: float
    direction: Direction
    status: LimitStatus
    value: float
    flagged: bool


@dataclass(frozen=True)
class ChangeSetReport:
    interval: Tuple[float, float]
    beta: float
    grid_points: int
    flag_threshold: float
    flagged: Tuple[Tuple[float, float, Direction], ...]
    flagged_fraction: float
    points: Tuple[GridPointResult, ...]


def _require_margin(f, a: float, b: float, eps0: float) -> None:
    lo, hi = domain_of(f)
    if a - eps0 < lo or b + eps0 > hi:
        raise DomainError(
            f"scan of [{a:g}, {b:g}] needs probes within [{a - eps0:g}, {b + eps0:g}], "
            f"outside the domain [{lo:g}, {hi:g}]")


def _grid_size(n) -> int:
    """n as an int, at least the 3 points a grid with an interior needs."""
    n = int(n)
    if n < 3:
        raise ValueError(f"need at least 3 grid points, got {n}")
    return n


def _probes(n: int):
    """(grid index, direction) of every scan probe, in grid order."""
    for i in range(n):
        if i < n - 1:
            yield i, Direction.FORWARD
        if i > 0:
            yield i, Direction.BACKWARD


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

    xs = np.linspace(a, b, n)
    try:
        sides = {
            Direction.FORWARD: _velocity_limits(f, xs[:-1], beta, Direction.FORWARD,
                                                schedule, tol),
            Direction.BACKWARD: _velocity_limits(f, xs[1:], beta, Direction.BACKWARD,
                                                 schedule, tol),
        }
    except Exception:
        # A failed batch does not say which probe failed first: replay the
        # probes one by one so the error is the one the first failing probe
        # raises on its own, then fall back to the batch's error.
        for i, d in _probes(n):
            velocity_limit(f, float(xs[i]), beta, d, schedule, tol)
        raise
    points = []
    flagged = []
    for i, d in _probes(n):
        x = float(xs[i])
        status, values = sides[d]
        j = i if d is Direction.FORWARD else i - 1
        value = float(values[j])
        hit = status[j] is LimitStatus.CONVERGED and abs(value) > threshold
        points.append(GridPointResult(x, d, status[j], value, hit))
        if hit:
            flagged.append((x, value, d))
    fraction = len({x for x, _, _ in flagged}) / n
    return ChangeSetReport((a, b), float(beta), n, threshold,
                           tuple(flagged), fraction, tuple(points))


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


def _velocity_at(f, x: float, beta: float, direction: Direction,
                 schedule: EpsilonSchedule, tol: float) -> Optional[LimitEstimate]:
    """velocity_limit with the schedule trimmed to the domain; None if no room."""
    lo, hi = domain_of(f)
    margin = hi - x if direction is Direction.FORWARD else x - lo
    fitted = schedule.fitted(margin=margin)
    if fitted is None:
        return None
    return velocity_limit(f, x, beta, direction, fitted, tol)


def verify_rolle(f, a: float, b: float, beta: float, n: int = 101,
                 schedule: Optional[EpsilonSchedule] = None,
                 tol: float = 1e-3) -> IntervalVerdict:
    """Find an interior point whose one-sided velocities split signs.

    Hypothesis: f(a) and f(b) agree within tol.  Every interior grid
    point is probed from both sides; a point qualifies when the forward
    and backward velocities take opposite (weak) signs.  With weak
    inequalities almost every point of a flat region qualifies, so the
    witness is the qualifying point with the widest split between the
    two sides: that is where the extremum actually sits.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {beta}")
    n = _grid_size(n)
    schedule = schedule or DEFAULT_SCHEDULE
    fa, fb = float(np.asarray(f(a))), float(np.asarray(f(b)))
    if abs(fa - fb) > tol:
        raise PreconditionError(
            f"endpoint values differ by {abs(fa - fb):g} > tol={tol:g}")

    xs = np.linspace(a, b, n)[1:-1]
    best = None
    best_split = -1.0
    checked = 0
    for x in xs:
        x = float(x)
        rf = _velocity_at(f, x, beta, Direction.FORWARD, schedule, tol)
        rb = _velocity_at(f, x, beta, Direction.BACKWARD, schedule, tol)
        if rf is None or rb is None:
            continue
        checked += 1
        if (rf.status is not LimitStatus.CONVERGED
                or rb.status is not LimitStatus.CONVERGED):
            return IntervalVerdict(
                Theorem.ROLLE, False, None,
                f"velocity scan fails at x={x:g}: "
                f"forward {rf.status.value}, backward {rb.status.value}")
        vf, vb = rf.value, rb.value
        up_down = vf <= tol and vb >= -tol
        down_up = vf >= -tol and vb <= tol
        if up_down or down_up:
            split = abs(vf - vb)
            if split > best_split:
                best_split = split
                best = {"x": x, "forward": vf, "backward": vb}
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
                      tol: float = 1e-3, *, grid_n: int = 33) -> IntervalVerdict:
    """Check the endpoint form of the fractional mean value relation.

    The ratio r = (f(b)-f(a)) / (b-a)**beta must be attained by the
    forward velocity at a or the backward velocity at b; below order one
    there is no interior c playing the classical role, and the notes
    report how many interior grid points (out of grid_n, at least 1)
    attain r anyway.
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
    fa, fb = float(np.asarray(f(a))), float(np.asarray(f(b)))
    if abs(fa - fb) <= tol:
        raise PreconditionError(
            f"endpoint values agree within tol={tol:g}; the ratio is degenerate")

    r = (fb - fa) / (b - a) ** beta
    witness = None
    rep_a = _velocity_at(f, a, beta, Direction.FORWARD, schedule, tol)
    if (rep_a is not None and rep_a.status is LimitStatus.CONVERGED
            and abs(rep_a.value - r) <= tol):
        witness = {"x": a, "endpoint": 0.0, "velocity": rep_a.value, "ratio": r}
    else:
        rep_b = _velocity_at(f, b, beta, Direction.BACKWARD, schedule, tol)
        if (rep_b is not None and rep_b.status is LimitStatus.CONVERGED
                and abs(rep_b.value - r) <= tol):
            witness = {"x": b, "endpoint": 1.0, "velocity": rep_b.value, "ratio": r}

    attained = 0
    skipped = 0
    xs = np.linspace(a, b, grid_n + 2)[1:-1]
    for x in xs:
        x = float(x)
        hit = False
        for d in (Direction.FORWARD, Direction.BACKWARD):
            rep = _velocity_at(f, x, beta, d, schedule, tol)
            if rep is None:
                skipped += 1
                continue
            if (rep.status is LimitStatus.CONVERGED
                    and abs(rep.value - r) <= tol):
                hit = True
        if hit:
            attained += 1
    notes = (f"ratio {r:.6g}; interior attainment: {attained} of {len(xs)} grid points"
             + (f" ({skipped} side probes skipped for domain room)" if skipped else ""))
    return IntervalVerdict(Theorem.MEAN_VALUE, witness is not None, witness, notes)


def verify_weak_darboux(f, a: float, b: float, beta: float, n: int = 101,
                        schedule: Optional[EpsilonSchedule] = None,
                        tol: float = 1e-3, target: Optional[float] = None) -> IntervalVerdict:
    """Weak intermediate-value check for the velocity along a grid.

    At order one a target between the endpoint derivatives must be given
    and is matched within the grid's own resolution (the largest jump
    between adjacent grid velocities).  Below order one the only testable
    content is degenerate: when both endpoint velocities vanish, some
    grid point must also carry a vanishing velocity; with nonzero
    endpoint velocities the weak form asserts nothing and the verdict
    holds vacuously.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {beta}")
    n = _grid_size(n)
    schedule = schedule or DEFAULT_SCHEDULE

    xs = np.linspace(a, b, n)
    vels = []
    for i, x in enumerate(xs):
        x = float(x)
        d = Direction.BACKWARD if i == len(xs) - 1 else Direction.FORWARD
        rep = _velocity_at(f, x, beta, d, schedule, tol)
        if rep is None:
            return IntervalVerdict(Theorem.WEAK_DARBOUX, False, None,
                                   f"no room for the schedule at x={x:g}")
        if rep.status is not LimitStatus.CONVERGED:
            return IntervalVerdict(
                Theorem.WEAK_DARBOUX, False, None,
                f"velocity scan fails at x={x:g}: {rep.status.value}")
        vels.append(rep.value)
    v = np.asarray(vels)

    if beta == 1.0:
        if target is None:
            raise ValueError("order-one check needs an explicit target value")
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
