"""Velocity limits, growth and oscillation conditions, exponent regression.

The central object is the geometric increment schedule.  Estimates walk
the schedule toward zero, and a windowed Cauchy rule over the deepest
entries decides whether the limit exists.  Nothing here extrapolates:
a reported value is always a computed variation at the smallest usable
increment, never a model fit.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import diffops
from .diffops import Direction, variation_values
from .errors import LocallyConstantError, ScheduleUnderflowError

__all__ = [
    "DEFAULT_TOL",
    "DIVERGENCE_CUTOFF",
    "EpsilonSchedule",
    "DEFAULT_SCHEDULE",
    "LimitStatus",
    "LimitEstimate",
    "classify_limit",
    "velocity_limit",
    "VelocityReport",
    "estimate_velocity",
    "HolderEstimate",
    "estimate_holder_exponent",
]

DEFAULT_TOL = 1e-6

# A tail entry beyond this magnitude classifies the sequence as divergent.
DIVERGENCE_CUTOFF = 1e12

# Increments below FLOOR_FACTOR * eps_mach * max(1, |x|) are dominated by
# cancellation noise in f(x+eps) - f(x) and are dropped.
FLOOR_FACTOR = 1e3

# A schedule must keep at least this many increments to say anything.
MIN_USABLE = 4

# A schedule trimmed to a sample floor or a domain margin must keep at
# least this many increments.
MIN_FITTED = 8

# c1 holds while the deep-half maximum of the growth ratios stays within
# this factor of the shallow-half maximum.
C1_RATIO_CUTOFF = 10.0

_EPS_MACH = np.finfo(float).eps

# Points per block of a grid evaluation scale so that a block holds about
# this many (point, increment) entries, bounding the evaluator's working set.
GRID_BLOCK_ENTRIES = 2 ** 14


def _floor(x):
    """Round-off floor FLOOR_FACTOR * eps_mach * max(1, |x|); x may be an array."""
    return FLOOR_FACTOR * _EPS_MACH * np.fmax(1.0, np.abs(x))


@dataclass(frozen=True)
class EpsilonSchedule:
    """Geometric ladder of probe increments eps0 * ratio**k, k < count."""

    eps0: float = 2.0 ** -4
    ratio: float = 0.5
    count: int = 40

    def __post_init__(self) -> None:
        if not (np.isfinite(self.eps0) and self.eps0 > 0.0):
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.count < MIN_USABLE:
            raise ValueError(f"count must be at least {MIN_USABLE}, got {self.count}")

    def raw(self) -> np.ndarray:
        """All increments, before any flooring."""
        return self.eps0 * self.ratio ** np.arange(self.count, dtype=float)

    def increments(self, x: float = 0.0) -> np.ndarray:
        """Increments usable at x, largest first.

        Entries at or below the round-off floor for x are dropped.
        Raises ScheduleUnderflowError when fewer than 4 survive.
        """
        eps = self.raw()
        floor = _floor(x)
        kept = eps[eps > floor]
        if kept.size < MIN_USABLE:
            raise ScheduleUnderflowError(
                f"only {kept.size} increments stay above the floor {floor:g} at x={x:g}")
        return kept

    def fitted(self, floor: float = -math.inf,
               margin: float = math.inf) -> Optional["EpsilonSchedule"]:
        """The schedule cut to its raw() entries in (floor, margin].

        Returns self when nothing is cut, None when the cut leaves fewer
        than MIN_FITTED entries, and otherwise the ladder from the
        largest kept entry with the kept count.
        """
        if floor < 0.0 and margin >= self.eps0:
            return self   # raw() entries lie in [0, eps0]
        eps = self.raw()
        keep = (eps > floor) & (eps <= margin)
        if keep.all():
            return self
        kept = int(keep.sum())
        if kept < MIN_FITTED:
            return None
        return EpsilonSchedule(float(eps[keep][0]), self.ratio, kept)


DEFAULT_SCHEDULE = EpsilonSchedule()


class LimitStatus(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    OSCILLATORY = "oscillatory"


@dataclass(frozen=True)
class LimitEstimate:
    """Outcome of the windowed Cauchy classification.

    value is the sequence entry at the smallest increment; it is only
    meaningful when status is CONVERGED and NaN when DIVERGED.  residual
    is the max-min spread over the classification window.
    """

    value: float
    status: LimitStatus
    residual: float
    tail_values: Tuple[float, ...]


# Statuses by the row codes _classify_rows computes.
_STATUS_BY_CODE = np.array([LimitStatus.CONVERGED, LimitStatus.OSCILLATORY,
                            LimitStatus.DIVERGED], dtype=object)


def _classify_rows(values: np.ndarray, tol: float):
    """The windowed Cauchy rule of classify_limit, applied to each row.

    values is 2-D, one sequence per row.  Returns (window, status, value,
    residual): the last max(4, N//4) columns, then per row the
    LimitStatus, the last window entry and the window spread, the last
    two NaN where the row diverged.
    """
    n = values.shape[1]
    if n < MIN_USABLE:
        raise ValueError(f"need at least {MIN_USABLE} values, got {n}")
    if not np.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    window = values[:, -max(4, n // 4):]
    bounded = (np.isfinite(values).all(axis=1)
               & (np.abs(window) <= DIVERGENCE_CUTOFF).all(axis=1))
    residual = np.subtract(window.max(axis=1), window.min(axis=1),
                           out=np.full(len(values), math.nan), where=bounded)
    status = _STATUS_BY_CODE[np.where(bounded, residual > tol, 2)]
    return window, status, np.where(bounded, window[:, -1], math.nan), residual


def classify_limit(values, tol: float) -> LimitEstimate:
    """Classify a sequence indexed by shrinking increments.

    The window is the deepest max(4, N//4) entries.  Any non-finite
    entry, or a window entry past DIVERGENCE_CUTOFF in magnitude,
    reports DIVERGED.  Otherwise the window spread is compared with tol:
    within tol (ties included) is CONVERGED, else OSCILLATORY.  That
    spread, the residual, is also the c2 value of estimate_velocity.
    """
    values = np.asarray(values, dtype=float).reshape(1, -1)
    window, status, value, residual = _classify_rows(values, tol)
    tail = tuple(float(v) for v in window[0])
    if status[0] is LimitStatus.DIVERGED:
        return LimitEstimate(math.nan, LimitStatus.DIVERGED, math.nan, tail)
    return LimitEstimate(float(value[0]), status[0], float(residual[0]), tail)


def _variations(f, x: float, beta: float, direction: Direction,
                schedule: Optional[EpsilonSchedule]):
    """The usable increments at x and the fractional variation over them."""
    diffops._check_beta(beta)
    eps = (schedule or DEFAULT_SCHEDULE).increments(x)
    return eps, variation_values(f, x, beta, direction, eps)


def velocity_limit(f, x: float, beta: float, direction: Direction,
                   schedule: Optional[EpsilonSchedule] = None,
                   tol: float = DEFAULT_TOL) -> LimitEstimate:
    """The one-sided fractional velocity limit at x, without side conditions.

    The same limit estimate_velocity reports, whose residual is c2, at
    the cost of one variation walk down the schedule; the c1 oscillation
    sampling is left out.  Scans, the interval verifiers and the LFD
    cross-check read only this.
    """
    _, vals = _variations(f, x, beta, direction, schedule)
    return classify_limit(vals, tol)


def _velocity_limits(f, xs: np.ndarray, beta: float, direction: Direction,
                     schedule: EpsilonSchedule, tol: float):
    """Status and value of velocity_limit at every point of the 1-D array xs.

    The round-off floor makes the usable ladder depend on max(1, |x|), so
    points are grouped by ladder length; each group is evaluated as
    (points x increments) blocks and classified row by row.  Returns two
    arrays: the LimitStatus of each point and its value.  A point whose
    ladder underflows raises ScheduleUnderflowError, though not
    necessarily at the first such point in xs.
    """
    kept = np.count_nonzero(schedule.raw() > _floor(xs)[:, None], axis=1)
    status = np.empty(xs.size, dtype=object)
    value = np.empty(xs.size)
    for k in np.unique(kept):
        rows = np.flatnonzero(kept == k)
        eps = schedule.increments(float(xs[rows[0]]))
        n_blocks = math.ceil(rows.size * eps.size / GRID_BLOCK_ENTRIES)
        for block in np.array_split(rows, n_blocks):
            vals = variation_values(f, xs[block], beta, direction, eps)
            _, status[block], value[block], _ = _classify_rows(vals, tol)
    return status, value


@dataclass(frozen=True)
class VelocityReport:
    """One-sided velocity estimate with the paper's two side conditions.

    c1 bounds the oscillation growth osc/eps**beta.  c1_constant is the
    largest ratio over the schedule, inf when some ratio is not finite.
    c1_holds compares the deep half of the ratios with the shallow half:
    the deep-half maximum may exceed the shallow-half maximum by at most
    C1_RATIO_CUTOFF (when the shallow half is all zero, the deep half
    must be too).  A per-step ratio would miss slow blow-ups like a jump
    discontinuity, whose ratio grows only by 2**beta per halving.
    c2_oscillation is the limit's residual, the spread of the variation
    over the classification window (NaN when the limit diverged), so
    c2 <= tol exactly when the limit converged.
    """

    x: float
    beta: float
    direction: Direction
    limit: LimitEstimate
    c1_constant: float
    c1_holds: bool

    @property
    def c2_oscillation(self) -> float:
        return self.limit.residual


def estimate_velocity(f, x: float, beta: float, direction: Direction,
                      schedule: Optional[EpsilonSchedule] = None,
                      tol: float = DEFAULT_TOL) -> VelocityReport:
    """Estimate the one-sided fractional velocity of order beta at x.

    The limit is velocity_limit's, and c2 is its residual.  One
    oscillation ladder over the same increments adds c1: the growth
    ratios osc/eps**beta, their maximum as c1_constant, and c1_holds when
    the deep-half maximum stays within C1_RATIO_CUTOFF times the
    shallow-half maximum.

    Parameters
    ----------
    f : callable
        Scalar or vectorized evaluator; a domain attribute is honored.
    x : float
        Base point.
    beta : float
        Order in (0, 1].  At beta=1 this is a one-sided derivative probe;
        note the cancellation noise eps_mach*|f|/eps makes very deep
        schedules useless there.
    direction : Direction
        Side to probe.
    schedule : EpsilonSchedule, optional
        Increment ladder; the module default descends from 2**-4 by
        halving, 40 steps.
    tol : float
        Cauchy window tolerance.  Match it to the expected tail spread;
        slowly decaying variations (small beta gap) need a looser value.

    Returns
    -------
    VelocityReport
    """
    eps, vals = _variations(f, x, beta, direction, schedule)
    limit = classify_limit(vals, tol)
    osc = diffops._osc_ladder(f, x, eps, direction)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = osc / eps ** beta
    c1 = float(np.max(growth)) if np.all(np.isfinite(growth)) else math.inf
    half = math.ceil(growth.size / 2)
    shallow_ref = float(np.max(growth[:-half]))
    deep_max = float(np.max(growth[-half:]))
    if shallow_ref > 0.0:
        c1_holds = deep_max <= C1_RATIO_CUTOFF * shallow_ref
    else:
        c1_holds = deep_max == 0.0
    return VelocityReport(float(x), float(beta), direction, limit, c1, c1_holds)


@dataclass(frozen=True)
class HolderEstimate:
    """Log-log regression result for the oscillation growth law."""

    exponent: float
    constant: float
    r_squared: float
    scale_range: Tuple[float, float]

    @property
    def low_confidence(self) -> bool:
        return self.r_squared < 0.5

    @property
    def superlinear(self) -> bool:
        return self.exponent > 1.0


def estimate_holder_exponent(f, x: float, direction: Direction,
                             schedule: Optional[EpsilonSchedule] = None) -> HolderEstimate:
    """Pointwise regularity exponent by least squares on log osc vs log eps.

    Oscillation is regressed rather than the bare difference so that sign
    cancellations at x cannot bias the slope.  Zero oscillations are
    excluded from the fit; if everything is zero the function is locally
    constant and LocallyConstantError is raised.  The slope is clipped to
    [0, 1.5]: beyond linear the probe says "smoother than Lipschitz" and
    the exact value is not trustworthy, which the superlinear flag records.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    eps = schedule.increments(x)
    osc = diffops._osc_ladder(f, x, eps, direction)[0]
    keep = osc > 0.0
    if not keep.any():
        raise LocallyConstantError(f"all oscillations vanish at x={x:g}")
    if keep.sum() < MIN_USABLE:
        raise LocallyConstantError(
            f"only {int(keep.sum())} nonzero oscillations at x={x:g}, cannot fit")
    lx = np.log(eps[keep])
    ly = np.log(osc[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    exponent = float(np.clip(slope, 0.0, 1.5))
    return HolderEstimate(exponent, float(np.exp(intercept)), float(r2),
                          (float(np.min(eps[keep])), float(np.max(eps[keep]))))
