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


def _floor(x):
    """Round-off floor FLOOR_FACTOR * eps_mach * max(1, |x|); x may be an array."""
    return FLOOR_FACTOR * _EPS_MACH * np.fmax(1.0, np.abs(x))


def _count_above(ladder: np.ndarray, bound):
    """The one schedule cut: how many entries of a descending ladder exceed bound(s)."""
    return ladder.size - ladder[::-1].searchsorted(bound, side="right")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Geometric ladder of probe increments eps0 * ratio**k, k < count."""

    eps0: float = 2.0 ** -4
    ratio: float = 0.5
    count: int = 40

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
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
        kept = eps[:_count_above(eps, _floor(x))]
        if kept.size < MIN_USABLE:
            raise ScheduleUnderflowError(
                f"only {kept.size} increments stay above the floor {_floor(x):g} at x={x:g}")
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
        if not floor < margin:
            return None   # no entry lies in the cut, a NaN one included
        eps = self.raw()
        top = int(_count_above(eps, margin))
        kept = int(_count_above(eps, floor)) - top
        if kept == self.count:
            return self
        if kept < MIN_FITTED:
            return None
        return EpsilonSchedule(float(eps[top]), self.ratio, kept)

    def _usable(self, x):
        """How many increments increments(x) keeps, x a float or an array."""
        return _count_above(self.raw(), _floor(x))


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
    residual): the last max(MIN_USABLE, N//4) columns, then per row the
    LimitStatus, the last window entry and the window spread, the last
    two NaN where the row diverged.
    """
    n = values.shape[1]
    if n < MIN_USABLE:
        raise ValueError(f"need at least {MIN_USABLE} values, got {n}")
    if not np.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    window = values[:, -max(MIN_USABLE, n // 4):]
    bounded = (np.isfinite(values).all(axis=1)
               & (np.abs(window) <= DIVERGENCE_CUTOFF).all(axis=1))
    residual = np.subtract(window.max(axis=1), window.min(axis=1),
                           out=np.full(len(values), math.nan), where=bounded)
    status = _STATUS_BY_CODE[np.where(bounded, residual > tol, 2)]
    return window, status, np.where(bounded, window[:, -1], math.nan), residual


def _limit_estimates(values: np.ndarray, tol: float):
    """classify_limit's LimitEstimate for each row of the 2-D values."""
    window, status, value, residual = _classify_rows(values, tol)
    out = []
    for row, st, v, r in zip(window.tolist(), status, value.tolist(), residual.tolist()):
        if st is LimitStatus.DIVERGED:
            out.append(LimitEstimate(math.nan, st, math.nan, tuple(row)))
        else:
            out.append(LimitEstimate(v, st, r, tuple(row)))
    return out


def classify_limit(values, tol: float) -> LimitEstimate:
    """Classify a sequence indexed by shrinking increments.

    The window is the deepest max(4, N//4) entries.  Any non-finite
    entry, or a window entry past DIVERGENCE_CUTOFF in magnitude,
    reports DIVERGED.  Otherwise the window spread is compared with tol:
    within tol (ties included) is CONVERGED, else OSCILLATORY.  That
    spread, the residual, is also the c2 value of estimate_velocity.
    """
    return _limit_estimates(np.asarray(values, dtype=float).reshape(1, -1), tol)[0]


def velocity_limit(f, x: float, beta: float, direction: Direction,
                   schedule: Optional[EpsilonSchedule] = None,
                   tol: float = DEFAULT_TOL) -> LimitEstimate:
    """The one-sided fractional velocity limit at x, without side conditions.

    The same limit estimate_velocity reports, whose residual is c2, at
    the cost of one variation walk down the schedule; the c1 oscillation
    sampling is left out.  Scans, the interval verifiers and the LFD
    cross-check read only this.
    """
    diffops._check_beta(beta)
    eps = (schedule or DEFAULT_SCHEDULE).increments(x)
    return classify_limit(variation_values(f, x, beta, direction, eps), tol)


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


def _velocity_reports(f, x: float, beta: float, directions, eps: np.ndarray,
                      tol: float):
    """estimate_velocity's VelocityReport for each of directions, in order,
    over eps, a schedule's increments at x; beta is taken as checked.

    One oscillation ladder samples every side together, and its first
    grid brings f(x) and each f(x +- eps), the points variation_values
    would evaluate, so the variations cost no evaluator call of their
    own.  One _classify_rows call classifies every side's variations.
    """
    osc, _, _, fx, fe = diffops._osc_ladder(f, x, eps, directions)
    # an overflow or a nan is a non-finite variation or ratio: the limit
    # classifies as diverged and c1_constant reads inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = eps ** beta
        vals = np.array([diffops._variation_quotient(f0, fs, d, scale)
                         for d, f0, fs in zip(directions, fx, fe)])
        growth = osc / scale
    limits = _limit_estimates(vals, tol)
    half = math.ceil(eps.size / 2)
    # per side: whether every ratio is finite, the largest ratio, and the
    # largest over the shallow and over the deep half
    c1_stats = zip(np.isfinite(growth).all(axis=1).tolist(), growth.max(axis=1).tolist(),
                   growth[:, :-half].max(axis=1).tolist(),
                   growth[:, -half:].max(axis=1).tolist())
    reports = []
    for d, limit, (finite, top, shallow_ref, deep_max) in zip(directions, limits, c1_stats):
        if shallow_ref > 0.0:
            c1_holds = deep_max <= C1_RATIO_CUTOFF * shallow_ref
        else:
            c1_holds = deep_max == 0.0
        reports.append(VelocityReport(float(x), float(beta), d, limit,
                                      top if finite else math.inf, c1_holds))
    return reports


def estimate_velocity(f, x: float, beta: float, direction: Direction,
                      schedule: Optional[EpsilonSchedule] = None,
                      tol: float = DEFAULT_TOL) -> VelocityReport:
    """Estimate the one-sided fractional velocity of order beta at x.

    The limit is velocity_limit's, and c2 is its residual.  One
    oscillation ladder over the same increments adds c1: the growth
    ratios osc/eps**beta, their maximum as c1_constant, and c1_holds when
    the deep-half maximum stays within C1_RATIO_CUTOFF times the
    shallow-half maximum.  The variations come from that ladder's first
    grid, which samples every f(x +- eps) the limit reads, so the report
    costs the ladder's evaluator calls alone.

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
    diffops._check_beta(beta)
    eps = (schedule or DEFAULT_SCHEDULE).increments(x)
    return _velocity_reports(f, x, beta, (direction,), eps, tol)[0]


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
    An overflow makes the fit or the constant non-finite, with no warning.
    """
    return _holder_estimate(f, x, direction, (schedule or DEFAULT_SCHEDULE).increments(x))


@np.errstate(over="ignore", invalid="ignore")
def _holder_estimate(f, x: float, direction: Direction, eps: np.ndarray) -> HolderEstimate:
    """estimate_holder_exponent's HolderEstimate over eps, a schedule's
    increments at x, for callers that hold them already."""
    osc = diffops._osc_ladder(f, x, eps, (direction,))[0][0]
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
