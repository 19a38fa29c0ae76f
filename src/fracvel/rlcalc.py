"""Riemann-Liouville quadrature and the local fractional derivative limit.

The integral operator is computed by one of two rules: a product rule on
a mesh graded toward the base point, exact for piecewise-linear data
against the power kernel, or a Gauss-Jacobi rule that absorbs the kernel
into the weight.  The derivative is the classical composition d/dx of
the (1-beta) integral, differenced numerically; the local limit walks
the evaluation point into the base point on a geometric schedule.

Node doubling runs on the active-set pattern of the oscillation ladder:
all evaluation points of one call double together as one (points x
nodes) array, and a point leaves once two of its passes agree.  Each
point still gets the bits it would get alone.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import roots_jacobi

from .diffops import Direction, _feval, domain_of
from .errors import DomainError, PreconditionError, QuadratureError
from .estimator import (
    DEFAULT_TOL,
    EpsilonSchedule,
    LimitEstimate,
    LimitStatus,
    classify_limit,
    velocity_limit,
)

__all__ = [
    "QuadScheme",
    "QuadratureConfig",
    "DEFAULT_QUAD",
    "rl_integral",
    "rl_derivative",
    "kg_lfd",
    "LfdReport",
    "check_lfd_equivalence",
]

QUAD_REL_CHANGE = 1e-4
GRADED_NODE_CAP = 2 ** 16
JACOBI_NODE_CAP = 2 ** 10
KG_TOL = 1e-3

# kg_lfd differences the derivative at a +/- eps over a step eps / KG_H_FACTOR.
KG_H_FACTOR = 8.0

_TINY = np.finfo(float).tiny


class QuadScheme(enum.Enum):
    GRADED_PRODUCT = "graded_product"
    JACOBI_WEIGHTED = "jacobi_weighted"


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature rule selection and resolution.

    n_nodes is the starting resolution; rules double it until two
    successive evaluations agree to QUAD_REL_CHANGE relative.  The
    graded scheme grades its mesh with exponent 2/min(mu, 1-mu) for
    integral order mu, strong enough that a pure power |t-a|**mu
    integrates at second order despite the endpoint singularities.
    """

    n_nodes: int = 64
    scheme: QuadScheme = QuadScheme.GRADED_PRODUCT

    def __post_init__(self) -> None:
        if self.n_nodes < 8:
            raise ValueError(f"n_nodes must be at least 8, got {self.n_nodes}")


DEFAULT_QUAD = QuadratureConfig()


def _check_order(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {mu}")


def _check_base(a: float) -> None:
    if not math.isfinite(a):
        raise ValueError(f"base point must be finite, got {a}")


def _check_point(a: float, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x}")
    if x == a:
        raise ValueError("evaluation point must differ from the base point")


def _check_rows(f, a: float, xs: np.ndarray) -> None:
    """Raise what a one-point integral raises for the first bad entry of xs.

    Each row integrates over [min(a, x), max(a, x)], which must lie in
    the domain of f on either side of a.
    """
    lo, hi = domain_of(f)
    with np.errstate(invalid="ignore"):
        ok = (np.isfinite(xs) & (xs != a) & (lo <= np.minimum(a, xs))
              & (np.maximum(a, xs) <= hi))
    if ok.all():
        return
    x = float(xs[np.argmin(ok)])
    _check_point(a, x)
    raise DomainError(f"[{min(a, x):g}, {max(a, x):g}] is not inside the domain [{lo:g}, {hi:g}]")


def _graded_product_rule(mu: float, n: int):
    """Product rule on a mesh graded toward the base, as (mesh, values, nodes, limit).

    Within each cell f is linear and the kernel (x-t)**(mu-1) is kept
    exact through its first two moments, so endpoint-singular integrands
    never get point-evaluated at the singularity.  Each row is summed
    along its own contiguous last axis, so its value does not depend on
    the other rows.
    """
    s = (np.arange(n + 1, dtype=float) / n) ** (2.0 / min(mu, 1.0 - mu))

    def mesh(b, e):
        t = b + (e - b) * s
        t[:, 0], t[:, -1] = b[:, 0], e[:, 0]
        return t

    def values(b, e, t, ft):
        # the kernel moments over cell i come from x - t at nodes i and i+1
        u = e - t
        p0 = u ** mu
        p1 = u ** (mu + 1.0)
        m0 = (p0[:, :-1] - p0[:, 1:]) / mu
        m1 = e * m0 - (p1[:, :-1] - p1[:, 1:]) / (mu + 1.0)
        dt = t[:, 1:] - t[:, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(dt > 0.0,
                             (ft[:, 1:] - ft[:, :-1]) / np.where(dt > 0.0, dt, 1.0), 0.0)
        return (ft[:, :-1] * m0 + slope * (m1 - t[:, :-1] * m0)).sum(axis=-1)

    return mesh, values, n + 1, GRADED_NODE_CAP + 1


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float):
    nodes, weights = roots_jacobi(n, alpha, 0.0)
    return nodes, weights


def _jacobi_weighted_rule(mu: float, n: int):
    """Gauss-Jacobi rule with the kernel in the weight, as (mesh, values, nodes, limit).

    Node s=+1 maps to t=x, absorbing the kernel blow-up.  Each row takes
    its own dot product: a matrix product could round a row differently
    with other rows beside it.
    """
    s, w = _jacobi_rule(n, mu - 1.0)

    def mesh(b, e):
        return b + (e - b) * (s + 1.0) / 2.0

    def values(b, e, t, ft):
        return np.array([((hi - lo) / 2.0) ** mu * float(np.dot(w, row))
                         for lo, hi, row in zip(b[:, 0].tolist(), e[:, 0].tolist(), ft)])

    return mesh, values, n, JACOBI_NODE_CAP


def _block_values(f, b, e, mirror, mesh, values):
    """One pass over a block of rows; b, e are their (rows x 1) ends.

    A mirrored row evaluates f at (b + e) - t: the right-sided integral
    over [x, a] is the left-sided integral of t -> f(x + a - t) based at x.
    The block's arrays die on return, before the next block is built, so
    the call limit bounds the memory a pass holds.
    """
    t = mesh(b, e)
    pts = np.where(mirror[:, None], (b + e) - t, t) if mirror.any() else t
    return values(b, e, t, _feval(f, pts.ravel()).reshape(t.shape))


def _passes(f, base, end, mirror, rows: np.ndarray, rule):
    """Yield (rows of a block, their pass values), block by block in row order.

    Whole rows go to f, at most rule's limit of points a call unless one
    row alone holds more.
    """
    mesh, values, nodes, limit = rule
    step = max(1, limit // nodes)
    for i in range(0, rows.size, step):
        idx = rows[i:i + step]
        yield idx, _block_values(f, base[idx, None], end[idx, None], mirror[idx],
                                 mesh, values)


def _quad_ladder(f, a: float, mu: float, xs: np.ndarray, config: QuadratureConfig):
    """Raw integrals of every row by node doubling, as one active set.

    Rows start at config.n_nodes and double together; a row leaves the
    active set once two of its successive passes agree to
    QUAD_REL_CHANGE relative.  Returns the values, the settled flags and
    the last node count.  The pass at the cap stops at the first block
    holding a row that does not settle, since that row is where a loop
    over the rows would fail.  A start whose first doubling already
    passes the cap could never compare two passes, so it fails before
    evaluating anything.
    """
    _check_rows(f, a, xs)
    if config.scheme is QuadScheme.GRADED_PRODUCT:
        rule, cap = _graded_product_rule, GRADED_NODE_CAP
    else:
        rule, cap = _jacobi_weighted_rule, JACOBI_NODE_CAP
    n = int(config.n_nodes)
    if 2 * n > cap:
        raise QuadratureError(
            f"{n} starting nodes leave no room to double under the cap of {cap}")
    base, end, mirror = np.minimum(a, xs), np.maximum(a, xs), xs < a
    active = np.arange(xs.size)
    value = np.empty(xs.size)
    settled = np.zeros(xs.size, dtype=bool)
    for idx, v in _passes(f, base, end, mirror, active, rule(mu, n)):
        value[idx] = v
    while active.size and 2 * n <= cap:
        n *= 2
        for idx, cur in _passes(f, base, end, mirror, active, rule(mu, n)):
            prev = value[idx]
            ok = np.abs(cur - prev) <= QUAD_REL_CHANGE * np.maximum(
                np.maximum(np.abs(cur), np.abs(prev)), _TINY)
            value[idx] = cur
            settled[idx] = ok
            if 2 * n > cap and not ok.all():
                return value, settled, n
        active = active[~settled[active]]
    return value, settled, n


def rl_integral(f, a: float, mu: float, x, config: Optional[QuadratureConfig] = None):
    """Fractional integral of order mu based at a, evaluated at x.

    Computes (1/Gamma(mu)) * int_a^x f(t) (x-t)**(mu-1) dt for x > a.
    Passing x < a evaluates the right-sided (reflected) form over [x, a].
    Either way [min(a, x), max(a, x)] must lie in the domain of f.

    x may be a 1-D array of points on either side of a; the result is
    then an array, each entry bit for bit the one-point result.  All
    points double their nodes together, and f sees whole rows of nodes
    in calls of at most GRADED_NODE_CAP + 1 points (JACOBI_NODE_CAP for
    the Jacobi rule) unless one row alone holds more.  Errors come out
    as a loop over the points would raise them, the first failing point
    first: a point that does not stabilize raises the QuadratureError
    every such point shares, and any other failure of the batch is
    replayed one point at a time.
    """
    _check_order(mu)
    config = config or DEFAULT_QUAD
    a = float(a)
    _check_base(a)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("evaluation points must be a scalar or a 1-D array")
    rows = xs.reshape(-1)
    try:
        value, settled, n = _quad_ladder(f, a, mu, rows, config)
    except Exception:
        if rows.size == 1:
            raise
        return np.array([rl_integral(f, a, mu, v, config) for v in rows.tolist()])
    if not settled.all():
        raise QuadratureError(f"no stabilization by {n} nodes")
    value /= float(_gamma(mu))
    return float(value[0]) if xs.ndim == 0 else value


def _check_step(a: float, x: float, h: float) -> None:
    _check_point(a, x)
    if not math.isfinite(h):
        raise ValueError(f"difference step must be finite, got {h}")
    if not 0.0 < h < abs(x - a):
        raise ValueError(f"difference step {h:g} must stay below |x-a|={abs(x - a):g}")


def rl_derivative(f, a: float, beta: float, x,
                  config: Optional[QuadratureConfig] = None, h_diff=None):
    """Fractional derivative of order beta at x, based at a.

    The composition d/dx of the order (1-beta) integral, with the outer
    derivative taken by a central difference of width h_diff (default
    |x-a|/8, which must leave the stencil on one side of a).  For x < a
    the right-sided operator is used and carries the mirrored sign.

    x may be a 1-D array, with h_diff a matching array or one step for
    all; the result is then an array.  Every x+h and x-h goes to one
    rl_integral call, ordered as a loop over the points would integrate
    them (x+h, then x-h), so errors come out in that loop's order.
    """
    _check_order(beta)
    a = float(a)
    _check_base(a)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("evaluation points must be a scalar or a 1-D array")
    h = np.abs(xs - a) / 8.0 if h_diff is None else np.asarray(h_diff, dtype=float)
    h = np.broadcast_to(h, xs.shape)
    if xs.ndim == 0:
        _check_step(a, float(xs), float(h))
    else:
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(xs) & (0.0 < h) & (h < np.abs(xs - a))
        if not ok.all():
            return np.array([rl_derivative(f, a, beta, v, config, hv)
                             for v, hv in zip(xs.tolist(), h.tolist())])
    mu = 1.0 - beta
    hi, lo = rl_integral(f, a, mu, np.stack([xs + h, xs - h], axis=-1).reshape(-1),
                         config).reshape(-1, 2).T
    d = (hi - lo) / (2.0 * h.reshape(-1))
    d = np.where(xs.reshape(-1) > a, d, -d)
    return float(d[0]) if xs.ndim == 0 else d


def _approach_default() -> EpsilonSchedule:
    return EpsilonSchedule(2.0 ** -4, 0.5, 16)


def kg_lfd(f, a: float, beta: float, direction: Direction,
           approach: Optional[EpsilonSchedule] = None,
           config: Optional[QuadratureConfig] = None,
           tol: float = KG_TOL) -> LimitEstimate:
    """Local fractional derivative at a as a limit of shifted derivatives.

    The function is re-based so its value at a drops out (forward uses
    f - f(a), backward uses f(a) - f), the fractional derivative of the
    shifted function is evaluated at a +/- eps for each approach step,
    and the sequence is classified by the usual windowed Cauchy rule.

    All approach points go to one rl_derivative call, so their 2 x steps
    integrals double as one active set, f seeing at most
    GRADED_NODE_CAP + 1 points a call (JACOBI_NODE_CAP for the Jacobi
    rule).  Errors come out as a loop over the steps would raise them:
    step by step, the x+h integral before the x-h one.
    """
    _check_order(beta)
    a = float(a)
    approach = approach or _approach_default()
    config = config or DEFAULT_QUAD
    fa = float(np.asarray(f(a)))
    if direction is Direction.FORWARD:
        def shifted(t):
            return np.asarray(f(t), dtype=float) - fa
    else:
        def shifted(t):
            return fa - np.asarray(f(t), dtype=float)
    shifted.domain = domain_of(f)

    eps = approach.increments(a)
    lo, hi = domain_of(f)
    reach = eps[0] * (1.0 + 1.0 / KG_H_FACTOR)
    if direction is Direction.FORWARD and a + reach > hi:
        raise DomainError(f"approach from above at a={a:g} leaves the domain")
    if direction is Direction.BACKWARD and a - reach < lo:
        raise DomainError(f"approach from below at a={a:g} leaves the domain")

    xs = a + eps if direction is Direction.FORWARD else a - eps
    return classify_limit(rl_derivative(shifted, a, beta, xs, config, eps / KG_H_FACTOR), tol)


@dataclass(frozen=True)
class LfdReport:
    """Cross-validation of the derivative limit against the velocity."""

    a: float
    beta: float
    direction: Direction
    lfd: LimitEstimate
    velocity: float
    velocity_scaled: float
    equivalence_gap: float
    combined_tolerance: float
    passed: bool


def check_lfd_equivalence(f, a: float, beta: float, direction: Direction,
                          velocity_schedule: Optional[EpsilonSchedule] = None,
                          velocity_tol: float = DEFAULT_TOL,
                          approach: Optional[EpsilonSchedule] = None,
                          config: Optional[QuadratureConfig] = None,
                          kg_tol: float = KG_TOL) -> LfdReport:
    """Compare the derivative limit with Gamma(1+beta) times the velocity.

    When both limits exist they must agree after the Gamma factor; the
    report carries the gap and a pass flag against the summed tolerances.
    A velocity that fails to converge is a precondition failure, since
    the comparison would be against noise.
    """
    _check_order(beta)
    vel = velocity_limit(f, float(a), beta, direction, velocity_schedule, velocity_tol)
    if vel.status is not LimitStatus.CONVERGED:
        raise PreconditionError(
            f"velocity at a={a:g} is {vel.status.value}; nothing to compare")
    lfd = kg_lfd(f, a, beta, direction, approach, config, kg_tol)
    scaled = float(_gamma(1.0 + beta)) * vel.value
    combined = float(velocity_tol + kg_tol)
    gap = abs(lfd.value - scaled) if lfd.status is LimitStatus.CONVERGED else math.inf
    passed = bool(lfd.status is LimitStatus.CONVERGED and gap <= combined)
    return LfdReport(float(a), float(beta), direction, lfd,
                     float(vel.value), scaled, gap, combined, passed)
