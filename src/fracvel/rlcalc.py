"""Riemann-Liouville quadrature and the local fractional derivative limit.

The integral operator is computed by one of two rules: a product rule on
a mesh graded toward the base point, exact for piecewise-linear data
against the power kernel, or a Gauss-Jacobi rule that absorbs the kernel
into the weight.  The derivative is the classical composition d/dx of
the (1-beta) integral, differenced numerically; the local limit walks
the evaluation point into the base point on a geometric schedule.
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

from .diffops import Direction, domain_of
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


def _graded_product_pass(f, a: float, x: float, mu: float, g: float, n: int) -> float:
    """Product rule on a mesh graded toward a.

    Within each cell f is linear and the kernel (x-t)**(mu-1) is kept
    exact through its first two moments, so endpoint-singular integrands
    never get point-evaluated at the singularity.
    """
    s = (np.arange(n + 1, dtype=float) / n) ** g
    t = a + (x - a) * s
    t[0], t[-1] = a, x
    ft = np.asarray(f(t), dtype=float)
    u0 = x - t[:-1]
    u1 = x - t[1:]
    m0 = (u0 ** mu - u1 ** mu) / mu
    m1 = x * m0 - (u0 ** (mu + 1.0) - u1 ** (mu + 1.0)) / (mu + 1.0)
    dt = t[1:] - t[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(dt > 0.0, (ft[1:] - ft[:-1]) / np.where(dt > 0.0, dt, 1.0), 0.0)
    return float(np.sum(ft[:-1] * m0 + slope * (m1 - t[:-1] * m0)))


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float):
    nodes, weights = roots_jacobi(n, alpha, 0.0)
    return nodes, weights


def _jacobi_pass(f, a: float, x: float, mu: float, n: int) -> float:
    # int_a^x f(t)(x-t)**(mu-1) dt with the kernel absorbed into the weight
    s, w = _jacobi_rule(n, mu - 1.0)
    t = a + (x - a) * (s + 1.0) / 2.0  # s=+1 maps to t=x, absorbing the kernel blow-up
    ft = np.asarray(f(t), dtype=float)
    return float(((x - a) / 2.0) ** mu * np.dot(w, ft))


def _stabilize(one_pass, n0: int, cap: int) -> float:
    """Double n from n0 until two successive passes agree; cap bounds n.

    A start whose first doubling already passes the cap could never
    compare two passes, so it fails before evaluating anything.
    """
    n = int(n0)
    if 2 * n > cap:
        raise QuadratureError(
            f"{n} starting nodes leave no room to double under the cap of {cap}")
    prev = one_pass(n)
    while 2 * n <= cap:
        n *= 2
        cur = one_pass(n)
        if abs(cur - prev) <= QUAD_REL_CHANGE * max(abs(cur), abs(prev), _TINY):
            return cur
        prev = cur
    raise QuadratureError(f"no stabilization by {n} nodes")


def rl_integral(f, a: float, mu: float, x: float,
                config: Optional[QuadratureConfig] = None) -> float:
    """Fractional integral of order mu based at a, evaluated at x.

    Computes (1/Gamma(mu)) * int_a^x f(t) (x-t)**(mu-1) dt for x > a.
    Passing x < a evaluates the right-sided (reflected) form over [x, a].
    """
    _check_order(mu)
    a, x = float(a), float(x)
    if x == a:
        raise ValueError("evaluation point must differ from the base point")
    if x < a:
        # reflect: the right-sided integral over [x, a] equals the
        # left-sided integral of t -> f(x + a - t) based at x
        def mirrored(t):
            return f(x + a - np.asarray(t, dtype=float))
        return rl_integral(mirrored, x, mu, a, config)
    lo, hi = domain_of(f)
    if a < lo or x > hi:
        raise DomainError(f"[{a:g}, {x:g}] is not inside the domain [{lo:g}, {hi:g}]")
    config = config or DEFAULT_QUAD
    if config.scheme is QuadScheme.GRADED_PRODUCT:
        g = 2.0 / min(mu, 1.0 - mu)
        raw = _stabilize(lambda n: _graded_product_pass(f, a, x, mu, g, n),
                         config.n_nodes, GRADED_NODE_CAP)
    else:
        raw = _stabilize(lambda n: _jacobi_pass(f, a, x, mu, n),
                         config.n_nodes, JACOBI_NODE_CAP)
    return raw / float(_gamma(mu))


def rl_derivative(f, a: float, beta: float, x: float,
                  config: Optional[QuadratureConfig] = None,
                  h_diff: Optional[float] = None) -> float:
    """Fractional derivative of order beta at x, based at a.

    The composition d/dx of the order (1-beta) integral, with the outer
    derivative taken by a central difference of width h_diff (default
    |x-a|/8, which must leave the stencil on one side of a).  For x < a
    the right-sided operator is used and carries the mirrored sign.
    """
    _check_order(beta)
    a, x = float(a), float(x)
    if x == a:
        raise ValueError("evaluation point must differ from the base point")
    h = abs(x - a) / 8.0 if h_diff is None else float(h_diff)
    if not 0.0 < h < abs(x - a):
        raise ValueError(f"difference step {h:g} must stay below |x-a|={abs(x - a):g}")
    mu = 1.0 - beta
    hi = rl_integral(f, a, mu, x + h, config)
    lo = rl_integral(f, a, mu, x - h, config)
    d = (hi - lo) / (2.0 * h)
    return d if x > a else -d


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

    vals = []
    for e in eps:
        e = float(e)
        x = a + e if direction is Direction.FORWARD else a - e
        vals.append(rl_derivative(shifted, a, beta, x, config, e / KG_H_FACTOR))
    return classify_limit(vals, tol)


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
