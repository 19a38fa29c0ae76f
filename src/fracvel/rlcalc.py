"""Riemann-Liouville quadrature and the local fractional derivative limit.

The integral operator is computed by one of two rules: a product rule on
a mesh graded toward the base point, exact for piecewise-linear data
against the power kernel, or a Gauss-Jacobi rule that absorbs the kernel
into the weight.  The derivative is the classical composition d/dx of
the (1-beta) integral, differenced numerically; the local limit walks
the evaluation point into the base point on a geometric schedule.

Node doubling runs depth first over blocks of evaluation points: the
points of one evaluator call double together as one (points x nodes)
array, a point leaves once two of its passes agree, and the points left
in a block reach every deeper level before the next block starts.  Each
point still gets the bits it would get alone.

Gamma comes from math.gamma and the Gauss-Jacobi rule from a Newton
iteration on the three-term recurrence, so the module needs numpy alone.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .diffops import Direction, _feval, _row_blocks, domain_of
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
    "DEFAULT_APPROACH",
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

# Below this cell ratio w the graded weights take psi(w) from its series;
# the first term it drops is then below w**6 < 1e-18 relative.
GRADED_SERIES_W = 1e-3
GRADED_SERIES_TERMS = 6

# Fewest starting nodes a QuadratureConfig accepts.
MIN_NODES = 8

# kg_lfd differences the derivative at a +/- eps over a step eps / KG_H_FACTOR.
KG_H_FACTOR = 8.0

# kg_lfd's approach schedule when none is given: the velocity ladder's
# eps0 and ratio, cut to 16 steps.
DEFAULT_APPROACH = EpsilonSchedule(count=16)

# Newton steps a Gauss-Jacobi rule may take before its nodes must have
# settled; from the asymptotic start they take 4 or 5 up to 2**10 nodes.
JACOBI_NEWTON_CAP = 32

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


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
    integrates at second order despite the endpoint singularities, and
    weights the nodes by hat-function moments of the kernel that keep
    their digits on the finest cells, so it converges for every mu in
    (0, 1): against I^mu |t|**b's closed form, b from 0.05 to 0.9, it
    stops within 4e-5 relative from mu = 0.01 to 0.99.
    """

    n_nodes: int = 64
    scheme: QuadScheme = QuadScheme.GRADED_PRODUCT

    def __post_init__(self) -> None:
        if self.n_nodes < MIN_NODES:
            raise ValueError(f"n_nodes must be at least {MIN_NODES}, got {self.n_nodes}")


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


def _node_values(f, b, e, t, mirror, out=None):
    """f at the nodes t of a block of rows; b, e are their (rows x 1) ends.

    A mirrored row evaluates f at (b + e) - t: the right-sided integral
    over [x, a] is the left-sided integral of t -> f(x + a - t) based at x.
    The mirrored points go to out when given.
    """
    pts = t
    if mirror.any():
        pts = np.subtract(b + e, t, out=out)
        np.copyto(pts, t, where=~mirror[:, None])
    return _feval(f, pts.ravel()).reshape(t.shape)


def _graded_product_rule(mu: float, n: int):
    """Product rule on a mesh graded toward the base, as (block pass, nodes).

    A row over [b, e] is written t = b + L*s with L = e - b and s the
    unit mesh of _graded_mesh, so its integral is L**mu * sum_j W_j f(t_j)
    with that mesh's weights.  The rule is exact for f linear between
    nodes, and endpoint-singular integrands are never point-evaluated at
    the singularity: product integration on a graded mesh, as in
    Diethelm, Ford and Freed, Numer. Algorithms 36 (2004).  The weights
    do not depend on the row, so each level computes them once.

    Each row is summed along its own contiguous last axis, so its value
    does not depend on the other rows.  A pass builds its nodes and their
    mirrored points in one block allocated up front: glibc keeps a freed
    block of that size on the heap, so repeated passes reuse warm pages.
    """
    s, weights = _graded_mesh(mu, n)

    def block_pass(f, b, e, mirror):
        rows = b.shape[0]
        t, pts = np.empty(2 * rows * (n + 1)).reshape(2, rows, n + 1)
        np.multiply(e - b, s, out=t)
        t += b
        t[:, 0], t[:, -1] = b[:, 0], e[:, 0]
        ft = _node_values(f, b, e, t, mirror, pts)
        # t is spent once f has seen it
        np.multiply(ft, weights, out=t)
        return t.sum(axis=-1) * ((e - b) ** mu)[:, 0]

    return block_pass, n + 1


def _graded_mesh(mu: float, n: int):
    """The unit mesh s_j = (j/n)**(2/min(mu, 1-mu)) and its weights
    W_j = int_0^1 hat_j(s) (1-s)**(mu-1) ds, as two arrays of n+1.

    The grading is strong enough that a pure power |t-a|**mu integrates
    at second order despite the endpoint singularities, and it squeezes
    the first cells against s = 0, where differences of powers of 1 - s
    would lose every digit.  So each cell's moments come from local
    quantities, u = 1 - s_i and w = (s_{i+1} - s_i)/u: on the cell, with
    v = (s - s_i)/(s_{i+1} - s_i), the kernel is u**(mu-1) (1-wv)**(mu-1).
    Its zeroth moment is u**mu (1 - (1-w)**mu)/mu, taken through
    -expm1(mu log1p(-w)), and its moment of v is u**mu w psi(w) with
    psi(w) = int_0^1 v (1-wv)**(mu-1) dv.  psi's closed form cancels as
    w -> 0, so below GRADED_SERIES_W psi is its series
    sum_k (1-mu)_k / (k! (k+2)) w**k, cut after GRADED_SERIES_TERMS
    terms.  A cell whose width underflows to 0, as the first ones do once
    min(mu, 1-mu) is below about 0.03, has w = 0 and zero weight.  The
    weights sum to 1/mu within a few ulps.
    """
    s = (np.arange(n + 1, dtype=float) / n) ** (2.0 / min(mu, 1.0 - mu))
    u = 1.0 - s[:-1]
    w = (s[1:] - s[:-1]) / u
    with np.errstate(divide="ignore", invalid="ignore"):
        # log1p(-w) is -inf on the last cell, where w = 1
        log_q = np.log1p(-w)
        m0 = -np.expm1(mu * log_q) / mu
        psi = (m0 + np.expm1((mu + 1.0) * log_q) / (mu + 1.0)) / (w * w)
    coef, a_k = [], 1.0
    for k in range(GRADED_SERIES_TERMS):
        coef.append(a_k / (k + 2.0))
        a_k *= (k + 1.0 - mu) / (k + 1.0)
    small = w < GRADED_SERIES_W
    ws = w[small]
    acc = ws * coef[-1]
    for c in coef[-2:0:-1]:
        acc += c
        acc *= ws
    acc += coef[0]
    psi[small] = acc
    scale = u ** mu
    m0 *= scale
    right = scale * w * psi
    weights = np.zeros(n + 1)
    weights[:-1] = m0 - right
    weights[1:] += right
    return s, weights


def _jacobi_values(n: int, alpha: float, s: np.ndarray):
    """P_n^(alpha,0) at s and its derivative, by the three-term recurrence.

    The derivative comes from P_n and P_{n-1}:
    (2n+alpha)(1-s^2) P_n' = n(alpha - (2n+alpha)s) P_n + 2n(n+alpha) P_{n-1}.
    """
    k = np.arange(2.0, n + 1.0)
    c = 2.0 * k + alpha
    den = 2.0 * k * (k + alpha) * (c - 2.0)
    slope = ((c - 1.0) * c * (c - 2.0) / den).tolist()
    shift = ((c - 1.0) * alpha * alpha / den).tolist()
    back = (2.0 * (k + alpha - 1.0) * (k - 1.0) * c / den).tolist()
    prev, p = np.ones_like(s), ((alpha + 2.0) * s + alpha) / 2.0
    for a1, a0, b in zip(slope, shift, back):
        prev, p = p, (a1 * s + a0) * p - b * prev
    c = 2.0 * n + alpha
    dp = (n * (alpha - c * s) * p + 2.0 * n * (n + alpha) * prev) / (c * (1.0 - s) * (1.0 + s))
    return p, dp


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float):
    """Gauss-Jacobi nodes and weights for the weight (1-s)**alpha on [-1, 1].

    Newton's method on P_n^(alpha,0) from the asymptotic zeros
    cos((k + alpha/2 - 1/4) pi / (n + (alpha+1)/2)), until no node moves
    by more than two ulps of 1; the weights are 1/((1-s^2) P_n'(s)^2)
    scaled to sum to the weight's integral 2**(alpha+1)/(alpha+1).
    Nodes ascend.
    """
    k = np.arange(n, 0, -1, dtype=float)
    s = np.cos((k + alpha / 2.0 - 0.25) * math.pi / (n + (alpha + 1.0) / 2.0))
    for _ in range(JACOBI_NEWTON_CAP):
        p, dp = _jacobi_values(n, alpha, s)
        step = p / dp
        s -= step
        if np.abs(step).max() <= 2.0 * _EPS:
            break
    else:
        raise QuadratureError(
            f"Gauss-Jacobi nodes for n={n}, alpha={alpha:g} did not settle "
            f"in {JACOBI_NEWTON_CAP} Newton steps")
    _, dp = _jacobi_values(n, alpha, s)
    w = 1.0 / ((1.0 - s) * (1.0 + s) * dp * dp)
    w *= 2.0 ** (alpha + 1.0) / (alpha + 1.0) / w.sum()
    return s, w


def _jacobi_weighted_rule(mu: float, n: int):
    """Gauss-Jacobi rule with the kernel in the weight, as (block pass, nodes).

    Node s=+1 maps to t=x, absorbing the kernel blow-up.  Each row takes
    its own dot product: a matrix product could round a row differently
    with other rows beside it.
    """
    s, w = _jacobi_rule(n, mu - 1.0)

    def block_pass(f, b, e, mirror):
        ft = _node_values(f, b, e, b + (e - b) * (s + 1.0) / 2.0, mirror)
        return np.array([((hi - lo) / 2.0) ** mu * float(np.dot(w, row))
                         for lo, hi, row in zip(b[:, 0].tolist(), e[:, 0].tolist(), ft)])

    return block_pass, n


# Each scheme's rule and the node count its doubling may not pass.
_RULES = {
    QuadScheme.GRADED_PRODUCT: (_graded_product_rule, GRADED_NODE_CAP),
    QuadScheme.JACOBI_WEIGHTED: (_jacobi_weighted_rule, JACOBI_NODE_CAP),
}


def _agree(cur, prev):
    """Whether each row's successive passes agree to QUAD_REL_CHANGE relative."""
    return np.abs(cur - prev) <= QUAD_REL_CHANGE * np.maximum(
        np.maximum(np.abs(cur), np.abs(prev)), _TINY)


def _quad_ladder(f, a: float, mu: float, xs: np.ndarray, config: QuadratureConfig):
    """Raw integrals of every row by node doubling, depth first.

    Every row is first evaluated at config.n_nodes.  Then the rows double
    in the blocks of one evaluator call each (_row_blocks), and a block's
    rows whose last two passes do not agree to QUAD_REL_CHANGE relative
    go through every deeper level before the next block starts.  So the
    rows past the first one to reach the cap unsettled are not doubled
    further, as in a loop over the rows.  A row's value does not depend
    on the other rows of its call, so each row gets the bits it would
    get alone.  Returns the values and the node count of the first row
    that reaches the cap unsettled, or None.  A start whose first
    doubling already passes the cap could never compare two passes, so
    it fails before evaluating anything.

    A suspended level holds its row indices, one value per row and its
    rule's mesh, never a block's node arrays, so the call bound still
    bounds the memory of a pass.
    """
    _check_rows(f, a, xs)
    rule, cap = _RULES[config.scheme]
    n = int(config.n_nodes)
    if 2 * n > cap:
        raise QuadratureError(
            f"{n} starting nodes leave no room to double under the cap of {cap}")
    base, end, mirror = np.minimum(a, xs), np.maximum(a, xs), xs < a
    value = np.empty(xs.size)

    def passes(rows, n):
        # whole rows go to f, and a block's arrays die before the next is built
        block_pass, nodes = rule(mu, n)
        for block in _row_blocks(rows.size, nodes):
            idx = rows[block]
            yield idx, block_pass(f, base[idx, None], end[idx, None], mirror[idx])

    def deepen(rows, n):
        # rows last evaluated at n nodes, through every deeper level
        n *= 2
        for idx, cur in passes(rows, n):
            left = idx[~_agree(cur, value[idx])]
            value[idx] = cur
            if left.size:
                failed = n if 2 * n > cap else deepen(left, n)
                if failed:
                    return failed
        return None

    rows = np.arange(xs.size)
    for idx, cur in passes(rows, n):
        value[idx] = cur
    failed = deepen(rows, n)
    return value, failed


def rl_integral(f, a: float, mu: float, x, config: Optional[QuadratureConfig] = None):
    """Fractional integral of order mu based at a, evaluated at x.

    Computes (1/Gamma(mu)) * int_a^x f(t) (x-t)**(mu-1) dt for x > a.
    Passing x < a evaluates the right-sided (reflected) form over [x, a].
    Either way [min(a, x), max(a, x)] must lie in the domain of f.

    x may be a 1-D array of points on either side of a; the result is
    then an array, each entry bit for bit the one-point result.  The
    points double their nodes together in blocks, depth first, and f
    sees whole rows of nodes in calls of at most EVAL_CALL_POINTS points
    unless one row alone holds more.  Errors come out as a loop over the
    points would raise them, the first failing point first: a point that
    does not stabilize raises the QuadratureError every such point
    shares, and any other failure of the batch is replayed one point at
    a time.  A config that no integral can run fails even on an empty x.
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
        value, failed = _quad_ladder(f, a, mu, rows, config)
    except Exception:
        # no replay can explain the failure of a batch of one or none
        if rows.size <= 1:
            raise
        return np.array([rl_integral(f, a, mu, v, config) for v in rows.tolist()])
    if failed:
        raise QuadratureError(f"no stabilization by {failed} nodes")
    value /= math.gamma(mu)
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
    all; the result is then an array.  The x+h and x-h of each point
    before the first invalid step go to one rl_integral call, in the
    order a loop over the points would integrate them, and then that
    step raises its own error, so errors come out in the loop's order.
    """
    _check_order(beta)
    a = float(a)
    _check_base(a)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("evaluation points must be a scalar or a 1-D array")
    h = np.abs(xs - a) / 8.0 if h_diff is None else np.asarray(h_diff, dtype=float)
    h = np.broadcast_to(h, xs.shape).reshape(-1)
    pts = xs.reshape(-1)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(pts) & (0.0 < h) & (h < np.abs(pts - a))
    # the first invalid step, or the number of points
    n = pts.size if ok.all() else int(np.argmin(ok))
    if n == 0 < pts.size:
        # nothing to integrate, and no config error before the step's own
        _check_step(a, float(pts[0]), float(h[0]))
    ends = np.stack([pts[:n] + h[:n], pts[:n] - h[:n]], axis=-1).reshape(-1)
    hi, lo = rl_integral(f, a, 1.0 - beta, ends, config).reshape(-1, 2).T
    if n < pts.size:
        _check_step(a, float(pts[n]), float(h[n]))
    d = (hi - lo) / (2.0 * h)
    d = np.where(pts > a, d, -d)
    return float(d[0]) if xs.ndim == 0 else d


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
    integrals double together in blocks, depth first, f seeing at most
    EVAL_CALL_POINTS points a call.  Errors come out as a loop over the
    steps would raise them: step by step, the x+h integral before the
    x-h one.
    """
    _check_order(beta)
    a = float(a)
    approach = approach or DEFAULT_APPROACH
    config = config or DEFAULT_QUAD
    fa = float(_feval(f, a))
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
    scaled = math.gamma(1.0 + beta) * vel.value
    combined = float(velocity_tol + kg_tol)
    gap = abs(lfd.value - scaled) if lfd.status is LimitStatus.CONVERGED else math.inf
    passed = bool(lfd.status is LimitStatus.CONVERGED and gap <= combined)
    return LfdReport(float(a), float(beta), direction, lfd,
                     float(vel.value), scaled, gap, combined, passed)
