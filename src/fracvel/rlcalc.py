"""Riemann-Liouville quadrature and the local fractional derivative limit.

The integral operator is one pass over either of two unit rules, nodes
s and weights W on [0, 1] with int_0^1 g(s) (1-s)**(mu-1) ds ~
sum_j W_j g(s_j): a product rule on a mesh graded toward the base point
a, exact for piecewise-linear data against the power kernel, or a
Gauss-Jacobi rule that absorbs the kernel into the weight.  A point x
on either side of a takes the nodes a + (x-a) s and the scale
|x-a|**mu.  The derivative is taken in Marchaud form, one (1-beta)
integral of a divided difference per point, and the local limit walks
the evaluation point into the base point on a geometric schedule.

Node doubling runs depth first over blocks of evaluation points: the
points of one evaluator call double together as one (points x nodes)
array, a point leaves once two of its passes agree, and the points left
in a block reach every deeper level before the next block starts.  Each
point still gets the bits it would get alone.

Gamma comes from math.gamma and the Gauss-Jacobi rule from a Newton
iteration on the three-term recurrence, so the module needs numpy alone.
Each unit rule is built once per process: one 128-entry cache holds the
rules of both schemes, those of at most JACOBI_NODE_CAP + 1 nodes, about
2.1 MB at most; a larger graded mesh is built per use.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .diffops import _SIGN, Direction, _agree, _feval, _inside, _row_blocks, domain_of
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

# Nodes of every ladder's first pass; its first doubling fits under
# both caps.
QUAD_N0 = 64

# kg_lfd's approach schedule when none is given: the velocity ladder's
# eps0 and ratio, cut to 16 steps.
DEFAULT_APPROACH = EpsilonSchedule(count=16)

# Newton steps a Gauss-Jacobi rule may take before its nodes must have
# settled; from the asymptotic start they take 4 or 5 up to 2**10 nodes.
JACOBI_NEWTON_CAP = 32

_EPS = np.finfo(float).eps


class QuadScheme(enum.Enum):
    """The unit rule of every pass.

    A ladder starts at QUAD_N0 nodes, which double until two successive
    evaluations agree to QUAD_REL_CHANGE relative.  The graded scheme
    grades its mesh with exponent 2/min(mu, 1-mu) for integral order mu,
    strong enough that a pure power |t-a|**mu integrates at second order
    despite the endpoint singularities, and weights the nodes by
    hat-function moments of the kernel that keep their digits on the
    finest cells, so it converges for every mu in (0, 1): against
    I^mu |t|**b's closed form, b from 0.05 to 0.9, it stops within 4e-5
    relative from mu = 0.01 to 0.99.
    """

    GRADED_PRODUCT = "graded_product"
    JACOBI_WEIGHTED = "jacobi_weighted"


def _check_order(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {mu}")


def _check_beta(beta: float) -> None:
    """_check_order for a derivative order beta, which must also exceed
    2**-54: at and below it 1 - beta, the order of its integral, rounds
    to 1."""
    _check_order(beta)
    if beta <= 2.0 ** -54:
        raise ValueError(f"beta must exceed 2**-54, where 1 - beta rounds to 1, got {beta}")


def _check_base(a: float) -> None:
    if not math.isfinite(a):
        raise ValueError(f"base point must be finite, got {a}")


def _check_point(a: float, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x}")
    if x == a:
        raise ValueError("evaluation point must differ from the base point")
    if not math.isfinite(x - a):
        raise ValueError(f"the length of [{min(a, x):g}, {max(a, x):g}] must be finite")


def _check_ladder(f, a: float, xs: np.ndarray) -> None:
    """Raise what a one-point integral raises for the first bad entry of xs.

    Each row integrates over [min(a, x), max(a, x)], whose length must
    be finite and which must lie in the domain of f on either side of a.
    Nothing is evaluated.  Its one caller, _quad_ladder, runs it under
    np.errstate(over="ignore", invalid="ignore").
    """
    ok = np.isfinite(xs - a) & (xs != a) & _inside(f, a, xs)
    if not ok.all():
        x = float(xs[np.argmin(ok)])
        _check_point(a, x)
        lo, hi = domain_of(f)
        raise DomainError(
            f"[{min(a, x):g}, {max(a, x):g}] is not inside the domain [{lo:g}, {hi:g}]")


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

    This is product integration on a graded mesh, as in Diethelm, Ford
    and Freed, Numer. Algorithms 36 (2004): the rule is exact for g
    linear between nodes, and the kernel's blow-up at s = 1 sits in the
    weights, never in a point value.  The mesh is the only unit rule
    with nodes at s = 0 and s = 1.
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


# within about 1e-11 of alpha = -1 Newton's steps can carry the last
# node onto s = 1, where P_n' divides by zero: the weights are then
# not finite, nor is any pass on them, which never settles, and the
# ladder fails at its cap
@np.errstate(divide="ignore", invalid="ignore")
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


def _jacobi_unit_rule(mu: float, n: int):
    """The n-node Gauss-Jacobi rule of _jacobi_rule moved onto [0, 1].

    Under sigma = 2s - 1 the weight (1-sigma)**(mu-1) d sigma is
    2**mu (1-s)**(mu-1) ds, so the nodes are (sigma+1)/2 and the weights
    w * 2**-mu.  No node reaches s = 1, where the kernel blows up.
    """
    sigma, w = _jacobi_rule(n, mu - 1.0)
    return (sigma + 1.0) / 2.0, w * 0.5 ** mu


# Each scheme's unit rule, (mu, n) -> (nodes, weights), and the node
# count its doubling may not pass.
_RULES = {
    QuadScheme.GRADED_PRODUCT: (_graded_mesh, GRADED_NODE_CAP),
    QuadScheme.JACOBI_WEIGHTED: (_jacobi_unit_rule, JACOBI_NODE_CAP),
}


def _marchaud_rule(s, weights):
    """The unit rule (s, weights) for the Marchaud form's divided differences.

    At the graded mesh's node s = 1, t = x and the divided difference
    (g(x) - g(t))/|x-t| is 0/0.  There it is extrapolated linearly from
    the two nodes before it, so the node's weight W_n moves onto them,
    W_n (1+r) and -W_n r with r = (s_n - s_{n-1})/(s_{n-1} - s_{n-2}),
    and the node is dropped.  A rule with no node at s = 1 is its own
    Marchaud rule.
    """
    if s[-1] != 1.0:
        return s, weights
    # below min(mu, 1-mu) of about 4e-4 a coarse mesh's nodes before s = 1
    # underflow to 0, leaving no slope to extrapolate: r is inf, the
    # folded weights are not finite and so is the pass, which never
    # settles, and the ladder doubles on to a mesh that resolves them
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (s[-1] - s[-2]) / (s[-2] - s[-3])
        folded = weights[:-1].copy()
        folded[-1] += weights[-1] * (1.0 + r)
        folded[-2] -= weights[-1] * r
    return s[:-1], folded


@lru_cache(maxsize=128)
def _unit_rule(scheme: QuadScheme, mu: float, n: int, marchaud: bool = False):
    """The scheme's unit rule for order mu at n, built once per process;
    its Marchaud rule (_marchaud_rule) if marchaud.

    Both arrays are read-only, since every caller shares them.  Only
    rules of n <= JACOBI_NODE_CAP belong here, so that the 128 entries,
    shared by both schemes, hold at most 2 x 1025 doubles each, about
    2.1 MB in all; a larger graded mesh is built per use by
    _unit_rule.__wrapped__.
    """
    s, weights = _RULES[scheme][0](mu, n)
    if marchaud:
        s, weights = _marchaud_rule(s, weights)
    s.flags.writeable = weights.flags.writeable = False
    return s, weights


def _block_pass(f, s, weights, mu: float, a: float, x, fx=None):
    """The unit rule (s, weights) from a to each x of (rows x 1), either side.

    A row's nodes are t = a + (x - a) s, with a node at s = 1 pinned to
    x, and its value is |x - a|**mu sum_j W_j g(t_j), summed along its
    own contiguous axis so that it does not depend on the other rows.
    g is f, or, given f(x) as fx (rows x 1) and a Marchaud rule, the
    divided difference (f(x) - f(t))/|x - t|, each node over its own
    distance from x, so that the rounding of t stays out of it; a node
    that rounds onto x adds 0.  The nodes are one block, which then
    takes the weighted values: glibc keeps a freed block of that size on
    the heap, so repeated passes reuse warm pages.
    """
    span = x - a
    t = span * s
    t += a
    if s[-1] == 1.0:
        t[:, -1] = x[:, 0]
    ft = _feval(f, t)
    # t is spent once f has seen it
    scale = np.abs(span) ** mu
    if fx is None:
        np.multiply(ft, weights, out=t)
    else:
        # (f(x) - f(t)) / (x - t) is the divided difference times the
        # sign of the span, which the scale takes back; f(t) may be t
        # itself, so it is read before t is
        diff = fx - ft
        np.subtract(x, t, out=t)
        np.divide(diff, t, out=t, where=t != 0.0)
        t *= weights
        scale *= np.sign(span)
    return t.sum(axis=-1) * scale[:, 0]


@np.errstate(over="ignore", invalid="ignore")
def _quad_ladder(f, a: float, mu: float, xs: np.ndarray, scheme: QuadScheme,
                 beta: Optional[float] = None, fa: float = 0.0, fx=None):
    """Every row's value by node doubling, depth first: the raw sum of its
    integral, or given beta, of which mu is 1 - beta, its Marchaud
    derivative of f - fa without the 1/Gamma(mu) (_block_pass).

    The rows are checked first (_check_ladder), and f(x) of every
    derivative row comes from one evaluator call unless given as fx.
    Every row is first evaluated at QUAD_N0 nodes.  Then the rows double,
    up to the scheme's cap, in the blocks of one evaluator call each
    (_row_blocks), and a block's rows whose last two passes do not agree
    to QUAD_REL_CHANGE relative go through every deeper level before
    the next block starts.  So the rows past the first one to reach the
    cap unsettled are not doubled further, as in a loop over the rows.
    A row's value does not depend on the other rows of its call, so each
    row gets the bits it would get alone.  Returns the values and the
    node count of the first row that reaches the cap unsettled, or None.

    A derivative row is its first term (f(x) - fa) / |x-a|**beta plus
    beta times the integral of the divided differences, and the integral
    settles with the derivative: lead holds each row's first term over
    beta, which the settle rule adds to both passes.
    So a row whose differences are round-off next to its first term, as
    f = 1 + 1e-15 t gives, settles as soon as that term does, and a row
    whose first term is not finite settles at its first pass.  A value
    past the largest double is inf, as an evaluator's value is.

    A suspended level holds its row indices, one value per row and its
    rule's mesh, never a block's node arrays, so the call bound still
    bounds the memory of a pass.
    """
    _check_ladder(f, a, xs)
    cap = _RULES[scheme][1]
    marchaud = beta is not None
    if marchaud:
        if fx is None:
            # f never sees an empty array
            fx = _feval(f, xs) if xs.size else xs
        first = (fx - fa) / np.abs(xs - a) ** beta
        lead = first / beta
    value = np.empty(xs.size)

    def passes(rows, n):
        # whole rows go to f, and a block's arrays die before the next is built
        rule = _unit_rule if n <= JACOBI_NODE_CAP else _unit_rule.__wrapped__
        s, weights = rule(scheme, mu, n, marchaud)
        for block in _row_blocks(rows.size, s.size):
            idx = rows[block]
            yield idx, _block_pass(f, s, weights, mu, a, xs[idx, None],
                                   fx[idx, None] if marchaud else None)

    def deepen(rows, n):
        # rows last evaluated at n nodes, through every deeper level
        n *= 2
        for idx, cur in passes(rows, n):
            off = lead[idx] if marchaud else 0.0
            left = idx[~_agree(cur + off, value[idx] + off, QUAD_REL_CHANGE)]
            value[idx] = cur
            if left.size:
                failed = n if 2 * n > cap else deepen(left, n)
                if failed:
                    return failed
        return None

    rows = np.arange(xs.size)
    for idx, cur in passes(rows, QUAD_N0):
        value[idx] = cur
    if not marchaud:
        return value, deepen(rows, QUAD_N0)
    # a first term that is not finite makes the derivative inf or NaN
    # whatever the second term reads, so its row settles at once
    failed = deepen(rows[np.isfinite(lead)], QUAD_N0)
    return first + beta * value, failed


def _integrate(f, a: float, mu: float, xs: np.ndarray, scheme: QuadScheme,
               beta: Optional[float] = None, fa: float = 0.0, fx=None):
    """_quad_ladder's values over Gamma(mu), with errors as a loop over
    the rows raises them: a row that does not stabilize raises the
    QuadratureError every such row shares, and any other failure of a
    batch, a check, the f(x) call or a pass, is replayed one row at a
    time, each row's f(x) in a call of its own before its quadrature."""
    try:
        value, failed = _quad_ladder(f, a, mu, xs, scheme, beta, fa, fx)
    except Exception:
        # no replay can explain the failure of a batch of one or none
        if xs.size <= 1:
            raise
        return np.concatenate([_integrate(f, a, mu, xs[i:i + 1], scheme, beta, fa)
                               for i in range(xs.size)])
    if failed:
        raise QuadratureError(f"no stabilization by {failed} nodes")
    return value / math.gamma(mu)


def _points(a: float, order: float, x):
    """rl_integral's and rl_derivative's checks of the order, the base
    point and the points; a and the order as floats, x as an array."""
    _check_order(order)
    # a float order is a key of the rule cache, even if it is a 0-d array
    a, order = float(a), float(order)
    _check_base(a)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("evaluation points must be a scalar or a 1-D array")
    return a, order, xs


def rl_integral(f, a: float, mu: float, x, scheme: QuadScheme = QuadScheme.GRADED_PRODUCT):
    """Fractional integral of order mu based at a, evaluated at x.

    Computes (1/Gamma(mu)) * int_a^x f(t) (x-t)**(mu-1) dt for x > a.
    Passing x < a evaluates the right-sided form
    (1/Gamma(mu)) * int_x^a f(t) (t-x)**(mu-1) dt.  Either way
    [min(a, x), max(a, x)] must have a finite length and lie in the
    domain of f.

    x may be a 1-D array of points on either side of a; the result is
    then an array, each entry bit for bit the one-point result.  The
    points double their nodes together in blocks, depth first, and f
    sees whole rows of nodes in calls of at most EVAL_CALL_POINTS points
    unless one row alone holds more.  Errors come out as a loop over the
    points would raise them, the first failing point first: a point that
    does not stabilize raises the QuadratureError every such point
    shares, and any other failure of the batch is replayed one point at
    a time.
    """
    a, mu, xs = _points(a, mu, x)
    value = _integrate(f, a, mu, xs.reshape(-1), scheme)
    return float(value[0]) if xs.ndim == 0 else value


def rl_derivative(f, a: float, beta: float, x,
                  scheme: QuadScheme = QuadScheme.GRADED_PRODUCT):
    """Fractional derivative of order beta at x, based at a.

    The Riemann-Liouville derivative d/dx of the order (1-beta)
    integral, in Marchaud form (Samko, Kilbas and Marichev, "Fractional
    Integrals and Derivatives", 1993):

        D^beta f(x) = f(x) / (Gamma(1-beta) |x-a|**beta)
                      + beta * I^(1-beta)[h_x](x),
        h_x(t) = (f(x) - f(t)) / |x-t|,

    for f continuous on the span and Hoelder at x of an order above
    beta.  For x < a it is the right-sided operator, minus d/dx of its
    integral.  The first term is the derivative of the constant f(x), so
    it is there whenever f(x) != 0, f(a) != 0 included.  Each point
    takes one integral, of h_x, on the rule of its order 1-beta, which
    doubles its nodes as rl_integral's do until two passes give
    derivatives that agree to QUAD_REL_CHANGE relative; each node's
    difference is over its own distance from x, and at the graded
    mesh's node t = x, where h_x is 0/0, h_x is extrapolated linearly
    from the two nodes before it.

    beta must exceed 2**-54, so that the order 1 - beta lies below 1.
    x may be a 1-D array; the result is then an array.  The points are
    checked as rl_integral checks them, before f is evaluated, then f(x)
    of every point comes from one evaluator call and the integrals
    double together in blocks.  Errors come out as a loop over the
    points would raise them.
    """
    _check_beta(beta)
    a, beta, xs = _points(a, beta, x)
    d = _integrate(f, a, 1.0 - beta, xs.reshape(-1), scheme, beta)
    return float(d[0]) if xs.ndim == 0 else d


def kg_lfd(f, a: float, beta: float, direction: Direction,
           approach: Optional[EpsilonSchedule] = None,
           scheme: QuadScheme = QuadScheme.GRADED_PRODUCT,
           tol: float = KG_TOL) -> LimitEstimate:
    """Local fractional derivative at a as a limit of fractional derivatives.

    The function is re-based so its value at a drops out (forward uses
    f - f(a), backward uses f(a) - f), its derivative of order beta in
    rl_derivative's Marchaud form is taken at x = a +/- eps for each
    approach step, and the sequence is classified by the usual windowed
    Cauchy rule.  f(a) cancels from the divided differences, so it
    enters through the first term alone: forward, that term is
    (f(x) - f(a)) / (Gamma(1-beta) eps**beta), the velocity's own
    difference quotient over Gamma(1-beta).  beta must exceed 2**-54,
    the base point must be finite and the first step's span, a
    included, must lie in f's domain; all are checked before f is
    evaluated.

    f(a) and every f(a +/- eps) come from one evaluator call.  Then the
    approach points' integrals double together in blocks, depth first,
    f seeing at most EVAL_CALL_POINTS points a call, and errors come out
    as a loop over the steps would raise them: if that first call fails,
    f(a) is taken alone and the steps go on as rl_derivative's points,
    which replay a failed batch one point at a time.
    """
    _check_beta(beta)
    a, beta = float(a), float(beta)
    _check_base(a)
    approach = approach or DEFAULT_APPROACH
    eps = _SIGN[direction] * approach.increments(a)
    if not _inside(f, a, a + eps[0]):
        side = "above" if direction is Direction.FORWARD else "below"
        raise DomainError(f"approach from {side} at a={a:g} leaves the domain")

    xs = a + eps
    try:
        v = _feval(f, np.append(a, xs))
        fa, fx = v[0], v[1:]
    except Exception:
        # replayed as a loop over the steps: f(a) alone, then each
        # step's f(x) and its integral
        fa, fx = _feval(f, np.array([a]))[0], None
    d = _integrate(f, a, 1.0 - beta, xs, scheme, beta, fa, fx)
    # the derivative of f - f(a) forward, of f(a) - f backward: 0 - d,
    # not -d, so that a zero derivative is +0.0
    if direction is Direction.BACKWARD:
        d = 0.0 - d
    return classify_limit(d, tol)


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
                          scheme: QuadScheme = QuadScheme.GRADED_PRODUCT,
                          kg_tol: float = KG_TOL) -> LfdReport:
    """Compare the derivative limit with Gamma(1+beta) times the velocity.

    When both limits exist they must agree after the Gamma factor; the
    report carries the gap and a pass flag against the summed tolerances.
    A velocity that fails to converge is a precondition failure, since
    the comparison would be against noise.  beta is checked as kg_lfd
    checks it, before f is evaluated.
    """
    _check_beta(beta)
    vel = velocity_limit(f, float(a), beta, direction, velocity_schedule, velocity_tol)
    if vel.status is not LimitStatus.CONVERGED:
        raise PreconditionError(
            f"velocity at a={a:g} is {vel.status.value}; nothing to compare")
    lfd = kg_lfd(f, a, beta, direction, approach, scheme, kg_tol)
    scaled = math.gamma(1.0 + beta) * vel.value
    combined = float(velocity_tol + kg_tol)
    gap = abs(lfd.value - scaled) if lfd.status is LimitStatus.CONVERGED else math.inf
    passed = bool(lfd.status is LimitStatus.CONVERGED and gap <= combined)
    return LfdReport(float(a), float(beta), direction, lfd,
                     float(vel.value), scaled, gap, combined, passed)
