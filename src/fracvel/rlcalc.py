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

# kg_lfd's approach schedule when none is given: the velocity ladder's
# eps0 and ratio, cut to 16 steps.
DEFAULT_APPROACH = EpsilonSchedule(count=16)

# Newton steps a Gauss-Jacobi rule may take before its nodes must have
# settled; from the asymptotic start they take 4 or 5 up to 2**10 nodes.
JACOBI_NEWTON_CAP = 32

_EPS = np.finfo(float).eps


class QuadScheme(enum.Enum):
    GRADED_PRODUCT = "graded_product"
    JACOBI_WEIGHTED = "jacobi_weighted"


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature rule selection and resolution.

    scheme picks the unit rule of every pass and n_nodes its starting
    resolution, which doubles until two successive evaluations agree to
    QUAD_REL_CHANGE relative.  The graded scheme grades its mesh with
    exponent 2/min(mu, 1-mu) for integral order mu, strong enough that a pure power |t-a|**mu
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
    if not math.isfinite(x - a):
        raise ValueError(f"the length of [{min(a, x):g}, {max(a, x):g}] must be finite")


def _check_ladder(f, a: float, xs: np.ndarray, config: QuadratureConfig) -> int:
    """Raise what a one-point integral raises for the first bad entry of
    xs, then for a start with no room to double; the node cap.

    Each row integrates over [min(a, x), max(a, x)], whose length must
    be finite and which must lie in the domain of f on either side of a.
    A start whose first doubling already passes the cap could never
    compare two passes.  Nothing is evaluated.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.isfinite(xs - a) & (xs != a) & _inside(f, a, xs)
    if not ok.all():
        x = float(xs[np.argmin(ok)])
        _check_point(a, x)
        lo, hi = domain_of(f)
        raise DomainError(
            f"[{min(a, x):g}, {max(a, x):g}] is not inside the domain [{lo:g}, {hi:g}]")
    cap = _RULES[config.scheme][1]
    if 2 * config.n_nodes > cap:
        raise QuadratureError(
            f"{config.n_nodes} starting nodes leave no room to double under the cap of {cap}")
    return cap


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


def _quad_ladder(f, a: float, mu: float, xs: np.ndarray, config: QuadratureConfig,
                 fx=None, lead=None):
    """Raw sums of every row by node doubling, depth first: integrals, or
    given f at xs as fx, integrals of divided differences (_block_pass).

    The rows and the start are checked first (_check_ladder).  Every row
    is first evaluated at config.n_nodes.  Then the rows double
    in the blocks of one evaluator call each (_row_blocks), and a block's
    rows whose last two passes do not agree to QUAD_REL_CHANGE relative
    go through every deeper level before the next block starts.  So the
    rows past the first one to reach the cap unsettled are not doubled
    further, as in a loop over the rows.  A row's value does not depend
    on the other rows of its call, so each row gets the bits it would
    get alone.  Returns the values and the node count of the first row
    that reaches the cap unsettled, or None.

    A divided-difference row is a Marchaud derivative's second term, and
    it settles with its derivative: lead holds each row's first term over
    the second term's factor, which the settle rule adds to both passes.
    So a row whose differences are round-off next to its first term, as
    f = 1 + 1e-15 t gives, settles as soon as that term does, and a row
    whose first term is not finite settles at its first pass.

    A suspended level holds its row indices, one value per row and its
    rule's mesh, never a block's node arrays, so the call bound still
    bounds the memory of a pass.
    """
    cap = _check_ladder(f, a, xs, config)
    n = int(config.n_nodes)
    marchaud = fx is not None
    value = np.empty(xs.size)

    def passes(rows, n):
        # whole rows go to f, and a block's arrays die before the next is built
        rule = _unit_rule if n <= JACOBI_NODE_CAP else _unit_rule.__wrapped__
        s, weights = rule(config.scheme, mu, n, marchaud)
        for block in _row_blocks(rows.size, s.size):
            idx = rows[block]
            yield idx, _block_pass(f, s, weights, mu, a, xs[idx, None],
                                   fx[idx, None] if marchaud else None)

    def deepen(rows, n):
        # rows last evaluated at n nodes, through every deeper level
        n *= 2
        for idx, cur in passes(rows, n):
            off = 0.0 if lead is None else lead[idx]
            left = idx[~_agree(cur + off, value[idx] + off, QUAD_REL_CHANGE)]
            value[idx] = cur
            if left.size:
                failed = n if 2 * n > cap else deepen(left, n)
                if failed:
                    return failed
        return None

    rows = np.arange(xs.size)
    for idx, cur in passes(rows, n):
        value[idx] = cur
    if marchaud:
        # a first term that is not finite makes the derivative inf or NaN
        # whatever the second term reads, so its row settles at once
        rows = rows[np.isfinite(lead)]
    failed = deepen(rows, n)
    return value, failed


def _integrate(f, a: float, mu: float, xs: np.ndarray, config: QuadratureConfig,
               fx=None, lead=None):
    """_quad_ladder's values, with errors as a loop over the rows raises
    them: a row that does not stabilize raises the QuadratureError every
    such row shares, and any other failure of a batch is replayed one
    row at a time."""
    try:
        value, failed = _quad_ladder(f, a, mu, xs, config, fx, lead)
    except Exception:
        # no replay can explain the failure of a batch of one or none
        if xs.size <= 1:
            raise
        return np.concatenate([_integrate(f, a, mu, xs[i:i + 1], config,
                                          *(None if v is None else v[i:i + 1] for v in (fx, lead)))
                               for i in range(xs.size)])
    if failed:
        raise QuadratureError(f"no stabilization by {failed} nodes")
    return value


def rl_integral(f, a: float, mu: float, x, config: Optional[QuadratureConfig] = None):
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
    a time.  A config that no integral can run fails even on an empty x.
    """
    _check_order(mu)
    config = config or DEFAULT_QUAD
    # a float order is a key of the rule cache, even if mu is a 0-d array
    a, mu = float(a), float(mu)
    _check_base(a)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("evaluation points must be a scalar or a 1-D array")
    value = _integrate(f, a, mu, xs.reshape(-1), config) / math.gamma(mu)
    return float(value[0]) if xs.ndim == 0 else value


def _marchaud(f, a: float, beta: float, xs: np.ndarray, config: QuadratureConfig,
              fa: float = 0.0, fx=None):
    """The Marchaud-form derivative of f - fa at each x of xs (rl_derivative).

    Unless f(x) is given as fx, the points are checked (_check_ladder)
    and f(x) of every point comes from one evaluator call; a given fx
    leaves the checks to _integrate.  The first term is
    (f(x) - fa) / |x-a|**beta, and the integrals of the divided
    differences double together (_integrate).  A failed check or f(x)
    call is replayed one point at a time, each point's f(x) call before
    its integral, so errors come out as a loop over the points would
    raise them.
    """
    try:
        if fx is None:
            _check_ladder(f, a, xs, config)
            # f never sees an empty array
            fx = _feval(f, xs) if xs.size else xs
    except Exception:
        if xs.size <= 1:
            raise
        return np.concatenate([_marchaud(f, a, beta, xs[i:i + 1], config, fa)
                               for i in range(xs.size)])
    # a derivative past the largest double is inf, as an evaluator's value is
    with np.errstate(over="ignore", invalid="ignore"):
        first = (fx - fa) / np.abs(xs - a) ** beta
        sums = _integrate(f, a, 1.0 - beta, xs, config, fx, first / beta)
        return (first + beta * sums) / math.gamma(1.0 - beta)


def rl_derivative(f, a: float, beta: float, x,
                  config: Optional[QuadratureConfig] = None):
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

    x may be a 1-D array; the result is then an array.  The points are
    checked as rl_integral checks them, before f is evaluated, then f(x)
    of every point comes from one evaluator call and the integrals
    double together in blocks.  Errors come out as a loop over the
    points would raise them.
    """
    _check_order(beta)
    config = config or DEFAULT_QUAD
    a, beta = float(a), float(beta)
    _check_base(a)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("evaluation points must be a scalar or a 1-D array")
    d = _marchaud(f, a, beta, xs.reshape(-1), config)
    return float(d[0]) if xs.ndim == 0 else d


def kg_lfd(f, a: float, beta: float, direction: Direction,
           approach: Optional[EpsilonSchedule] = None,
           config: Optional[QuadratureConfig] = None,
           tol: float = KG_TOL) -> LimitEstimate:
    """Local fractional derivative at a as a limit of fractional derivatives.

    The function is re-based so its value at a drops out (forward uses
    f - f(a), backward uses f(a) - f), its derivative of order beta in
    rl_derivative's Marchaud form is taken at x = a +/- eps for each
    approach step, and the sequence is classified by the usual windowed
    Cauchy rule.  f(a) cancels from the divided differences, so it
    enters through the first term alone: forward, that term is
    (f(x) - f(a)) / (Gamma(1-beta) eps**beta), the velocity's own
    difference quotient over Gamma(1-beta).  The base point must be
    finite and the first step's span, a included, must lie in f's
    domain; both are checked before f is evaluated.

    f(a) and every f(a +/- eps) come from one evaluator call.  Then the
    approach points' integrals double together in blocks, depth first,
    f seeing at most EVAL_CALL_POINTS points a call, and errors come out
    as a loop over the steps would raise them: if that first call fails,
    f(a) is taken alone and the steps go on as rl_derivative's points,
    which replay a failed batch one point at a time.
    """
    _check_order(beta)
    a, beta = float(a), float(beta)
    _check_base(a)
    approach = approach or DEFAULT_APPROACH
    config = config or DEFAULT_QUAD
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
    d = _marchaud(f, a, beta, xs, config, fa, fx)
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
