"""Shared schedules, frozen reference constants and reference helpers.

The numeric literals here were computed once from closed forms or from
brute-force reference runs (dense sampling with an independent fitting
script, or high-precision quadrature via mpmath) and then frozen, so the
tests compare against values the library code never produced.  The
helpers at the end restate algorithms in their plainest form, for
comparison with the optimized library paths.
"""
import math
from functools import lru_cache

import numpy as np

from fracvel import (
    Direction,
    DomainError,
    EpsilonSchedule,
    QuadScheme,
    QuadratureError,
    classify_limit,
    rlcalc,
)
from fracvel.diffops import (
    OSC_N0,
    OSC_REL_CHANGE,
    OSC_SAMPLE_CAP,
    _TINY,
    _check_eps,
    _check_window,
    _feval,
    _osc_offsets,
)
from fracvel.rlcalc import (
    DEFAULT_APPROACH,
    GRADED_NODE_CAP,
    GRADED_SERIES_TERMS,
    GRADED_SERIES_W,
    JACOBI_NODE_CAP,
    KG_TOL,
    QUAD_REL_CHANGE,
    _jacobi_rule,
)

# The reference loops below rebuild the same few rules; the library's
# own cache holds unit rules, not these.
_jacobi_rule = lru_cache(maxsize=64)(_jacobi_rule)

# Shallower ladder for order-1 probes: at eps near 2**-42 the difference
# f(x+eps)-f(x) is pure cancellation noise of size eps_mach*|f|/eps.
SCHED24 = EpsilonSchedule(2.0 ** -4, 0.5, 24)

# Oscillation-fit ladder for the truncated Weierstrass member: stays in
# [2**-20, 2**-6], far above the truncation smoothness scale ~3.4e-12.
WEIER_FIT = EpsilonSchedule(2.0 ** -6, 0.5, 15)

GAMMA_15 = 0.8862269254527579        # sqrt(pi)/2
TWO_OVER_SQRT_PI = 1.1283791670955126

# (1/Gamma(0.5)) * int_0^1 t (1-t)**(-1/2) dt, tanh-sinh quadrature at
# 50 digits, rounded to double.  Equals 4/(3 sqrt(pi)).
RL_LINEAR_AT_1 = 0.7522527780636750413

# ln(2)/ln(3), the uniform exponent of the default Weierstrass member
WEIER_EXPONENT = 0.6309297535714574

# Oscillation-regression slopes at the marked points: reference_ladder
# below (annuli on full grids, folded) over WEIER_FIT's windows, plain
# polyfit of log osc on log eps; frozen from that script
WEIER_SLOPES = {
    "1/pi": 0.6053555452391591,
    "sqrt2-1": 0.6047558395690336,
    "0.7": 0.6337060777571578,
}

WEIER_MARK_XS = (1.0 / np.pi, np.sqrt(2.0) - 1.0, 0.7)


def _window_points(x, outer, inner, offs, direction):
    """Points outer*o + inner*(1-o) away from x at offsets o, on one side."""
    part = outer * offs + inner * (1.0 - offs)
    return x + part if direction is Direction.FORWARD else x - part


def osc_sampled(f, x, eps, direction, n):
    """Oscillation max - min of f over the full n-point grid of one window."""
    v = _feval(f, _window_points(x, eps, 0.0, _osc_offsets(n), direction))
    return float(np.max(v) - np.min(v))


def one_sided_difference(f, x, eps, direction):
    """f(x+eps) - f(x) forward and f(x) - f(x-eps) backward, one float."""
    fx = float(_feval(f, x))
    if direction is Direction.FORWARD:
        return float(_feval(f, x + eps)) - fx
    return fx - float(_feval(f, x - eps))


def _reference_side(f, x, eps, direction, n0, cap):
    """reference_ladder's five entries for one side."""
    def at(step):
        # one single-point call at x + step forward, x - step backward,
        # the points variation_values forms
        t = x + step if direction is Direction.FORWARD else x - step
        return _feval(f, np.array([t]))[0]

    fx = at(0.0)
    rows = []
    for outer, inner in zip(eps, eps[1:] + [0.0]):
        n = int(n0)
        v = _feval(f, _window_points(x, outer, inner, _osc_offsets(n), direction))
        # a row infinite or NaN on its first grid is never doubled
        row = None if np.isfinite(np.ptp(np.append(v, fx))) else (v, n, False)
        while row is None and 2 * n - 1 <= cap:
            prev = np.ptp(np.append(v, fx))
            n = 2 * n - 1
            v = _feval(f, _window_points(x, outer, inner, _osc_offsets(n), direction))
            cur = np.ptp(np.append(v, fx))
            if cur - prev <= OSC_REL_CHANGE * max(cur, _TINY):
                row = (v, n, True)
            elif np.isnan(cur):
                row = (v, n, False)
        rows.append(row or (v, n, False))
    samples, n_samples, refined = zip(*rows)
    value = [np.ptp(np.concatenate(samples[k:])) for k in range(len(samples))]
    return value, n_samples, refined, fx, [at(e) for e in eps]


def reference_ladder(f, x, eps, directions, n0=OSC_N0, cap=OSC_SAMPLE_CAP):
    """The annulus ladder one side and one annulus at a time, on full
    grids, then folded.

    Every window of every side is checked first, side by side in the
    order of directions.  Row k of a side is the annulus between eps[k+1]
    and eps[k] away from x, the last row [0, eps[-1]].  Each level
    samples a row's whole n-point grid in its own call, and the row's
    stop rule reads those samples plus f(x); a row infinite on its first
    grid, or NaN on any grid, is not doubled further.  A window's value
    is max - min over the last samples of its own row and of every deeper
    one.  f(x) and each f(x +- eps) are evaluated alone, one point a
    call.  Returns (value, n_samples, refined, fx, fe) arrays like
    diffops._osc_ladder, one row per direction.
    """
    eps = [float(e) for e in np.asarray(eps, dtype=float)]
    for direction in directions:
        for e in eps:
            _check_eps(e)
            _check_window(f, x, e, direction)
    sides = [_reference_side(f, x, eps, d, n0, cap) for d in directions]
    return tuple(np.array(column) for column in zip(*sides))


def _marchaud_weights(s, weights):
    """The rule for divided differences: a node at s = 1, where the
    difference is 0/0, is dropped, and its weight goes to the two nodes
    before it as the linear extrapolation of the difference from them
    would put it there."""
    if s[-1] != 1.0:
        return s, weights
    r = (s[-1] - s[-2]) / (s[-2] - s[-3])
    w = weights[:-1].copy()
    w[-1] += weights[-1] * (1.0 + r)
    w[-2] -= weights[-1] * r
    return s[:-1], w


def _unit_sum(f, a, x, mu, s, weights, fx):
    """The sum of the weights against f at the nodes t = a + (x-a)*s, times
    |x-a|**mu; given f(x) as fx, against the divided differences
    (f(x) - f(t)) / |x - t| instead, 0 at a node that rounds onto x."""
    if fx is not None:
        s, weights = _marchaud_weights(s, weights)
    t = a + (x - a) * s
    if s[-1] == 1.0:
        t[-1] = x
    ft = np.asarray(f(t), dtype=float)
    scale = float((np.abs(np.array([x - a])) ** mu)[0])
    if fx is None:
        return float(np.sum(ft * weights)) * scale
    gap = x - t
    h = np.divide(fx - ft, gap, out=np.zeros_like(gap), where=gap != 0.0)
    return float(np.sum(h * weights)) * (scale * math.copysign(1.0, x - a))


def _graded_pass(f, a, x, mu, n, fx=None):
    """The graded product rule from a to x, either side, on n cells, one float.

    Each cell's hat-function moments against (1-s)**(mu-1) on the unit
    mesh s, from u = 1 - s and the cell ratio w, the linear moment's
    factor by its series below w = GRADED_SERIES_W; the sum of f at the
    nodes a + (x-a)*s times those weights, times |x-a|**mu.
    """
    s = (np.arange(n + 1, dtype=float) / n) ** (2.0 / min(mu, 1.0 - mu))
    u = 1.0 - s[:-1]
    w = (s[1:] - s[:-1]) / u
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.log1p(-w)
        zeroth = -np.expm1(mu * q) / mu
        psi = (zeroth + np.expm1((mu + 1.0) * q) / (mu + 1.0)) / (w * w)
    coef = [1.0 / 2.0]
    rising = 1.0
    for k in range(1, GRADED_SERIES_TERMS):
        rising *= (k - mu) / k
        coef.append(rising / (k + 2.0))
    series = np.full_like(w, coef[-1])
    for c in reversed(coef[:-1]):
        series = series * w + c
    psi = np.where(w < GRADED_SERIES_W, series, psi)
    scale = u ** mu
    right = scale * w * psi
    weights = np.append(zeroth * scale - right, 0.0)
    weights[1:] += right
    return _unit_sum(f, a, x, mu, s, weights, fx)


def _jacobi_pass(f, a, x, mu, n, fx=None):
    """The n-node Gauss-Jacobi rule from a to x, either side, one float.

    On [0, 1] its nodes are (sigma+1)/2 and its weights w * 0.5**mu; the
    sum of f at the nodes a + (x-a)*s times those weights, times
    |x-a|**mu.
    """
    sigma, w = _jacobi_rule(n, mu - 1.0)
    return _unit_sum(f, a, x, mu, (sigma + 1.0) / 2.0, w * 0.5 ** mu, fx)


def _reference_checks(f, a, mu, x):
    """Raise what one point's integral raises before it evaluates f."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {mu}")
    if not math.isfinite(a):
        raise ValueError(f"base point must be finite, got {a}")
    if not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x}")
    if x == a:
        raise ValueError("evaluation point must differ from the base point")
    base, end = min(a, x), max(a, x)
    if not math.isfinite(x - a):
        raise ValueError(f"the length of [{base:g}, {end:g}] must be finite")
    lo, hi = getattr(f, "domain", (-math.inf, math.inf))
    if base < lo or end > hi:
        raise DomainError(f"[{base:g}, {end:g}] is not inside the domain [{lo:g}, {hi:g}]")


def _reference_ladder(f, a, mu, x, scheme, fx=None, lead=0.0):
    """One point's passes from rlcalc.QUAD_N0 nodes, doubling until two
    agree: the last one.  Passes of divided differences are compared
    with lead added to both, and a lead that is not finite keeps the
    first pass."""
    graded = scheme is QuadScheme.GRADED_PRODUCT
    one_pass = _graded_pass if graded else _jacobi_pass
    cap = GRADED_NODE_CAP if graded else JACOBI_NODE_CAP
    n = rlcalc.QUAD_N0
    prev = one_pass(f, a, x, mu, n, fx)
    if not math.isfinite(lead):
        return prev
    while 2 * n <= cap:
        n *= 2
        cur = one_pass(f, a, x, mu, n, fx)
        c, p = cur + lead, prev + lead
        if abs(c - p) <= QUAD_REL_CHANGE * max(abs(c), abs(p), _TINY):
            return cur
        prev = cur
    raise QuadratureError(f"no stabilization by {n} nodes")


def reference_rl_integral(f, a, mu, xs, scheme=QuadScheme.GRADED_PRODUCT):
    """rl_integral one point at a time, each doubling its own nodes.

    Each pass is one evaluator call on one point's nodes, on either side
    of a: the plainest form of the checks and of the stop and cap rules.
    Returns one float per entry of xs, or raises what the first failing
    point raises.
    """
    out = []
    for x in np.atleast_1d(np.asarray(xs, dtype=float)).tolist():
        _reference_checks(f, float(a), mu, x)
        out.append(_reference_ladder(f, float(a), mu, x, scheme) / math.gamma(mu))
    return np.array(out)


def reference_rl_derivative(f, a, beta, xs, scheme=QuadScheme.GRADED_PRODUCT):
    """rl_derivative one point at a time, in Marchaud form.

    Per point: the checks of reference_rl_integral, f(x) alone in one
    call, the first term F = f(x) / |x-a|**beta, then the integral S of
    the divided differences (f(x) - f(t)) / |x-t| on the order 1-beta
    rule, doubling until F + beta * S settles, and
    (F + beta * S) / Gamma(1-beta).  Returns one float per entry of xs,
    or raises what the first failing point raises.
    """
    out = []
    mu = 1.0 - beta
    for x in np.atleast_1d(np.asarray(xs, dtype=float)).tolist():
        _reference_checks(f, float(a), mu, x)
        fx = float(np.asarray(f(np.array([x])), dtype=float).reshape(-1)[0])
        first = fx / float((np.abs(np.array([x - a])) ** beta)[0])
        total = _reference_ladder(f, float(a), mu, x, scheme, fx, first / beta)
        out.append((first + beta * total) / math.gamma(mu))
    return np.array(out)


def reference_kg_lfd(f, a, beta, direction, approach=DEFAULT_APPROACH,
                     scheme=QuadScheme.GRADED_PRODUCT, tol=KG_TOL):
    """kg_lfd one approach point at a time, in Marchaud form.

    The first step's room, then f(a) alone in one call; per point
    x = a +/- eps, the checks of reference_rl_integral, f(x) alone,
    F = (f(x) - f(a)) / |x-a|**beta, and the integral S of f's divided
    differences as in reference_rl_derivative; the derivative of
    f - f(a) forward, (F + beta * S) / Gamma(1-beta), or of f(a) - f
    backward, ((0 - F) - beta * S) / Gamma(1-beta); then the usual
    classification.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"base point must be finite, got {a}")
    forward = direction is Direction.FORWARD
    eps = (1.0 if forward else -1.0) * approach.increments(a)
    lo, hi = getattr(f, "domain", (-math.inf, math.inf))
    if not (lo <= min(a, a + eps[0]) and max(a, a + eps[0]) <= hi):
        side = "above" if forward else "below"
        raise DomainError(f"approach from {side} at a={a:g} leaves the domain")
    fa = float(np.asarray(f(np.array([a])), dtype=float).reshape(-1)[0])
    mu, vals = 1.0 - beta, []
    for x in (a + eps).tolist():
        _reference_checks(f, a, mu, x)
        fx = float(np.asarray(f(np.array([x])), dtype=float).reshape(-1)[0])
        first = (fx - fa) / float((np.abs(np.array([x - a])) ** beta)[0])
        total = _reference_ladder(f, a, mu, x, scheme, fx, first / beta)
        g = first + beta * total if forward else (0.0 - first) - beta * total
        vals.append(g / math.gamma(mu))
    return classify_limit(vals, tol)


def interpolant_rl_derivative(knots, values, a, beta, x):
    """The order-beta Riemann-Liouville derivative at x, based at a, of
    the piecewise-linear interpolant of (knots, values), in closed form.

    On [a, x] the interpolant is f(a) plus sum_k dslope_k (t - t_k)_+
    over its break points t_k in [a, x), a first among them with the
    slope left of it taken as 0.  D^beta of a constant c is
    c (x-a)**-beta / Gamma(1-beta), and of (t - t_k)_+ it is
    (x - t_k)**(1-beta) / Gamma(2-beta).  For x < a the right-sided
    derivative is the same sum on the mirrored data.
    """
    knots, values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
    if x < a:
        knots, values, a, x = -knots[::-1], values[::-1], -a, -x
    breaks = np.concatenate([[a], knots[(knots > a) & (knots < x)], [x]])
    slopes = np.diff(np.interp(breaks, knots, values)) / np.diff(breaks)
    kinks = np.diff(np.concatenate([[0.0], slopes]))
    fa = float(np.interp(a, knots, values))
    return (fa * (x - a) ** -beta / math.gamma(1.0 - beta)
            + math.fsum(kinks * (x - breaks[:-1]) ** (1.0 - beta)) / math.gamma(2.0 - beta))


# kg_lfd_rescaled's central difference at eps has half-width eps / 8.
RESCALED_H_FACTOR = 8.0


def kg_lfd_rescaled(f, a, beta, direction):
    """kg_lfd's limit through the frozen unit-interval form.

    Substituting t = a +/- h*u turns the (1-beta) integral of the shifted
    function into h**(1-beta) times a fixed Gauss-Jacobi sum on [0, 1],
    so only the scalar map h -> H(h) needs differencing, here by a
    central difference: the classical d/dx of the integral, which
    kg_lfd's Marchaud form replaces.  Both sides reduce to the same
    formula d/dh H(h).
    """
    mu = 1.0 - beta
    s, w = _jacobi_rule(64, mu - 1.0)
    # nodes for int_0^1 g(h*u) (1-u)**(mu-1) du: the weight (1-s)**(mu-1)
    # becomes (1-u)**(mu-1) under u=(s+1)/2, leaving a (1/2)**mu scale
    u = (s + 1.0) / 2.0
    fa = float(np.asarray(f(a)))
    sign = 1.0 if direction is Direction.FORWARD else -1.0

    def H(h):
        g = sign * (np.asarray(f(a + sign * h * u), dtype=float) - fa)
        return h ** mu * 0.5 ** mu * float(np.dot(w, g)) / math.gamma(mu)

    vals = []
    for e in DEFAULT_APPROACH.increments(a):
        d = float(e) / RESCALED_H_FACTOR
        vals.append((H(e + d) - H(e - d)) / (2.0 * d))
    return classify_limit(vals, KG_TOL)


def same_bits(a, b) -> bool:
    """Equal element for element, NaN matching NaN and the sign of zero kept.

    The sign of a NaN is not compared: IEEE 754 leaves the sign of a NaN
    result unspecified, so two equal computations may differ in it.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
        return False
    signed = ~(np.isnan(a) | np.isnan(b))
    return np.array_equal(np.signbit(a)[signed], np.signbit(b)[signed])
