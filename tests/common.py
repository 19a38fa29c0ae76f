"""Shared schedules, frozen reference constants and reference helpers.

The numeric literals here were computed once from closed forms or from
brute-force reference runs (dense sampling with an independent fitting
script, or high-precision quadrature via mpmath) and then frozen, so the
tests compare against values the library code never produced.  The
helpers at the end restate algorithms in their plainest form, for
comparison with the optimized library paths.
"""
import math

import numpy as np

from fracvel import (
    Direction,
    DomainError,
    EpsilonSchedule,
    QuadScheme,
    QuadratureError,
    classify_limit,
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
    DEFAULT_QUAD,
    GRADED_NODE_CAP,
    GRADED_SERIES_TERMS,
    GRADED_SERIES_W,
    JACOBI_NODE_CAP,
    KG_H_FACTOR,
    KG_TOL,
    QUAD_REL_CHANGE,
    _jacobi_rule,
)

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
        row = None
        while 2 * n - 1 <= cap:
            prev = np.ptp(np.append(v, fx))
            n = 2 * n - 1
            v = _feval(f, _window_points(x, outer, inner, _osc_offsets(n), direction))
            cur = np.ptp(np.append(v, fx))
            if cur - prev <= OSC_REL_CHANGE * max(cur, _TINY):
                row = (v, n, True)
                break
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
    stop rule reads those samples plus f(x).  A window's value is
    max - min over the last samples of its own row and of every deeper
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


def _graded_pass(f, a, x, mu, n):
    """The graded product rule over [a, x] on n cells, one float.

    Each cell's hat-function moments against (1-s)**(mu-1) on the unit
    mesh s, from u = 1 - s and the cell ratio w, the linear moment's
    factor by its series below w = GRADED_SERIES_W; the sum of f at the
    nodes times those weights, times (x-a)**mu.
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
    t = a + (x - a) * s
    t[0], t[-1] = a, x
    ft = np.asarray(f(t), dtype=float)
    return float(np.sum(ft * weights)) * float((np.array([x - a]) ** mu)[0])


def _jacobi_pass(f, a, x, mu, n):
    """The n-node Gauss-Jacobi rule over [a, x], one float."""
    s, w = _jacobi_rule(n, mu - 1.0)
    t = a + (x - a) * (s + 1.0) / 2.0
    return float(((x - a) / 2.0) ** mu * np.dot(w, np.asarray(f(t), dtype=float)))


def _reference_point(f, a, mu, x, config):
    if not 0.0 < mu < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {mu}")
    if not math.isfinite(a):
        raise ValueError(f"base point must be finite, got {a}")
    if not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x}")
    if x == a:
        raise ValueError("evaluation point must differ from the base point")
    lo, hi = getattr(f, "domain", (-math.inf, math.inf))
    base, end = min(a, x), max(a, x)
    if base < lo or end > hi:
        raise DomainError(f"[{base:g}, {end:g}] is not inside the domain [{lo:g}, {hi:g}]")
    g = f
    if x < a:
        # the right-sided integral over [x, a] is the left-sided one of
        # t -> f(x + a - t) based at x
        def g(t):
            return f(x + a - np.asarray(t, dtype=float))
    graded = config.scheme is QuadScheme.GRADED_PRODUCT
    one_pass = _graded_pass if graded else _jacobi_pass
    cap = GRADED_NODE_CAP if graded else JACOBI_NODE_CAP
    n = config.n_nodes
    if 2 * n > cap:
        raise QuadratureError(
            f"{n} starting nodes leave no room to double under the cap of {cap}")
    prev = one_pass(g, base, end, mu, n)
    while 2 * n <= cap:
        n *= 2
        cur = one_pass(g, base, end, mu, n)
        if abs(cur - prev) <= QUAD_REL_CHANGE * max(abs(cur), abs(prev), _TINY):
            return cur / math.gamma(mu)
        prev = cur
    raise QuadratureError(f"no stabilization by {n} nodes")


def reference_rl_integral(f, a, mu, xs, config=DEFAULT_QUAD):
    """rl_integral one point at a time, each doubling its own nodes.

    Each pass is one evaluator call on one point's nodes, and a point
    below a integrates a mirrored copy of f: the plainest form of the
    checks, the stop and cap rules and the reflection.  Returns one float
    per entry of xs, or raises what the first failing point raises.
    """
    return np.array([_reference_point(f, float(a), mu, x, config)
                     for x in np.atleast_1d(np.asarray(xs, dtype=float)).tolist()])


def reference_rl_derivative(f, a, beta, xs, config=DEFAULT_QUAD, h_diff=None):
    """rl_derivative one point at a time from reference_rl_integral.

    Per point: the checks of x and its step, the x+h integral, then the
    x-h one, their central difference, negated below a.  h_diff is None
    (|x-a|/8), one step or one step per point.  Returns one float per
    entry of xs, or raises what the first failing point raises.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    h = np.abs(xs - a) / 8.0 if h_diff is None else np.asarray(h_diff, dtype=float)
    out = []
    for x, hx in zip(xs.tolist(), np.broadcast_to(h, xs.shape).tolist()):
        if not math.isfinite(x):
            raise ValueError(f"evaluation point must be finite, got {x}")
        if x == a:
            raise ValueError("evaluation point must differ from the base point")
        if not math.isfinite(hx):
            raise ValueError(f"difference step must be finite, got {hx}")
        if not 0.0 < hx < abs(x - a):
            raise ValueError(f"difference step {hx:g} must stay below |x-a|={abs(x - a):g}")
        hi, lo = reference_rl_integral(f, a, 1.0 - beta, [x + hx, x - hx], config)
        d = (hi - lo) / (2.0 * hx)
        out.append(d if x > a else -d)
    return np.array(out)


def kg_lfd_rescaled(f, a, beta, direction):
    """kg_lfd's limit through the frozen unit-interval form.

    Substituting t = a +/- h*u turns the (1-beta) integral of the shifted
    function into h**(1-beta) times a fixed Gauss-Jacobi sum on [0, 1],
    so only the scalar map h -> H(h) needs differencing.  Both sides
    reduce to the same formula d/dh H(h).
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
        d = float(e) / KG_H_FACTOR
        vals.append((H(e + d) - H(e - d)) / (2.0 * d))
    return classify_limit(vals, KG_TOL)


def same_bits(a, b) -> bool:
    """Equal element for element, NaN matching NaN and the sign of zero kept."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))
