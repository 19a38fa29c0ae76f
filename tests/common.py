"""Shared schedules, frozen reference constants and reference helpers.

The numeric literals here were computed once from closed forms or from
brute-force reference runs (dense sampling with an independent fitting
script, or high-precision quadrature via mpmath) and then frozen, so the
tests compare against values the library code never produced.  The
helpers at the end restate algorithms in their plainest form, for
comparison with the optimized library paths.
"""
import numpy as np
from scipy.special import gamma

from fracvel import Direction, EpsilonSchedule, classify_limit
from fracvel.diffops import (
    OSC_N0,
    OSC_REL_CHANGE,
    OSC_SAMPLE_CAP,
    _TINY,
    _check_eps,
    _check_window,
    _feval,
    _osc_offsets,
    _window_points,
)
from fracvel.rlcalc import KG_H_FACTOR, KG_TOL, _approach_default, _jacobi_rule

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

# Brute-force oscillation-regression slopes at the marked points
# (2**14+1 point sampling per window, dyadic eps in [2**-20, 2**-6],
# plain polyfit in log-log; frozen from the reference script)
WEIER_SLOPES = {
    "1/pi": 0.6083347154680686,
    "sqrt2-1": 0.6046651450337249,
    "0.7": 0.6301167253408679,
}

WEIER_MARK_XS = (1.0 / np.pi, np.sqrt(2.0) - 1.0, 0.7)


def osc_sampled(f, x, eps, direction, n):
    """Oscillation max - min of f over the full n-point grid of one window."""
    v = _feval(f, _window_points(x, eps, _osc_offsets(n), direction))
    return float(np.max(v) - np.min(v))


def reference_ladder(f, x, eps, direction, n0=OSC_N0, cap=OSC_SAMPLE_CAP):
    """The oscillation doubling ladder one increment at a time, on full grids.

    Each level samples the whole n-point grid of one window in its own
    call, the plainest form of the ladder's stop and cap rules.
    Returns (value, n_samples, refined) arrays like diffops._osc_ladder.
    """
    out = []
    for e in np.asarray(eps, dtype=float):
        e = float(e)
        _check_eps(e)
        _check_window(f, x, e, direction)
        n = int(n0)
        prev = osc_sampled(f, x, e, direction, n)
        row = None
        while 2 * n - 1 <= cap:
            n = 2 * n - 1
            cur = osc_sampled(f, x, e, direction, n)
            if cur - prev <= OSC_REL_CHANGE * max(cur, _TINY):
                row = (cur, n, True)
                break
            prev = cur
        out.append(row or (prev, n, False))
    value, n_samples, refined = zip(*out)
    return np.array(value), np.array(n_samples), np.array(refined)


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
        return h ** mu * 0.5 ** mu * float(np.dot(w, g)) / float(gamma(mu))

    vals = []
    for e in _approach_default().increments(a):
        d = float(e) / KG_H_FACTOR
        vals.append((H(e + d) - H(e - d)) / (2.0 * d))
    return classify_limit(vals, KG_TOL)


def same_bits(a, b) -> bool:
    """Equal element for element, NaN matching NaN and the sign of zero kept."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class SummedWeierstrass:
    """Weierstrass series on (-2, 2) summed term by term.

    The zoo member sums its terms with a matrix product, whose BLAS
    kernels may round a point differently depending on how many points
    share the call.  Summing along the last axis gives each point the
    same bits whatever else is evaluated with it, which is what a
    bit-for-bit comparison of two sampling orders needs.
    """

    domain = (-2.0, 2.0)

    def __init__(self, amp=0.5, freq=3, n_terms=24):
        self.amps = amp ** np.arange(n_terms)
        self.freqs = np.pi * float(freq) ** np.arange(n_terms)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (np.cos(t[..., None] * self.freqs) * self.amps).sum(axis=-1)
