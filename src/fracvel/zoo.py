"""Closed-form test functions with known local regularity.

Each member bundles a vectorized evaluator with its domain and a set of
marked points carrying ground truth: the pointwise Holder exponent and,
where the limit exists, the one-sided fractional velocities at that
exponent.  Marks use the string sentinels below when a slot has no
numeric answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

__all__ = [
    "SMOOTH",
    "UNDEFINED",
    "MarkedPoint",
    "AnalyticTestFunction",
    "make_power_cusp",
    "make_chirp",
    "make_weierstrass",
    "make_polynomial",
    "default_zoo",
]

# Sentinel for marks at points where the function is C^1 or better, so the
# interesting exponent is the classical one.
SMOOTH = "smooth"

# Sentinel for a velocity slot whose limit does not exist.
UNDEFINED = "undefined"

Truth = Union[float, str]

# Abscissae used for marks on the Weierstrass member.  Poorly approximable
# by the dyadic probe grids, which keeps the oscillation fits honest.
WEIERSTRASS_MARK_XS = (1.0 / np.pi, np.sqrt(2.0) - 1.0, 0.7)

# The top Weierstrass frequency freq**(n_terms-1) may reach 2**53 and no
# further, so that every frequency is an exact integer both as a double
# and, times four, as a uint64: the evaluator's phase reduction (see
# make_weierstrass) takes the frequencies in both forms.
WEIERSTRASS_MAX_BITS = 53

# make_weierstrass reduces x mod 2 to r in (-2, 2) and splits r * 2**61
# into an integer below 2**62, which fits an int64, and a fraction.
_PHASE_SCALE = 2.0 ** 61


@dataclass(frozen=True)
class MarkedPoint:
    """Ground truth at a single abscissa."""

    x: float
    holder_exponent: Truth
    velocity_plus: Truth
    velocity_minus: Truth


@dataclass(frozen=True)
class AnalyticTestFunction:
    """A callable with a domain, an id string, and marked points.

    The evaluator accepts scalars or arrays and returns matching shapes.
    Instances are immutable and safe to share between analyses.
    """

    id: str
    domain: Tuple[float, float]
    eval: Callable[[np.ndarray], np.ndarray]
    marks: Tuple[MarkedPoint, ...]

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"domain must be a finite ordered pair, got {self.domain!r}")
        for m in self.marks:
            if not lo <= m.x <= hi:
                raise ValueError(f"mark x={m.x!r} lies outside domain {self.domain!r}")

    def __call__(self, x):
        return self.eval(x)


def _descale(out: np.ndarray):
    # scalar in, scalar out; arrays pass through
    return float(out) if out.ndim == 0 else out


def make_power_cusp(a: float = 0.0, beta: float = 0.5, K: float = 1.0,
                    c0: float = 0.0) -> AnalyticTestFunction:
    """Signed power cusp c0 + K*sign(x-a)*|x-a|**beta.

    Parameters
    ----------
    a : float
        Cusp location.
    beta : float
        Growth order, strictly between 0 and 1.
    K : float
        Cusp strength.  Both one-sided velocities of order beta at a
        equal K exactly; every other point has zero beta-velocity.
    c0 : float
        Additive offset.

    Returns
    -------
    AnalyticTestFunction
        Domain is (a-2, a+2) with a single mark at the cusp.
    """
    a, beta, K, c0 = float(a), float(beta), float(K), float(c0)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    for name, v in (("a", a), ("K", K), ("c0", c0)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")

    def f(x):
        d = np.asarray(x, dtype=float) - a
        return _descale(c0 + K * np.sign(d) * np.abs(d) ** beta)

    mark = MarkedPoint(a, beta, K, K)
    ident = f"cusp(a={a:g},beta={beta:g},K={K:g},c0={c0:g})"
    return AnalyticTestFunction(ident, (a - 2.0, a + 2.0), f, (mark,))


def make_chirp(gamma: float = 0.5, a: float = 0.0) -> AnalyticTestFunction:
    """One-sided oscillating chirp (x-a)**gamma * sin(1/(x-a)), zero for x <= a.

    At a the forward variation of order gamma traces sin(1/eps) and never
    settles, while every smaller order damps it to zero.  The backward
    side is flat, so the backward velocity at a is 0 at any order.
    """
    gamma, a = float(gamma), float(a)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not math.isfinite(a):
        raise ValueError("a must be finite")

    def f(x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        m = arr > a
        if m.any():
            d = arr[m] - a
            with np.errstate(over="ignore"):
                phase = 1.0 / d
            # below d ~ 5.6e-309 the phase overflows and sin(1/d) has no
            # double value; |f| <= d**gamma there, so take the midpoint 0
            phase[np.isinf(phase)] = 0.0
            out[m] = d ** gamma * np.sin(phase)
        return float(out[0]) if scalar else out

    mark = MarkedPoint(a, gamma, UNDEFINED, 0.0)
    ident = f"chirp(gamma={gamma:g},a={a:g})"
    return AnalyticTestFunction(ident, (a - 2.0, a + 2.0), f, (mark,))


def make_weierstrass(amp: float = 0.5, freq: int = 3,
                     n_terms: int = 24) -> AnalyticTestFunction:
    """Truncated Weierstrass cosine series sum_n amp**n * cos(freq**n * pi * x).

    Parameters
    ----------
    amp : float
        Term amplitude ratio, in (0, 1).
    freq : int
        Frequency ratio, an integer >= 2 with amp*freq > 1 so the uniform
        Holder exponent log(1/amp)/log(freq) falls below 1.
    n_terms : int
        Truncation length, at least 8 and with freq**(n_terms-1) at most
        2**WEIERSTRASS_MAX_BITS.  The series is smooth below the scale
        1/(freq**(n_terms-1) * pi); probes should stay well above it.

    Returns
    -------
    AnalyticTestFunction
        Domain (-2, 2); marks carry the exponent with both velocity
        slots undefined.

    Notes
    -----
    Each phase freq**n * x is reduced mod 2 exactly before its cosine is
    taken, so every cosine sees an argument in about [-pi, pi] and the
    sum is off by a few ulps of sum_n amp**n, at any x.  x mod 2 (an
    exact fmod) times 2**61 is an integer W below 2**62 plus a fraction
    that is nonzero only within 2**-9 of an even integer.  The
    product W * 4 * freq**n wraps in uint64 to a residue mod 2**64 which,
    read as an int64 and scaled by 2**-63, is W * freq**n * 2**-61 mod 2
    in [-1, 1) half-turns, exact up to the one rounding to a double.  The
    fraction adds freq**n * frac * 2**-61 < 2**-8 half-turns, where one
    float product is exact enough.  Every point's value is the same bits
    whatever shape or call it is evaluated in, and f(nan) is nan.
    """
    # integral floats are taken as their ints; int() of inf or nan raises
    for name, v in (("freq", freq), ("n_terms", n_terms)):
        if int(v) != v:
            raise ValueError(f"{name} must be an integer, got {v!r}")
    freq, n_terms, amp = int(freq), int(n_terms), float(amp)
    if not 0.0 < amp < 1.0:
        raise ValueError(f"amp must lie in (0, 1), got {amp}")
    if freq < 2:
        raise ValueError(f"freq must be an integer >= 2, got {freq!r}")
    if amp * freq <= 1.0:
        raise ValueError("need amp*freq > 1 for a rough limit")
    if n_terms < 8:
        raise ValueError("n_terms must be at least 8")
    # freq >= 2, so an exponent past the bit count fails without the power
    top = n_terms - 1
    if top > WEIERSTRASS_MAX_BITS or freq ** top > 2 ** WEIERSTRASS_MAX_BITS:
        raise ValueError(f"n_terms={n_terms} puts the top frequency {freq}**{top} "
                         f"past 2**{WEIERSTRASS_MAX_BITS}")

    amps = amp ** np.arange(n_terms)
    freqs = np.array([freq ** n for n in range(n_terms)], dtype=np.uint64)
    # W * 4 * freq**n mod 2**64 is W * freq**n * 2**-61 mod 2 in units of 2**-63
    turns = 4 * freqs
    fine = np.pi / _PHASE_SCALE * freqs.astype(float)

    def f(x):
        # non-finite x has no residue: its phases come out nan, quietly
        with np.errstate(invalid="ignore"):
            scaled = np.fmod(np.asarray(x, dtype=float), 2.0) * _PHASE_SCALE
            whole = scaled.astype(np.int64)
        frac = scaled - whole
        # the residues turn into radians in place: one (points x terms) array
        phase = np.multiply.outer(whole.view(np.uint64), turns)
        phase = np.multiply(phase.view(np.int64), np.pi * 2.0 ** -63,
                            out=phase.view(np.float64))
        # frac is zero away from the even integers: add it only where not
        if frac.any():
            near = frac != 0.0
            phase[near] += np.multiply.outer(frac[near], fine)
        np.cos(phase, out=phase)
        phase *= amps
        # a sum along the last axis rounds each point alike whatever else
        # shares the call; a BLAS product does not
        return _descale(phase.sum(axis=-1))

    exponent = float(np.log(1.0 / amp) / np.log(freq))
    marks = tuple(MarkedPoint(float(x), exponent, UNDEFINED, UNDEFINED)
                  for x in WEIERSTRASS_MARK_XS)
    ident = f"weierstrass(amp={amp:g},freq={freq},n_terms={n_terms})"
    return AnalyticTestFunction(ident, (-2.0, 2.0), f, marks)


def make_polynomial(coeffs, domain: Tuple[float, float] = (-4.0, 4.0)) -> AnalyticTestFunction:
    """Polynomial with ascending-power coefficients; the smooth baseline.

    Marks sit at the interior quartile points of the domain and record
    the classical derivative there, since for a differentiable function
    the order-1 velocity is just the derivative.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if not all(map(math.isfinite, coeffs)):
        raise ValueError("coefficients must be finite")
    coef = np.array(coeffs)
    polyval = np.polynomial.polynomial.polyval

    # x + 0.0 reads -0.0 as +0.0, as np.polynomial.Polynomial's domain map does
    def f(x):
        return _descale(np.asarray(polyval(np.asarray(x, dtype=float) + 0.0, coef)))

    lo, hi = float(domain[0]), float(domain[1])
    xs = (lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo), lo + 0.75 * (hi - lo))
    with np.errstate(over="ignore", invalid="ignore"):
        # polyder keeps a constant's signed zero, [0.] or [-0.]
        slopes = polyval(np.array(xs), np.polynomial.polynomial.polyder(coef)).tolist()
    marks = tuple(MarkedPoint(x, SMOOTH, d, d) for x, d in zip(xs, slopes))
    ident = "poly(" + ";".join(f"{c:g}" for c in coeffs) + ")"
    return AnalyticTestFunction(ident, (lo, hi), f, marks)


def default_zoo():
    """The built-in members, in a fixed display order."""
    return [
        make_power_cusp(0.0, 0.5, 1.0, 0.0),
        make_power_cusp(0.0, 0.3, 2.0, 0.0),
        make_chirp(0.5, 0.0),
        make_weierstrass(0.5, 3, 24),
        make_polynomial((0.0, 1.0)),
        make_polynomial((0.0, 0.0, 1.0)),
    ]
