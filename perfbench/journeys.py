"""Seeded CLI journeys for the three benchmark workloads.

A journey is one ``fracvel`` command line plus the closed-form facts its
report must agree with.  Every parameter comes from ``random.Random(seed)``,
so a seed fixes the argv list exactly; the program only ever sees the argv.

The journey sizes (grid points, counts per kind) are fixed per workload and
only the function parameters are drawn, so two seeds give different inputs
of nearly the same cost.  That keeps seed-to-seed spread of the timings
close to the host's own noise.

Cusp locations are dyadic multiples of the grid step, so the cusp sits
exactly on a representable grid point and ``a + eps`` is exact for every
schedule increment.  Non-dyadic base points are exercised on purpose by the
order-1 polynomial probes, which is where round-off shows today.
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

WORKLOADS = ("grid_scan", "point_probe", "lfd_bridge")

# Marked abscissae of the Weierstrass member (zoo.WEIERSTRASS_MARK_XS),
# restated here so the truth never comes from the program.
WEIERSTRASS_MARKS = (1.0 / math.pi, math.sqrt(2.0) - 1.0, 0.7)

# Reason carried by journeys whose wrong answer is a known, documented
# limitation: order-1 probes on the default 40-step schedule reach
# increments where f(x+eps)-f(x) is round-off (README "Order-1 note").
ORDER1_FLOOR = "order-1 probe on the default schedule reaches round-off"

# The program's default schedule (estimator.EpsilonSchedule: eps0 * 0.5**k,
# k < 40, above FLOOR_FACTOR ulps of max(1, |x|)), restated for the
# round-off bound of order-1 probes.
DEFAULT_EPS0 = 2.0 ** -4
DEFAULT_COUNT = 40
FLOOR_ULPS = 1e3


def order1_roundoff(coeffs, x: float, slope: float) -> float:
    """Error bound round-off puts on p'(x)'s difference quotient at the
    deepest default increment: each evaluation of p is off by up to
    len(coeffs) ulps of sum |c_p x^p|, and x + eps by an ulp of x."""
    floor = FLOOR_ULPS * sys.float_info.epsilon * max(1.0, abs(x))
    eps_min = min(e for e in (DEFAULT_EPS0 * 0.5 ** k for k in range(DEFAULT_COUNT))
                  if e > floor)
    scale = (sum(abs(c) * abs(x) ** p for p, c in enumerate(coeffs))
             + abs(slope) * max(1.0, abs(x)))
    return 2.0 * len(coeffs) * sys.float_info.epsilon * scale / eps_min


@dataclass(frozen=True)
class Journey:
    """One command line and the facts its report is checked against."""

    kind: str
    argv: Tuple[str, ...]
    truth: Dict[str, float] = field(default_factory=dict)
    known_issue: str = ""


def _f(v: float) -> str:
    return repr(float(v))


def _cusp_spec(a: float, beta: float, k: float) -> str:
    return f"cusp:a={_f(a)},beta={_f(beta)},k={_f(k)}"


def _dyadic(rng: random.Random, lo: float, hi: float, step: float = 2.0 ** -6) -> float:
    return step * rng.randint(math.ceil(lo / step), math.floor(hi / step))


# ---------------------------------------------------------------------------
# grid_scan kinds

def scan_cusp(rng: random.Random, n: int, i: int) -> Journey:
    # grid step 2**-k with (n-1)*step in (0.9375, 1.875]: every grid point
    # is dyadic and the probes stay inside the cusp's domain (a-2, a+2)
    step = 2.0 ** -math.ceil(math.log2((n - 1) / 1.875))
    lo = -step * ((n - 1) // 2 + rng.randint(-8, 8))
    hi = lo + (n - 1) * step
    j = rng.randint(1, n - 2)
    a = lo + j * step
    beta = rng.uniform(0.2, 0.8)
    k = rng.uniform(0.5, 2.0)
    argv = ("scan", "--fn", _cusp_spec(a, beta, k), f"--interval={_f(lo)},{_f(hi)}",
            "--beta", _f(beta), "--n", str(n), "--format", "csv")
    return Journey("scan.cusp", argv, {"n": n, "a": a, "k": k})


def scan_weierstrass(rng: random.Random, n: int, i: int) -> Journey:
    # the frequency alternates 2, 3: cos of freq**23*pi*x costs more as freq
    # grows (freq 4 costs twice freq 2), and a drawn frequency would make the
    # pool's cost depend on the seed.  amp*freq > 1 for any Holder exponent
    # in (0, 1).
    freq = (2, 3)[i % 2]
    amp = float(freq) ** -rng.uniform(0.3, 0.8)
    lo = rng.uniform(-1.5, 0.0)
    hi = lo + rng.uniform(1.0, 1.5)
    beta = rng.uniform(0.2, 0.8)
    argv = ("scan", "--fn", f"weierstrass:amp={_f(amp)},freq={freq}",
            f"--interval={_f(lo)},{_f(hi)}", "--beta", _f(beta), "--n", str(n),
            "--format", "csv")
    return Journey("scan.weierstrass", argv, {"n": n})


def verify_mean_value(rng: random.Random, n: int, i: int) -> Journey:
    a = _dyadic(rng, -0.5, 0.5)
    beta = rng.uniform(0.2, 0.6)
    k = rng.uniform(0.5, 2.0)
    length = _dyadic(rng, 0.5, 1.5)
    lo, hi = (a, a + length) if rng.random() < 0.5 else (a - length, a)
    argv = ("verify", "--fn", _cusp_spec(a, beta, k), "--theorem", "mean_value",
            f"--interval={_f(lo)},{_f(hi)}", "--beta", _f(beta), "--n", str(n),
            "--format", "csv")
    return Journey("verify.mean_value", argv, {"a": a, "k": k})


def verify_weak_darboux(rng: random.Random, n: int, i: int) -> Journey:
    a = _dyadic(rng, -0.5, 0.5)
    beta = rng.uniform(0.2, 0.6)
    k = rng.uniform(0.5, 2.0)
    length = _dyadic(rng, 0.5, 1.0)
    # either the cusp is the left endpoint (nonzero endpoint velocity, the
    # weak form asserts nothing) or it lies well outside the interval (both
    # endpoint velocities vanish and an interior zero must be found)
    lo = a if rng.random() < 0.5 else a + _dyadic(rng, 0.125, 0.5)
    argv = ("verify", "--fn", _cusp_spec(a, beta, k), "--theorem", "weak_darboux",
            f"--interval={_f(lo)},{_f(lo + length)}", "--beta", _f(beta),
            "--n", str(n), "--format", "csv")
    return Journey("verify.weak_darboux", argv, {})


def verify_rolle(rng: random.Random, n: int, i: int) -> Journey:
    # p(x) = c0 + c2*(x-m)**2, expanded; its only extremum is at m.  Order-1
    # probes use the shallower schedule the README recommends; the default
    # schedule's round-off at order 1 is measured by point_probe.
    m = rng.uniform(-1.0, 1.0)
    c2 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    c0 = rng.uniform(-1.0, 1.0)
    coeffs = (c0 + c2 * m * m, -2.0 * c2 * m, c2)
    half = rng.uniform(0.5, 1.0)
    argv = ("verify", "--fn", "poly:coeffs=" + ";".join(_f(c) for c in coeffs),
            "--theorem", "rolle", f"--interval={_f(m - half)},{_f(m + half)}",
            "--beta", "1", "--count", "24", "--n", str(n), "--format", "csv")
    return Journey("verify.rolle", argv,
                   {"m": m, "c2": c2, "step": 2.0 * half / (n - 1)})


# ---------------------------------------------------------------------------
# point_probe kinds

def analyze_cusp_at(rng: random.Random, n: int, i: int) -> Journey:
    a = _dyadic(rng, -1.0, 1.0)
    beta = rng.uniform(0.2, 0.8)
    k = rng.uniform(0.5, 2.0)
    argv = ("analyze", "--fn", _cusp_spec(a, beta, k), "--x", _f(a), "--beta", _f(beta))
    return Journey("analyze.cusp_at", argv, {"velocity": k})


def analyze_cusp_off(rng: random.Random, n: int, i: int) -> Journey:
    # off the cusp the order-beta velocity is 0; the variation decays like
    # eps**(1-beta), so the probe states a tolerance that tail can meet
    a = _dyadic(rng, -0.5, 0.5)
    beta = rng.uniform(0.2, 0.5)
    k = rng.uniform(0.5, 2.0)
    x = a + rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.5)
    argv = ("analyze", "--fn", _cusp_spec(a, beta, k), "--x", _f(x), "--beta", _f(beta),
            "--tol", "1e-4")
    return Journey("analyze.cusp_off", argv, {"velocity": 0.0})


def _stratum(rng: random.Random, lo: float, hi: float, n: int, i: int) -> float:
    """A draw from the i-th of n equal strata of [lo, hi]."""
    return lo + (hi - lo) * (i + rng.random()) / n


def analyze_chirp(rng: random.Random, n: int, i: int) -> Journey:
    # the oscillation cost depends on gamma: one draw per stratum
    gamma = _stratum(rng, 0.3, 0.7, n, i)
    a = _dyadic(rng, -1.0, 1.0)
    argv = ("analyze", "--fn", f"chirp:gamma={_f(gamma)},a={_f(a)}", "--x", _f(a),
            "--beta", _f(gamma))
    return Journey("analyze.chirp", argv, {})


def analyze_poly(rng: random.Random, n: int, i: int) -> Journey:
    coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.choice((3, 4)))]
    # tenths that are not multiples of a half: never dyadic
    x = rng.choice([m for m in range(-30, 31) if m % 5]) / 10.0
    slope = sum(p * c * x ** (p - 1) for p, c in enumerate(coeffs) if p)
    argv = ("analyze", "--fn", "poly:coeffs=" + ";".join(_f(c) for c in coeffs),
            "--x", _f(x), "--beta", "1")
    return Journey("analyze.poly", argv,
                   {"velocity": slope, "roundoff": order1_roundoff(coeffs, x, slope)},
                   ORDER1_FLOOR)


def holder_weierstrass(rng: random.Random, n: int, i: int) -> Journey:
    # One fixed member, probed at each (mark, side) pair.  The adaptive
    # oscillation cost swings 10-50x with amp, freq and the mark, so drawn
    # parameters would make the pool's cost depend on the seed; this member
    # needs no probe refined to the 2**16 cap.  With freq=4 the 24-term
    # series stays rough below the deepest increment.
    amp = 0.35
    x = WEIERSTRASS_MARKS[(i // 2) % 3]
    argv = ("holder", "--fn", f"weierstrass:amp={_f(amp)},freq=4", "--x", _f(x),
            "--direction", ("fwd", "bwd")[i % 2])
    return Journey("holder.weierstrass", argv,
                   {"exponent": math.log(1.0 / amp) / math.log(4.0)})


def holder_cusp(rng: random.Random, n: int, i: int) -> Journey:
    a = _dyadic(rng, -1.0, 1.0)
    beta = rng.uniform(0.2, 0.8)
    argv = ("holder", "--fn", _cusp_spec(a, beta, rng.uniform(0.5, 2.0)), "--x", _f(a),
            "--direction", rng.choice(("fwd", "bwd")))
    return Journey("holder.cusp", argv, {"exponent": beta})


# ---------------------------------------------------------------------------
# lfd_bridge kinds

def _lfd(rng: random.Random, scheme: str, n: int, i: int) -> Journey:
    # the number of node doublings depends on beta: one draw per stratum
    a = _dyadic(rng, -1.0, 1.0)
    beta = _stratum(rng, 0.15, 0.9, n, i)
    k = rng.uniform(0.5, 2.0)
    argv = ("lfd", "--fn", _cusp_spec(a, beta, k), "--x", _f(a), "--beta", _f(beta),
            "--direction", rng.choice(("fwd", "bwd")), "--scheme", scheme)
    return Journey(f"lfd.{scheme}", argv,
                   {"velocity": k, "lfd": math.gamma(1.0 + beta) * k})


def lfd_graded(rng: random.Random, n: int, i: int) -> Journey:
    return _lfd(rng, "graded_product", n, i)


def lfd_jacobi(rng: random.Random, n: int, i: int) -> Journey:
    return _lfd(rng, "jacobi_weighted", n, i)


# ---------------------------------------------------------------------------
# workload mixes: (maker, sizes, warm-up size); one journey per size, made
# by maker(rng, size, index).  The size is the grid point count for scans
# and verifiers, the number of parameter strata for the chirp and lfd, and
# unused elsewhere.  A journey's time is the best of its runs, and the
# latency tail has ten journeys beyond it, so a larger pool gives a deeper
# tail and fewer passes; the pools balance the two.

MIXES = {
    # cusp grids spaced evenly in log n over 25..250 points, bound by the
    # Python loop; Weierstrass grids of 25 points, bound by the c1
    # sampling, cost one to two times the largest cusp scan.  A pass takes
    # about 0.8 s, so a 30-s run makes some 35 passes.
    "grid_scan": (
        (scan_cusp, tuple(round(25 * 10 ** (k / 15)) for k in range(16)), 5),
        (scan_weierstrass, (25, 25, 25), 5),
        (verify_mean_value, (101,) * 3, 5),
        (verify_weak_darboux, (101,) * 3, 5),
        (verify_rolle, (101,) * 3, 5),
    ),
    # the 32 cusp analyses, of like cost, hold the median
    "point_probe": (
        (analyze_cusp_at, (0,) * 16, 0),
        (analyze_cusp_off, (0,) * 16, 0),
        (analyze_chirp, (8,) * 8, 4),
        (analyze_poly, (0,) * 12, 0),
        (holder_weierstrass, (0,) * 12, 0),
        (holder_cusp, (0,) * 8, 0),
    ),
    # Gauss-Jacobi journeys cost nearly the same for every beta, graded
    # ones 1.5-2.5x more, least for beta near 0.5: the median falls among
    # the Jacobi journeys and the tail among the dearer graded ones, a few
    # places clear of the cheap ones.  Each Jacobi journey uses two rules
    # of rlcalc._jacobi_rule's 64-entry cache; the 26 here and their
    # warm-up use 54, so later passes hit the cache as repeated calls in
    # one session do.  40 would evict every rule before its next use and
    # cost 1.6x as much.
    "lfd_bridge": (
        (lfd_graded, (20,) * 20, 20),
        (lfd_jacobi, (26,) * 26, 26),
    ),
}


def pool(workload: str, seed: int) -> List[Journey]:
    """The seeded journey list one pass of the closed loop runs, in order.

    Kinds are interleaved by a seeded shuffle so no kind runs in a block.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = [make(rng, n, i) for make, sizes, _ in MIXES[workload]
           for i, n in enumerate(sizes)]
    rng.shuffle(out)
    return out


def warmups(workload: str, seed: int) -> List[Journey]:
    """One small journey of each kind in the mix, for set-up."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    return [make(rng, n, 0) for make, _, n in MIXES[workload]]
