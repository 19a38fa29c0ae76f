"""Invariant checks under randomized inputs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fracvel import (
    AnalyticTestFunction,
    Direction,
    EpsilonSchedule,
    LimitStatus,
    LocallyConstantError,
    classify_limit,
    default_zoo,
    estimate_holder_exponent,
    estimate_velocity,
    make_chirp,
    make_polynomial,
    make_power_cusp,
    make_weierstrass,
    scan_change_set,
    variation_values,
    velocity_limit,
    verify_mean_value,
    verify_rolle,
    verify_weak_darboux,
)
from common import (
    one_sided_difference,
    osc_sampled,
    reference_ladder,
    same_bits,
)
from fracvel import diffops, scanner
from fracvel.cli import SampledFunction
from fracvel.diffops import _osc_ladder
from fracvel.estimator import (C1_RATIO_CUTOFF, FLOOR_FACTOR, MIN_FITTED, VelocityReport,
                               _velocity_reports)

FWD = Direction.FORWARD
BWD = Direction.BACKWARD

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e10, max_value=1e10)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-5.0, 5.0), beta=st.floats(0.1, 0.99),
       K=st.floats(0.1, 10.0), c0=st.floats(-3.0, 3.0),
       u=st.floats(-1.9, 1.9))
def test_cusp_mirror_identity(a, beta, K, c0, u):
    # negating the prefactor mirrors the graph about the cusp abscissa
    pos = make_power_cusp(a, beta, K, c0)
    neg = make_power_cusp(a, beta, -K, c0)
    x = a + u
    assert np.isclose(neg(2.0 * a - x), pos(x), rtol=1e-9, atol=1e-9)


# a cut bound: a raw() entry (by index, exactly) or a multiple of one, or
# any float, NaN and both infinities included
_BOUNDS = st.one_of(st.integers(0, 59), st.tuples(st.integers(0, 59), st.floats(0.5, 2.0)),
                    st.floats(-1.0, 2.0),
                    st.sampled_from([-math.inf, math.inf, math.nan, -0.0, 0.0]))


def _bound(raw, b):
    if isinstance(b, int):
        return float(raw[b % raw.size])
    if isinstance(b, tuple):
        return float(raw[b[0] % raw.size]) * b[1]
    return b


@settings(max_examples=60, deadline=None)
@given(eps0=st.floats(1e-6, 1.0), ratio=st.floats(0.1, 0.9),
       count=st.integers(4, 60), x=st.floats(-100.0, 100.0),
       floor=_BOUNDS, margin=_BOUNDS)
def test_schedule_invariants(eps0, ratio, count, x, floor, margin):
    sched = EpsilonSchedule(eps0, ratio, count)
    raw = sched.raw()
    assert raw.size == count
    assert raw[0] == eps0
    assert np.all(np.diff(raw) < 0.0)
    eps = sched.increments(x)
    bound = FLOOR_FACTOR * np.finfo(float).eps * max(1.0, abs(x))
    assert eps.tolist() == [e for e in raw.tolist() if e > bound]
    assert eps.size >= 4
    # fitted() is the plain loop: the entries in (floor, margin], then
    # self when that is all of them, None when fewer than MIN_FITTED, and
    # otherwise the ladder re-based at the largest kept entry
    floor, margin = _bound(raw, floor), _bound(raw, margin)
    kept = [e for e in raw.tolist() if floor < e <= margin]
    got = sched.fitted(floor, margin)
    if len(kept) == count:
        assert got is sched
    elif len(kept) < MIN_FITTED:
        assert got is None
    else:
        assert got == EpsilonSchedule(kept[0], ratio, len(kept))


@settings(max_examples=50, deadline=None)
@given(values=st.lists(finite, min_size=4, max_size=50),
       tol=st.floats(1e-12, 1e3))
def test_classification_is_the_window_spread_test(values, tol):
    est = classify_limit(values, tol)
    m = max(4, len(values) // 4)
    window = values[-m:]
    spread = max(window) - min(window)
    assert est.tail_values == tuple(window)
    assert est.status is not LimitStatus.DIVERGED
    assert est.value == window[-1]
    assert est.residual == spread
    assert (est.status is LimitStatus.CONVERGED) == (spread <= tol)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(finite, min_size=4, max_size=50),
       where=st.integers(0, 49))
def test_any_non_finite_value_diverges(values, where):
    values[where % len(values)] = math.nan
    est = classify_limit(values, 1e-6)
    assert est.status is LimitStatus.DIVERGED
    assert math.isnan(est.value)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(-5.0, 5.0), gamma=st.floats(-5.0, 5.0),
       x=st.floats(-1.0, 1.0), k=st.integers(2, 20),
       direction=st.sampled_from([FWD, BWD]))
def test_difference_is_linear(alpha, gamma, x, k, direction):
    eps = 2.0 ** -k
    f = np.sin
    g = np.cos
    combined = lambda t: alpha * f(t) + gamma * g(t)
    lhs = one_sided_difference(combined, x, eps, direction)
    rhs = (alpha * one_sided_difference(f, x, eps, direction)
           + gamma * one_sided_difference(g, x, eps, direction))
    assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(K=st.floats(0.1, 10.0), beta=st.floats(0.1, 1.0),
       x=st.floats(-1.0, 1.0), k=st.integers(2, 20),
       direction=st.sampled_from([FWD, BWD]))
def test_variation_scales_with_the_prefactor(K, beta, x, k, direction):
    eps = 2.0 ** -k
    f = np.sin
    scaled = lambda t: K * f(t)
    lhs = variation_values(scaled, x, beta, direction, [eps])[0]
    rhs = K * variation_values(f, x, beta, direction, [eps])[0]
    # rounding K*f before the subtraction costs a few ulp of K|f|,
    # amplified by the cancellation and the eps**-beta scaling
    slack = 8.0 * np.finfo(float).eps * K / eps ** beta
    assert abs(lhs - rhs) <= slack


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-1.0, 1.0), k=st.integers(2, 12),
       n=st.integers(3, 65), direction=st.sampled_from([FWD, BWD]))
def test_refined_oscillation_never_shrinks(x, k, n, direction):
    # doubling to 2n-1 samples keeps every coarse point, so the sup
    # over samples is monotone in the refinement, bit for bit
    eps = 2.0 ** -k
    coarse = osc_sampled(np.sin, x, eps, direction, n)
    fine = osc_sampled(np.sin, x, eps, direction, 2 * n - 1)
    assert fine >= coarse


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-1.0, 1.0), k=st.integers(2, 12),
       direction=st.sampled_from([FWD, BWD]))
def test_oscillation_dominates_the_difference(x, k, direction):
    eps = 2.0 ** -k
    osc = _osc_ladder(np.sin, x, [eps], (direction,), 33, cap=33)[0][0, 0]
    assert osc >= abs(one_sided_difference(np.sin, x, eps, direction)) - 1e-12


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.2, 0.9))
def test_holder_regression_recovers_pure_power_laws(beta):
    f = make_power_cusp(0.0, beta, 1.0, 0.0)
    est = estimate_holder_exponent(f, 0.0, FWD)
    assert est.exponent == pytest.approx(beta, abs=0.01)
    assert est.r_squared > 0.999


@settings(max_examples=40, deadline=None)
@given(chirp=st.booleans(), a=st.floats(-1.0, 1.0), order=st.floats(0.1, 0.9),
       K=st.floats(0.1, 5.0), u=st.floats(-1.5, 1.5), beta=st.floats(0.05, 1.0),
       tol=st.sampled_from([1e-6, 1e-4, 1e-2]), direction=st.sampled_from([FWD, BWD]))
def test_velocity_limit_is_the_reported_limit(chirp, a, order, K, u, beta, tol,
                                              direction):
    # the limit alone, side conditions skipped, is the full report's limit
    f = make_chirp(order, a) if chirp else make_power_cusp(a, order, K, 0.0)
    x = a + u
    rep = estimate_velocity(f, x, beta, direction, tol=tol)
    assert velocity_limit(f, x, beta, direction, tol=tol) == rep.limit


def _member(kind, order, u, freq):
    """A cusp, chirp or Weierstrass evaluator of the given order, and a point."""
    if kind == "cusp":
        return make_power_cusp(0.0, order, 1.0, 0.0), u
    if kind == "chirp":
        return make_chirp(order, 0.0), (u if u > 0.25 else 0.0)
    return make_weierstrass(order / freq + 1.0 / freq, freq), u


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cusp", "chirp", "weierstrass"]),
       order=st.floats(0.1, 0.9), u=st.floats(-0.5, 0.5),
       freq=st.integers(2, 4), beta=st.floats(0.05, 1.0),
       direction=st.sampled_from([FWD, BWD]))
def test_batched_oscillations_equal_the_per_increment_ladder(kind, order, u, freq,
                                                             beta, direction):
    # c1 and the Holder fit read the same oscillations, bit for bit, as
    # when every annulus is refined alone on full grids and then folded
    f, x = _member(kind, order, u, freq)

    def outcomes():
        out = [estimate_velocity(f, x, beta, direction)]
        try:
            out.append(estimate_holder_exponent(f, x, direction))
        except LocallyConstantError as e:   # the chirp's flat side
            out.append(str(e))
        return repr(out)

    got = outcomes()
    with mock.patch.object(diffops, "_osc_ladder", reference_ladder):
        assert got == outcomes()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cusp", "chirp", "weierstrass"]),
       order=st.floats(0.1, 0.9), u=st.floats(-0.5, 0.5),
       freq=st.integers(2, 4), ratio=st.floats(0.1, 0.9),
       direction=st.sampled_from([FWD, BWD]))
def test_oscillation_never_increases_as_the_window_shrinks(kind, order, u, freq,
                                                           ratio, direction):
    # each window holds the deeper ones, so its sampled oscillation holds
    # theirs; and no sample leaves the largest window, at any ratio
    f, x = _member(kind, order, u, freq)
    eps = EpsilonSchedule(2.0 ** -4, ratio, 40).increments(x)
    seen = []

    def recorded(t):
        seen.append(np.array(t))
        return f(t)

    recorded.domain = f.domain
    value = _osc_ladder(recorded, x, eps, (direction,))[0][0]
    assert np.all(np.diff(value) <= 0.0)
    t = np.concatenate(seen)
    if direction is FWD:
        assert x <= t.min() and t.max() <= x + eps[0]
    else:
        assert x - eps[0] <= t.min() and t.max() <= x


def _zoo_member(kind, order, freq):
    if kind == "cusp":
        return make_power_cusp(0.25, order, 1.5, -0.5)
    if kind == "chirp":
        return make_chirp(order, 0.25)
    if kind == "poly":
        return make_polynomial((0.5, -1.0, order, 2.0))
    # long and short truncations: 30, 8 and 24 terms by frequency
    return make_weierstrass(order / freq + 1.0 / freq, freq, (30, 8, 24)[freq - 2])


def _one_side_alone(f, x, beta, direction, schedule, tol):
    """estimate_velocity's report from velocity_limit and reference_ladder,
    with c1 restated from the ladder's growth ratios."""
    limit = velocity_limit(f, x, beta, direction, schedule, tol)
    eps = schedule.increments(x)
    growth = reference_ladder(f, x, eps, (direction,))[0][0] / eps ** beta
    c1 = float(np.max(growth)) if np.all(np.isfinite(growth)) else math.inf
    half = math.ceil(eps.size / 2)
    shallow_ref, deep_max = float(np.max(growth[:-half])), float(np.max(growth[-half:]))
    holds = deep_max <= C1_RATIO_CUTOFF * shallow_ref if shallow_ref > 0.0 else deep_max == 0.0
    return VelocityReport(float(x), float(beta), direction, limit, c1, holds)


def _outcome(run):
    try:
        return repr(run())
    except Exception as e:
        return repr(e)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cusp", "chirp", "poly", "weierstrass"]),
       order=st.floats(0.1, 0.9), freq=st.integers(2, 4), u=st.floats(0.0, 1.0),
       singular=st.booleans(), beta=st.floats(0.05, 1.0), ratio=st.floats(0.1, 0.9),
       tol=st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_both_sides_in_one_ladder_equal_each_side_alone(kind, order, freq, u, singular,
                                                        beta, ratio, tol):
    # both sides share the ladder's evaluator calls, and their variations
    # come from its first grid; x anywhere in the domain, so a window may
    # leave it, and then the first side that leaves names the error
    f = _zoo_member(kind, order, freq)
    lo, hi = f.domain
    x = 0.25 if singular else lo + u * (hi - lo)
    schedule = EpsilonSchedule(2.0 ** -4, ratio, 40)
    got = _outcome(lambda: _velocity_reports(f, x, beta, (FWD, BWD), schedule.increments(x),
                                             tol))
    want = _outcome(lambda: [_one_side_alone(f, x, beta, d, schedule, tol) for d in (FWD, BWD)])
    assert got == want


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cusp", "chirp", "poly", "weierstrass"]),
       order=st.floats(0.1, 0.9), freq=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 80),
       start=st.integers(0, 79))
def test_zoo_members_give_a_point_the_same_bits_in_any_array_call(kind, order, freq,
                                                                   seed, size, start):
    # 0-d scalars are left out: numpy may round a 0-d power differently,
    # and the library never passes one.
    # The points are drawn by numpy: simple floats evaluate exactly.
    f = _zoo_member(kind, order, freq)
    lo, hi = f.domain
    t = np.random.default_rng(seed).uniform(lo, hi, size)
    t[0] = 0.25   # the cusp and the chirp's singular point
    whole = f(t)
    for i in range(size):
        assert same_bits(f(t[i:i + 1]), whole[i:i + 1])
    start %= size
    for stop in range(start + 1, size + 1):
        assert same_bits(f(t[start:stop]), whole[start:stop])
    m = size - size % 2
    assert same_bits(f(t[:m].reshape(2, -1)), whole[:m].reshape(2, -1))


_SAMPLE_XS = np.linspace(-2.0, 2.0, 4097)

# every zoo member and a file: evaluator, sampled from a cusp and a sine
VARIATION_MEMBERS = [*default_zoo(), SampledFunction(
    "file:samples", _SAMPLE_XS,
    np.abs(_SAMPLE_XS - 0.25) ** 0.3 + np.sin(7.0 * _SAMPLE_XS))]


@settings(max_examples=80, deadline=None)
@given(member=st.integers(0, len(VARIATION_MEMBERS) - 1),
       seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 40),
       beta=st.floats(0.1, 1.0), count=st.integers(4, 40),
       direction=st.sampled_from([FWD, BWD]))
def test_batched_variation_rows_equal_the_one_point_call(member, seed, size, beta,
                                                         count, direction):
    f = VARIATION_MEMBERS[member]
    eps = EpsilonSchedule(2.0 ** -4, 0.5, count).raw()
    lo, hi = f.domain
    xs = np.random.default_rng(seed).uniform(lo + eps[0], hi - eps[0], size)
    xs[0] = f.marks[0].x if getattr(f, "marks", ()) else 0.25
    rows = variation_values(f, xs, beta, direction, eps)
    assert rows.shape == (size, count)
    for x, row in zip(xs.tolist(), rows):
        assert same_bits(variation_values(f, x, beta, direction, eps), row)


def _hump(t):
    return -np.abs(np.asarray(t, dtype=float) - 0.5) ** 0.5


def _far_hump(t):
    return -np.abs(np.asarray(t, dtype=float) - 2.0) ** 0.5


# (function, the centre of its symmetric intervals)
VERIFIER_FUNCTIONS = {
    "cusp": (make_power_cusp(0.0, 0.5, 1.0, 0.0), 0.0),
    "chirp": (make_chirp(0.5, 0.0), 0.0),
    "poly": (make_polynomial((0.0, 1.0, -1.0)), 0.5),
    # the domain leaves the schedule no room near its ends
    "narrow": (AnalyticTestFunction("narrow-hump", (-0.01, 1.01), _hump, ()), 0.5),
    # past |x| = 1 the ladders run 35 to 39 increments long, and near both
    # ends the probes need fitted schedules, so one batch mixes both
    "far": (AnalyticTestFunction("far-hump", (0.99, 3.01), _far_hump, ()), 2.0),
}


def _verdict(theorem, f, a, b, beta, n, target, schedule):
    try:
        if theorem == "rolle":
            return verify_rolle(f, a, b, beta, n, schedule)
        if theorem == "mean_value":
            return verify_mean_value(f, a, b, beta, schedule, grid_n=n)
        return verify_weak_darboux(f, a, b, beta, n, schedule, target=target)
    except Exception as e:
        return type(e), str(e)


def _pointwise_limits(f, xs, forward, beta, schedule, tol):
    """_batch_limits by its definition: each probe in turn, through
    velocity_limit with the schedule fitted to its margin, up to the first
    probe that raises.  A probe past the domain's far end keeps the whole
    schedule, whose window leaves the domain."""
    lo, hi = f.domain
    status = np.full(xs.size, None, dtype=object)
    value = np.full(xs.size, np.nan)
    for i, (x, fwd) in enumerate(zip(xs.tolist(), forward.tolist())):
        margin = hi - x if fwd else x - lo
        fit = schedule if margin < 0.0 else schedule.fitted(margin=margin)
        if fit is not None:
            try:
                lim = velocity_limit(f, x, beta, FWD if fwd else BWD, fit, tol)
            except Exception as err:
                return status, value, i, err
            status[i], value[i] = lim.status, lim.value
    return status, value, xs.size, None


def _replays(run):
    """run() as batched, with every batch refused, and probe by probe."""
    batched = run()
    with mock.patch.object(scanner, "variation_values",
                           side_effect=RuntimeError("batch refused")):
        replayed = run()
    with mock.patch.object(scanner, "_batch_limits", _pointwise_limits):
        pointwise = run()
    return batched, replayed, pointwise


# ratio 0.97 fits re-based ladders whose entries differ from raw()'s in
# their last bits; at ratio 0.5 the ladders reach the round-off floor,
# which past |x| = 1 cuts them shorter
SCHEDULES = st.builds(EpsilonSchedule, st.sampled_from([2.0 ** -4, 0.1]),
                      st.sampled_from([0.5, 0.97]))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(VERIFIER_FUNCTIONS)),
       theorem=st.sampled_from(["rolle", "mean_value", "weak_darboux"]),
       symmetric=st.booleans(), u=st.floats(-0.1, 1.1), v=st.floats(-0.1, 1.1),
       beta=st.sampled_from([0.3, 0.5, 0.75, 1.0]), n=st.integers(3, 21),
       target=st.none() | st.floats(-2.0, 2.0), schedule=SCHEDULES)
# forward probes from 2.95 to 3 on the far hump: many fits, each ladder
# cut by the floor at |x| near 3, re-based exactly at ratio 0.5 and with
# new last bits at ratio 0.97
@example(name="far", theorem="weak_darboux", symmetric=False, u=0.97, v=1.0, beta=0.5,
         n=21, target=None, schedule=EpsilonSchedule(2.0 ** -4, 0.5))
@example(name="far", theorem="mean_value", symmetric=False, u=0.97, v=1.0, beta=0.3,
         n=21, target=None, schedule=EpsilonSchedule(0.1, 0.97))
# the forward probe at 1.9375 ends its window at the domain's end, 2, exactly
@example(name="cusp", theorem="weak_darboux", symmetric=False, u=0.75, v=1.0, beta=0.5,
         n=17, target=None, schedule=EpsilonSchedule())
# past x = 4 the first forward probe leaves the domain
@example(name="poly", theorem="rolle", symmetric=True, u=1.05, v=0.0, beta=0.5,
         n=301, target=None, schedule=EpsilonSchedule())
def test_verifier_verdicts_equal_their_pointwise_replay(name, theorem, symmetric, u, v,
                                                         beta, n, target, schedule):
    # a batch that cannot run replays every probe through velocity_limit,
    # the point-by-point definition of each verdict, which also gives it
    # when every probe is answered by itself; an interval past the domain
    # has probes whose windows leave it
    f, centre = VERIFIER_FUNCTIONS[name]
    lo, hi = f.domain
    if symmetric or theorem == "rolle":   # Rolle needs f(a) = f(b)
        h = max(u, v) * min(centre - lo, hi - centre)
        a, b = centre - h, centre + h
    else:
        a, b = lo + min(u, v) * (hi - lo), lo + max(u, v) * (hi - lo)
    assume(a < b)
    batched, replayed, pointwise = _replays(
        lambda: _verdict(theorem, f, a, b, beta, n, target, schedule))
    assert batched == replayed == pointwise


def _scan(f, a, b, beta, n, tol, schedule):
    try:
        return repr(scan_change_set(f, (a, b), beta, n, schedule=schedule, tol=tol))
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(VERIFIER_FUNCTIONS)),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       beta=st.sampled_from([0.3, 0.5, 0.75, 1.0]), n=st.integers(3, 21),
       tol=st.sampled_from([1e-4, 1e-6, math.nan]), schedule=SCHEDULES)
def test_scan_reports_equal_their_pointwise_replay(name, u, v, beta, n, tol, schedule):
    # a scan whose batch cannot run answers every probe through
    # velocity_limit, and gives the batched report or raises its error
    f, _ = VERIFIER_FUNCTIONS[name]
    lo, hi = f.domain
    a, b = lo + min(u, v) * (hi - lo), lo + max(u, v) * (hi - lo)
    assume(a < b)
    batched, replayed, pointwise = _replays(lambda: _scan(f, a, b, beta, n, tol, schedule))
    assert batched == replayed == pointwise
