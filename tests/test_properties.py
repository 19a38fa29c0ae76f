"""Invariant checks under randomized inputs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvel import (
    Direction,
    EpsilonSchedule,
    LimitStatus,
    LocallyConstantError,
    check_conditions,
    classify_limit,
    difference,
    estimate_holder_exponent,
    estimate_velocity,
    fractional_variation,
    make_chirp,
    make_power_cusp,
    taylor_residual,
    velocity_limit,
)
from common import SummedWeierstrass, osc_sampled, reference_ladder, same_bits
from fracvel import diffops
from fracvel.diffops import _osc_ladder
from fracvel.estimator import FLOOR_FACTOR

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


@settings(max_examples=30, deadline=None)
@given(eps0=st.floats(1e-6, 1.0), ratio=st.floats(0.1, 0.9),
       count=st.integers(4, 60), x=st.floats(-100.0, 100.0))
def test_schedule_invariants(eps0, ratio, count, x):
    sched = EpsilonSchedule(eps0, ratio, count)
    raw = sched.raw()
    assert raw.size == count
    assert raw[0] == eps0
    assert np.all(np.diff(raw) < 0.0)
    eps = sched.increments(x)
    floor = FLOOR_FACTOR * np.finfo(float).eps * max(1.0, abs(x))
    assert np.all(eps > floor)
    assert eps.size >= 4


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
    lhs = difference(combined, x, eps, direction)
    rhs = (alpha * difference(f, x, eps, direction)
           + gamma * difference(g, x, eps, direction))
    assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(K=st.floats(0.1, 10.0), beta=st.floats(0.1, 1.0),
       x=st.floats(-1.0, 1.0), k=st.integers(2, 20),
       direction=st.sampled_from([FWD, BWD]))
def test_variation_scales_with_the_prefactor(K, beta, x, k, direction):
    eps = 2.0 ** -k
    f = np.sin
    scaled = lambda t: K * f(t)
    lhs = fractional_variation(scaled, x, eps, beta, direction)
    rhs = K * fractional_variation(f, x, eps, beta, direction)
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
    osc = _osc_ladder(np.sin, x, [eps], direction, 33, cap=33)[0][0]
    assert osc >= abs(difference(np.sin, x, eps, direction)) - 1e-12


@settings(max_examples=30, deadline=None)
@given(K=st.floats(0.5, 4.0), beta=st.floats(0.2, 0.9),
       k=st.integers(2, 20), direction=st.sampled_from([FWD, BWD]))
def test_residual_vanishes_at_the_true_velocity(K, beta, k, direction):
    f = make_power_cusp(0.0, beta, K, 0.0)
    v = K  # both one-sided velocities of the cusp
    r = taylor_residual(f, 0.0, beta, v, 2.0 ** -k, direction)
    assert r <= 1e-9


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
    return SummedWeierstrass(order / freq + 1.0 / freq, freq), u


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cusp", "chirp", "weierstrass"]),
       order=st.floats(0.1, 0.9), u=st.floats(-0.5, 0.5),
       freq=st.integers(2, 4), beta=st.floats(0.05, 1.0),
       tol=st.sampled_from([1e-6, 1e-4, 1e-2]), direction=st.sampled_from([FWD, BWD]))
def test_conditions_are_the_velocity_report(kind, order, u, freq, beta, tol, direction):
    # check_conditions reads the same c1 constant and c2 residual as
    # estimate_velocity, and c2 holds exactly when the limit converged
    f, x = _member(kind, order, u, freq)
    rep = estimate_velocity(f, x, beta, direction, tol=tol)
    cond = check_conditions(f, x, beta, direction, tol=tol)
    assert same_bits(cond.c1_constant, rep.c1_constant)
    assert same_bits(cond.c2_value, rep.c2_oscillation)
    assert same_bits(rep.c2_oscillation, rep.limit.residual)
    assert cond.c2_holds == (rep.limit.status is LimitStatus.CONVERGED)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cusp", "chirp", "weierstrass"]),
       order=st.floats(0.1, 0.9), u=st.floats(-0.5, 0.5),
       freq=st.integers(2, 4), beta=st.floats(0.05, 1.0),
       direction=st.sampled_from([FWD, BWD]))
def test_batched_oscillations_equal_the_per_increment_ladder(kind, order, u, freq,
                                                             beta, direction):
    # c1 and the Holder fit read the same oscillations, bit for bit, as
    # when every window is refined alone on full grids
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
