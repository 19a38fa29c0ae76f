import math

import numpy as np
import pytest

from common import SCHED24
from fracvel import (
    Direction,
    EpsilonSchedule,
    HolderEstimate,
    LimitStatus,
    LocallyConstantError,
    ScheduleUnderflowError,
    classify_limit,
    estimate_holder_exponent,
    estimate_velocity,
    make_chirp,
    make_polynomial,
    make_power_cusp,
    make_weierstrass,
)

FWD = Direction.FORWARD
BWD = Direction.BACKWARD


class TestEpsilonSchedule:
    def test_default_keeps_39_steps_near_origin(self):
        eps = EpsilonSchedule().increments(0.0)
        assert eps.size == 39
        assert eps[0] == 2.0 ** -4
        assert eps[-1] == 2.0 ** -42
        assert np.all(np.diff(eps) < 0.0)

    def test_floor_scales_with_abscissa(self):
        eps = EpsilonSchedule().increments(1.0e6)
        floor = 1e3 * np.finfo(float).eps * 1.0e6
        assert np.all(eps > floor)
        raw = EpsilonSchedule().raw()
        assert eps.size == int(np.sum(raw > floor))

    def test_fitted_returns_self_when_nothing_is_cut(self):
        sched = EpsilonSchedule(2.0 ** -4, 0.5, 6)
        assert sched.fitted() is sched
        assert sched.fitted(floor=2.0 ** -10, margin=2.0 ** -4) is sched

    def test_fitted_cuts_at_the_floor(self):
        sched = EpsilonSchedule().fitted(floor=2.0 ** -20)
        assert sched == EpsilonSchedule(2.0 ** -4, 0.5, 16)
        assert np.array_equal(sched.raw(), EpsilonSchedule().raw()[:16])

    def test_fitted_cuts_at_the_margin(self):
        sched = EpsilonSchedule().fitted(margin=0.01)
        assert sched == EpsilonSchedule(2.0 ** -7, 0.5, 37)

    def test_fitted_keeps_at_least_eight(self):
        # floor and margin are exclusive and inclusive ends
        assert EpsilonSchedule().fitted(floor=2.0 ** -11) is None
        assert EpsilonSchedule().fitted(floor=2.0 ** -12).count == 8
        assert EpsilonSchedule(2.0 ** -4, 0.5, 12).fitted(margin=2.0 ** -9) is None
        assert EpsilonSchedule(2.0 ** -4, 0.5, 12).fitted(margin=2.0 ** -8).count == 8

    def test_underflow_raises(self):
        with pytest.raises(ScheduleUnderflowError):
            EpsilonSchedule(1e-12, 0.5, 8).increments(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(-1.0, 0.5, 40)
        with pytest.raises(ValueError):
            EpsilonSchedule(0.1, 1.0, 40)
        with pytest.raises(ValueError):
            EpsilonSchedule(0.1, 0.5, 2)


class TestClassifyLimit:
    def test_constant_sequence_converges(self):
        est = classify_limit(np.full(12, 1.25), tol=1e-9)
        assert est.status is LimitStatus.CONVERGED
        assert est.value == 1.25
        assert est.residual == 0.0
        assert len(est.tail_values) == 4

    def test_value_is_deepest_entry(self):
        vals = np.linspace(1.0, 0.0, 16)  # still shrinking: oscillatory
        est = classify_limit(vals, tol=1e-6)
        assert est.status is LimitStatus.OSCILLATORY
        assert est.value == vals[-1]

    def test_alternating_is_oscillatory(self):
        vals = np.resize([1.0, -1.0], 20)
        est = classify_limit(vals, tol=0.5)
        assert est.status is LimitStatus.OSCILLATORY
        assert est.residual == 2.0

    def test_tie_counts_as_converged(self):
        vals = np.array([9.0, 9.0, 9.0, 9.0, 0.0, 1e-3, 0.0, 1e-3])
        est = classify_limit(vals, tol=1e-3)
        assert est.status is LimitStatus.CONVERGED

    def test_nan_diverges(self):
        vals = np.ones(12)
        vals[3] = np.nan
        est = classify_limit(vals, tol=1.0)
        assert est.status is LimitStatus.DIVERGED
        assert math.isnan(est.value)

    def test_huge_tail_diverges(self):
        # the magnitude cutoff wins even when the spread is within tol
        vals = np.concatenate([np.ones(8), np.full(4, 5e12)])
        est = classify_limit(vals, tol=1e15)
        assert est.status is LimitStatus.DIVERGED

    def test_window_is_quarter_of_long_sequences(self):
        vals = np.concatenate([np.full(30, 7.0), np.full(10, 2.0)])
        est = classify_limit(vals, tol=1e-12)
        assert len(est.tail_values) == 10
        assert est.status is LimitStatus.CONVERGED
        assert est.value == 2.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            classify_limit([1.0, 2.0, 3.0], tol=1.0)

    def test_bad_tol_raises(self):
        with pytest.raises(ValueError):
            classify_limit(np.ones(8), tol=-1.0)


class TestEstimateVelocity:
    def test_cusp_exact_both_sides(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        for d in (FWD, BWD):
            rep = estimate_velocity(f, 0.0, 0.5, d)
            assert rep.limit.status is LimitStatus.CONVERGED
            assert rep.limit.value == 1.0
            assert rep.limit.residual == 0.0
            assert rep.c2_oscillation == 0.0
            assert rep.c1_constant == 1.0

    def test_cusp_strength_and_order_vary(self):
        # the c0=1 offset costs a few ulps of cancellation in f(x+eps)-f(x)
        f = make_power_cusp(0.5, 0.3, -2.0, 1.0)
        rep = estimate_velocity(f, 0.5, 0.3, FWD)
        assert rep.limit.value == pytest.approx(-2.0, rel=1e-11)

    def test_off_cusp_vanishes(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        rep = estimate_velocity(f, 0.5, 0.5, FWD, tol=1e-5)
        assert rep.limit.status is LimitStatus.CONVERGED
        assert abs(rep.limit.value) <= 1e-6

    def test_chirp_critical_order_oscillates(self):
        # the variation at eps = 2**-(4+k) is sin(2**(4+k)); 39 increments
        # stay above the floor at x=0, and the classification window holds
        # the deepest 9, k = 30..38, whose closed-form max - min is frozen
        f = make_chirp(0.5, 0.0)
        rep = estimate_velocity(f, 0.0, 0.5, FWD)
        assert rep.limit.status is LimitStatus.OSCILLATORY
        assert rep.c2_oscillation == pytest.approx(1.9732486029031577, abs=1e-9)

    def test_chirp_backward_is_flat(self):
        f = make_chirp(0.5, 0.0)
        rep = estimate_velocity(f, 0.0, 0.5, BWD)
        assert rep.limit.status is LimitStatus.CONVERGED
        assert rep.limit.value == 0.0

    def test_order_one_matches_derivative(self):
        f = make_polynomial((0.0, 0.0, 1.0))
        rep = estimate_velocity(f, 1.5, 1.0, FWD, SCHED24, tol=1e-4)
        assert rep.limit.status is LimitStatus.CONVERGED
        assert rep.limit.value == pytest.approx(3.0, abs=1e-5)

    def test_converged_implies_residual_within_tol(self):
        members = [make_power_cusp(0.0, 0.5, 1.0, 0.0),
                   make_chirp(0.5, 0.0),
                   make_weierstrass(0.5, 3, 24)]
        for f in members:
            for x in (0.0, 0.3):
                rep = estimate_velocity(f, x, 0.5, FWD, tol=1e-4)
                if rep.limit.status is LimitStatus.CONVERGED:
                    assert rep.limit.residual <= 1e-4

    def test_report_carries_context(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        rep = estimate_velocity(f, 0.0, 0.5, BWD)
        assert rep.x == 0.0
        assert rep.beta == 0.5
        assert rep.direction is BWD


class TestCheckConditions:
    """The paper's two side conditions as estimate_velocity reports them."""

    def test_chirp_critical(self):
        f = make_chirp(0.5, 0.0)
        rep = estimate_velocity(f, 0.0, 0.5, FWD)
        assert rep.c1_holds           # growth stays bounded near 2
        assert rep.c1_constant == pytest.approx(1.9840843438048452, abs=1e-9)
        assert rep.limit.status is not LimitStatus.CONVERGED   # c2 fails
        assert rep.c2_oscillation > 1.5

    def test_cusp_satisfies_both(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        rep = estimate_velocity(f, 0.0, 0.5, FWD)
        assert rep.c1_holds and rep.limit.status is LimitStatus.CONVERGED
        assert rep.c1_constant == 1.0
        assert rep.c2_oscillation == 0.0

    def test_jump_breaks_growth_bound(self):
        # a unit jump at x keeps osc at 1, so osc/eps**beta blows up
        def step(t):
            return (np.asarray(t, dtype=float) > 0.0).astype(float)
        rep = estimate_velocity(step, 0.0, 0.5, FWD)
        assert not rep.c1_holds
        assert rep.limit.status is not LimitStatus.CONVERGED

    def test_weierstrass_growth_bound_tracks_exponent(self):
        # far above the regularity ~0.63 the growth factor over the schedule
        # is 2**(38*(0.9-0.63)) and the bound clearly fails; at the exponent
        # itself the ratios stay near constant
        f = make_weierstrass(0.5, 3, 24)
        rep = estimate_velocity(f, 0.3, 0.9, FWD)
        assert not rep.c1_holds
        rep = estimate_velocity(f, 0.3, np.log(2.0) / np.log(3.0), FWD)
        assert rep.c1_holds

    def test_nan_patch_reads_as_estimate_velocity_does(self):
        # NaN on (0.01, 0.011) falls inside the widest oscillation windows
        # but on no probe increment: the limit converges while c1 is inf
        # and, with a NaN ratio in the shallow half, cannot hold
        def patched(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 0.01) & (t < 0.011), math.nan, np.abs(t) ** 0.5)
        rep = estimate_velocity(patched, 0.0, 0.5, FWD)
        assert rep.limit.status is LimitStatus.CONVERGED
        assert rep.c1_constant == math.inf
        assert not rep.c1_holds
        assert rep.c2_oscillation == rep.limit.residual == 0.0

    def test_diverged_limit_has_no_c2(self):
        # a unit jump at x gives variations 1/eps, past the cutoff at 2**-42
        def step(t):
            return (np.asarray(t, dtype=float) > 0.0).astype(float)
        rep = estimate_velocity(step, 0.0, 1.0, FWD)
        assert rep.limit.status is LimitStatus.DIVERGED
        assert math.isnan(rep.c2_oscillation)

    def test_smooth_point_passes(self):
        f = make_polynomial((0.0, 0.0, 1.0))
        rep = estimate_velocity(f, 1.0, 1.0, FWD, SCHED24, tol=1e-4)
        assert rep.c1_holds and rep.limit.status is LimitStatus.CONVERGED

    def test_all_zero_ratios_hold(self):
        # a locally constant f has zero oscillation everywhere: the shallow
        # half gives no scale, and an all-zero deep half holds
        rep = estimate_velocity(lambda t: np.full_like(np.asarray(t, dtype=float), 3.0),
                                0.0, 0.5, FWD)
        assert rep.c1_holds and rep.c1_constant == 0.0


class TestHolderExponent:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_cusp_recovers_order(self, beta):
        f = make_power_cusp(0.0, beta, 1.0, 0.0)
        est = estimate_holder_exponent(f, 0.0, FWD)
        assert est.exponent == pytest.approx(beta, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not est.low_confidence
        assert not est.superlinear

    def test_constant_prefactor_recovered(self):
        f = make_power_cusp(0.0, 0.5, 3.0, 1.0)
        est = estimate_holder_exponent(f, 0.0, FWD)
        assert est.constant == pytest.approx(3.0, rel=1e-9)

    def test_smooth_point_reads_linear(self):
        f = make_polynomial((0.0, 0.0, 1.0))
        est = estimate_holder_exponent(f, 2.0, FWD, SCHED24)
        assert est.exponent == pytest.approx(1.0, abs=1e-3)

    def test_quadratic_flat_point_clips_superlinear(self):
        f = make_polynomial((0.0, 0.0, 1.0))
        est = estimate_holder_exponent(f, 0.0, FWD, SCHED24)
        assert est.exponent == 1.5
        assert est.superlinear

    def test_locally_constant_raises(self):
        with pytest.raises(LocallyConstantError):
            estimate_holder_exponent(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                                     0.0, FWD)

    def test_scale_range_reports_fit_window(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        sched = EpsilonSchedule(2.0 ** -6, 0.5, 15)
        est = estimate_holder_exponent(f, 0.0, FWD, sched)
        assert est.scale_range == (2.0 ** -20, 2.0 ** -6)

    def test_low_confidence_is_r_squared_rule(self):
        est = HolderEstimate(0.4, 1.0, 0.49, (1e-6, 1e-1))
        assert est.low_confidence
        est = HolderEstimate(0.4, 1.0, 0.51, (1e-6, 1e-1))
        assert not est.low_confidence
