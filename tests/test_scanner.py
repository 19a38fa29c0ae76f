import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from common import SCHED24
from fracvel import (
    AnalyticTestFunction,
    Direction,
    DomainError,
    EpsilonSchedule,
    LimitStatus,
    PreconditionError,
    ScheduleUnderflowError,
    Theorem,
    make_chirp,
    make_polynomial,
    make_power_cusp,
    null_measure_trend,
    scan_change_set,
    verify_mean_value,
    verify_rolle,
    verify_weak_darboux,
    velocity_limit,
)
from fracvel import scanner
from fracvel.diffops import EVAL_CALL_POINTS
from fracvel.estimator import DEFAULT_SCHEDULE

FWD = Direction.FORWARD
BWD = Direction.BACKWARD


def hump(t):
    # equal endpoints on [0, 1] with a sharp maximum at 1/2
    t = np.asarray(t, dtype=float)
    return -np.abs(t - 0.5) ** 0.5


def probes(rep):
    """A scan's probes one by one, each cell under its column's name."""
    return [rep.points._make(row) for row in zip(*rep.points)]


def even_chirp(t):
    # symmetric chirp: equal values at +/-x, oscillatory point at 0
    t = np.asarray(t, dtype=float)
    c = make_chirp(0.5, 0.0)
    return c(t) + c(-t)


class TestScanChangeSet:
    def test_single_cusp_is_the_whole_change_set(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        rep = scan_change_set(f, (-1.0, 1.0), 0.5, 101, flag_threshold=1e-3)
        assert rep.flagged_fraction == 1.0 / 101.0
        assert {x for x, _, _ in rep.flagged} == {0.0}
        assert {d for _, _, d in rep.flagged} == {FWD, BWD}
        for _, v, _ in rep.flagged:
            assert v == 1.0

    def test_smooth_function_scans_empty(self):
        f = make_polynomial((0.0, 1.0))
        rep = scan_change_set(f, (0.0, 1.0), 0.5, 101)
        assert rep.flagged == ()
        assert rep.flagged_fraction == 0.0

    def test_order_one_scan_flags_everything(self):
        f = make_polynomial((0.0, 1.0))
        rep = scan_change_set(f, (0.0, 1.0), 1.0, 51, flag_threshold=0.5,
                              schedule=SCHED24)
        assert rep.flagged_fraction == 1.0
        assert len(rep.points.x) == 2 * 51 - 2  # endpoints probed one-sided

    def test_endpoints_probed_inward_only(self):
        f = make_polynomial((0.0, 1.0))
        rep = scan_change_set(f, (0.0, 1.0), 0.5, 11)
        first = [p for p in probes(rep) if p.x == 0.0]
        last = [p for p in probes(rep) if p.x == 1.0]
        assert [p.direction for p in first] == [FWD]
        assert [p.direction for p in last] == [BWD]

    def test_near_cusp_points_settle_below_the_threshold(self):
        # one grid step from the cusp the deep-tail variation decays like
        # eps^{1/2} |f'|, so the point converges to noise and stays unflagged
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        rep = scan_change_set(f, (-1.0, 1.0), 0.5, 1001, flag_threshold=1e-3)
        by_x = {}
        for p in probes(rep):
            by_x.setdefault(p.x, []).append(p)
        nearest = min(x for x in by_x if x > 0)
        assert nearest == pytest.approx(0.002, abs=1e-12)
        for p in by_x[nearest]:
            assert p.status is LimitStatus.CONVERGED
            assert abs(p.value) < 1e-4
            assert not p.flagged

    def test_domain_margin_enforced(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)  # domain (-2, 2)
        with pytest.raises(DomainError):
            scan_change_set(f, (-2.0, 2.0), 0.5, 11)

    def test_validation(self):
        f = make_polynomial((0.0, 1.0))
        with pytest.raises(ValueError):
            scan_change_set(f, (1.0, 0.0), 0.5, 11)
        with pytest.raises(ValueError):
            scan_change_set(f, (0.0, 1.0), 0.5, 2)


def spike(t):
    # plain callable, infinite at 1/2: the forward row at 1/2 diverges
    # through f(x), the forward row at 7/16 through f(x + 1/16)
    t = np.asarray(t, dtype=float)
    return np.where(t == 0.5, np.inf, t)


def default_ladder(x, forward):
    """Increments a probe at x keeps under the default schedule."""
    return DEFAULT_SCHEDULE.increments(x).size


def call_rows(t, ladder):
    """A recorded evaluator call of a batched velocity path as its probes'
    rows, f(x) first and then each f(x +- eps), given each probe's ladder
    length ladder(x, forward): every row of a call has the first one's."""
    x0, x1 = t.flat[0], t.flat[1]
    rows = np.reshape(t, (-1, ladder(x0, x1 > x0) + 1))
    assert all(ladder(x, x1 > x0) + 1 == rows.shape[1] for x in rows[:, 0].tolist())
    return rows


class TestScanMatchesPointwiseLimits:
    @pytest.mark.parametrize("f, interval, beta, n", [
        # |x| > 1 shortens the usable ladder, so several lengths occur
        (make_power_cusp(0.0, 0.5, 1.0, 0.0), (-1.9, 1.9), 0.5, 77),
        (spike, (0.0, 1.0), 0.5, 17),
        # non-dyadic order and grid: f(x) must stay a scalar evaluation
        (make_power_cusp(0.1, 0.37, 1.3, 0.2), (-1.8, 1.9), 0.37, 214),
        (make_chirp(0.5, 0.0), (-1.5, 1.5), 0.45, 101),
    ])
    def test_every_probe_equals_velocity_limit(self, f, interval, beta, n):
        tol = 1e-4
        rep = scan_change_set(f, interval, beta, n, tol=tol)
        assert len(rep.points.x) == 2 * n - 2
        for p in probes(rep):
            lim = velocity_limit(f, p.x, beta, p.direction, tol=tol)
            assert p.status is lim.status
            assert p.value == lim.value or (math.isnan(p.value) and math.isnan(lim.value))

    def test_grid_covers_several_ladder_lengths(self):
        xs = np.linspace(-1.9, 1.9, 77)
        assert len({DEFAULT_SCHEDULE.increments(x).size for x in xs}) > 1

    def test_each_direction_and_ladder_length_takes_one_call(self):
        # every (direction, ladder length) group of this grid fits
        # EVAL_CALL_POINTS, so each is one call of its rows x (1 + ladder)
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        seen = []

        def counted(t):
            seen.append(np.array(t))
            return f(t)

        counted.domain = f.domain
        scan_change_set(counted, (-1.9, 1.9), 0.5, 77)
        px, forward = scanner._grid_probes(np.linspace(-1.9, 1.9, 77))
        groups = Counter((fwd, DEFAULT_SCHEDULE.increments(x).size)
                         for x, fwd in zip(px.tolist(), forward.tolist()))
        assert len(groups) == 4
        rows = [call_rows(t, default_ladder) for t in seen]
        assert sorted(r.shape for r in rows) == sorted((n, k + 1) for (_, k), n in groups.items())
        assert max(r.size for r in rows) <= EVAL_CALL_POINTS
        bases = np.concatenate([r[:, 0] for r in rows])
        assert sorted(bases.tolist()) == sorted(px.tolist())

    def test_deep_schedule_scan_holds_no_probes_by_steps_table(self):
        # 8,192 probes by 1,024 steps would be 64 MiB of floats; ladder
        # lengths are searched for in each fit's ladder instead
        tracemalloc.start()
        try:
            scan_change_set(make_power_cusp(), (-1, 1), 0.5, 4097,
                            schedule=EpsilonSchedule(2 ** -4, 0.97, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_diverging_rows_reported(self):
        rep = scan_change_set(spike, (0.0, 1.0), 0.5, 17)
        diverged = {(p.x, p.direction) for p in probes(rep)
                    if p.status is LimitStatus.DIVERGED}
        assert {(0.5, FWD), (0.5, BWD), (0.4375, FWD), (0.5625, BWD)} <= diverged

    def test_scans_with_diverged_probes_compare_equal(self):
        # each diverged value is the math.nan object, so == holds by identity
        rep = scan_change_set(spike, (0.0, 1.0), 0.5, 17)
        assert rep == scan_change_set(spike, (0.0, 1.0), 0.5, 17)
        diverged = [v for v, status in zip(rep.points.value, rep.points.status)
                    if status is LimitStatus.DIVERGED]
        assert diverged and all(v is math.nan for v in diverged)

    @pytest.mark.parametrize("interval, first_bad", [
        ((0.0, 1e12), 1e11),
        ((-5e11, 5e11), -5e11),
        ((1.1e14, 1.2e14), 1.1e14),
    ])
    def test_underflow_far_from_origin_names_the_first_failing_point(
            self, interval, first_bad):
        f = make_polynomial((0.0, 1.0), (-1e15, 1e15))
        with pytest.raises(ScheduleUnderflowError) as expected:
            velocity_limit(f, first_bad, 0.5, FWD, tol=1e-4)
        with pytest.raises(ScheduleUnderflowError) as got:
            scan_change_set(f, interval, 0.5, 11)
        assert str(got.value) == str(expected.value)
        assert f"at x={first_bad:g}" in str(got.value)

    def test_underflow_evaluates_no_probe_from_the_failing_one_on(self):
        # every probe before the first short ladder is evaluated, in its
        # batch, and nothing at or past that probe reaches the evaluator
        f = make_polynomial((0.0, 1.0), (-1e12, 1e12))
        seen = []

        def recorded(t):
            seen.append(np.array(t))
            return f(t)

        recorded.domain = f.domain
        n = 2000
        px, forward = scanner._grid_probes(np.linspace(1e9, 1e11, n))

        def underflows(x):
            try:
                DEFAULT_SCHEDULE.increments(x)
            except ScheduleUnderflowError:
                return True
            return False

        stop = next(i for i, x in enumerate(px.tolist()) if underflows(x))
        with pytest.raises(ScheduleUnderflowError) as expected:
            velocity_limit(f, px[stop], 0.5, FWD if forward[stop] else BWD, tol=1e-4)
        with pytest.raises(ScheduleUnderflowError) as got:
            scan_change_set(recorded, (1e9, 1e11), 0.5, n)
        assert str(got.value) == str(expected.value)
        assert 0 < stop < len(px) - 1
        # each call holds its probes' rows, whose first column is the
        # probes' own abscissae
        bases = np.concatenate([call_rows(t, default_ladder)[:, 0] for t in seen])
        assert sorted(bases.tolist()) == sorted(px[:stop].tolist())
        assert np.concatenate([t.ravel() for t in seen]).max() < px[stop]

    def test_window_leaving_the_domain_evaluates_no_probe_from_the_failing_one_on(
            self, monkeypatch):
        # the first forward probe past x = 4 lies outside the domain and
        # fails by itself, as the backward one beside it would: the probes
        # before it are evaluated in their batch, and nothing at or past it is
        f = make_polynomial((0.09, -0.6, 1.0))
        seen = []

        def recorded(t):
            seen.append(np.array(t))
            return f(t)

        recorded.domain = f.domain
        replayed = []

        def counted_limit(f, x, *args, **kwargs):
            replayed.append(x)
            return velocity_limit(f, x, *args, **kwargs)

        monkeypatch.setattr(scanner, "velocity_limit", counted_limit)
        n = 1001
        px, forward = scanner._both_sides(np.linspace(-3.9, 4.5, n)[1:-1])
        stop = int(np.argmax(px > 4.0))
        assert forward[stop] and px[stop + 1] == px[stop]
        with pytest.raises(DomainError) as expected:
            velocity_limit(f, px[stop], 0.5, FWD, tol=1e-3)
        assert str(expected.value) == ("probe of width 0.0625 at x=4.0044 (forward) "
                                       "leaves the domain [-4, 4]")
        with pytest.raises(DomainError) as got:
            verify_rolle(recorded, -3.9, 4.5, 0.5, n)
        assert str(got.value) == str(expected.value)
        # the endpoint values come first, one float each; then every call
        # holds its probes' rows, whose first column is the probes' own
        # abscissae; the one pointwise velocity_limit is the failing
        # probe's, which raises before evaluating
        assert [t.ndim for t in seen[:2]] == [0, 0]
        batches = seen[2:]
        assert replayed == [px[stop]]   # no probe-by-probe replay

        def fit(x, fwd):
            return DEFAULT_SCHEDULE.fitted(margin=4.0 - x if fwd else x + 4.0)

        room = [fit(x, fwd) is not None
                for x, fwd in zip(px[:stop].tolist(), forward[:stop].tolist())]
        bases = np.concatenate(
            [call_rows(t, lambda x, fwd: fit(x, fwd).increments(x).size)[:, 0]
             for t in batches])
        assert sorted(bases.tolist()) == sorted(px[:stop][room].tolist())
        assert np.concatenate([t.ravel() for t in batches]).max() <= 4.0

    def test_a_batch_the_evaluator_refuses_is_replayed(self):
        # calls of one probe's row pass, so the probe-by-probe answers stand
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        row = DEFAULT_SCHEDULE.increments(0.0).size + 1   # f(x) and f(x +- eps)

        def one_row_at_a_time(t):
            if np.size(t) > row:
                raise MemoryError("call too large")
            return f(t)

        one_row_at_a_time.domain = f.domain
        got = scan_change_set(one_row_at_a_time, (-1.0, 1.0), 0.5, 21)
        assert repr(got) == repr(scan_change_set(f, (-1.0, 1.0), 0.5, 21))
        assert len(got.points.x) == 2 * 21 - 2

    def test_invalid_tol_raises_the_pointwise_error(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError) as expected:
            velocity_limit(f, -1.0, 0.5, FWD, tol=math.nan)
        with pytest.raises(ValueError) as got:
            scan_change_set(f, (-1.0, 1.0), 0.5, 11, tol=math.nan)
        assert str(got.value) == str(expected.value)


class TestNullMeasureTrend:
    def test_fractions_fall_like_one_over_n(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        trend = null_measure_trend(f, (-1.0, 1.0), 0.5, [11, 101],
                                   flag_threshold=1e-3)
        assert trend == [(11, 1.0 / 11.0), (101, 1.0 / 101.0)]

    def test_refinements_must_increase(self):
        f = make_polynomial((0.0, 1.0))
        with pytest.raises(ValueError):
            null_measure_trend(f, (0.0, 1.0), 0.5, [101, 11])


class TestVerifyRolle:
    def test_cusp_hump_witness_at_the_cusp(self):
        verdict = verify_rolle(hump, 0.0, 1.0, 0.5)
        assert verdict.theorem is Theorem.ROLLE
        assert verdict.holds
        assert verdict.witness["x"] == 0.5
        assert verdict.witness["forward"] == -1.0
        assert verdict.witness["backward"] == 1.0

    def test_smooth_parabola_at_order_one(self):
        f = make_polynomial((0.0, 1.0, -1.0))  # x - x^2, equal ends on [0, 1]
        verdict = verify_rolle(f, 0.0, 1.0, 1.0, schedule=SCHED24)
        assert verdict.holds
        assert verdict.witness["x"] == 0.5

    def test_unequal_endpoints_refuse(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        with pytest.raises(PreconditionError):
            verify_rolle(f, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_needs_three_grid_points(self, n):
        # the same check as scan_change_set's, before the endpoint hypothesis
        f = make_polynomial((0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match=f"need at least 3 grid points, got {n}"):
            verify_rolle(f, -1.0, 1.0, 0.5, n)

    def test_oscillatory_point_fails_with_reason(self):
        verdict = verify_rolle(even_chirp, -1.0, 1.0, 0.5, n=101)
        assert not verdict.holds
        assert "scan fails" in verdict.notes

    def test_narrow_domain_trims_the_schedule(self):
        f = AnalyticTestFunction("narrow-hump", (-0.01, 1.01), hump, ())
        verdict = verify_rolle(f, 0.0, 1.0, 0.5)
        assert verdict.holds
        assert verdict.witness["x"] == 0.5


class TestVerifyMeanValue:
    def test_endpoint_attains_ratio(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        verdict = verify_mean_value(f, 0.0, 1.0, 0.5)
        assert verdict.holds
        assert verdict.witness["x"] == 0.0
        assert verdict.witness["velocity"] == 1.0
        assert verdict.witness["ratio"] == 1.0
        assert "interior attainment: 0 of 33" in verdict.notes

    def test_mirrored_cusp_attains_at_right_endpoint(self):
        f = make_power_cusp(1.0, 0.5, 1.0, 0.0)
        verdict = verify_mean_value(f, 0.0, 1.0, 0.5)
        assert verdict.holds
        assert verdict.witness["x"] == 1.0
        assert verdict.witness["endpoint"] == 1.0

    def test_degenerate_endpoints_refuse(self):
        with pytest.raises(PreconditionError):
            verify_mean_value(hump, 0.0, 1.0, 0.5)

    def test_order_one_refused(self):
        f = make_polynomial((0.0, 1.0))
        with pytest.raises(PreconditionError):
            verify_mean_value(f, 0.0, 1.0, 1.0)


class TestVerifyWeakDarboux:
    def test_order_one_hits_target_on_grid(self):
        f = make_polynomial((0.0, 0.0, 1.0))
        verdict = verify_weak_darboux(f, 0.0, 1.0, 1.0, 101, SCHED24,
                                      target=1.0)
        assert verdict.holds
        assert verdict.witness["x"] == 0.5
        assert verdict.witness["velocity"] == pytest.approx(1.0, abs=1e-6)

    def test_order_one_needs_target(self):
        f = make_polynomial((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            verify_weak_darboux(f, 0.0, 1.0, 1.0, 51, SCHED24)

    def test_order_one_without_target_fails_before_any_probe(self):
        def untouchable(t):
            raise AssertionError("probed before the target check")

        with pytest.raises(ValueError, match="order-one check needs an explicit target"):
            verify_weak_darboux(untouchable, 0.0, 1.0, 1.0, 51, SCHED24)

    def test_target_outside_range_fails(self):
        f = make_polynomial((0.0, 0.0, 1.0))
        verdict = verify_weak_darboux(f, 0.0, 1.0, 1.0, 51, SCHED24,
                                      target=5.0)
        assert not verdict.holds
        assert "outside" in verdict.notes

    def test_below_order_one_interior_zero(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        verdict = verify_weak_darboux(f, 0.1, 1.0, 0.5, 51)
        assert verdict.holds
        assert abs(verdict.witness["velocity"]) <= 1e-3

    def test_nonzero_endpoints_hold_vacuously(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        # forward velocity at the left endpoint 0 is 1, not 0
        verdict = verify_weak_darboux(f, 0.0, 1.0, 0.5, 51)
        assert verdict.holds
        assert verdict.witness is None
        assert "asserts nothing" in verdict.notes

    @pytest.mark.parametrize("beta, target", [(0.5, None), (1.0, 0.0)])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_needs_three_grid_points(self, n, beta, target):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError, match=f"need at least 3 grid points, got {n}"):
            verify_weak_darboux(f, -1.0, 0.0, beta, n, target=target)

    def test_oscillatory_grid_point_reports_failure(self):
        verdict = verify_weak_darboux(even_chirp, -1.0, 1.0, 0.5, 101)
        assert not verdict.holds
        assert "scan fails" in verdict.notes


# make_chirp(0.5, -0.5) less the linear term that levels f(-1) = 0 with f(0.75)
LEVELLED_CHIRP = make_chirp(0.5, -0.5)
LEVEL_SLOPE = LEVELLED_CHIRP(0.75) / 1.75


def chirp_refusing_past_half(t):
    # levelled chirp that refuses any array argument with an entry above
    # 1/2, so every probe from x >= 7/16 fails
    if isinstance(t, np.ndarray) and np.any(t > 0.5):
        raise RuntimeError("refused an argument above 0.5")
    return LEVELLED_CHIRP(t) - LEVEL_SLOPE * (np.asarray(t, dtype=float) + 1.0)


class TestBatchedVerifiersStopEarly:
    # the batch fails on the probes past 1/2; a verdict that the first
    # failing grid point settles must still come out, as point by point

    def test_rolle_fails_at_the_first_oscillatory_point(self):
        verdict = verify_rolle(chirp_refusing_past_half, -1.0, 0.75, 0.5, 101)
        assert not verdict.holds
        assert verdict.notes == ("velocity scan fails at x=-0.4925: "
                                 "forward oscillatory, backward oscillatory")

    def test_weak_darboux_fails_at_the_first_oscillatory_point(self):
        verdict = verify_weak_darboux(chirp_refusing_past_half, -1.0, 1.0, 0.5, 101)
        assert not verdict.holds
        assert verdict.notes == "velocity scan fails at x=-0.5: oscillatory"

    def test_an_unsettled_verdict_raises_the_first_probe_error(self):
        # every point left of 0.45 converges, so the refusal comes first
        with pytest.raises(RuntimeError, match="refused an argument above 0.5"):
            verify_weak_darboux(chirp_refusing_past_half, 0.25, 0.75, 0.5, 11)


class NoPointwiseProbes:
    """Run a verifier test class with velocity_limit unavailable to the scanner.

    A batch that succeeds answers every probe by itself; only a failed
    batch replays its probes point by point.
    """

    @pytest.fixture(autouse=True)
    def _refuse_pointwise_probes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("probed point by point after a good batch")

        monkeypatch.setattr(scanner, "velocity_limit", refuse)


class TestVerifyRolleInOneBatch(NoPointwiseProbes, TestVerifyRolle):
    pass


class TestVerifyMeanValueInOneBatch(NoPointwiseProbes, TestVerifyMeanValue):
    pass


class TestVerifyWeakDarbouxInOneBatch(NoPointwiseProbes, TestVerifyWeakDarboux):
    pass
