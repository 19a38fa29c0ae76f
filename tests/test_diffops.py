import numpy as np
import pytest

from fracvel import (
    Direction,
    DomainError,
    EpsilonSchedule,
    LimitStatus,
    estimate_velocity,
    make_chirp,
    make_polynomial,
    make_power_cusp,
    make_weierstrass,
    scan_change_set,
    variation_values,
    velocity_limit,
)
from common import (
    WEIER_MARK_XS,
    one_sided_difference,
    osc_sampled,
    reference_ladder,
    same_bits,
)
from fracvel.diffops import (EVAL_CALL_POINTS, OSC_N0, OSC_SAMPLE_CAP, _osc_ladder,
                             _row_blocks)
from fracvel.estimator import DEFAULT_SCHEDULE
from fracvel.scanner import _grid_probes

FWD = Direction.FORWARD
BWD = Direction.BACKWARD


def square(t):
    t = np.asarray(t, dtype=float)
    return t * t


def variation(f, x, eps, beta, direction):
    """variation_values at the single increment eps."""
    return float(variation_values(f, x, beta, direction, [eps])[0])


class TestDifference:
    """The difference inside the variation, read at order one."""

    def test_forward_on_square(self):
        assert variation(square, 1.0, 0.5, 1.0, FWD) == (1.5 ** 2 - 1.0) / 0.5

    def test_backward_on_square(self):
        assert variation(square, 1.0, 0.5, 1.0, BWD) == (1.0 - 0.5 ** 2) / 0.5

    def test_cusp_forward_is_power(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        for eps in (0.5, 2.0 ** -10, 2.0 ** -30):
            assert variation(f, 0.0, eps, 1.0, FWD) == eps ** 0.5 / eps

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            variation_values(square, 0.0, 0.5, FWD, [0.0])
        with pytest.raises(ValueError):
            variation_values(square, 0.0, 0.5, BWD, [0.25, -0.1])

    def test_domain_enforced(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)  # domain (-2, 2)
        with pytest.raises(DomainError):
            variation_values(f, 1.99, 0.5, FWD, [0.5])
        with pytest.raises(DomainError):
            variation_values(f, -1.99, 0.5, BWD, [2.0 ** -10, 0.5])


class TestVariation:
    def test_cusp_is_exactly_strength(self):
        f = make_power_cusp(0.0, 0.5, 3.0, 0.0)
        for eps in (0.25, 2.0 ** -8, 2.0 ** -20):
            assert variation(f, 0.0, eps, 0.5, FWD) == 3.0
            assert variation(f, 0.0, eps, 0.5, BWD) == 3.0

    def test_vectorized_matches_scalar(self):
        # the series sums each point alike in any call, so bit for bit
        f = make_weierstrass(0.5, 3, 24)
        eps = EpsilonSchedule(2.0 ** -4, 0.5, 12).increments(0.3)
        vals = variation_values(f, 0.3, 0.6, FWD, eps)
        singles = [variation(f, 0.3, float(e), 0.6, FWD) for e in eps]
        assert same_bits(vals, singles)

    def test_backward_sign_convention(self):
        # for increasing f the backward difference stays positive
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        vals = variation_values(f, 0.5, 0.5, BWD, np.array([0.25, 0.125]))
        assert np.all(vals > 0.0)

    @pytest.mark.parametrize("beta", [0.0, -0.1, 1.0001])
    def test_rejects_bad_order(self, beta):
        with pytest.raises(ValueError):
            variation_values(square, 0.0, beta, FWD, np.array([0.1]))

    def test_order_one_allowed(self):
        v = variation(square, 1.0, 2.0 ** -20, 1.0, FWD)
        assert v == pytest.approx(2.0, abs=1e-5)


class TestBatchedVariation:
    """A batch of base points goes through the one-point array path."""

    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_first_bad_point_is_named(self, direction):
        # points 2, 4 and 5 leave the cusp's domain (-2, 2) at width 0.5;
        # the batch names point 2 as the one-point call does
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        xs = np.array([0.0, -0.25, 1.75, 0.5, 1.875, -1.875, 0.125])
        if direction is BWD:
            xs = -xs
        eps = [0.5, 0.25, 0.125]
        with pytest.raises(DomainError) as batch:
            variation_values(f, xs, 0.5, direction, eps)
        with pytest.raises(DomainError) as single:
            variation_values(f, xs[2], 0.5, direction, eps)
        assert str(batch.value) == str(single.value)
        assert str(batch.value) == (f"probe of width 0.5 at x={xs[2]:g} "
                                    f"({direction.value}) leaves the domain [-2, 2]")

    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_nan_point_is_named(self, direction):
        xs = np.array([0.25, np.nan, 0.5])
        with pytest.raises(DomainError, match=r"at x=nan"):
            variation_values(square, xs, 0.5, direction, [0.5, 0.25])

    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_evaluators_returning_one_number(self, direction):
        # a plain callable may answer any argument with a single number
        def const(t):
            return 1.0

        eps = EpsilonSchedule(2.0 ** -4, 0.5, 12).increments()
        assert same_bits(variation_values(const, 0.3, 0.5, direction, eps),
                         np.zeros(eps.size))
        assert same_bits(variation_values(const, np.array([0.3, -0.7]), 0.5, direction, eps),
                         np.zeros((2, eps.size)))
        lim = velocity_limit(const, 0.3, 0.5, direction)
        assert (lim.status, lim.value) == (LimitStatus.CONVERGED, 0.0)
        rep = estimate_velocity(const, 0.3, 0.5, direction)
        assert (rep.limit.value, rep.c1_constant, rep.c1_holds) == (0.0, 0.0, True)
        scan = scan_change_set(const, (0.0, 1.0), 0.5, 11)
        assert scan.flagged == ()
        assert set(zip(scan.points.status, scan.points.value)) == {(LimitStatus.CONVERGED, 0.0)}

    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_a_block_is_one_array_call(self, direction):
        f = CountingEvaluator(make_power_cusp(0.0, 0.3, 2.0, 0.0), record=True)
        eps = EpsilonSchedule(2.0 ** -4, 0.5, 12).increments()
        xs = np.linspace(-1.0, 1.0, 7)
        variation_values(f, xs, 0.3, direction, eps)
        variation_values(f, 0.25, 0.3, direction, eps)
        # each call holds its points' rows x +- [0, eps...], f(x) first
        steps = np.concatenate(([0.0], eps))
        sign = 1.0 if direction is FWD else -1.0
        rows = [np.reshape(t, (-1, eps.size + 1)) for t in f.args]
        assert [r.shape for r in rows] == [(7, 13), (1, 13)]
        assert [r[:, 0].tolist() for r in rows] == [xs.tolist(), [0.25]]
        assert same_bits(rows[0], xs[:, None] + sign * steps)
        assert same_bits(rows[1], 0.25 + sign * steps[None, :])

    def test_grid_blocks_stay_within_the_entry_bound(self):
        # per direction, as many probes as fit the bound without the f(x)
        # column but not with it
        k = DEFAULT_SCHEDULE.increments(0.0).size
        probes = EVAL_CALL_POINTS // k
        assert probes * (k + 1) > EVAL_CALL_POINTS
        f = CountingEvaluator(make_power_cusp(0.0, 0.3, 2.0, 0.0), record=True)
        scan_change_set(f, (-1.0, 1.0), 0.3, probes + 1)
        per_block = EVAL_CALL_POINTS // (k + 1)
        # each call is whole rows of f(x) and its k f(x +- eps), one per probe
        bases = np.concatenate([np.reshape(t, (-1, k + 1))[:, 0] for t in f.args])
        px, _ = _grid_probes(np.linspace(-1.0, 1.0, probes + 1))
        assert sorted(bases.tolist()) == sorted(px.tolist())
        assert max(f.sizes) <= EVAL_CALL_POINTS
        assert sum(f.sizes) == 2 * probes * (k + 1)
        assert len(f.sizes) == 2 * -(-probes // per_block)

    @pytest.mark.parametrize("n_rows, row_len, per_call", [
        (1000, 100, 655),   # whole rows up to the bound
        (7, 3, 7),          # everything in one call
        (3, EVAL_CALL_POINTS, 1),
        (3, EVAL_CALL_POINTS + 1, 1),   # a row alone past the bound
    ])
    def test_row_blocks_cover_the_rows_within_the_call_bound(self, n_rows, row_len,
                                                             per_call):
        blocks = [range(n_rows)[b] for b in _row_blocks(n_rows, row_len)]
        assert [i for b in blocks for i in b] == list(range(n_rows))
        assert {len(b) for b in blocks[:-1]} <= {per_call} and len(blocks[-1]) <= per_call
        assert per_call == 1 or per_call * row_len <= EVAL_CALL_POINTS
        assert per_call == n_rows or (per_call + 1) * row_len > EVAL_CALL_POINTS


def one_window(f, x, eps, direction, n0=OSC_N0, cap=OSC_SAMPLE_CAP):
    """The ladder's (value, n_samples, refined) for the single window eps."""
    value, n, refined, _, _ = _osc_ladder(f, x, [eps], (direction,), n0, cap=cap)
    return float(value[0, 0]), int(n[0, 0]), bool(refined[0, 0])


class TestIntervalOscillation:
    """The oscillation over one window on a fixed grid (n0 = cap)."""

    def test_monotone_function_is_exact(self):
        # endpoints are sampled, so a monotone window is exact at any n
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        eps = 2.0 ** -6
        value, n, _ = one_window(f, 0.0, eps, FWD, n0=9, cap=9)
        assert value == eps ** 0.5
        assert n == 9

    def test_linear_backward_window(self):
        value, _, _ = one_window(lambda t: 3.0 * np.asarray(t), 1.0, 0.25, BWD, 129, 129)
        assert value == pytest.approx(0.75, rel=1e-15)

    def test_oscillation_bounds_difference(self):
        # both endpoints are in the sample set, with the same bits
        f = make_weierstrass(0.5, 3, 24)
        for x in (0.1, 0.3, 0.7):
            for eps in (2.0 ** -4, 2.0 ** -7, 2.0 ** -11):
                osc, _, _ = one_window(f, x, eps, FWD, n0=33, cap=33)
                assert osc >= abs(one_sided_difference(f, x, eps, FWD))


class TestRefineOscillation:
    """The adaptive ladder's stop and cap rules on one window."""

    def test_sine_over_full_period(self):
        value, _, refined = one_window(np.sin, 0.0, 8.0, FWD)
        assert value == pytest.approx(2.0, abs=5e-3)
        assert refined

    def test_nested_grids_never_lose_ground(self):
        f = make_weierstrass(0.5, 3, 24)
        prev = osc_sampled(f, 0.3, 2.0 ** -5, FWD, 17)
        for n in (33, 65, 129, 257):
            cur = osc_sampled(f, 0.3, 2.0 ** -5, FWD, n)
            assert cur >= prev
            prev = cur

    def test_cap_reports_unrefined(self):
        f = make_weierstrass(0.5, 3, 24)
        _, n, refined = one_window(f, 1.0 / np.pi, 2.0 ** -4, FWD, n0=17, cap=65)
        assert not refined
        assert n == 65

    def test_chirp_critical_ratio_near_two(self):
        # sup-inf of the gamma=1/2 chirp over [0, eps] approaches 2*eps**0.5
        f = make_chirp(0.5, 0.0)
        eps = 2.0 ** -10
        value, _, _ = one_window(f, 0.0, eps, FWD)
        assert 1.5 <= value / eps ** 0.5 <= 2.05


def assert_ladder_matches_reference(f, x, eps, direction, n0=OSC_N0, **kw):
    """The one-sided ladder's value, n_samples and refined, each checked
    bit for bit, with f(x) and f(x +- eps), against reference_ladder."""
    got = _osc_ladder(f, x, eps, (direction,), n0, **kw)
    want = reference_ladder(f, x, eps, (direction,), n0, **kw)
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert same_bits(g, w)
    return tuple(a[0] for a in got[:3])


def dyadic_depth(t):
    """Minus the exponent of the lowest set bit of each positive t.

    Every ladder doubling samples points one binary digit finer than the
    last, so the sampled maximum keeps growing and no window settles.
    """
    m, e = np.frexp(np.asarray(t, dtype=float))
    bits = (m * 2.0 ** 53).astype(np.int64)
    low = np.log2(np.maximum(bits & -bits, 1).astype(float))
    return np.where(bits > 0, 53.0 - e - low, 0.0)


class CountingEvaluator:
    """f, counting the points of each call; with record, it also keeps a
    copy of each argument in args."""

    def __init__(self, f, record=False):
        self.f = f
        self.sizes = []
        self.args = [] if record else None
        self.domain = getattr(f, "domain", (-np.inf, np.inf))

    def __call__(self, t):
        self.sizes.append(np.size(t))
        if self.args is not None:
            self.args.append(np.array(t))
        return self.f(t)


# Evaluator calls of each default-schedule ladder of
# make_weierstrass(0.35, 4) at WEIER_MARK_XS, (forward, backward), and
# their points in all, when every window was sampled whole from 17 points
WHOLE_WINDOW_CALLS = ((9, 9), (8, 10), (9, 3))
WHOLE_WINDOW_POINTS = 78438


class TestOscillationLadder:
    """The batched ladder against the one-annulus-at-a-time reference."""

    def test_weierstrass_rows_settle_at_different_depths(self):
        f = make_weierstrass()
        eps = EpsilonSchedule().increments(1.0 / np.pi)
        for direction in (FWD, BWD):
            _, n, refined = assert_ladder_matches_reference(f, 1.0 / np.pi, eps, direction)
            assert refined.all()
            assert len(set(n)) > 2

    def test_cap_leaves_rows_unrefined(self):
        f = make_weierstrass()
        eps = EpsilonSchedule().increments(0.3)
        _, n, refined = assert_ladder_matches_reference(f, 0.3, eps, FWD, cap=65)
        assert not refined.all() and refined.any()
        assert set(n[~refined]) == {65}

    def test_first_grid_past_the_cap(self):
        f = make_weierstrass()
        eps = EpsilonSchedule().increments(0.3)
        _, n, refined = assert_ladder_matches_reference(f, 0.3, eps, BWD, n0=33, cap=17)
        assert (n == 33).all() and not refined.any()

    def test_chirp_at_its_singular_point(self):
        f = make_chirp(0.5, 0.0)
        eps = EpsilonSchedule().increments(0.0)
        for direction in (FWD, BWD):
            assert_ladder_matches_reference(f, 0.0, eps, direction)

    def test_nan_inside_one_window(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 0.3 + 2.0 ** -9) & (t < 0.3 + 2.0 ** -8),
                            np.nan, np.sin(7.0 * t))
        eps = EpsilonSchedule().increments(0.3)
        value, _, refined = assert_ladder_matches_reference(f, 0.3, eps, FWD)
        # the NaN lies in the annulus between 2**-9 and 2**-8: it reaches
        # that window and every larger one, and only its own row never
        # settles
        assert (np.isnan(value) == (eps >= 2.0 ** -8)).all()
        assert (refined == (eps != 2.0 ** -8)).all()

    @pytest.mark.parametrize("x,eps,direction,err", [
        (1.99, EpsilonSchedule().increments(1.99), FWD, DomainError),
        (-1.99, EpsilonSchedule().increments(-1.99), BWD, DomainError),
        (0.0, [2.0 ** -10, 4.0, 1.0], FWD, DomainError),
        (0.0, [2.0 ** -10, -1.0, 4.0], FWD, ValueError),
    ])
    def test_first_failing_window_raises(self, x, eps, direction, err):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        with pytest.raises(err) as want:
            reference_ladder(f, x, eps, (direction,))
        with pytest.raises(err) as got:
            _osc_ladder(f, x, eps, (direction,))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("c1_samples", [2, 17, 65])
    def test_fixed_grid_c1(self, c1_samples):
        f = make_chirp(0.5, 0.0)
        eps = EpsilonSchedule().increments(0.0)
        assert_ladder_matches_reference(f, 0.0, eps, FWD, n0=c1_samples, cap=c1_samples)

    def test_evaluator_calls_stay_within_the_cap(self):
        f = CountingEvaluator(dyadic_depth)
        eps = EpsilonSchedule().increments(0.0)
        got = _osc_ladder(f, 0.0, eps, (FWD,))
        _, n, refined, _, _ = got
        assert (n == OSC_SAMPLE_CAP).all() and not refined.any()
        assert max(f.sizes) <= EVAL_CALL_POINTS
        want = reference_ladder(dyadic_depth, 0.0, eps, (FWD,))
        for g, w in zip(got, want):
            assert same_bits(g, w)

    def test_annuli_halve_the_weierstrass_points(self):
        points = 0
        for x, calls in zip(WEIER_MARK_XS, WHOLE_WINDOW_CALLS):
            for direction, before in zip((FWD, BWD), calls):
                f = CountingEvaluator(make_weierstrass(0.35, 4))
                _osc_ladder(f, x, EpsilonSchedule().increments(x), (direction,))
                assert len(f.sizes) <= before
                points += sum(f.sizes)
        assert points <= WHOLE_WINDOW_POINTS // 2

    def test_infinite_rows_are_sampled_once(self):
        # 1e308 t**2 overflows past t = 1.3408: the outer forward annulus
        # at x = 1.3 holds inf on its first grid, and no finer grid can
        # lower an infinite oscillation, so only the other 75 rows double;
        # every row's first grid and first doubling are one call, so the
        # infinite row's 8 midpoints are evaluated and not read
        f = CountingEvaluator(make_polynomial((0.0, 0.0, 1e308)))
        eps = EpsilonSchedule().increments(1.3)
        got = _osc_ladder(f, 1.3, eps, (FWD, BWD))
        want = reference_ladder(f.f, 1.3, eps, (FWD, BWD))
        for g, w in zip(got, want):
            assert same_bits(g, w)
        value, n, refined = got[:3]
        infinite = value == np.inf
        assert infinite[0, 0] and infinite.sum() == 1
        assert n[infinite].tolist() == [OSC_N0] and not refined[infinite].any()
        assert refined[~infinite].all()
        rows = 2 * eps.size
        assert f.sizes == [rows * (2 * OSC_N0 - 1)]

    def test_row_infinite_on_its_first_grid_keeps_its_extrema(self):
        # +inf at each point of the one window's first grid, x included,
        # and finite at the midpoints that double it, which the same call
        # samples: the row keeps inf - inf, a NaN, and is not doubled
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where(t % 2.0 ** -7 == 0.0, np.inf, t)

        with np.errstate(invalid="ignore"):   # the reference's inf - inf
            value, n, refined = assert_ladder_matches_reference(f, 0.0, [2.0 ** -4], FWD)
        assert np.isnan(value).all() and n.tolist() == [OSC_N0] and not refined.any()

    def test_nan_rows_stop_doubling(self):
        # the identity but NaN at 2**-5 + 2**-9, which only the 17-point
        # grid of the annulus between 2**-5 and 2**-4 samples; max and min
        # keep a NaN, so no finer grid could settle that row, and doubling
        # it to the cap took 14 evaluator calls over 66,183 points; every
        # row settles at its first doubling, one call with the first grid
        bad = 2.0 ** -5 + 2.0 ** -9

        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where(t == bad, np.nan, t)

        eps = DEFAULT_SCHEDULE.increments(0.0)
        value, n, refined = assert_ladder_matches_reference(f, 0.0, eps, FWD)
        row = eps == 2.0 ** -4
        assert (np.isnan(value) == (eps >= 2.0 ** -4)).all()
        assert n[row].tolist() == [2 * OSC_N0 - 1] and not refined[row].any()
        assert refined[~row].all()
        g = CountingEvaluator(f)
        estimate_velocity(g, 0.0, 0.5, FWD)
        assert g.sizes == [663]
