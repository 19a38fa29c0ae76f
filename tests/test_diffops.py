import numpy as np
import pytest

from fracvel import (
    Direction,
    DomainError,
    EpsilonSchedule,
    make_chirp,
    make_power_cusp,
    make_weierstrass,
    variation_values,
)
from common import (
    SummedWeierstrass,
    one_sided_difference,
    osc_sampled,
    reference_ladder,
    same_bits,
)
from fracvel.diffops import OSC_SAMPLE_CAP, _osc_ladder

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
        # BLAS may reassociate the series sum, so agreement is to rounding,
        # not bit-for-bit
        f = make_weierstrass(0.5, 3, 24)
        eps = EpsilonSchedule(2.0 ** -4, 0.5, 12).increments(0.3)
        vals = variation_values(f, 0.3, 0.6, FWD, eps)
        singles = [variation(f, 0.3, float(e), 0.6, FWD) for e in eps]
        assert np.allclose(vals, singles, rtol=1e-12, atol=1e-12)

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


def one_window(f, x, eps, direction, n0=17, cap=OSC_SAMPLE_CAP):
    """The ladder's (value, n_samples, refined) for the single window eps."""
    value, n, refined = _osc_ladder(f, x, [eps], direction, n0, cap=cap)
    return float(value[0]), int(n[0]), bool(refined[0])


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
        # both endpoints are in the sample set; the 1e-12 slack only covers
        # sum reassociation between the matrix and scalar evaluation paths
        f = make_weierstrass(0.5, 3, 24)
        for x in (0.1, 0.3, 0.7):
            for eps in (2.0 ** -4, 2.0 ** -7, 2.0 ** -11):
                osc, _, _ = one_window(f, x, eps, FWD, n0=33, cap=33)
                assert osc >= abs(one_sided_difference(f, x, eps, FWD)) - 1e-12


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
        _, n, refined = one_window(f, 1.0 / np.pi, 2.0 ** -4, FWD, cap=65)
        assert not refined
        assert n == 65

    def test_chirp_critical_ratio_near_two(self):
        # sup-inf of the gamma=1/2 chirp over [0, eps] approaches 2*eps**0.5
        f = make_chirp(0.5, 0.0)
        eps = 2.0 ** -10
        value, _, _ = one_window(f, 0.0, eps, FWD)
        assert 1.5 <= value / eps ** 0.5 <= 2.05


def assert_ladder_matches_reference(f, x, eps, direction, n0=17, **kw):
    got = _osc_ladder(f, x, eps, direction, n0, **kw)
    want = reference_ladder(f, x, eps, direction, n0, **kw)
    for g, w in zip(got, want):
        assert same_bits(g, w)
    return got


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
    def __init__(self, f):
        self.f = f
        self.sizes = []
        self.domain = getattr(f, "domain", (-np.inf, np.inf))

    def __call__(self, t):
        self.sizes.append(np.size(t))
        return self.f(t)


class TestOscillationLadder:
    """The batched ladder against the one-increment-at-a-time reference."""

    def test_weierstrass_rows_settle_at_different_depths(self):
        f = SummedWeierstrass()
        eps = EpsilonSchedule().increments(1.0 / np.pi)
        for direction in (FWD, BWD):
            _, n, refined = assert_ladder_matches_reference(f, 1.0 / np.pi, eps, direction)
            assert refined.all()
            assert len(set(n)) > 2

    def test_cap_leaves_rows_unrefined(self):
        f = SummedWeierstrass()
        eps = EpsilonSchedule().increments(0.3)
        _, n, refined = assert_ladder_matches_reference(f, 0.3, eps, FWD, cap=65)
        assert not refined.all() and refined.any()
        assert set(n[~refined]) == {65}

    def test_first_grid_past_the_cap(self):
        f = SummedWeierstrass()
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
        assert np.isnan(value).any() and not np.isnan(value).all()
        assert not refined[np.isnan(value)].any()

    @pytest.mark.parametrize("x,eps,direction,err", [
        (1.99, EpsilonSchedule().increments(1.99), FWD, DomainError),
        (-1.99, EpsilonSchedule().increments(-1.99), BWD, DomainError),
        (0.0, [2.0 ** -10, 4.0, 1.0], FWD, DomainError),
        (0.0, [2.0 ** -10, -1.0, 4.0], FWD, ValueError),
    ])
    def test_first_failing_window_raises(self, x, eps, direction, err):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        with pytest.raises(err) as want:
            reference_ladder(f, x, eps, direction, 17)
        with pytest.raises(err) as got:
            _osc_ladder(f, x, eps, direction, 17)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("c1_samples", [2, 17, 65])
    def test_fixed_grid_c1(self, c1_samples):
        f = make_chirp(0.5, 0.0)
        eps = EpsilonSchedule().increments(0.0)
        assert_ladder_matches_reference(f, 0.0, eps, FWD, n0=c1_samples, cap=c1_samples)

    def test_evaluator_calls_stay_within_the_cap(self):
        f = CountingEvaluator(dyadic_depth)
        eps = EpsilonSchedule().increments(0.0)
        value, n, refined = _osc_ladder(f, 0.0, eps, FWD, 17)
        assert (n == OSC_SAMPLE_CAP).all() and not refined.any()
        assert max(f.sizes) <= OSC_SAMPLE_CAP
        want = reference_ladder(dyadic_depth, 0.0, eps, FWD, 17)
        for g, w in zip((value, n, refined), want):
            assert same_bits(g, w)

