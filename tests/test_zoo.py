import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from common import same_bits
from fracvel import (
    SMOOTH,
    UNDEFINED,
    AnalyticTestFunction,
    MarkedPoint,
    default_zoo,
    make_chirp,
    make_polynomial,
    make_power_cusp,
    make_weierstrass,
)


class TestPowerCusp:
    def test_values_at_dyadic_points(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        assert f(0.0) == 0.0
        assert f(0.25) == 0.5
        assert f(-0.25) == -0.5
        assert f(1.0) == 1.0

    def test_offset_and_strength(self):
        f = make_power_cusp(1.0, 0.3, 2.0, 0.5)
        x = np.array([0.5, 1.0, 1.5])
        expect = 0.5 + 2.0 * np.sign(x - 1.0) * np.abs(x - 1.0) ** 0.3
        assert np.array_equal(f(x), expect)

    def test_scalar_matches_array(self):
        f = make_power_cusp(0.25, 0.7, -3.0, 1.0)
        xs = [-0.5, 0.25, 1.125]
        arr = f(np.array(xs))
        for x, v in zip(xs, arr):
            assert f(x) == v

    def test_mirror_identity(self):
        # reflecting through the cusp and negating the strength is exact:
        # the mirrored evaluation sees the same |x-a| offsets
        a = 0.5
        f_pos = make_power_cusp(a, 0.4, 3.0, 0.25)
        f_neg = make_power_cusp(a, 0.4, -3.0, 0.25)
        x = a + np.array([-1.0, -0.5, -0.125, 0.0, 0.125, 0.5, 1.0])
        assert np.array_equal(f_neg(2.0 * a - x), f_pos(x))

    def test_mark_carries_strength(self):
        f = make_power_cusp(1.5, 0.3, 2.0, 0.0)
        (m,) = f.marks
        assert m.x == 1.5
        assert m.holder_exponent == 0.3
        assert m.velocity_plus == 2.0
        assert m.velocity_minus == 2.0

    def test_domain_brackets_cusp(self):
        f = make_power_cusp(3.0, 0.5, 1.0, 0.0)
        assert f.domain == (1.0, 5.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_order(self, beta):
        with pytest.raises(ValueError):
            make_power_cusp(0.0, beta, 1.0, 0.0)

    def test_rejects_nonfinite_params(self):
        with pytest.raises(ValueError):
            make_power_cusp(np.inf, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            make_power_cusp(0.0, 0.5, np.nan, 0.0)


class TestChirp:
    def test_flat_left_of_onset(self):
        f = make_chirp(0.5, 0.0)
        assert f(0.0) == 0.0
        assert f(-0.3) == 0.0
        assert np.array_equal(f(np.array([-1.0, -0.01, 0.0])), np.zeros(3))

    def test_peak_values(self):
        # at d = 2/(pi(4k+1)) the phase is pi/2 + 2 pi k, so f = d**gamma
        f = make_chirp(0.5, 0.0)
        for k in (0, 3, 10):
            d = 2.0 / (np.pi * (4 * k + 1))
            assert f(d) == pytest.approx(d ** 0.5, rel=1e-12)

    def test_finite_where_the_phase_overflows(self):
        # 1/d overflows for subnormal d; the value must stay within d**gamma
        f = make_chirp(0.5, 0.0)
        d = np.array([5e-324, 2.2250738585e-313, 1e-310, 1e-300])
        v = f(d)
        assert np.all(np.isfinite(v)) and np.all(np.abs(v) <= d ** 0.5)
        assert f(5e-324) == 0.0

    def test_onset_shift(self):
        f0 = make_chirp(0.5, 0.0)
        f1 = make_chirp(0.5, 1.0)
        x = np.array([1.001, 1.1, 1.9])
        assert np.array_equal(f1(x), f0(x - 1.0))

    def test_mark_sentinels(self):
        f = make_chirp(0.6, 0.0)
        (m,) = f.marks
        assert m.holder_exponent == 0.6
        assert m.velocity_plus == UNDEFINED
        assert m.velocity_minus == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            make_chirp(gamma, 0.0)


class TestWeierstrass:
    def test_value_at_zero_is_geometric_sum(self):
        f = make_weierstrass(0.5, 3, 24)
        assert f(0.0) == pytest.approx((1.0 - 0.5 ** 24) / 0.5, rel=1e-15)

    def test_value_at_one(self):
        # 3**n is odd, so every term is amp**n * cos(odd*pi) = -amp**n
        f = make_weierstrass(0.5, 3, 24)
        assert f(1.0) == pytest.approx(-(1.0 - 0.5 ** 24) / 0.5, rel=1e-14)

    def test_exponent_on_marks(self):
        f = make_weierstrass(0.5, 3, 24)
        expect = np.log(2.0) / np.log(3.0)
        assert len(f.marks) == 3
        for m in f.marks:
            assert m.holder_exponent == pytest.approx(expect, rel=1e-15)
            assert m.velocity_plus == UNDEFINED
            assert m.velocity_minus == UNDEFINED

    def test_rejects_smooth_parameters(self):
        # amp*freq <= 1 gives a continuously differentiable sum
        with pytest.raises(ValueError):
            make_weierstrass(0.3, 3, 24)

    def test_rejects_bad_freq_and_truncation(self):
        with pytest.raises(ValueError):
            make_weierstrass(0.5, 1, 24)
        with pytest.raises(ValueError):
            make_weierstrass(0.5, 2.5, 24)
        with pytest.raises(ValueError, match="n_terms must be an integer"):
            make_weierstrass(0.5, 3, 8.9)
        with pytest.raises(ValueError):
            make_weierstrass(0.5, 3, 4)

    def test_top_frequency_stays_within_53_bits(self):
        # freq**(n_terms-1) may reach 2**53: 3**33 and 2**53 pass, 3**34
        # and 2**54 fail, and a billion terms fails before any allocation
        assert len(make_weierstrass(0.5, 3, 34).marks) == 3
        assert len(make_weierstrass(0.6, 2, 54).marks) == 3
        for amp, freq, n_terms in ((0.5, 3, 35), (0.6, 2, 55), (0.5, 3, 10 ** 9)):
            with pytest.raises(ValueError, match=r"past 2\*\*53"):
                make_weierstrass(amp, freq, n_terms)

    def test_vectorized_matches_term_sum(self):
        f = make_weierstrass(0.6, 2, 12)
        x = 0.37
        expect = sum(0.6 ** n * np.cos(2 ** n * np.pi * x) for n in range(12))
        assert f(x) == pytest.approx(expect, rel=1e-14)


# (amp, freq, n_terms): the benchmark's freq-4 holder member, the default, the
# benchmark's freq-2 scan member, and the two top frequencies at 2**53
WEIERSTRASS_MEMBERS = [(0.35, 4, 24), (0.5, 3, 24), (0.68, 2, 24), (0.5, 3, 34), (0.6, 2, 54)]

# Error bound against exact_phase_sum, in eps = 2**-52 times sum amp**n.
# Per term each side rounds a phase of at most pi three or four times
# (at most 2*pi eps), then the cosine and the amplitude product (eps);
# numpy's pairwise sum of up to 54 terms chains at most 14 additions
# (7 eps), fsum rounds once (eps / 2).
EXACT_PHASE_EPS = 2 * (2 * math.pi + 1) + 7.5

abscissae = st.one_of(
    st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
    st.builds(lambda sign, e: sign * 2.0 ** e,
              st.sampled_from((-1.0, 1.0)), st.floats(-60.0, -5.0)),
    st.sampled_from((0.0, -0.0, 5e-324, -2.5e-310)),
)


def exact_phase_sum(amp, freq, n_terms, x):
    """The series with each phase freq**n * x reduced mod 2 in exact rationals."""
    terms = []
    for n in range(n_terms):
        r = Fraction(x) * freq ** n % 2
        terms.append(amp ** n * math.cos(math.pi * float(r - 2 if r > 1 else r)))
    return math.fsum(terms)


class TestWeierstrassPhase:
    @pytest.mark.parametrize("amp, freq, n_terms", WEIERSTRASS_MEMBERS)
    @settings(max_examples=60, deadline=None)
    @given(xs=st.lists(abscissae, min_size=1, max_size=8))
    def test_sum_matches_exact_phase_reference(self, amp, freq, n_terms, xs):
        got = make_weierstrass(amp, freq, n_terms)(np.array(xs))
        want = np.array([exact_phase_sum(amp, freq, n_terms, x) for x in xs])
        tol = EXACT_PHASE_EPS * np.finfo(float).eps * (1.0 - amp ** n_terms) / (1.0 - amp)
        assert np.abs(got - want).max() <= tol

    @pytest.mark.parametrize("amp, freq, n_terms", WEIERSTRASS_MEMBERS)
    def test_point_gets_the_same_bits_in_any_shape(self, amp, freq, n_terms):
        # the oscillation ladder's nested grids and variation_values'
        # (points x increments) rows evaluate one point in calls of every
        # shape; 5e-324 and 2**-20 take the sub-grid fraction's branch
        f = make_weierstrass(amp, freq, n_terms)
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(-2.0, 2.0, 39),
                            [0.0, -0.0, 5e-324, 2.0 ** -20, -2.0 ** -9, 1.0]])
        row = f(x)
        assert [f(float(v)) for v in x] == row.tolist()
        grid = x[:, None] + np.array([0.0, 2.0 ** -10, -2.0 ** -7, 1e-9])
        values = f(grid)
        assert values.shape == grid.shape
        assert np.array_equal(values, f(grid.ravel()).reshape(grid.shape))
        for col in range(grid.shape[1]):
            assert np.array_equal(values[:, col], f(grid[:, col]))

    def test_non_finite_points_give_nan_quietly(self):
        f = make_weierstrass(0.5, 3, 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(f(math.nan))
            v = f(np.array([0.25, math.nan, -math.inf, 0.0]))
        assert np.isnan(v[1:3]).all()
        assert (v[0], v[3]) == (f(0.25), f(0.0))


class TestPolynomial:
    def test_evaluation(self):
        f = make_polynomial((1.0, -2.0, 3.0))
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(f(x), 1.0 - 2.0 * x + 3.0 * x * x, rtol=1e-15)

    def test_marks_record_derivative(self):
        f = make_polynomial((0.0, 0.0, 1.0), (-4.0, 4.0))
        assert [m.x for m in f.marks] == [-2.0, 0.0, 2.0]
        for m in f.marks:
            assert m.holder_exponent == SMOOTH
            assert m.velocity_plus == 2.0 * m.x
            assert m.velocity_minus == 2.0 * m.x

    def test_custom_domain(self):
        f = make_polynomial((0.0, 1.0), (0.0, 8.0))
        assert f.domain == (0.0, 8.0)
        assert [m.x for m in f.marks] == [2.0, 4.0, 6.0]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            make_polynomial(())
        with pytest.raises(ValueError):
            make_polynomial((1.0, np.inf))

    @settings(max_examples=150, deadline=None)
    @given(coeffs=st.lists(st.floats(-1e3, 1e3) | st.sampled_from(
               [0.0, -0.0, 1e308, -1e308, 1.7e308, 5e-324]), min_size=1, max_size=6),
           lo=st.floats(-10.0, 9.0), width=st.floats(0.5, 20.0),
           xs=st.lists(st.floats(-20.0, 20.0) | st.sampled_from(
               [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200]), min_size=1, max_size=8))
    def test_values_and_marks_match_numpy_polynomial_bit_for_bit(self, coeffs, lo,
                                                                  width, xs):
        # signed zeros included: the class maps x to 0.0 + 1.0*x first,
        # and a constant's derivative is [0.] or [-0.]
        f = make_polynomial(coeffs, (lo, lo + width))
        p = np.polynomial.Polynomial(coeffs)
        x = np.array(xs)
        with np.errstate(all="ignore"):
            assert same_bits(f(x), p(x))
            for t in xs:
                assert type(f(t)) is float and same_bits(f(t), p(np.asarray(t)))
            dp = p.deriv()
            want = [float(dp(m.x)) for m in f.marks]
        assert same_bits([m.velocity_plus for m in f.marks], want)
        assert same_bits([m.velocity_minus for m in f.marks], want)

    @settings(max_examples=200, deadline=None)
    @given(ends=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=2, max_size=2, unique=True).map(sorted))
    # subnormal ends, where halving them is not exact
    @example(ends=[0.0, 5e-324])
    @example(ends=[1e-310, 3e-310])
    # widths past the largest double
    @example(ends=[-1e308, 1e308])
    @example(ends=[-1e308, 1.7e308])
    @example(ends=[-1.7976931348623157e308, 1.7976931348623157e308])
    def test_marks_are_the_quartiles_of_the_domain(self, ends):
        # lo + q (hi - lo) bit for bit on a finite width; past it, within
        # an ulp of the larger end of the exact quartile
        lo, hi = ends
        f = make_polynomial((0.0, 1.0), (lo, hi))
        got = [m.x for m in f.marks]
        if math.isfinite(hi - lo):
            assert same_bits(got, [lo + q * (hi - lo) for q in (0.25, 0.5, 0.75)])
            return
        for x, q in zip(got, (0.25, 0.5, 0.75)):
            exact = Fraction(lo) + Fraction(q) * (Fraction(hi) - Fraction(lo))
            assert abs(Fraction(x) - exact) <= math.ulp(max(-lo, hi))
            assert lo < x < hi


class TestContainerValidation:
    def test_domain_must_be_ordered(self):
        with pytest.raises(ValueError):
            AnalyticTestFunction("bad", (1.0, -1.0), lambda x: x, ())

    def test_marks_must_sit_inside_domain(self):
        mark = MarkedPoint(5.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            AnalyticTestFunction("bad", (-1.0, 1.0), lambda x: x, (mark,))


class TestRegistry:
    def test_member_count_and_unique_ids(self):
        zoo = default_zoo()
        assert len(zoo) == 6
        ids = [f.id for f in zoo]
        assert len(set(ids)) == len(ids)

    def test_marks_inside_domains(self):
        for f in default_zoo():
            lo, hi = f.domain
            for m in f.marks:
                assert lo <= m.x <= hi

    def test_every_member_evaluates_deterministically(self):
        for f in default_zoo():
            lo, hi = f.domain
            x = np.linspace(lo, hi, 257)
            a = np.asarray(f(x))
            b = np.asarray(f(x))
            assert np.array_equal(a, b)
            assert np.all(np.isfinite(a))
