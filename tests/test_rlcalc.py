import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from common import (
    GAMMA_15,
    RL_LINEAR_AT_1,
    kg_lfd_rescaled,
    reference_kg_lfd,
    reference_rl_derivative,
    reference_rl_integral,
    same_bits,
)
from fracvel import (
    Direction,
    DomainError,
    EpsilonSchedule,
    LimitStatus,
    PreconditionError,
    QuadScheme,
    QuadratureError,
    check_lfd_equivalence,
    diffops,
    kg_lfd,
    make_chirp,
    make_polynomial,
    make_power_cusp,
    rl_derivative,
    rl_integral,
    rlcalc,
)
from fracvel.diffops import EVAL_CALL_POINTS
from fracvel.rlcalc import GRADED_NODE_CAP, JACOBI_NODE_CAP

FWD = Direction.FORWARD
BWD = Direction.BACKWARD

JACOBI = QuadScheme.JACOBI_WEIGHTED
SCHEMES = {"graded": QuadScheme.GRADED_PRODUCT, "jacobi": JACOBI}


def power(p):
    def f(t):
        return np.abs(np.asarray(t, dtype=float)) ** p
    return f


class TestRlIntegral:
    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_power_law_closed_form(self, mu, p, x):
        # I^mu t^p from 0 equals G(p+1)/G(p+1+mu) x^{p+mu}
        exact = math.gamma(p + 1.0) / math.gamma(p + 1.0 + mu) * x ** (p + mu)
        got = rl_integral(power(p), 0.0, mu, x)
        assert got == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_jacobi_scheme_agrees_on_smooth_integrands(self, mu, p):
        exact = math.gamma(p + 1.0) / math.gamma(p + 1.0 + mu) * 1.5 ** (p + mu)
        got = rl_integral(power(p), 0.0, mu, 1.5, JACOBI)
        assert got == pytest.approx(exact, rel=1e-4)

    def test_linear_integrand_frozen_value(self):
        got = rl_integral(lambda t: np.asarray(t, dtype=float), 0.0, 0.5, 1.0)
        assert got == pytest.approx(RL_LINEAR_AT_1, rel=1e-12)

    def test_right_sided_reflection(self):
        # integrating toward x < a mirrors the integrand about the midpoint,
        # so an even function about a gives the same value on both sides
        f = power(2.0)
        left = rl_integral(f, 0.0, 0.5, -1.0)
        right = rl_integral(f, 0.0, 0.5, 1.0)
        assert left == pytest.approx(right, rel=1e-10)

    def test_shifted_base_point(self):
        # I^0.5 of (t-2)^2 from a=2 matches the a=0 polynomial answer
        f = lambda t: (np.asarray(t, dtype=float) - 2.0) ** 2
        exact = math.gamma(3.0) / math.gamma(3.5) * 1.0 ** 2.5
        assert rl_integral(f, 2.0, 0.5, 3.0) == pytest.approx(exact, rel=1e-4)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            rl_integral(lambda t: t, 0.0, 0.5, 0.0)

    def test_order_bounds(self):
        for mu in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                rl_integral(lambda t: t, 0.0, mu, 1.0)

    def test_first_doubling_fits_under_every_cap(self):
        # every ladder compares at least two passes
        for scheme, (_, cap) in rlcalc._RULES.items():
            assert 2 * rlcalc.QUAD_N0 <= cap, scheme

    def test_reflected_interval_must_lie_in_the_domain(self):
        # [-3, 0] leaves the cusp's domain (-2, 2) as [0, 3] does
        f, calls = counting(make_power_cusp(0.0, 0.5, 1.0, 0.0))
        for x in (-3.0, 3.0):
            lo, hi = min(0.0, x), max(0.0, x)
            with pytest.raises(DomainError,
                               match=rf"\[{lo:g}, {hi:g}\] is not inside the domain \[-2, 2\]"):
                rl_integral(f, 0.0, 0.5, x)
        assert calls == []

    @pytest.mark.parametrize("a, x", [(math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan),
                                      (0.0, -math.inf), (0.0, [math.nan, 0.5]),
                                      (-1e308, 1e308)])
    def test_non_finite_points_rejected_before_any_evaluation(self, a, x):
        # the length of [-1e308, 1e308] overflows, and the suite turns
        # numpy warnings into errors
        f, calls = counting(lambda t: np.asarray(t, dtype=float))
        with pytest.raises(ValueError, match="must be finite"):
            rl_integral(f, a, 0.5, x)
        with pytest.raises(ValueError, match="must be finite"):
            rl_derivative(f, a, 0.5, x)
        assert calls == []

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_row_below_the_base_keeps_its_ends(self, scheme):
        # the nodes a + (x - a) s stay inside [x, a], and the graded mesh's
        # end nodes give f(0.1) and f(-0.7) exactly; reflecting f about the
        # midpoint evaluated it at (-0.7 + 0.1) + 0.7 = 0.09999999999999998
        seen = []

        def f(t):
            seen.append(np.array(t, dtype=float))
            return np.asarray(t, dtype=float)

        rl_integral(f, 0.1, 0.5, -0.7, SCHEMES[scheme])
        t = np.concatenate(seen)
        assert -0.7 <= t.min() and t.max() <= 0.1
        if scheme == "graded":
            assert (t == 0.1).any() and (t == -0.7).any()

    def test_unresolvable_integrand_raises(self):
        # 1024-node cap of the weighted-gauss scheme cannot track this
        f = lambda t: np.cos(50000.0 * np.asarray(t, dtype=float))
        with pytest.raises(QuadratureError):
            rl_integral(f, 0.0, 0.5, 1.0, JACOBI)

    def test_overflowing_sum_fails_at_the_cap_without_a_warning(self):
        # every pass sums to 2e308, which is inf, and inf never settles
        f = lambda t: np.full(np.shape(t), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(lambda: rl_integral(f, 0.0, 0.5, 1.0))
        assert got == (QuadratureError, "no stabilization by 65536 nodes")


# From the edges of (0, 1), where the grading squeezes the first cells
# below the smallest double, through the middle
GRADED_ORDERS = [0.01, 0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.98, 0.99]


# Unit rules up to each scheme's cap; the graded cases keep their bare
# node-count ids
UNIT_RULES = ([pytest.param(QuadScheme.GRADED_PRODUCT, n, id=str(n))
               for n in (8, 64, 4096, GRADED_NODE_CAP)]
              + [pytest.param(QuadScheme.JACOBI_WEIGHTED, n, id=f"jacobi-{n}")
                 for n in (8, 64, 512, JACOBI_NODE_CAP)])


class TestGradedRule:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", GRADED_ORDERS)
    @pytest.mark.parametrize("b", [0.05, 0.5, 0.9])
    def test_power_closed_form_at_every_order(self, mu, b):
        # I^mu |t|^b from 0 is G(b+1)/G(b+1+mu) |x|^(b+mu) on either side;
        # a value the stop rule accepts lies within its own bound of it
        xs = np.array([0.7, -0.7, 1e-3])
        got = rl_integral(power(b), 0.0, mu, xs)
        exact = math.gamma(b + 1.0) / math.gamma(b + 1.0 + mu) * np.abs(xs) ** (b + mu)
        assert np.abs(got / exact - 1.0).max() <= rlcalc.QUAD_REL_CHANGE

    @pytest.mark.parametrize("mu", GRADED_ORDERS)
    @pytest.mark.parametrize("scheme, n", UNIT_RULES)
    def test_weights_sum_to_the_kernel_integral(self, mu, scheme, n):
        # sum_j W_j = int_0^1 (1-s)**(mu-1) ds = 1/mu, and the nodes ascend
        # inside [0, 1]; only the graded mesh has nodes at 0 and 1
        rule, _ = rlcalc._RULES[scheme]
        s, weights = rule(mu, n)
        graded = scheme is QuadScheme.GRADED_PRODUCT
        assert s.size == weights.size == n + graded
        assert 0.0 <= s[0] and (np.diff(s) >= 0.0).all() and s[-1] <= 1.0
        assert (s[0] == 0.0 and s[-1] == 1.0) == graded
        assert abs(math.fsum(weights) * mu - 1.0) <= (4.0 if graded else 5.0) * EPS

    @pytest.mark.parametrize("mu, n", [(0.01, 64), (0.02, GRADED_NODE_CAP),
                                       (0.98, GRADED_NODE_CAP), (0.99, 4096)])
    def test_underflowed_cells_get_zero_weight_without_a_warning(self, mu, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, weights = rlcalc._graded_mesh(mu, n)
        # every node at s = 0 but the last one lies between flat cells
        flat = np.flatnonzero(s == 0.0)[:-1]
        assert flat.size > 0
        assert np.isfinite(weights).all() and (weights[flat] == 0.0).all()


class TestRlDerivative:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_derivative_of_matching_power_is_constant(self, beta):
        # D^beta t^beta = G(1+beta) independent of x
        f = power(beta)
        for x in (0.25, 0.5, 1.0):
            got = rl_derivative(f, 0.0, beta, x)
            assert got == pytest.approx(math.gamma(1.0 + beta), rel=1e-3)

    def test_derivative_of_identity(self):
        # D^0.5 t = x^{0.5} / G(1.5)
        got = rl_derivative(lambda t: np.asarray(t, dtype=float), 0.0, 0.5, 0.64)
        assert got == pytest.approx(0.8 / GAMMA_15, rel=1e-3)

    def test_left_of_base_point_sign(self):
        # odd integrand: derivative left of the base point flips sign
        f = lambda t: np.asarray(t, dtype=float)
        right = rl_derivative(f, 0.0, 0.5, 0.64)
        left = rl_derivative(f, 0.0, 0.5, -0.64)
        assert left == pytest.approx(-right, rel=1e-6)

    @staticmethod
    def loop(f, a, beta, xs):
        """rl_derivative as a loop of scalar calls."""
        return np.array([rl_derivative(f, a, beta, x) for x in xs])

    @pytest.mark.parametrize("xs, message", [
        ([0.4, 0.0, 0.3], "evaluation point must differ from the base point"),
        ([0.4, math.inf, 0.3], "evaluation point must be finite, got inf"),
        ([0.4, -math.inf], "evaluation point must be finite, got -inf"),
        ([0.4, math.nan], "evaluation point must be finite, got nan"),
        # spans of one and four subnormal ulps have no difference step to
        # underflow: they run, and the point after them fails
        ([0.4, 5e-324, 0.0], "evaluation point must differ from the base point"),
        ([0.4, -2e-323, math.inf], "evaluation point must be finite, got inf"),
    ])
    def test_bad_step_after_valid_points_raises_its_error(self, xs, message):
        f = power(0.5)
        want = (ValueError, message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(lambda: rl_derivative(f, 0.0, 0.5, xs)) == want
        assert outcome(lambda: self.loop(f, 0.0, 0.5, xs)) == want
        assert outcome(lambda: reference_rl_derivative(f, 0.0, 0.5, xs)) == want

    def test_bad_first_step_evaluates_nothing(self):
        f, calls = counting(power(0.5))
        for x, message in ((0.0, "evaluation point must differ from the base point"),
                           (math.inf, "evaluation point must be finite, got inf"),
                           (math.nan, "evaluation point must be finite, got nan")):
            with pytest.raises(ValueError, match=message):
                rl_derivative(f, 0.0, 0.5, [x, 0.4])
        assert calls == []

    @pytest.mark.parametrize("scheme", SCHEMES.values(), ids=SCHEMES.keys())
    @pytest.mark.parametrize("beta", [1e-17, 2.0 ** -54, 5e-324])
    def test_order_whose_integral_order_rounds_to_1_is_refused(self, scheme, beta):
        # 1 - beta rounds to 1 at and below 2**-54, an integral order
        # rl_integral refuses; every entry point refuses it before
        # evaluating f
        f, calls = counting(make_polynomial((2.5,)))
        want = (ValueError, f"beta must exceed 2**-54, where 1 - beta rounds to 1, got {beta}")
        assert outcome(lambda: rl_derivative(f, 0.0, beta, [0.5, -0.5], scheme)) == want
        assert outcome(lambda: kg_lfd(f, 0.3, beta, FWD, scheme=scheme)) == want
        assert outcome(lambda: check_lfd_equivalence(f, 0.3, beta, FWD, scheme=scheme)) == want
        assert calls == []
        # the next order up runs: the Jacobi rule gives the constant's
        # first term alone
        above = math.nextafter(2.0 ** -54, 1.0)
        assert rl_derivative(f, 0.0, above, 1.0, JACOBI) == 2.5 / math.gamma(1.0 - above)

    @pytest.mark.parametrize("scheme", SCHEMES.values(), ids=SCHEMES.keys())
    def test_overflowing_first_term_is_inf_after_one_pass(self, scheme):
        # f(x) / |x-a|**beta = 1e450 overflows; the derivative is inf
        # whatever the divided differences read, so the row takes its
        # first pass alone and never doubles
        f, calls = counting(lambda t: np.full(np.shape(t), 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rl_derivative(f, 0.0, 0.5, [1e-300, -1e-300], scheme)
        assert same_bits(got, [math.inf, math.inf])
        assert calls == [2, 2 * rlcalc.QUAD_N0]
        assert same_bits(got, reference_rl_derivative(f, 0.0, 0.5, [1e-300, -1e-300], scheme))

    def test_unsettled_point_before_a_bad_step_raises_first(self):
        # a new constant at each call never settles: after its f(x) call,
        # the first point's integral reaches the cap in 11 passes before
        # the second point, x = a, is read
        def run(derivative):
            sizes = []

            def f(t):
                sizes.append(np.size(t))
                return np.full(np.shape(t), float(len(sizes)))

            return outcome(lambda: derivative(f)), len(sizes)

        xs = [0.5, 0.0]
        want = ((QuadratureError, "no stabilization by 65536 nodes"), 12)
        assert run(lambda f: rl_derivative(f, 0.0, 0.5, xs)) == want
        assert run(lambda f: self.loop(f, 0.0, 0.5, xs)) == want
        assert run(lambda f: reference_rl_derivative(f, 0.0, 0.5, xs))[0] == want[0]


class TestKgLfd:
    @pytest.mark.parametrize("K", [1.0, 2.0])
    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_cusp_lfd_is_gamma_scaled(self, K, direction):
        f = make_power_cusp(0.0, 0.5, K, 0.0)
        est = kg_lfd(f, 0.0, 0.5, direction)
        assert est.status is LimitStatus.CONVERGED
        assert est.value == pytest.approx(GAMMA_15 * K, abs=5e-4)

    def test_smoother_function_has_zero_lfd(self):
        # |t|^0.8 is too regular at order 0.5; the limit is 0, but the
        # window shrinks like eps^0.3 so the approach must run deep
        approach = EpsilonSchedule(2.0 ** -4, 0.5, 36)
        est = kg_lfd(power(0.8), 0.0, 0.5, FWD, approach=approach, tol=2e-3)
        assert est.status is LimitStatus.CONVERGED
        assert abs(est.value) <= 1e-3

    def test_chirp_defeats_the_quadrature(self):
        c = make_chirp(0.5, 0.0)
        with pytest.raises(QuadratureError):
            kg_lfd(c, 0.0, 0.5, FWD)

    def test_default_approach(self):
        assert rlcalc.DEFAULT_APPROACH == EpsilonSchedule(2.0 ** -4, 0.5, 16)

    def test_domain_reach_checked(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)  # domain (-2, 2)
        with pytest.raises(Exception) as exc_info:
            kg_lfd(f, 1.99, 0.5, FWD)
        assert "leaves the domain" in str(exc_info.value)

    @pytest.mark.parametrize("a, direction, side", [(0.937, FWD, "above"),
                                                    (-0.937, BWD, "below")])
    def test_approach_needs_room_for_its_first_step_alone(self, a, direction, side):
        # a +/- eps0 stays inside (-1, 1), and no difference stencil
        # reaches past it, so the approach runs; from a few steps closer
        # to the edge it is refused before f is evaluated
        f, calls = counting(make_polynomial((1.0,), (-1.0, 1.0)))
        assert abs(a) + rlcalc.DEFAULT_APPROACH.eps0 <= 1.0
        assert kg_lfd(f, a, 0.5, direction).status is LimitStatus.CONVERGED
        assert calls and calls[0] == 1 + rlcalc.DEFAULT_APPROACH.count
        del calls[:]
        edge = math.copysign(0.95, a)
        with pytest.raises(DomainError) as exc_info:
            kg_lfd(f, edge, 0.5, direction)
        assert str(exc_info.value) == f"approach from {side} at a={edge:g} leaves the domain"
        assert calls == []

    @pytest.mark.parametrize("direction, side", [(FWD, "above"), (BWD, "below")])
    @pytest.mark.parametrize("a", [5.0, -5.0, math.nan])
    def test_base_outside_the_domain_is_refused_before_evaluating(self, a, direction, side):
        # the span from a to the first step must lie in (-2, 2), a itself
        # included, on either side of the domain; a NaN base is refused
        # first, as not finite
        f, calls = counting(make_power_cusp(0.0, 0.5, 1.0, 0.0))
        if math.isnan(a):
            want = (ValueError, "base point must be finite, got nan")
        else:
            want = (DomainError, f"approach from {side} at a={a:g} leaves the domain")
        assert outcome(lambda: kg_lfd(f, a, 0.5, direction)) == want
        assert calls == []

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_base_is_refused_by_every_entry_point(self, a):
        # one error from all three, before f is evaluated or a schedule is cut
        f, calls = counting(make_power_cusp(0.0, 0.5, 1.0, 0.0))
        want = (ValueError, f"base point must be finite, got {a}")
        for run in (lambda: rl_integral(f, a, 0.5, 0.5),
                    lambda: rl_derivative(f, a, 0.5, [0.5, 1.0]),
                    lambda: kg_lfd(f, a, 0.5, FWD),
                    lambda: kg_lfd(f, a, 0.5, BWD, scheme=JACOBI)):
            assert outcome(run) == want
        assert calls == []

    @pytest.mark.parametrize("scheme", SCHEMES.values(), ids=SCHEMES.keys())
    def test_constant_keeps_the_sign_of_zero(self, scheme):
        # f(x) - f(a) forward and f(a) - f(x) backward are +0.0, and so
        # is every divided difference f(x) - f(t); backward subtracts
        # their sum rather than negating it, so both limits read +0.0 at
        # every step
        f = make_polynomial((2.5,))
        for direction in (FWD, BWD):
            est = kg_lfd(f, 0.3, 0.5, direction, scheme=scheme)
            assert est.status is LimitStatus.CONVERGED
            assert same_bits(est.value, 0.0)
            assert same_bits(est.tail_values, [0.0] * 4)
            assert same_bits(est.residual, 0.0)
        # the derivative of the constant itself is its first term alone,
        # and that of zero is +0.0 on both sides of a
        xs = np.array([0.5, -0.2])
        want = 2.5 / np.abs(xs - 0.3) ** 0.5 / math.gamma(0.5)
        assert same_bits(rl_derivative(f, 0.3, 0.5, xs, scheme), want)
        zero = make_polynomial((0.0,))
        assert same_bits(rl_derivative(zero, 0.3, 0.5, xs, scheme), [0.0, 0.0])


class TestKgLfdRescaled:
    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_cusp_cross_check(self, direction):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        est = kg_lfd_rescaled(f, 0.0, 0.5, direction)
        assert est.status is LimitStatus.CONVERGED
        assert est.value == pytest.approx(GAMMA_15, abs=2e-3)

    def test_agrees_with_plain_form(self):
        f = make_power_cusp(0.0, 0.5, 2.0, 0.0)
        plain = kg_lfd(f, 0.0, 0.5, FWD)
        scaled = kg_lfd_rescaled(f, 0.0, 0.5, FWD)
        assert scaled.value == pytest.approx(plain.value, abs=2e-3)


class TestEquivalence:
    def test_cusp_passes(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        rep = check_lfd_equivalence(f, 0.0, 0.5, FWD)
        assert rep.passed
        assert rep.velocity == 1.0
        assert rep.lfd.value == pytest.approx(GAMMA_15, abs=5e-4)
        assert rep.equivalence_gap <= rep.combined_tolerance

    def test_scaled_velocity_reported(self):
        f = make_power_cusp(0.0, 0.5, 2.0, 0.0)
        rep = check_lfd_equivalence(f, 0.0, 0.5, BWD)
        assert rep.velocity_scaled == pytest.approx(2.0 * GAMMA_15, rel=1e-12)

    def test_oscillatory_velocity_refused(self):
        c = make_chirp(0.5, 0.0)
        with pytest.raises(PreconditionError):
            check_lfd_equivalence(c, 0.0, 0.5, FWD)

    def test_graded_cusp_passes_at_every_beta(self):
        # the default graded rule on a unit cusp, both ways, small beta first
        betas = [0.1, 0.15, 0.2] + np.linspace(0.03, 0.97, 48).tolist()
        failed = [(beta, direction.value) for beta in betas for direction in (FWD, BWD)
                  if not check_lfd_equivalence(make_power_cusp(0.0, beta, 1.0, 0.0), 0.0,
                                               beta, direction).passed]
        assert failed == []

    def test_zero_velocity_smooth_point(self):
        f = power(2.0)
        rep = check_lfd_equivalence(f, 0.0, 0.5, FWD)
        assert rep.passed
        assert abs(rep.velocity) <= 1e-6
        assert abs(rep.lfd.value) <= 1e-3


class TestGammaBits:
    """Gamma comes from math.gamma, bit for bit.

    Each order here is one where scipy.special.gamma gives a different
    double, so a switch of Gamma would move lfd bytes.
    """

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.75])
    def test_scaled_velocity_uses_math_gamma(self, beta):
        rep = check_lfd_equivalence(make_power_cusp(0.0, beta, 2.0, 0.0), 0.0, beta, FWD)
        assert rep.velocity == 2.0
        assert rep.velocity_scaled == math.gamma(1.0 + beta) * rep.velocity
        assert rep.velocity_scaled != float(scipy.special.gamma(1.0 + beta)) * rep.velocity

    @pytest.mark.parametrize("mu", [0.4, 0.6, 0.7, 0.9])
    def test_integral_of_a_constant_divides_by_math_gamma(self, mu):
        def one(t):
            return np.ones_like(t)
        raw, failed = rlcalc._quad_ladder(one, 0.0, mu, np.array([1.0]),
                                          QuadScheme.GRADED_PRODUCT)
        assert failed is None
        value = rl_integral(one, 0.0, mu, 1.0)
        assert value == float(raw[0]) / math.gamma(mu)
        assert value != float(raw[0]) / float(scipy.special.gamma(mu))


def jacobi_polys(m_max, alpha, s):
    """P_0 .. P_m_max of the Jacobi family P^(alpha,0) at s, one row per degree.

    The textbook recurrence (DLMF 18.9.1) with beta = 0 and
    P_1 = (alpha+1) + (alpha+2)(s-1)/2.
    """
    p = [np.ones_like(s), (alpha + 1.0) + (alpha + 2.0) * (s - 1.0) / 2.0]
    for m in range(2, m_max + 1):
        c = 2.0 * m + alpha
        p.append(((c - 1.0) * (c * (c - 2.0) * s + alpha * alpha) * p[-1]
                  - 2.0 * (m + alpha - 1.0) * (m - 1.0) * c * p[-2])
                 / (2.0 * m * (m + alpha) * (c - 2.0)))
    return np.array(p)


EPS = np.finfo(float).eps
JACOBI_GRID = [(n, alpha) for n in (8, 64, 256, 1024) for alpha in (-0.999, -0.5, -1e-6)]


class TestJacobiRule:
    # Largest relative weight gap to scipy.special.roots_jacobi: the sum
    # of the two rules' largest relative errors against weights computed
    # with mpmath at 50 digits, rounded up in the second digit.  The
    # nodes of both lie within 3.4e-16 of mpmath's, and within 1.5 eps
    # of each other.
    WEIGHT_GAP = {
        (8, -0.999): 9.9e-12, (8, -0.5): 9.1e-15, (8, -1e-6): 1.9e-14,
        (64, -0.999): 1.8e-9, (64, -0.5): 4.3e-12, (64, -1e-6): 1.3e-12,
        (256, -0.999): 1.8e-7, (256, -0.5): 2.9e-10, (256, -1e-6): 4.6e-10,
        (1024, -0.999): 3.2e-6, (1024, -0.5): 5.7e-9, (1024, -1e-6): 2.5e-8,
    }

    @pytest.mark.parametrize("n, alpha", JACOBI_GRID)
    def test_exact_through_degree_2n_minus_1(self, n, alpha):
        s, w = rlcalc._jacobi_rule(n, alpha)
        mass = 2.0 ** (alpha + 1.0) / (alpha + 1.0)
        assert abs(w.sum() - mass) <= 4.0 * EPS * mass
        # exact through degree 2n-1; the largest moment measured is
        # 4.3e-11 * mass, at (1024, -0.999)
        moments = jacobi_polys(2 * n - 1, alpha, s)[1:] @ w
        assert np.abs(moments).max() <= 1e-10 * mass

    @pytest.mark.parametrize("n, alpha", JACOBI_GRID)
    def test_matches_scipy_roots_jacobi(self, n, alpha):
        s, w = rlcalc._jacobi_rule(n, alpha)
        s_ref, w_ref = scipy.special.roots_jacobi(n, alpha, 0.0)
        assert np.all(np.diff(s) > 0.0)
        assert np.abs(s - s_ref).max() <= 1.5 * EPS
        assert (np.abs(w - w_ref) / w_ref).max() <= self.WEIGHT_GAP[n, alpha]

    def test_newton_cap_raises(self):
        with mock.patch.object(rlcalc, "JACOBI_NEWTON_CAP", 2):
            with pytest.raises(QuadratureError, match="did not settle in 2 Newton steps"):
                rlcalc._jacobi_rule(64, -0.5)
            # an order no other test builds a rule for, so _unit_rule's cache is cold
            with pytest.raises(QuadratureError, match="did not settle"):
                rl_integral(lambda t: t, 0.0, 0.4321, 1.0, JACOBI)


def counting(f):
    """f with its domain, and the list of the sizes of the calls made to it."""
    calls = []

    def g(t):
        calls.append(np.size(t))
        return f(t)

    g.domain = getattr(f, "domain", (-math.inf, math.inf))
    return g, calls


def outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except Exception as e:
        return type(e), str(e)


def same_outcome(got, want) -> bool:
    if isinstance(got, tuple) or isinstance(want, tuple):
        # an error against values is a mismatch, not an array comparison
        return type(got) is type(want) and got == want
    return same_bits(got, want)


def building(scheme):
    """Patch scheme's _RULES builder with a spy; the list of its (mu, n) builds."""
    builder, cap = rlcalc._RULES[scheme]
    builds = []

    def spy(mu, n):
        builds.append((mu, n))
        return builder(mu, n)

    return mock.patch.dict(rlcalc._RULES, {scheme: (spy, cap)}), builds


@settings(max_examples=25, deadline=None)
@given(scheme=st.sampled_from(list(QuadScheme)), mu=st.floats(1e-3, 1.0 - 1e-3),
       n=st.integers(8, JACOBI_NODE_CAP))
def test_unit_rule_cache_is_the_rule(scheme, mu, n):
    # what the cache hands every caller is the builder's rule, bit for
    # bit, and no caller can write to it
    cached = rlcalc._unit_rule(scheme, mu, n)
    fresh = rlcalc._RULES[scheme][0](mu, n)
    for got, want in zip(cached, fresh):
        assert same_bits(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.5


class TestUnitRuleCache:
    @pytest.mark.parametrize("scheme", SCHEMES.values(), ids=SCHEMES.keys())
    def test_second_lfd_builds_nothing(self, scheme):
        # an order no other test uses: the first kg_lfd builds each of its
        # levels once, and the second takes them all from the cache
        f = make_power_cusp(0.0, 0.4567, 1.0, 0.0)
        patch, builds = building(scheme)
        with patch:
            first = kg_lfd(f, 0.0, 0.4567, BWD, scheme=scheme)
            levels = list(builds)
            second = kg_lfd(f, 0.0, 0.4567, BWD, scheme=scheme)
        assert levels and len(set(levels)) == len(levels)
        assert builds == levels
        for name in ("value", "tail_values", "residual"):
            assert same_bits(getattr(second, name), getattr(first, name))
        assert repr(second) == repr(first)

    def test_rules_above_the_node_bound_stay_out_of_the_cache(self):
        # 128 rules of at most JACOBI_NODE_CAP + 1 nodes, two arrays of
        # doubles each, hold at most 2.1 MB
        info = rlcalc._unit_rule.cache_info
        assert info().maxsize * 2 * (JACOBI_NODE_CAP + 1) * 8 <= 2.1e6
        # a row that never settles takes the graded ladder to its cap
        wild = lambda t: np.cos(1e7 * np.asarray(t, dtype=float))
        patch, builds = building(QuadScheme.GRADED_PRODUCT)
        before = info()
        with (patch, mock.patch.object(rlcalc, "QUAD_N0", 2 * JACOBI_NODE_CAP),
              pytest.raises(QuadratureError, match=f"by {GRADED_NODE_CAP} nodes")):
            rl_integral(wild, 0.0, 0.5, 1.0)
        assert info() == before
        assert [n for _, n in builds] == [2 ** k for k in range(11, 17)]
        # from 256 nodes, at an order no other test uses, only the levels
        # up to the bound are looked up, and each misses once
        del builds[:]
        with patch, mock.patch.object(rlcalc, "QUAD_N0", 256), pytest.raises(QuadratureError):
            rl_integral(wild, 0.0, 0.3579, 1.0)
        assert [n for _, n in builds] == [2 ** k for k in range(8, 17)]
        after = info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 3)
        assert after.currsize <= after.maxsize == 128

    @pytest.mark.parametrize("scheme", SCHEMES.values(), ids=SCHEMES.keys())
    def test_order_may_be_a_0d_array(self, scheme):
        # the order is a cache key, so it is taken as a float
        want = rl_integral(lambda t: t, 0.0, 0.5, 1.0, scheme)
        assert same_bits(rl_integral(lambda t: t, 0.0, np.array(0.5), 1.0, scheme), want)


def _integrand(kind, c, p):
    if kind == "cusp":
        return make_power_cusp(c, p, 1.5, 0.25)   # domain (c-2, c+2)
    if kind == "power":
        return lambda t: np.abs(np.asarray(t, dtype=float) - c) ** p
    return lambda t: np.exp(p * np.asarray(t, dtype=float)) * np.cos(3.0 * np.asarray(t) + c)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cusp", "power", "smooth"]),
       scheme=st.sampled_from(sorted(SCHEMES)),
       c=st.floats(-1.0, 1.0), p=st.floats(0.1, 0.9), shift=st.floats(-0.4, 0.4),
       mu=st.floats(0.1, 0.9),
       offsets=st.lists(st.floats(0.01, 1.5), min_size=1, max_size=6),
       below=st.lists(st.booleans(), min_size=6, max_size=6),
       direction=st.sampled_from([FWD, BWD]))
def test_batched_quadrature_equals_the_per_point_loop(kind, scheme, c, p, shift, mu,
                                                       offsets, below, direction):
    # the batched ladder gives every point the bits, or the error, of a loop
    # that integrates the points one at a time, on either side of a
    f, scheme, a = _integrand(kind, c, p), SCHEMES[scheme], c + shift
    xs = a + np.array([-o if b else o for o, b in zip(offsets, below)])
    assert same_outcome(outcome(lambda: rl_integral(f, a, mu, xs, scheme)),
                        outcome(lambda: reference_rl_integral(f, a, mu, xs, scheme)))
    assert same_outcome(outcome(lambda: rl_derivative(f, a, 1.0 - mu, xs, scheme)),
                        outcome(lambda: reference_rl_derivative(f, a, 1.0 - mu, xs, scheme)))

    got = outcome(lambda: repr(kg_lfd(f, a, 1.0 - mu, direction, scheme=scheme)))
    assert got == outcome(lambda: repr(reference_kg_lfd(f, a, 1.0 - mu, direction,
                                                        scheme=scheme)))


@settings(max_examples=25, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEMES)), a=st.floats(-1.0, 1.0),
       c=st.floats(-2.0, 2.0), K=st.floats(-2.0, 2.0), alpha=st.floats(0.05, 2.0),
       beta=st.floats(0.05, 0.95),
       offsets=st.lists(st.floats(0.01, 1.5), min_size=1, max_size=4),
       below=st.lists(st.booleans(), min_size=4, max_size=4))
# divided differences that are round-off beside the first term settle with it
@example(scheme="graded", a=0.0, c=1.0, K=5.852177440823225e-15, alpha=1.0, beta=0.75,
         offsets=[1.0], below=[False] * 4)
def test_marchaud_derivative_of_constant_plus_power(scheme, a, c, K, alpha, beta,
                                                    offsets, below):
    # D^beta of c + K |t-a|**alpha at x, on either side of a, is
    # c |x-a|**-beta / G(1-beta) + K G(alpha+1) / G(alpha+1-beta) |x-a|**(alpha-beta);
    # the two terms may cancel, so the bound is relative to their sizes.
    # The worst seen over 400 draws, a tenth of them with |K| below 2e-14,
    # was 2.9e-5 graded and 4.2e-7 Jacobi.
    def f(t):
        return c + K * np.abs(np.asarray(t, dtype=float) - a) ** alpha

    xs = a + np.array([-o if b else o for o, b in zip(offsets, below)])
    dist = np.abs(xs - a)
    first = c * dist ** -beta / math.gamma(1.0 - beta)
    second = K * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.0 - beta) * dist ** (alpha - beta)
    got = rl_derivative(f, a, beta, xs, SCHEMES[scheme])
    assert np.all(np.abs(got - (first + second))
                  <= rlcalc.QUAD_REL_CHANGE * (np.abs(first) + np.abs(second)))


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEMES)),
       doublings=st.integers(3, 7), per_call=st.integers(1, 2),
       a=st.floats(-1.0, 1.0), mu=st.floats(0.1, 0.9), log_k=st.floats(1.0, 3.5),
       offsets=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=32),
       below=st.lists(st.booleans(), min_size=32, max_size=32),
       reach_below=st.floats(0.5, 2.0), reach_above=st.floats(0.5, 2.0))
def test_split_ladder_keeps_the_loop_outcome(scheme, doublings, per_call, a, mu, log_k, offsets,
                                             below, reach_below, reach_above):
    # the call bound holds per_call rows at the cap, so levels split into
    # blocks; rows settle at depths set by the frequency and their length,
    # and a row reaching past a - reach_below or a + reach_above sees an
    # oscillation no mesh resolves, so it never settles
    scheme = SCHEMES[scheme]
    _, cap = rlcalc._RULES[scheme]
    # a row's nodes at the cap: only the graded mesh has n + 1
    bound = per_call * (cap + (scheme is QuadScheme.GRADED_PRODUCT))
    lo, hi, k = a - reach_below, a + reach_above, 10.0 ** log_k

    def wild(t):
        t = np.asarray(t, dtype=float)
        return np.cos(k * t) + np.where((t < lo) | (t > hi), 1e3 * np.cos(1e7 * t), 0.0)

    xs = a + np.array([-o if b else o for o, b in zip(offsets, below)])
    # the loop, point by point up to the first point it fails on
    want = []
    f, sizes = counting(wild)
    with mock.patch.object(rlcalc, "QUAD_N0", cap >> doublings):
        for x in xs.tolist():
            want.append(outcome(lambda: reference_rl_integral(wild, a, mu, [x], scheme)))
            if isinstance(want[-1], tuple):
                break
        with mock.patch.object(diffops, "EVAL_CALL_POINTS", bound):
            got = outcome(lambda: rl_integral(f, a, mu, xs, scheme))
            value, _ = rlcalc._quad_ladder(f, a, mu, xs, scheme)
    failed = isinstance(want[-1], tuple)
    assert same_outcome(got, want[-1] if failed else np.concatenate(want))
    # every point before the one the loop fails on has its final bits
    settled = want[:-1] if failed else want
    if settled:
        assert same_bits(value[:len(settled)] / math.gamma(mu), np.concatenate(settled))
    assert max(sizes) <= bound


class TestBatchedLadder:
    # the ids predate the scheme argument, and are kept so that runs compare
    @pytest.mark.parametrize("scheme, bound", [(QuadScheme.GRADED_PRODUCT, EVAL_CALL_POINTS),
                                               (JACOBI, EVAL_CALL_POINTS)],
                             ids=["config0-65537", "config1-65537"])
    def test_no_evaluator_call_exceeds_the_block_bound(self, scheme, bound):
        # a new constant at each call never settles, so every point runs
        # the whole ladder up to the cap, on both sides of the base point
        sizes = []

        def f(t):
            sizes.append(np.size(t))
            return np.full(np.shape(t), float(len(sizes)))

        xs = np.concatenate([np.linspace(-1.0, -0.05, 20), np.linspace(0.05, 1.0, 20)])
        with pytest.raises(QuadratureError, match="no stabilization"):
            rl_integral(f, 0.0, 0.5, xs, scheme)
        assert bound // 2 < max(sizes) <= bound

    def test_jacobi_calls_split_at_the_bound(self):
        # at 1024 nodes a call holds 64 rows: 100 rows take two calls, and
        # the pass stops after the first, whose rows do not settle
        sizes = []

        def f(t):
            sizes.append(np.size(t))
            return np.full(np.shape(t), float(len(sizes)))

        with pytest.raises(QuadratureError, match="no stabilization by 1024 nodes"):
            rl_integral(f, 0.0, 0.5, np.linspace(0.01, 1.0, 100), JACOBI)
        assert max(sizes) == sizes[-1] == 64 * 1024 <= EVAL_CALL_POINTS

    def test_chirp_raises_what_the_per_integral_loop_raises(self):
        c = make_chirp(0.5, 0.0)
        got = outcome(lambda: kg_lfd(c, 0.0, 0.5, FWD))
        want = outcome(lambda: reference_kg_lfd(c, 0.0, 0.5, FWD))
        assert got == want == (QuadratureError, "no stabilization by 65536 nodes")

    def test_rows_past_the_failing_one_stop_doubling(self):
        # doubling every unsettled row together until a call held a single
        # row, then finishing the rows one at a time, took 1,300,773
        # evaluator points here
        c, calls = counting(make_chirp(0.5, 0.0))
        got = outcome(lambda: kg_lfd(c, 0.0, 0.5, FWD))
        assert got == (QuadratureError, "no stabilization by 65536 nodes")
        assert sum(calls) <= 1_300_773 // 2

    def test_rows_doubled_depth_first_keep_the_loop_bits(self):
        # from 2**15 nodes a call holds one row, so each row runs through
        # every deeper level before the next row is doubled
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)
        xs = [0.7, -0.3, 1.5, -1.9]
        with mock.patch.object(rlcalc, "QUAD_N0", 2 ** 14):
            got = rl_integral(f, 0.0, 0.4, xs)
            assert same_bits(got, reference_rl_integral(f, 0.0, 0.4, xs))

    def test_first_bad_point_raises_its_domain_error(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)   # domain (-2, 2)
        xs = [0.5, -1.0, -2.5, 3.0, 1.0]
        want = (DomainError, "[-2.5, 0] is not inside the domain [-2, 2]")
        assert outcome(lambda: rl_integral(f, 0.0, 0.5, xs)) == want
        assert outcome(lambda: reference_rl_integral(f, 0.0, 0.5, xs)) == want
        assert outcome(lambda: rl_derivative(f, 0.0, 0.5, xs)) == want
        assert outcome(lambda: reference_rl_derivative(f, 0.0, 0.5, xs)) == want
        # points near either edge reach no further than their own spans
        xs = [0.5, 1.9, -1.9]
        assert same_bits(rl_derivative(f, 0.0, 0.5, xs), reference_rl_derivative(f, 0.0, 0.5, xs))

    def test_span_that_overflows_fails_in_loop_order(self):
        # the point before it is integrated first, as a loop does
        f = lambda t: np.asarray(t, dtype=float) * 0.0 + 1.0
        want = (ValueError, "the length of [-1e+308, 1e+308] must be finite")
        for call in (rl_integral, rl_derivative, reference_rl_integral, reference_rl_derivative):
            assert outcome(lambda: call(f, -1e308, 0.5, [0.5, 1e308])) == want

    @staticmethod
    def picky(limit):
        """The unit cusp, refusing any call with a point beyond limit in size."""
        cusp = make_power_cusp(0.0, 0.5, 1.0, 0.0)

        def f(t):
            t = np.asarray(t, dtype=float)
            if np.any(np.abs(t) > limit):
                raise RuntimeError(f"refused {t.size} points up to {np.abs(t).max():g}")
            return cusp(t)

        f.domain = cusp.domain
        return f

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_refusing_evaluator_raises_what_the_loop_raises(self, scheme):
        # the first refused point is -0.7, though the first call of a
        # batch would hold 0.9 too
        f, scheme = self.picky(0.6), SCHEMES[scheme]
        xs = [0.3, -0.5, -0.7, 0.9]
        got = outcome(lambda: rl_integral(f, 0.0, 0.5, xs, scheme))
        assert got == outcome(lambda: reference_rl_integral(f, 0.0, 0.5, xs, scheme))
        assert got[0] is RuntimeError
        # the batched f(x) call holds 0.7 and 0.9; the loop's first refused
        # call is f(-0.7) alone
        got = outcome(lambda: rl_derivative(f, 0.0, 0.5, xs, scheme))
        assert got == outcome(lambda: reference_rl_derivative(f, 0.0, 0.5, xs, scheme))
        assert got == (RuntimeError, "refused 1 points up to 0.7")

        # a band inside the first step's span, [-0.5, 0], holds none of
        # the approach points, so f(a) and every f(a - eps) pass, and the
        # first refused call of the loop holds that step's nodes alone
        cusp = make_power_cusp(0.0, 0.5, 1.0, 0.0)

        def band(t):
            t = np.asarray(t, dtype=float)
            if np.any((-0.3 < t) & (t < -0.26)):
                raise RuntimeError(f"refused {t.size} points up to {np.abs(t).max():g}")
            return cusp(t)

        band.domain = cusp.domain
        approach = EpsilonSchedule(0.5, 0.5, 16)
        f, calls = counting(band)
        got = outcome(lambda: kg_lfd(f, 0.0, 0.5, BWD, approach, scheme))
        f, loop_calls = counting(band)
        assert got == outcome(lambda: reference_kg_lfd(f, 0.0, 0.5, BWD, approach, scheme))
        assert got[0] is RuntimeError
        # after the refused batch, each step takes its f(x) in a call of
        # its own, then its integral, as the loop does after f(a)
        assert calls[2:] == loop_calls[1:]

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_refused_approach_point_raises_what_the_loop_raises(self, scheme, direction):
        # the first step, 0.5 from a, is refused: the loop's first refused
        # call is that step's f(x) alone, not the call of f(a) and every
        # step together
        f, scheme = self.picky(0.4), SCHEMES[scheme]
        approach = EpsilonSchedule(0.5, 0.5, 16)
        got = outcome(lambda: kg_lfd(f, 0.0, 0.5, direction, approach, scheme))
        want = outcome(lambda: reference_kg_lfd(f, 0.0, 0.5, direction, approach, scheme))
        assert got == want == (RuntimeError, "refused 1 points up to 0.5")

    def test_unsettled_step_before_a_refused_step_raises_first(self):
        # a new constant at each call never settles, so the loop raises
        # the first step's QuadratureError before it reaches the refused
        # fourth step, whose f(x) the first call of kg_lfd holds
        approach = EpsilonSchedule(0.5, 0.5, 16)
        refused = float(approach.increments(0.0)[3])

        def run(lfd):
            sizes = []

            def f(t):
                t = np.asarray(t, dtype=float)
                if np.any(t == refused):
                    raise RuntimeError(f"refused {t.size} points")
                sizes.append(t.size)
                return np.full(t.shape, float(len(sizes)))

            return outcome(lambda: lfd(f, 0.0, 0.5, FWD, approach, JACOBI))

        want = (QuadratureError, "no stabilization by 1024 nodes")
        assert run(kg_lfd) == run(reference_kg_lfd) == want

    def test_a_batch_the_evaluator_refuses_is_replayed(self):
        # calls of one point's nodes pass, so the loop's values come out
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)

        def small_calls_only(t):
            if np.size(t) > GRADED_NODE_CAP // 2:
                raise MemoryError("call too large")
            return f(t)

        small_calls_only.domain = f.domain
        xs = np.linspace(-1.5, 1.5, 8)
        got = rl_integral(small_calls_only, 0.1, 0.5, xs)
        assert same_bits(got, reference_rl_integral(f, 0.1, 0.5, xs))
