import math

import numpy as np
import pytest
from scipy.special import gamma

from common import GAMMA_15, RL_LINEAR_AT_1, kg_lfd_rescaled
from fracvel import (
    Direction,
    EpsilonSchedule,
    LimitStatus,
    PreconditionError,
    QuadScheme,
    QuadratureConfig,
    QuadratureError,
    check_lfd_equivalence,
    kg_lfd,
    make_chirp,
    make_power_cusp,
    rl_derivative,
    rl_integral,
)

FWD = Direction.FORWARD
BWD = Direction.BACKWARD

JACOBI = QuadratureConfig(scheme=QuadScheme.JACOBI_WEIGHTED)


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
        exact = gamma(p + 1.0) / gamma(p + 1.0 + mu) * x ** (p + mu)
        got = rl_integral(power(p), 0.0, mu, x)
        assert got == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_jacobi_scheme_agrees_on_smooth_integrands(self, mu, p):
        exact = gamma(p + 1.0) / gamma(p + 1.0 + mu) * 1.5 ** (p + mu)
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
        exact = gamma(3.0) / gamma(3.5) * 1.0 ** 2.5
        assert rl_integral(f, 2.0, 0.5, 3.0) == pytest.approx(exact, rel=1e-4)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            rl_integral(lambda t: t, 0.0, 0.5, 0.0)

    def test_order_bounds(self):
        for mu in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                rl_integral(lambda t: t, 0.0, mu, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(n_nodes=4)

    @pytest.mark.parametrize("config", [QuadratureConfig(2 ** 17),
                                        QuadratureConfig(2 ** 11, QuadScheme.JACOBI_WEIGHTED)])
    def test_start_past_the_cap_evaluates_nothing(self, config):
        calls = []

        def f(t):
            calls.append(np.size(t))
            return np.asarray(t, dtype=float)

        with pytest.raises(QuadratureError,
                           match=f"{config.n_nodes} starting nodes leave no room to double"):
            rl_integral(f, 0.0, 0.5, 1.0, config)
        assert calls == []

    def test_unresolvable_integrand_raises(self):
        # 1024-node cap of the weighted-gauss scheme cannot track this
        f = lambda t: np.cos(50000.0 * np.asarray(t, dtype=float))
        with pytest.raises(QuadratureError):
            rl_integral(f, 0.0, 0.5, 1.0, JACOBI)


class TestRlDerivative:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_derivative_of_matching_power_is_constant(self, beta):
        # D^beta t^beta = G(1+beta) independent of x
        f = power(beta)
        for x in (0.25, 0.5, 1.0):
            got = rl_derivative(f, 0.0, beta, x)
            assert got == pytest.approx(gamma(1.0 + beta), rel=1e-3)

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

    def test_step_must_fit(self):
        with pytest.raises(ValueError):
            rl_derivative(lambda t: t, 0.0, 0.5, 0.1, h_diff=0.2)


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

    def test_domain_reach_checked(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)  # domain (-2, 2)
        with pytest.raises(Exception) as exc_info:
            kg_lfd(f, 1.99, 0.5, FWD)
        assert "leaves the domain" in str(exc_info.value)


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

    def test_zero_velocity_smooth_point(self):
        f = power(2.0)
        rep = check_lfd_equivalence(f, 0.0, 0.5, FWD)
        assert rep.passed
        assert abs(rep.velocity) <= 1e-6
        assert abs(rep.lfd.value) <= 1e-3
