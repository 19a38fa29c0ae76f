import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma

from common import (
    GAMMA_15,
    RL_LINEAR_AT_1,
    kg_lfd_rescaled,
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
    QuadratureConfig,
    QuadratureError,
    check_lfd_equivalence,
    kg_lfd,
    make_chirp,
    make_power_cusp,
    rl_derivative,
    rl_integral,
    rlcalc,
)
from fracvel.rlcalc import GRADED_NODE_CAP, JACOBI_NODE_CAP

FWD = Direction.FORWARD
BWD = Direction.BACKWARD

JACOBI = QuadratureConfig(scheme=QuadScheme.JACOBI_WEIGHTED)
SCHEMES = {"graded": QuadratureConfig(), "jacobi": JACOBI}


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
                                      (0.0, -math.inf), (0.0, [math.nan, 0.5])])
    def test_non_finite_points_rejected_before_any_evaluation(self, a, x):
        f, calls = counting(lambda t: np.asarray(t, dtype=float))
        with pytest.raises(ValueError, match="must be finite"):
            rl_integral(f, a, 0.5, x)
        with pytest.raises(ValueError, match="must be finite"):
            rl_derivative(f, a, 0.5, x)
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

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, h):
        f, calls = counting(lambda t: np.asarray(t, dtype=float))
        with pytest.raises(ValueError, match="difference step must be finite"):
            rl_derivative(f, 0.0, 0.5, 0.1, h_diff=h)
        assert calls == []


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
        return got == want
    return same_bits(got, want)


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
    # the active set gives every point the bits, or the error, of a loop
    # that integrates the points one at a time, on either side of a
    f, config, a = _integrand(kind, c, p), SCHEMES[scheme], c + shift
    xs = a + np.array([-o if b else o for o, b in zip(offsets, below)])
    assert same_outcome(outcome(lambda: rl_integral(f, a, mu, xs, config)),
                        outcome(lambda: reference_rl_integral(f, a, mu, xs, config)))
    assert same_outcome(outcome(lambda: rl_derivative(f, a, 1.0 - mu, xs, config)),
                        outcome(lambda: reference_rl_derivative(f, a, 1.0 - mu, xs, config)))

    def lfd():
        return repr(kg_lfd(f, a, 1.0 - mu, direction, config=config))

    got = outcome(lfd)
    with mock.patch.object(rlcalc, "rl_derivative", reference_rl_derivative):
        assert got == outcome(lfd)


class TestBatchedLadder:
    @pytest.mark.parametrize("config, bound", [(QuadratureConfig(), GRADED_NODE_CAP + 1),
                                               (JACOBI, JACOBI_NODE_CAP)])
    def test_no_evaluator_call_exceeds_the_block_bound(self, config, bound):
        # a new constant at each call never settles, so every point runs
        # the whole ladder up to the cap, on both sides of the base point
        sizes = []

        def f(t):
            sizes.append(np.size(t))
            return np.full(np.shape(t), float(len(sizes)))

        xs = np.concatenate([np.linspace(-1.0, -0.05, 20), np.linspace(0.05, 1.0, 20)])
        with pytest.raises(QuadratureError, match="no stabilization"):
            rl_integral(f, 0.0, 0.5, xs, config)
        assert bound // 2 < max(sizes) <= bound

    def test_chirp_raises_what_the_per_integral_loop_raises(self):
        c = make_chirp(0.5, 0.0)
        got = outcome(lambda: kg_lfd(c, 0.0, 0.5, FWD))
        with mock.patch.object(rlcalc, "rl_integral", reference_rl_integral):
            want = outcome(lambda: kg_lfd(c, 0.0, 0.5, FWD))
        assert got == want == (QuadratureError, "no stabilization by 65536 nodes")

    def test_first_bad_point_raises_its_domain_error(self):
        f = make_power_cusp(0.0, 0.5, 1.0, 0.0)   # domain (-2, 2)
        xs = [0.5, -1.0, -2.5, 3.0, 1.0]
        want = (DomainError, "[-2.5, 0] is not inside the domain [-2, 2]")
        assert outcome(lambda: rl_integral(f, 0.0, 0.5, xs)) == want
        assert outcome(lambda: reference_rl_integral(f, 0.0, 0.5, xs)) == want
        # x + h of the second point leaves the domain before x - h of the third
        xs = [0.5, 1.9, -1.9]
        want = (DomainError, "[0, 2.1375] is not inside the domain [-2, 2]")
        assert outcome(lambda: rl_derivative(f, 0.0, 0.5, xs)) == want
        assert outcome(lambda: reference_rl_derivative(f, 0.0, 0.5, xs)) == want

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
        f, config = self.picky(0.6), SCHEMES[scheme]
        xs = [0.3, -0.5, -0.7, 0.9]
        got = outcome(lambda: rl_integral(f, 0.0, 0.5, xs, config))
        assert got == outcome(lambda: reference_rl_integral(f, 0.0, 0.5, xs, config))
        assert got[0] is RuntimeError

        # the first step's x - h integral reaches -0.5625: the loop's
        # call holds that one integral's nodes
        f = self.picky(0.5)

        def lfd():
            return kg_lfd(f, 0.0, 0.5, BWD, EpsilonSchedule(0.5, 0.5, 16), config)

        got = outcome(lfd)
        with mock.patch.object(rlcalc, "rl_integral", reference_rl_integral):
            assert got == outcome(lfd)
        assert got[0] is RuntimeError

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
