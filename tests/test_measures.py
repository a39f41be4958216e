import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from sticksoup.measures import (
    BallShape,
    RadiusAtLeast,
    RadiusBelow,
    SegmentShape,
    annulus_crossing_bounds,
    decorrelation_bound,
    lr1_measure,
    mu_double_circle,
    mu_hit,
)


class TestMuHit:
    def test_segment_at_least(self):
        assert mu_hit(2, SegmentShape(1), RadiusAtLeast(1)) == pytest.approx(8 / math.pi)

    def test_segment_below_small_alpha(self):
        assert mu_hit(0.5, SegmentShape(1), RadiusBelow(1)) == pytest.approx(4 / math.pi)

    def test_infinite_rows(self):
        assert mu_hit(1.0, BallShape(1), RadiusAtLeast(1)) == math.inf
        assert mu_hit(0.8, SegmentShape(1), RadiusAtLeast(1)) == math.inf
        assert mu_hit(1.0, SegmentShape(1), RadiusBelow(1)) == math.inf
        assert mu_hit(2.5, BallShape(3), RadiusBelow(0.1)) == math.inf

    def test_ball_at_least_formula(self):
        got = mu_hit(2, BallShape(1), RadiusAtLeast(1))
        assert got == pytest.approx(math.pi + 8)

    @given(st.floats(0.05, 20), st.floats(0.05, 20))
    @settings(max_examples=100)
    def test_linear_in_segment_length(self, a, r):
        one = mu_hit(2, SegmentShape(1.0), RadiusAtLeast(r))
        assert mu_hit(2, SegmentShape(a), RadiusAtLeast(r)) == pytest.approx(a * one)

    @given(st.floats(0.05, 10), st.floats(1.01, 5))
    @settings(max_examples=100)
    def test_monotone_decreasing_in_r(self, r, factor):
        lo = mu_hit(2, BallShape(1), RadiusAtLeast(r))
        hi = mu_hit(2, BallShape(1), RadiusAtLeast(r * factor))
        assert hi <= lo


class TestDoubleCircle:
    def test_exact_at_two(self):
        assert mu_double_circle(2.0) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_infinite_outside_window(self):
        assert mu_double_circle(1.0) == math.inf
        assert mu_double_circle(0.5) == math.inf
        assert mu_double_circle(3.0) == math.inf
        assert mu_double_circle(4.0) == math.inf

    def test_long_component_at_two_point_five(self):
        # the 2R >= 2 contribution alone
        assert 4 * 2.5 / 1.5 - math.pi == pytest.approx(3.5251, abs=5e-5)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("alpha", [1.3, 1.8, 2.5, 2.9])
    def test_against_quadrature_oracle(self, alpha):
        # the integrand behaves like (2/3) alpha x^(2 - alpha) at 0; quad
        # takes that endpoint power as an algebraic weight
        def g(x):
            if x == 0.0:
                return 2 * alpha / 3
            return (4 * x - 2 * math.asin(x) - 2 * x * math.sqrt(1 - x * x)) * alpha / x**3

        short = integrate.quad(g, 0, 1, weight="alg", wvar=(2 - alpha, 0), limit=400)[0]
        oracle = short + 4 * alpha / (alpha - 1) - math.pi
        assert mu_double_circle(alpha) == pytest.approx(oracle, rel=1e-10)

    def test_numeric_branch_continuous_at_two(self):
        for alpha in (2.0 - 1e-7, 2.0 + 1e-7):
            assert mu_double_circle(alpha) == pytest.approx(2 * math.pi, rel=1e-6)

    # 400-digit mpmath quadrature of the short-stick integral plus the
    # long-stick part 4 alpha / (alpha - 1) - pi
    @pytest.mark.parametrize("alpha, value", [
        (1.3, 14.751148462824321342),
        (1.8, 6.9362547962101393446),
        (2.5, 6.9921534781123194946),
        (2.9, 22.477315086821097137),
    ])
    def test_high_precision_values(self, alpha, value):
        assert mu_double_circle(alpha) == pytest.approx(value, rel=1e-13)


class TestAnnulusBounds:
    def test_reference_values(self):
        lower, upper = annulus_crossing_bounds(2, 1, 2)
        assert lower == pytest.approx(math.pi / 4 + 4)
        assert upper == pytest.approx(4 * math.pi + 16)

    def test_vanishing_at_large_gap(self):
        lower, upper = annulus_crossing_bounds(2, 1, 1e9)
        assert lower < 1e-8 and upper < 1e-7

    def test_argument_error(self):
        with pytest.raises(ValueError):
            annulus_crossing_bounds(2, 1, 1)

    @given(st.floats(1.1, 4), st.floats(0.05, 10), st.floats(1.05, 20))
    @settings(max_examples=200)
    def test_lower_below_upper_and_scaling(self, alpha, l1, ratio):
        l2 = l1 * ratio
        lower, upper = annulus_crossing_bounds(alpha, l1, l2)
        assert lower <= upper
        # both bounds scale as l1^(2 - alpha) * g(l2 / l1)
        c = 3.7
        lo2, up2 = annulus_crossing_bounds(alpha, c * l1, c * l2)
        factor = c ** (2 - alpha)
        assert lo2 == pytest.approx(lower * factor, rel=1e-9)
        assert up2 == pytest.approx(upper * factor, rel=1e-9)


class TestDecorrelation:
    def test_cap_active_nearby(self):
        assert decorrelation_bound(2, 1, 1, 2) == 2.0

    def test_far_apart_value(self):
        val = decorrelation_bound(2, 1, 1, 100)
        assert val == pytest.approx(4 * (4 * math.pi / 99 ** 2 + 16 / 99), rel=1e-9)
        assert val == pytest.approx(0.6517, abs=2e-4)

    @given(st.floats(1.1, 4), st.floats(0.01, 10), st.floats(0.05, 10), st.floats(1.1, 50))
    @settings(max_examples=200)
    def test_never_exceeds_two(self, alpha, u, l1, ratio):
        assert decorrelation_bound(alpha, u, l1, l1 * ratio) <= 2.0


class TestLr1Measure:
    def test_deterministic(self):
        a = lr1_measure(2.0, 1.0, 2.0, 4000, u=0.5, master_seed=11)
        b = lr1_measure(2.0, 1.0, 2.0, 4000, u=0.5, master_seed=11)
        assert a == b

    def test_scale_invariance_at_alpha_two(self):
        a = lr1_measure(2.0, 1.0, 1.0, 20000, master_seed=1)
        b = lr1_measure(2.0, 10.0, 1.0, 20000, master_seed=2)
        mu_a, se_a = a.params["mu_hat"], a.params["mu_std_error"]
        mu_b, se_b = b.params["mu_hat"], b.params["mu_std_error"]
        assert abs(mu_a - mu_b) < 3 * math.hypot(se_a, se_b)

    def test_monotone_in_aspect_ratio(self):
        # wider boxes are harder to cross: estimates decrease within CI slack
        mus = []
        for k in (0.5, 1.0, 2.0, 4.0):
            rep = lr1_measure(2.0, 1.0, k, 20000, master_seed=7)
            mus.append((rep.params["mu_hat"], rep.params["mu_std_error"]))
        for (m1, s1), (m2, s2) in zip(mus, mus[1:]):
            assert m2 <= m1 + 3 * math.hypot(s1, s2)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            lr1_measure(2.0, 1.0, 1.0, 0)

    def test_pinned_success_count(self):
        # recorded before the vertical-side test became the shared kernel
        assert lr1_measure(2.0, 1.0, 2.0, 20000, master_seed=7).successes == 461

    def test_probability_field(self):
        rep = lr1_measure(2.0, 1.0, 1.0, 5000, u=2.0, master_seed=3)
        assert rep.params["probability"] == pytest.approx(
            1 - math.exp(-2.0 * rep.params["mu_hat"])
        )

    @staticmethod
    def exact_lr1(alpha, k, l):
        """Measure of single sticks meeting both vertical sides of the kl x l
        box, from line coordinates: a line at angle v crosses both sides in
        an offset band of width (l - kl |tan v|) cos v, the centres whose
        stick covers its chord c = kl / cos v fill a length (2R - c)+, and
        the R-integral of that is (2 / (alpha - 1)) (c / 2)^(1 - alpha)."""
        def f(v):
            band = (l - k * l * abs(math.tan(v))) * math.cos(v)
            return band * (2 / (alpha - 1)) * (k * l / (2 * math.cos(v))) ** (1 - alpha)

        a = math.atan(1 / k)
        return integrate.quad(f, -a, a, epsabs=0, epsrel=1e-12)[0] / math.pi

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    def test_exact_law_closed_form_at_alpha_two(self, k):
        # at alpha = 2 the integral is 4 atan(1/k) / (pi k), whatever l is
        for l in (0.5, 2.0):
            closed = 4 * math.atan(1 / k) / (math.pi * k)
            assert self.exact_lr1(2.0, k, l) == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("alpha, k, l", [(2.0, 1.0, 1.0), (2.0, 3.0, 0.5),
                                             (2.5, 2.0, 1.0), (1.5, 1.0, 2.0)])
    def test_matches_exact_law(self, alpha, k, l):
        rep = lr1_measure(alpha, l, k, 100_000, master_seed=1)
        z = (rep.params["mu_hat"] - self.exact_lr1(alpha, k, l)) / rep.params["mu_std_error"]
        assert abs(z) < 4

    def test_measure_inside_sandwich_for_fitted_constant(self):
        # the single-stick crossing measure is bracketed, up to one constant
        # c, between (k and k^-alpha) and (k^(2-alpha) or k^-alpha) at alpha=2
        alpha = 2.0
        needed = []
        for k in (0.5, 1.0, 2.0, 4.0):
            mu = lr1_measure(alpha, 1.0, k, 30000, master_seed=31).params["mu_hat"]
            lower = min(k, k ** -alpha)
            upper = max(k ** (2 - alpha), k ** -alpha)
            assert mu > 0
            needed.append(max(lower / mu, mu / upper))
        assert max(needed) < 50.0
