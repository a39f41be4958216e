import io
import math

import numpy as np
import pytest
from scipy import integrate, stats

from sticksoup.geometry import Point, radial_interval
from sticksoup.soup import (
    Configuration,
    DiskWindow,
    InfiniteMeasureError,
    SoupParams,
    apply_homothety,
    configuration_from_jsonl,
    configuration_to_jsonl,
    expected_count_band_convex,
    expected_hit_count_disk,
    radius_marginal_cdf,
    restrict_configuration,
    sample_configuration,
)

PARAMS = SoupParams(1.0, 2.0)
UNIT = DiskWindow(Point(0.0, 0.0), 1.0)


def disk_hit_quadrature(alpha, u, r, a):
    """Independent oracle: integrate the stadium area against the tail density."""
    val, _ = integrate.quad(
        lambda R: (math.pi * a * a + 4 * a * R) * alpha * R ** (-1 - alpha),
        r,
        np.inf,
    )
    return u * val


class TestExpectedHitCount:
    def test_reference_values(self):
        assert expected_hit_count_disk(2, 1, 1, 1) == pytest.approx(math.pi + 8)
        assert expected_hit_count_disk(2, 1, 0.5, 1) == pytest.approx(4 * math.pi + 16)
        assert expected_hit_count_disk(2, 1, 100, 1) == pytest.approx(
            math.pi * 1e-4 + 0.08
        )

    def test_infinite_measure_signal(self):
        with pytest.raises(InfiniteMeasureError):
            expected_hit_count_disk(1.0, 1, 1, 1)

    @pytest.mark.parametrize("alpha,r,a", [(2, 1, 1), (1.5, 0.3, 2), (3, 2, 0.5)])
    def test_against_quadrature(self, alpha, r, a):
        assert expected_hit_count_disk(alpha, 0.7, r, a) == pytest.approx(
            disk_hit_quadrature(alpha, 0.7, r, a), rel=1e-9
        )

    def test_scale_invariance_at_alpha_2(self):
        for c in (0.1, 3.0, 17.0):
            assert expected_hit_count_disk(2, 0.4, 1, 1) == pytest.approx(
                expected_hit_count_disk(2, 0.4, c, c)
            )


class TestBandCount:
    def test_reference_value(self):
        val = expected_count_band_convex(2, 1, 0.5, 2, math.pi, 2 * math.pi)
        assert val == pytest.approx(3.75 * math.pi + 12)

    def test_against_quadrature(self):
        # Parker-Cowan: area * tail mass + (2 alpha u / pi) * length integral * per
        def oracle(alpha, u, r, t, area, per):
            tail = u * (r ** -alpha - t ** -alpha) * area
            li, _ = integrate.quad(lambda x: x ** -alpha, r, t)
            return tail + 2 * alpha * u / math.pi * li * per

        for alpha in (1.0, 1.7, 2.0, 2.8):
            got = expected_count_band_convex(alpha, 0.6, 0.3, 4.0, 2.0, 5.0)
            assert got == pytest.approx(oracle(alpha, 0.6, 0.3, 4.0, 2.0, 5.0), rel=1e-9)

    def test_empty_band_limit(self):
        r = 0.8
        val = expected_count_band_convex(2, 1, r, r * (1 + 1e-12), math.pi, 2 * math.pi)
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_infinite_t_matches_hit_count(self):
        assert expected_count_band_convex(
            2, 1, 1, math.inf, math.pi, 2 * math.pi
        ) == pytest.approx(math.pi + 8)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            expected_count_band_convex(2, 1, 2, 1, 1, 1)


class TestSampler:
    def test_bit_identical_under_same_seed(self):
        a = sample_configuration(PARAMS, UNIT, 1.0, 12345)
        b = sample_configuration(PARAMS, UNIT, 1.0, 12345)
        assert np.array_equal(a.stick_data, b.stick_data)

    def test_all_sticks_hit_window_no_rejection(self):
        for i in range(40):
            cfg = sample_configuration(PARAMS, UNIT, 0.2, i)
            if cfg.n_sticks:
                dmin, _ = radial_interval(cfg.segments(), 0.0, 0.0)
                assert np.all(dmin <= 1.0 + 1e-9)
                assert np.all(cfg.stick_data[:, 2] >= 0.2)
                assert np.all(np.abs(cfg.stick_data[:, 3]) <= math.pi / 2)

    def test_mean_count_matches_formula(self):
        n = 1500
        counts = [sample_configuration(PARAMS, UNIT, 1.0, i).n_sticks for i in range(n)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(n)
        assert abs(mean - (math.pi + 8)) < 3 * se

    def test_radius_marginal_ks(self):
        radii = []
        i = 0
        while len(radii) < 20000:
            radii.extend(sample_configuration(PARAMS, UNIT, 1.0, 10_000 + i).stick_data[:, 2])
            i += 1
        res = stats.kstest(
            np.asarray(radii), lambda x: radius_marginal_cdf(2.0, 1.0, 1.0, x)
        )
        assert res.pvalue > 0.01

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            sample_configuration(PARAMS, UNIT, 0.0, 1)
        with pytest.raises(InfiniteMeasureError):
            sample_configuration(SoupParams(1.0, 0.9), UNIT, 1.0, 1)


class TestRestriction:
    def test_identity_at_same_radius(self):
        cfg = sample_configuration(PARAMS, UNIT, 0.5, 3)
        same = restrict_configuration(cfg, 0.5)
        assert np.array_equal(same.stick_data, cfg.stick_data)

    def test_exact_subset_filter(self):
        cfg = sample_configuration(PARAMS, UNIT, 0.25, 3)
        sub = restrict_configuration(cfg, 0.5)
        assert sub.r_min == 0.5
        expected = cfg.stick_data[cfg.stick_data[:, 2] >= 0.5]
        assert np.array_equal(sub.stick_data, expected)

    def test_refining_raises(self):
        cfg = sample_configuration(PARAMS, UNIT, 0.5, 3)
        with pytest.raises(ValueError):
            restrict_configuration(cfg, 0.25)


class TestHomothety:
    def test_identity(self):
        cfg = sample_configuration(PARAMS, UNIT, 0.5, 9)
        out = apply_homothety(cfg, 1.0)
        assert np.array_equal(out.stick_data, cfg.stick_data)
        assert out.params.u == cfg.params.u

    def test_stick_map(self):
        cfg = Configuration(PARAMS, UNIT, 0.5, 0, np.array([[1.0, 0.0, 1.0, 0.0]]))
        out = apply_homothety(cfg, 2.0)
        assert out.stick_data[0].tolist() == [2.0, 0.0, 2.0, 0.0]
        assert out.window.radius == 2.0
        assert out.r_min == 1.0

    def test_intensity_annotation(self):
        cfg = sample_configuration(SoupParams(0.5, 1.5), UNIT, 0.5, 1)
        out = apply_homothety(cfg, 4.0)
        assert out.params.u == pytest.approx(0.5 * 4.0 ** 0.5)
        out2 = apply_homothety(sample_configuration(PARAMS, UNIT, 0.5, 1), 4.0)
        assert out2.params.u == PARAMS.u  # alpha = 2: scale-invariant


class TestJsonl:
    def test_round_trip(self):
        cfg = sample_configuration(PARAMS, UNIT, 0.3, 21)
        text = configuration_to_jsonl(cfg)
        back = configuration_from_jsonl(io.StringIO(text))
        assert np.allclose(back.stick_data, cfg.stick_data)
        assert back.r_min == cfg.r_min
        assert back.seed == cfg.seed
        assert back.window.radius == cfg.window.radius

    def test_header_schema(self):
        import json

        cfg = sample_configuration(PARAMS, UNIT, 0.3, 21)
        header = json.loads(configuration_to_jsonl(cfg).splitlines()[0])
        assert set(header) == {
            "u", "alpha", "r_min", "window_cx", "window_cy", "window_a", "seed",
        }
