import hashlib
import io
import math

import numpy as np
import pytest
from scipy import integrate, stats

from sticksoup import soup
from sticksoup.events import _spanning_indices
from sticksoup.geometry import Point, radial_interval, stick_to_segment
from sticksoup.seeds import derive_seed
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
    sample_configurations,
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


def draw_one_by_one(rng, alpha, a, r_min, n):
    """Sticks hitting B(0, a) drawn with one generator call per variable, in
    the sampler's draw order: the form of the kernel before it read a block."""
    w_area, w_caps = soup.hit_weights_disk(alpha, r_min, a)
    pick = rng.random(n)
    u_r = rng.random(n)
    radii = np.where(
        pick < w_area / (w_area + w_caps),
        r_min * (1.0 - u_r) ** (-1.0 / alpha),
        r_min * (1.0 - u_r) ** (-1.0 / (alpha - 1.0)),
    )
    dirs = rng.uniform(-math.pi / 2, math.pi / 2, n)
    ex, ey = np.cos(dirs), np.sin(dirs)
    in_rect = rng.random(n) * (math.pi * a * a + 4 * a * radii) < 4 * a * radii
    along = rng.uniform(-1.0, 1.0, n) * radii
    across = rng.uniform(-a, a, n)
    cap_rad = a * np.sqrt(rng.random(n))
    cap_ang = rng.uniform(0.0, 2 * math.pi, n)
    wx = cap_rad * np.cos(cap_ang)
    wy = cap_rad * np.sin(cap_ang)
    side = np.where(wx * ex + wy * ey >= 0, 1.0, -1.0)
    cx = np.where(in_rect, along * ex - across * ey, side * radii * ex + wx)
    cy = np.where(in_rect, along * ey + across * ex, side * radii * ey + wy)
    return np.column_stack([cx, cy, radii, dirs])


# sha256 of the stick_data bytes of sample_configuration at seeds 4000 + s,
# recorded before the sampler read its uniforms as one block and before
# runs of trials were sampled together: (u, alpha, window radius, centre,
# r_min, seed count) -> digest
GOLDEN_STICKS = {
    (1.0, 2.0, 1.0, (0.0, 0.0), 0.5, 200):
        "22881ba1121aa684e6b218d728dc6a854b08cffded94f65a7e35c6d26e1a18c7",
    (0.05, 2.0, 1.0, (0.0, 0.0), 1.0, 200):
        "96b61e5e54b3f156ebfc8e79315ee0df6cefd8408dad669ad06f6b228fc6e9b5",
    (0.3, 1.5, 3.0, (1.25, -0.5), 0.2, 50):
        "191683c23505ba57609b876ae4a0ce4844edf7ab32dbc7d0c5604f3521966020",
    (2.0, 2.5, 2.0, (-3.0, 7.0), 0.1, 50):
        "2019e4acc7bd1a46ac883e97d4cc9bfed33b692f4b9af0dc2c39fcebf8bf5ccb",
    (1.0, 2.0, 64.0, (0.0, 0.0), 0.5, 3):
        "63c74c41668189f3ba37d216b0d017412b62a5ef02340a55e75e07380cc40785",
}


class TestBatchedSampler:
    """sample_configurations and the block kernel give the one-by-one draws
    bit for bit."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_STICKS))
    def test_golden_stick_data(self, key):
        u, alpha, a, (x, y), r_min, count = key
        params, window = SoupParams(u, alpha), DiskWindow(Point(x, y), a)
        seeds = [4000 + s for s in range(count)]
        single = hashlib.sha256()
        batched = hashlib.sha256()
        for s, cfg in zip(seeds, sample_configurations(params, window, r_min, seeds)):
            single.update(sample_configuration(params, window, r_min, s).stick_data.tobytes())
            batched.update(cfg.stick_data.tobytes())
        assert single.hexdigest() == GOLDEN_STICKS[key]
        assert batched.hexdigest() == GOLDEN_STICKS[key]

    @pytest.mark.parametrize("u,alpha,a,center,r_min,count", [
        (1.0, 2.0, 1.0, (0.0, 0.0), 0.5, 150),   # ~28 sticks a trial
        (0.02, 2.0, 1.0, (0.0, 0.0), 1.0, 100),  # mostly empty trials
        (0.7, 1.5, 2.5, (3.0, -1.0), 0.3, 40),
        (1.5, 2.5, 4.0, (-0.5, 0.25), 0.2, 12),
        (1.0, 2.0, 4.0, (0.0, 0.0), 0.05, 3),    # above the kernel's block size
    ])
    def test_batch_equals_one_by_one(self, u, alpha, a, center, r_min, count):
        params, window = SoupParams(u, alpha), DiskWindow(Point(*center), a)
        seeds = [derive_seed(77, i) for i in range(count)]
        batch = sample_configurations(params, window, r_min, seeds)
        assert [c.seed for c in batch] == seeds
        for s, cfg in zip(seeds, batch):
            one = sample_configuration(params, window, r_min, s)
            assert cfg.stick_data.shape == one.stick_data.shape
            assert cfg.stick_data.tobytes() == one.stick_data.tobytes()
            rng = np.random.default_rng(np.uint64(s))
            n = int(rng.poisson(soup.configuration_mean(params, window, r_min)))
            ref = draw_one_by_one(rng, alpha, a, r_min, n) + [center[0], center[1], 0.0, 0.0]
            assert one.stick_data.tobytes() == ref.tobytes()
        if u < 0.1:
            assert any(c.n_sticks == 0 for c in batch)

    def test_uniform_matches_generator(self):
        for low, high in [(-math.pi / 2, math.pi / 2), (-1.0, 1.0), (-3.7, 3.7),
                          (0.0, 2 * math.pi)]:
            want = np.random.default_rng(5).uniform(low, high, 20_000)
            got = soup._uniform(np.random.default_rng(5).random(20_000), low, high)
            assert got.tobytes() == want.tobytes()

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError, match="truncation radius must be positive"):
            sample_configurations(PARAMS, UNIT, 0.0, [1, 2])


def same_spanning_indices(full: Configuration, kept: Configuration) -> None:
    """``kept`` holds rows of ``full`` bit for bit and in order, and both give
    the same ``_spanning_indices`` arrays."""
    at = {row.tobytes(): i for i, row in enumerate(full.stick_data)}
    pos = [at.get(row.tobytes(), -1) for row in kept.stick_data]
    assert min(pos, default=0) >= 0 and pos == sorted(set(pos))
    for want, got in zip(_spanning_indices(full), _spanning_indices(kept)):
        assert want.tobytes() == got.tobytes()


class TestDyadicColumns:
    """With dyadic_only the sampler keeps, without trigonometry, a superset
    of the sticks the invasion records read, as the full kernel draws them."""

    # (u, alpha, window centre, window radius, r_min): window / r_min from 8
    # to 256, at and off the origin
    @pytest.mark.parametrize("u,alpha,center,a,r_min", [
        (1.0, 2.0, (0.0, 0.0), 4.0, 0.5),
        (1.0, 2.0, (0.0, 0.0), 64.0, 0.5),
        (0.5, 1.5, (3.25, -1.5), 8.0, 0.25),
        (0.2, 1.5, (-40.5, 17.75), 32.0, 0.125),
        (1.0, 2.6, (1000.3, -77.7), 64.0, 2.0),
        (1.0, 2.6, (0.0, 0.0), 2048.0, 8.0),
        (0.3, 2.0, (5.0, 5.0), 16.0, 0.0625),
    ])
    def test_seeded_soups(self, u, alpha, center, a, r_min):
        params, window = SoupParams(u, alpha), DiskWindow(Point(*center), a)
        seeds = [derive_seed(91, i) for i in range(4)]
        full = sample_configurations(params, window, r_min, seeds)
        kept = sample_configurations(params, window, r_min, seeds, dyadic_only=True)
        assert [c.seed for c in kept] == seeds
        for f, k in zip(full, kept):
            same_spanning_indices(f, k)
            assert k.n_sticks < f.n_sticks or f.n_sticks == 0
        one = sample_configuration(params, window, r_min, seeds[2], dyadic_only=True)
        assert one.stick_data.tobytes() == kept[2].stick_data.tobytes()

    @staticmethod
    def columns(rng, alpha, a, r_min, radius, dist, cap):
        """Uniforms of sticks of half-length ~``radius`` whose distance bound
        lands on ``dist``: rectangle sticks with along = 0 and |across| = dist,
        or cap sticks with the cap point at right angles to the stick (when
        d is sqrt(R^2 + cap_r^2)) or along it (R + cap_r), each at the 160
        consecutive floats around the solving uniform, in random directions."""
        n = 160
        u_r = 1.0 - (radius / r_min) ** -alpha
        u = rng.random((8, n))
        u[0], u[1] = 0.0, u_r      # the area component, radius ~ ``radius``
        v = -math.pi / 2 + math.pi * u[2]
        R = r_min * (1.0 - u_r) ** (-1.0 / alpha)
        if cap is None:
            u[3], u[4] = 0.0, 0.5  # in the rectangle, along = 0
            target = (dist + a) / (2 * a)
            row = 5
        else:
            u[3], u[4], u[5] = 1.0, 0.5, 0.5
            cap_r = math.sqrt(dist * dist - R * R) if cap == "side" else dist - R
            target = (cap_r / a) ** 2
            row = 6
            turn = math.pi / 2 if cap == "side" else 0.0
            u[7] = np.mod(v + turn, 2 * math.pi) / (2 * math.pi)
        steps = np.arange(n) - n // 2
        u[row] = target + steps * np.spacing(target)
        return u

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.6])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (2.5, -3.75), (1000.3, -77.7)])
    def test_bounds_within_ulps_of_a_dyadic_circle(self, alpha, center):
        # per case: the near end (d - R)(1 - 1e-9) or the far end
        # (d + R)(1 + 1e-9) of the widened bound on 2^k
        a, r_min = 6.0, 0.05
        rng = np.random.default_rng(5)
        blocks = []
        for k, radius in [(0, 0.1), (1, 0.3), (2, 1.0)]:
            near = 2.0 ** k / (1.0 - 1e-9) + radius
            far = 2.0 ** k / (1.0 + 1e-9) - radius
            for dist in (near, far):
                for cap in (None, "side", "along"):
                    blocks.append(self.columns(rng, alpha, a, r_min, radius, dist, cap))
        u = np.concatenate(blocks, axis=1)
        data = soup._hit_sticks(u, alpha, a, r_min) + [center[0], center[1], 0.0, 0.0]
        keep = soup._dyadic_columns(u, alpha, a, r_min, abs(center[0]) + abs(center[1]))
        kept = soup._hit_sticks(np.compress(keep, u, axis=1), alpha, a, r_min)
        kept += [center[0], center[1], 0.0, 0.0]
        assert kept.tobytes() == data[keep].tobytes()
        window = DiskWindow(Point(*center), a)
        full = Configuration(SoupParams(1.0, alpha), window, r_min, 0, data)
        same_spanning_indices(full, Configuration(full.params, window, r_min, 0, kept))


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

    def test_direction_minus_half_pi_reads_as_half_pi(self):
        # the sampler draws V in [-pi/2, pi/2) and the reader accepts |v| <=
        # pi/2, while Stick takes (-pi/2, pi/2]: both ends name one stick
        r = 0.7
        text = configuration_to_jsonl(Configuration(
            PARAMS, UNIT, 0.3, 5, np.array([[0.3, -0.2, r, -math.pi / 2]])))
        cfg = configuration_from_jsonl(io.StringIO(text))
        (stick,) = cfg.sticks
        assert stick.direction == math.pi / 2
        s = stick_to_segment(stick)
        ends = np.array([[s.a.x, s.a.y], [s.b.x, s.b.y]])
        want = cfg.segments()[0].reshape(2, 2)
        if np.abs(ends - want).max() > np.abs(ends[::-1] - want).max():
            ends = ends[::-1]
        np.testing.assert_allclose(ends, want, rtol=0, atol=1e-15 * r)
