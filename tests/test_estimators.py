import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from sticksoup import estimators
from sticksoup.cli import run
from sticksoup.estimators import (
    LocalEvent,
    arm_decay_scan,
    correlation_estimate,
    coupled_arm_monotonicity,
    crosses_circle_event,
    estimate_probability,
    h1_scan,
    hits_disk_event,
    invasion_domination_check,
    parker_cowan_check,
    property_void_scan,
    validate_separated,
    y_gap_samples,
)
from sticksoup.events import arm_event, invasion_sequence
from sticksoup.exploration import DegeneracyError, build_arrangement, trace_exploration
from sticksoup.geometry import Annulus, Box, Point
from sticksoup.measures import annulus_crossing_bounds
from sticksoup.reports import FitError, from_successes, wilson_interval
from sticksoup.seeds import derive_seed
from sticksoup.soup import Configuration, DiskWindow, SoupParams, sample_configuration

ORIGIN = Point(0.0, 0.0)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs run_trials sees: 1 runs serially, 2 pools."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    return set_cpus


@pytest.fixture
def one_cpu(cpus):
    """Serial trials, for tests that record calls through side effects."""
    cpus(1)


class TestEstimateProbability:
    def test_void_probability_reference(self):
        # mean count 0.8314 at r_min = 10: P(nonempty) = 1 - exp(-0.8314)
        params = SoupParams(1.0, 2.0)
        rep = estimate_probability(
            "nonempty", lambda c: c.n_sticks > 0, params, DiskWindow(ORIGIN, 1.0),
            10.0, 2000, 3,
        )
        expect = 1.0 - math.exp(-(math.pi * 1e-2 + 0.8))
        assert abs(rep.estimate - expect) < 3 * max(rep.std_error, 1e-3)

    def test_impossible_event_is_zero(self):
        params = SoupParams(1e-12, 2.0)
        ann = Annulus(ORIGIN, 1.0, 2.0)
        rep = estimate_probability(
            "arm", lambda c: arm_event(c, ann), params, DiskWindow(ORIGIN, 2.0), 0.5, 300, 3
        )
        assert rep.successes == 0 and rep.estimate == 0.0

    def test_same_seed_identical_report(self):
        params = SoupParams(0.3, 2.0)
        args = (
            "arm",
            lambda c: arm_event(c, Annulus(ORIGIN, 1.0, 2.0)),
            params,
            DiskWindow(ORIGIN, 2.0),
            0.2,
            150,
            99,
        )
        assert estimate_probability(*args) == estimate_probability(*args)

    def test_crossing_event_runs(self):
        params = SoupParams(0.2, 2.0)
        box = Box(Point(0, 0), Point(1, 1))
        rep = estimate_probability(
            "crossing",
            lambda c: trace_exploration(build_arrangement(c, box)).outcome == "Right",
            params,
            DiskWindow(Point(0.5, 0.5), math.sqrt(2) / 2),
            0.1,
            60,
            5,
        )
        assert 0.0 <= rep.estimate <= 1.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_probability(
                "nonempty", lambda c: c.n_sticks > 0, SoupParams(1, 2),
                DiskWindow(ORIGIN, 1), 1, 0, 0,
            )


class TestDegeneracyResample:
    def test_resamples_counted(self):
        bad = {derive_seed(17, i, 0) for i in (0, 3, 4)}

        def fn(c):
            if c.seed in bad:
                raise DegeneracyError("forced")
            return True

        rep = estimate_probability(
            "forced", fn, SoupParams(1.0, 2.0),
            DiskWindow(ORIGIN, 1.0), 1.0, 6, 17,
        )
        assert rep.params["resamples"] == 3
        assert rep.successes == 6

    def test_persistent_degeneracy_names_trial(self):
        def fn(c):
            raise DegeneracyError("forced")

        with pytest.raises(DegeneracyError, match="trial 0"):
            estimate_probability(
                "never", fn, SoupParams(1.0, 2.0),
                DiskWindow(ORIGIN, 1.0), 1.0, 2, 17,
            )

    @pytest.mark.usefixtures("one_cpu")
    def test_h1_scan_resamples(self, monkeypatch):
        real = estimators.build_arrangement
        calls = []

        def flaky(c, b):
            calls.append(c.seed)
            if len(calls) == 1:
                raise DegeneracyError("forced")
            return real(c, b)

        monkeypatch.setattr(estimators, "build_arrangement", flaky)
        rep = h1_scan(SoupParams(0.2, 2.0), 0.15, 1, 2, 60, 8)
        assert len(calls) == 61
        assert calls[:2] == [derive_seed(8, 0, 0), derive_seed(8, 0, 1)]
        assert [r.n_trials for r in rep.rows] == [60, 60]


class TestBatchedRuns:
    """_trial_range samples each run of small trials in one call and
    resamples a degenerate trial alone, as a one-trial-at-a-time loop does."""

    SEED = 41

    @staticmethod
    def one_at_a_time(params, window, r_min, start, stop, seed, evaluate):
        outcomes, resamples = [], 0
        for i in range(start, stop):
            for attempt in range(9):
                cfg = sample_configuration(params, window, r_min, derive_seed(seed, i, attempt))
                try:
                    outcomes.append(evaluate(cfg))
                    break
                except DegeneracyError:
                    resamples += 1
            else:
                raise AssertionError(f"trial {i} never succeeds")
        return outcomes, resamples

    @staticmethod
    def flaky(bad, seen):
        """Records every sample it sees; raises on the seeds in ``bad``."""

        def evaluate(c):
            seen.append(c.seed)
            if c.seed in bad:
                raise DegeneracyError("forced")
            return c.seed, c.stick_data.tobytes()

        return evaluate

    # (window radius, r_min, trials, failing (trial, attempt) pairs): runs of
    # 143 trials of ~28 sticks, with failures in the first run, at its last
    # trial, at the first of the next and thrice in a row; then sticks
    # enough for runs of one
    @pytest.mark.parametrize("a,r_min,n,fails", [
        (1.0, 0.5, 300, [(0, 0), (7, 0), (7, 1), (7, 2), (142, 0), (143, 0), (299, 0)]),
        (4.0, 0.125, 5, [(1, 0), (2, 0), (2, 1)]),
    ])
    @pytest.mark.parametrize("start", [0, 5])
    def test_resamples_match_one_at_a_time(self, a, r_min, n, fails, start):
        params, window = SoupParams(1.0, 2.0), DiskWindow(ORIGIN, a)
        bad = {derive_seed(self.SEED, i, k) for i, k in fails}
        want_seen, got_seen = [], []
        want = self.one_at_a_time(params, window, r_min, start, n, self.SEED,
                                  self.flaky(bad, want_seen))
        got = estimators._trial_range(
            (params, window, r_min, self.SEED, self.flaky(bad, got_seen), False), start, n)
        assert got == want
        assert got_seen == want_seen
        assert got[1] == sum(i >= start for i, _ in fails)

    def test_run_lengths(self, monkeypatch):
        sizes = []
        real = estimators.sample_configurations

        def spy(params, window, r_min, seeds, dyadic_only=False):
            sizes.append(len(seeds))
            return real(params, window, r_min, seeds, dyadic_only)

        monkeypatch.setattr(estimators, "sample_configurations", spy)
        job = (SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 3, lambda c: c.n_sticks,
               False)
        estimators._trial_range(job, 10, 400)
        # 4096 // (4 pi + 16) = 143 trials a run
        assert sizes == [143, 143, 104]
        sizes.clear()
        estimators._trial_range(job[:1] + (DiskWindow(ORIGIN, 64.0),) + job[2:], 0, 2)
        assert sizes == [1, 1]


class TestWilson:
    def test_interval_brackets_estimate(self):
        lo, hi = wilson_interval(3, 10)
        assert lo <= 0.3 <= hi

    def test_extremes_stay_in_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_report_invariants(self):
        rep = from_successes(5, 20, 0, {})
        assert rep.estimate == 0.25
        assert rep.ci95[0] <= rep.estimate <= rep.ci95[1]


class TestArmDecayScan:
    def test_small_scan_structure(self):
        params = SoupParams(0.15, 2.0)
        rep = arm_decay_scan(params, 0.2, 2, 80, 11)
        assert rep.indices == [1, 2]
        assert len(rep.rows) == 2
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "m,n_trials,successes,estimate,stderr,ci_lo,ci_hi"
        assert len(csv.splitlines()) == 3

    def test_all_zero_rows_fit_error(self):
        params = SoupParams(1e-12, 2.0)
        with pytest.raises(FitError):
            arm_decay_scan(params, 0.5, 2, 30, 1)

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("m_max, u, r_min", [(2, 0.1, 0.05), (3, 0.1, 0.1), (4, 0.1, 0.2)])
    def test_rows_are_the_single_annulus_events(self, monkeypatch, m_max, u, r_min):
        # 100 soups on D(2^m_max) per case: each trial's rows are arm_event on
        # A(1, 2^m) of the same configuration, m = 1..m_max
        seen = []
        real = estimators.run_trials

        def spy(params, window, r_min, n_trials, seed, evaluate, dyadic_only=False):
            def record(cfg):
                seen.append((cfg, evaluate(cfg)))
                return seen[-1][1]

            return real(params, window, r_min, n_trials, seed, record, dyadic_only)

        monkeypatch.setattr(estimators, "run_trials", spy)
        rep = arm_decay_scan(SoupParams(u, 2.0), r_min, m_max, 100, 31)
        assert len(seen) == 100
        for cfg, rows in seen:
            assert cfg.window.radius == 2.0 ** m_max
            assert rows == [
                arm_event(cfg, Annulus(ORIGIN, 1.0, 2.0 ** m)) for m in range(1, m_max + 1)
            ]
            assert rows == sorted(rows, reverse=True)
        successes = [r.successes for r in rep.rows]
        assert successes == [sum(rows[j] for _, rows in seen) for j in range(m_max)]
        assert successes == sorted(successes, reverse=True)
        assert successes[0] < 100 and successes[-1] > 0

    def test_rows_share_the_last_rows_samples(self):
        rep = arm_decay_scan(SoupParams(0.1, 2.0), 0.2, 3, 60, 7)
        single = estimate_probability(
            "ArmEventSpec", lambda c: arm_event(c, Annulus(ORIGIN, 1.0, 8.0)),
            SoupParams(0.1, 2.0),
            DiskWindow(ORIGIN, 8.0), 0.2, 60, derive_seed(7, 1003),
        )
        assert rep.rows[-1] == single
        assert {r.master_seed for r in rep.rows} == {single.master_seed}

    def test_stderr_scaling_with_trials(self):
        # every row's std_error is the binomial formula; the x2 from 4x the
        # trials is checked on the rows away from p = 0 and 1 only, where a
        # few trials cannot swing the ratio
        params = SoupParams(0.15, 2.0)
        small = arm_decay_scan(params, 0.2, 3, 100, 5)
        big = arm_decay_scan(params, 0.2, 3, 400, 5)
        mid = 0
        for r_small, r_big in zip(small.rows, big.rows):
            for r in (r_small, r_big):
                p = r.successes / r.n_trials
                assert r.std_error == math.sqrt(p * (1 - p) / r.n_trials)
            if all(0.2 <= r.estimate <= 0.8 for r in (r_small, r_big)):
                mid += 1
                ratio = r_small.std_error / r_big.std_error
                assert ratio == pytest.approx(2.0, rel=0.45)
        assert mid >= 1


class TestH1Scan:
    def test_nested_in_k_with_shared_seed(self):
        params = SoupParams(0.2, 2.0)
        r1 = h1_scan(params, 0.15, 1, 2, 100, 21)
        r3 = h1_scan(params, 0.15, 3, 2, 100, 21)
        assert all(a <= b for a, b in zip(r3.estimates, r1.estimates))

    def test_deterministic(self):
        params = SoupParams(0.2, 2.0)
        a = h1_scan(params, 0.15, 1, 2, 60, 8)
        b = h1_scan(params, 0.15, 1, 2, 60, 8)
        assert a.estimates == b.estimates


class TestCorrelation:
    def test_identical_events_give_variance(self):
        params = SoupParams(0.5, 2.0)
        f = hits_disk_event(1.0)
        rep = correlation_estimate(f, f, params, 4.0, 400, 2)  # p well inside (0,1)
        p = rep.p1
        assert 0.1 < p < 0.99
        assert rep.cov_estimate == pytest.approx(p * (1 - p), abs=4 * rep.std_error + 1e-9)
        assert rep.cov_estimate > 0

    def test_disjoint_radius_bands_uncorrelated(self):
        # indicators reading disjoint radius bands are exactly independent
        def band_event(lo, hi, radius):
            return LocalEvent(
                f"band_{lo}_{hi}",
                radius,
                lambda c: bool(np.any((c.stick_data[:, 2] >= lo) & (c.stick_data[:, 2] < hi))),
            )

        params = SoupParams(0.2, 2.0)
        rep = correlation_estimate(
            band_event(0.5, 1.0, 2.0), band_event(2.0, 4.0, 2.0), params, 0.5, 1500, 4
        )
        assert abs(rep.cov_estimate) <= 3 * rep.std_error + 1e-12

    def test_degenerate_flagged(self):
        params = SoupParams(1.0, 2.0)
        always = LocalEvent("always", 1.0, lambda c: True)
        rep = correlation_estimate(always, always, params, 0.5, 50, 1)
        assert rep.degenerate and rep.cov_estimate == 0.0

    @pytest.mark.parametrize("make", [hits_disk_event, crosses_circle_event])
    def test_events_on_an_empty_configuration(self, make):
        empty = Configuration(SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 2.0), 0.5, 0,
                              np.empty((0, 4)))
        assert make(1.0).fn(empty) is False

    def test_bound_attached(self):
        params = SoupParams(1.0, 2.0)
        rep = correlation_estimate(
            hits_disk_event(1.0), crosses_circle_event(100.0), params, 4.0, 50, 1
        )
        assert rep.bound == pytest.approx(0.6517, abs=2e-4)


class TestParkerCowanCheck:
    def test_matches_oracle(self):
        params = SoupParams(1.0, 2.0)
        rep = parker_cowan_check(params, DiskWindow(ORIGIN, 1.0), 0.5, 2.0, 1500, 6)
        assert abs(rep.z_score) < 3.5
        assert rep.oracle == pytest.approx(3.75 * math.pi + 12)

    def test_detects_wrong_intensity(self):
        # sample at 2u but score against the u oracle: z must blow up
        params = SoupParams(2.0, 2.0)
        rep = parker_cowan_check(params, DiskWindow(ORIGIN, 1.0), 0.5, 2.0, 1500, 6)
        oracle_u1 = 3.75 * math.pi + 12
        z = (rep.empirical_mean - oracle_u1) / rep.std_error
        assert abs(z) > 10

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            parker_cowan_check(SoupParams(1, 2), DiskWindow(ORIGIN, 1), 0.5, 2, 0, 0)


class TestVoidScan:
    BALLS = [((0.2, 0.75), 0.05), ((0.5, 0.75), 0.05), ((0.8, 0.75), 0.05)]

    def test_separation_validated(self):
        with pytest.raises(ValueError):
            validate_separated([((0, 0), 0.3), ((0.5, 0), 0.3)])
        validate_separated(self.BALLS)

    def test_nonincreasing_prefixes(self):
        params = SoupParams(0.2, 2.0)
        rep = property_void_scan(params, 0.08, self.BALLS, 120, 9)
        est = rep.estimates
        assert all(b <= a for a, b in zip(est, est[1:]))

    def test_q_hat_definition(self):
        params = SoupParams(0.2, 2.0)
        rep = property_void_scan(params, 0.08, self.BALLS, 120, 9)
        assert rep.q_hat == pytest.approx(2.0 ** rep.slope)


class TestCoupledMonotonicity:
    def test_zero_violations_by_construction(self):
        params = SoupParams(0.3, 2.0)
        rep = coupled_arm_monotonicity(
            params, Annulus(ORIGIN, 1.0, 2.0), [0.1, 0.2, 0.4], 80, 13
        )
        assert rep.violations == 0
        assert all(b <= a for a, b in zip(rep.estimates, rep.estimates[1:]))


class TestInvasionDomination:
    def test_paired_check_runs_and_dominates(self):
        params = SoupParams(1.0, 2.0)
        rep = invasion_domination_check(params, 6, 0.5, 80, 17, t_values=(2, 4))
        assert rep.dominated
        assert rep.mean_invasion_sums[0] <= rep.mean_iid_sums[0] + 3 * rep.diff_std_errors[0] + 1e-9


class TestYGapSamples:
    def test_deterministic_and_positive(self):
        params = SoupParams(1.0, 2.0)
        a = y_gap_samples(params, 0, 0.125, 200, 3)
        b = y_gap_samples(params, 0, 0.125, 200, 3)
        assert np.array_equal(a, b)
        assert np.all(a >= 1)

    @staticmethod
    def gap_measure(a, b):
        """Measure at alpha = 2 of the sticks meeting B(a) and leaving B(b),
        a < b, in closed form from line coordinates (on the line at offset p
        the centres fill a length of 4R - 2(c_b - c_a) from R = (c_b - c_a)/2
        to c_b, then 2R + 2 c_a, with c_r = sqrt(r^2 - p^2))."""
        s = math.asin(a / b)
        return (8 * (a * math.sqrt(b * b - a * a) + b * b * s + math.pi * a * a / 2)
                / (b * b - a * a) - 4 * s)

    def test_gap_measure_values(self):
        got = [self.gap_measure(2.0 ** (1 - n), 0.5) for n in range(3, 9)]
        want = [12.298, 4.0488, 1.7246, 0.80238, 0.38767, 0.19062]
        assert got == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("u", [1.0, 0.25])
    def test_tail_matches_exact_law(self, u):
        # gap >= n iff a stick touching A_0 = (1/2, 1] comes within 2^(1-n)
        # of the centre; every such stick has R >= 1/8 for n >= 3, so the
        # truncation at r_min = 1/8 loses none of them
        from scipy.stats import binomtest

        n_samples = 15_000
        gaps = y_gap_samples(SoupParams(u, 2.0), 0, 0.125, n_samples, 2026)
        rows = range(3, 9)
        for n in rows:
            p = -math.expm1(-u * self.gap_measure(2.0 ** (1 - n), 0.5))
            k = int(np.count_nonzero(gaps >= n))
            # one exact test per row, Bonferroni-split at family level 1e-3
            assert binomtest(k, n_samples, p).pvalue > 1e-3 / len(rows), (n, k, p)


class TestCrossingMeasure:
    """mu(1, 2^m), the measure of sticks crossing A(1, 2^m), is the gap law's
    closed form above with (a, b) = (1, 2^m)."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_inside_the_annulus_crossing_bounds(self, m):
        lower, upper = annulus_crossing_bounds(2, 1, 2.0 ** m)
        assert lower <= TestYGapSamples.gap_measure(1.0, 2.0 ** m) <= upper

    def test_arm_scan_rows_above_one_stick_crossings(self):
        # one stick crossing A(1, 2^m) makes an arm, so each row is at least
        # 1 - exp(-u mu(1, 2^m)); a crossing stick has R >= 1/2, so the
        # truncation at r_min = 1/2 loses none of them
        from scipy.stats import binomtest

        u, m_max, n_trials = 0.1, 4, 600
        rep = arm_decay_scan(SoupParams(u, 2.0), 0.5, m_max, n_trials, 2027)
        bounds = [-math.expm1(-u * TestYGapSamples.gap_measure(1.0, 2.0 ** m))
                  for m in range(1, m_max + 1)]
        assert bounds == pytest.approx([0.708, 0.333, 0.158, 0.077], abs=1e-3)
        for row, p in zip(rep.rows, bounds):
            # one-sided exact test per row, Bonferroni-split at family level 1e-3
            test = binomtest(row.successes, n_trials, p, alternative="less")
            assert test.pvalue > 1e-3 / m_max, (row.successes, p)


class TestCrossingExactLaw:
    """`estimate crossing` against two bounds on P(Top), the probability of
    a covered bottom-top crossing of a w x h box, at alpha = 2.

    Lower: one stick meeting both horizontal sides makes a crossing, so
    P(Top) >= 1 - exp(-u mu_BT), where mu_BT = 4 atan(w/h) / (pi h/w) is
    the measure of such sticks.  They have 2R >= h, so the truncation at
    r_min <= h/2 loses none.  Upper: a crossing needs a stick meeting the
    bottom side and one meeting the top side, each with Poisson(u mu_hit)
    sticks, so P(Top) <= 1 - 2 exp(-u mu_B) + exp(-u (2 mu_B - mu_BT)).
    """

    @pytest.mark.parametrize("u", [0.02, 0.05])
    @pytest.mark.parametrize("w, h", [(1.0, 1.0), (2.0, 1.0)])
    def test_between_one_stick_and_two_poisson_bounds(self, w, h, u, tmp_path):
        from scipy.stats import binom

        from sticksoup.measures import RadiusAtLeast, SegmentShape, mu_hit

        n_trials, r_min = 4000, h / 2
        out = tmp_path / "crossing.json"
        argv = ["estimate", "crossing", "--u", str(u), "--alpha", "2",
                "--rmin", str(r_min), "--box", "0", "0", str(w), str(h),
                "--trials", str(n_trials), "--seed", "2323", "--out", str(out)]
        assert run(argv) == 0
        result = json.loads(out.read_text())["result"]
        tops = n_trials - result["successes"]   # successes count "Right"
        mu_bt = 4 * math.atan(w / h) / (math.pi * h / w)
        mu_b = mu_hit(2.0, SegmentShape(w), RadiusAtLeast(r_min))
        lower = -math.expm1(-u * mu_bt)
        upper = 1 - 2 * math.exp(-u * mu_b) + math.exp(-u * (2 * mu_b - mu_bt))
        assert lower < upper
        # one-sided exact tests, Bonferroni-split over the 8 at level 1e-3
        level = 1e-3 / 8
        assert binom.cdf(tops, n_trials, lower) > level, (tops, lower)
        assert binom.sf(tops - 1, n_trials, upper) > level, (tops, upper)


def degenerate_on_a_fifth(fn):
    """fn, raising DegeneracyError on a fixed fifth of the seeds: pure."""

    def wrapped(c, *args):
        if c.seed % 5 == 0:
            raise DegeneracyError("forced")
        return fn(c, *args)

    return wrapped


class TestPooledTrials:
    """The fork pool gives the serial runner's outcomes, counts and errors."""

    @pytest.fixture
    def returned(self, monkeypatch):
        """What each run_trials call returns, recorded in this process."""
        real = estimators.run_trials
        seen = []

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(estimators, "run_trials", spy)
        return seen

    @staticmethod
    def serial_and_pooled(cpus, run):
        cpus(1)
        serial = run()
        cpus(2)
        return serial, run()

    # per case: the estimators attribute made degenerate on a fifth of the
    # seeds (None: parker-cowan's count has no hook; the predicate is
    # degenerate itself), and the run
    CASES = {
        "probability": (None, lambda: estimate_probability(
            "many", degenerate_on_a_fifth(lambda c: c.n_sticks > 3),
            SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 60, 17)),
        "h1": ("build_arrangement", lambda: h1_scan(SoupParams(0.2, 2.0), 0.15, 1, 2, 24, 8)),
        "arm": ("arm_reach", lambda: arm_decay_scan(SoupParams(0.15, 2.0), 0.2, 2, 30, 11)),
        "invasion": ("invasion_sequence", lambda: invasion_domination_check(
            SoupParams(1.0, 2.0), 5, 0.5, 20, 17)),
        "parker_cowan": (None, lambda: parker_cowan_check(
            SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 2.0, 400, 6)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reports_and_resamples_match(self, cpus, monkeypatch, returned, case):
        hook, run = self.CASES[case]
        if hook is not None:
            monkeypatch.setattr(estimators, hook,
                                degenerate_on_a_fifth(getattr(estimators, hook)))
        serial, pooled = self.serial_and_pooled(cpus, run)
        assert repr(pooled) == repr(serial)
        assert returned[1] == returned[0]
        assert (returned[0][1] > 0) == (case != "parker_cowan")

    def test_trials_run_in_workers(self, cpus):
        cpus(2)
        pids, resamples = estimators.run_trials(
            SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 12, 3,
            degenerate_on_a_fifth(lambda c: os.getpid()),
        )
        assert len(pids) == 12 and resamples > 0
        assert os.getpid() not in pids

    def test_counts_match_serial(self, cpus):
        args = (SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 300, 6,
                degenerate_on_a_fifth(lambda c: np.count_nonzero(c.stick_data[:, 2] < 2.0)))
        serial, pooled = self.serial_and_pooled(cpus, lambda: estimators.run_trials(*args))
        assert pooled == serial and serial[1] > 0

    @pytest.mark.parametrize("error", [DegeneracyError, ValueError])
    def test_error_of_the_lowest_failing_trial(self, cpus, error):
        # trials 3 and 5 fail on every attempt, trial 3 slowly, so a worker
        # reaches trial 5's error first
        bad = {derive_seed(23, i, a): i for i in (3, 5) for a in range(9)}

        def fn(c):
            if c.seed in bad:
                if bad[c.seed] == 3:
                    time.sleep(0.02)
                raise error(f"forced at seed {c.seed}")
            return True

        def run():
            with pytest.raises(error) as info:
                estimators.run_trials(SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0),
                                      0.5, 8, 23, fn)
            assert multiprocessing.active_children() == []
            return str(info.value)

        serial, pooled = self.serial_and_pooled(cpus, run)
        assert pooled == serial
        if error is DegeneracyError:
            assert serial.startswith("trial 3:")
        else:
            assert serial == f"forced at seed {derive_seed(23, 3, 0)}"

    def test_no_child_outlives_the_call(self, cpus):
        cpus(2)
        estimators.run_trials(SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 8, 1,
                              lambda c: c.n_sticks)
        assert multiprocessing.active_children() == []

    def test_numpy_random_loaded_before_forking(self):
        # numpy loads numpy.random lazily; the pool loads it in the parent so
        # that no worker pays for the import on its first draw
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from sticksoup import estimators\n"
            "from sticksoup.geometry import Point\n"
            "from sticksoup.soup import DiskWindow, SoupParams\n"
            "assert 'numpy.random' not in sys.modules\n"
            "estimators.run_trials(SoupParams(1.0, 2.0), DiskWindow(Point(0.0, 0.0), 1.0),\n"
            "                      0.5, 4, 1, lambda c: c.n_sticks)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(estimators.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_nested_call_runs_serially(self, cpus):
        cpus(2)
        window = DiskWindow(ORIGIN, 1.0)

        def outer(c):
            inner, _ = estimators.run_trials(c.params, window, 0.5, 3, c.seed,
                                             lambda d: os.getpid())
            return os.getpid(), set(inner)

        results, _ = estimators.run_trials(SoupParams(1.0, 2.0), window, 0.5, 4, 2, outer)
        for pid, inner in results:
            assert pid != os.getpid() and inner == {pid}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of the repr of each decision list below, recorded while the batch
# kernels still took every distance and length from np.hypot: the invasion
# records (I, L, T, truncated) of 20 soups at the `verify` workload's size,
# 2k gap draws, the arm scan rows of 10 soups at the `arm` workload's size and
# 2k Parker-Cowan counts.  A change of norm may move low bits, not decisions.
# The last two are the pooled paths that sample only the sticks which may
# cross a dyadic circle: the CLI's invasion records and the domination
# report, 20 trials each at the same size, recorded before that filter.
GOLDEN_DECISIONS = {
    "invasion": "514af14979346795598a18ac593945c914af8faecac12fc08de813e41888dba4",
    "y_gap": "e47c751a9018dd08eff647cb885252f5d822e792ba5aa59e56c44fcbfe4a7838",
    "arm_rows": "edef26b517758afc294f45dd5b85a16a1a0e8d6a47d6d7b7155422cdccad476c",
    "parker_cowan": "0a643fc106ed77ff345d706735f8ae39e6ef84e632bde5c788328b2a3c059031",
    "invasion_cli": "edae8d13a533a3e8c9424aa0904b9e772369f56b37faff53ed0a69bfec089919",
    "invasion_domination": "0eeff6c4010038e2d455417de02e209da98c3d6373973b75a8fba778496dc6fd",
}


def first_outcomes(monkeypatch, run):
    """The outcomes of the first run_trials call that ``run()`` makes."""
    real = estimators.run_trials
    seen = []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(estimators, "run_trials", spy)
    run()
    return seen[0][0]


class TestGoldenDecisions:

    def test_invasion_records(self):
        window = DiskWindow(ORIGIN, 64.0)
        records = []
        for s in range(20):
            rec = invasion_sequence(
                sample_configuration(SoupParams(1.0, 2.0), window, 0.5, 9000 + s), 6)
            records.append((rec.I, rec.L, rec.T, rec.truncated))
        assert _digest(records) == GOLDEN_DECISIONS["invasion"]

    def test_y_gap_samples(self):
        gaps = y_gap_samples(SoupParams(1.0, 2.0), 0, 0.125, 2000, 9100)
        assert _digest(gaps.tolist()) == GOLDEN_DECISIONS["y_gap"]

    def test_arm_scan_rows(self, monkeypatch):
        rows = first_outcomes(
            monkeypatch, lambda: arm_decay_scan(SoupParams(0.15, 2.0), 0.05, 4, 10, 9200))
        assert _digest(rows) == GOLDEN_DECISIONS["arm_rows"]

    def test_parker_cowan_counts(self, monkeypatch):
        counts = first_outcomes(monkeypatch, lambda: parker_cowan_check(
            SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 2.0, 2000, 9300))
        assert _digest([int(c) for c in counts]) == GOLDEN_DECISIONS["parker_cowan"]

    def test_invasion_cli_records(self, cpus, capsys):
        cpus(2)
        assert run(["invasion", "--u", "1", "--alpha", "2", "--m", "6", "--rmin", "0.5",
                    "--trials", "20", "--seed", "9400"]) == 0
        records = json.loads(capsys.readouterr().out)["result"]
        assert _digest(records) == GOLDEN_DECISIONS["invasion_cli"]

    def test_invasion_domination_report(self, cpus):
        cpus(2)
        rep = invasion_domination_check(SoupParams(1.0, 2.0), 6, 0.5, 20, 9500)
        assert _digest(rep) == GOLDEN_DECISIONS["invasion_domination"]
