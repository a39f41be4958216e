import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from sticksoup import estimators
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
from sticksoup.events import arm_event
from sticksoup.exploration import DegeneracyError, build_arrangement, trace_exploration
from sticksoup.geometry import Annulus, Box, Point
from sticksoup.reports import FitError, from_successes, wilson_interval
from sticksoup.seeds import derive_seed
from sticksoup.soup import DiskWindow, SoupParams

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

        def spy(params, window, r_min, n_trials, seed, evaluate):
            def record(cfg):
                seen.append((cfg, evaluate(cfg)))
                return seen[-1][1]

            return real(params, window, r_min, n_trials, seed, record)

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

        def spy(*args):
            seen.append(real(*args))
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
