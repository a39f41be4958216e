"""Seeded Monte Carlo harness: event probabilities, decay scans, cross-checks.

Per-trial seeds are derived from (master_seed, trial_index), so every report
is reproducible bit for bit and independent of execution order.  Wilson
intervals are used throughout (success counts in arm tails are small).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .events import arm_event, arm_reach, arm_target, invasion_sequence, y_statistic
from .exploration import (
    DegeneracyError,
    build_arrangement,
    count_traversals,
    hits_all_balls,
    last_left_subpath,
    trace_exploration,
)
from .geometry import Annulus, Box, Point, _xy, radial_interval
from .measures import decorrelation_bound
from .reports import DecayReport, EstimateReport, fit_decay, from_successes
from .seeds import derive_seed
from .soup import (
    Configuration,
    DiskWindow,
    SoupParams,
    expected_count_band_convex,
    restrict_configuration,
    sample_configuration,
)

_MAX_DEGENERACY_RETRIES = 8


def run_trials(
    params: SoupParams,
    window: DiskWindow,
    r_min: float,
    n_trials: int,
    master_seed: int,
    evaluate: Callable[[Configuration], object],
) -> tuple[list, int]:
    """Evaluate one sampled configuration per trial; outcomes in trial order.

    Trial i samples with seed ``derive_seed(master_seed, i, attempt)``.  When
    ``evaluate`` raises DegeneracyError the trial is resampled with the next
    attempt, at most _MAX_DEGENERACY_RETRIES times.  Returns the outcomes and
    the number of resamples.

    The trials run in a fork pool, one worker per CPU of the process's
    affinity set (serially on one CPU, or inside a pool worker).  The result,
    and the exception raised, are those of the serial run: the error of the
    lowest-index failing trial.  ``evaluate`` must be a pure function of the
    configuration, since its side effects in a worker are lost; its outcomes
    and exceptions must pickle.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    job = (params, window, r_min, master_seed, evaluate)
    width = min(_cpu_count(), n_trials)
    if width >= 2:
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return _pooled_trials(multiprocessing.get_context("fork"), job, n_trials, width)
    return _trial_range(job, 0, n_trials)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial_range(job: tuple, start: int, stop: int) -> tuple[list, int]:
    """Trials start..stop-1 of the job in order: (outcomes, resamples)."""
    params, window, r_min, master_seed, evaluate = job
    outcomes = []
    resamples = 0
    for i in range(start, stop):
        for attempt in range(_MAX_DEGENERACY_RETRIES + 1):
            cfg = sample_configuration(
                params, window, r_min, derive_seed(master_seed, i, attempt)
            )
            try:
                outcomes.append(evaluate(cfg))
                break
            except DegeneracyError:
                resamples += 1
        else:
            raise DegeneracyError(
                f"trial {i}: degenerate after {_MAX_DEGENERACY_RETRIES} resamples"
            )
    return outcomes, resamples


# Chunks per worker: enough that a slow chunk leaves little idle time at the
# end, few enough that thousands of short trials are not swamped by IPC.
_CHUNKS_PER_WORKER = 8

# A pool worker's job; set by _install_job when the worker starts.
_worker_job = None


def _install_job(job: tuple) -> None:
    global _worker_job
    _worker_job = job


def _worker_range(bounds: tuple[int, int]) -> tuple[list, int]:
    return _trial_range(_worker_job, *bounds)


def _pooled_trials(ctx, job: tuple, n_trials: int, width: int) -> tuple[list, int]:
    """run_trials over ``width`` forked workers, in contiguous chunks of trials.

    The job reaches the workers through fork (the initializer's arguments are
    not pickled), so ``evaluate`` may be a closure.  The chunks come back in
    order, so the first error raised is that of the lowest failing trial.
    """
    size = max(1, n_trials // (width * _CHUNKS_PER_WORKER))
    chunks = [(s, min(s + size, n_trials)) for s in range(0, n_trials, size)]
    pool = ctx.Pool(width, _install_job, (job,))
    try:
        parts = list(pool.imap(_worker_range, chunks))
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return [o for outcomes, _ in parts for o in outcomes], sum(r for _, r in parts)


def estimate_probability(
    name: str,
    event: Callable[[Configuration], bool],
    params: SoupParams,
    window: DiskWindow,
    r_min: float,
    n_trials: int,
    master_seed: int,
) -> EstimateReport:
    """Estimate P(event) over independent configurations with Wilson CI.

    ``event`` is a predicate of one configuration and ``name`` the report's
    ``"event"`` parameter.  Configurations whose arrangement is degenerate
    (tolerance-coincident vertices) are resampled with a salted seed and
    counted in the report.
    """
    outcomes, resamples = run_trials(params, window, r_min, n_trials, master_seed, event)
    return from_successes(
        sum(map(bool, outcomes)),
        n_trials,
        master_seed,
        {
            "event": name,
            "u": params.u,
            "alpha": params.alpha,
            "r_min": r_min,
            "window_a": window.radius,
            "resamples": resamples,
        },
    )


# ---------------------------------------------------------------------------
# decay scans


def _scan(
    params: SoupParams,
    window: DiskWindow,
    r_min: float,
    n_trials: int,
    master_seed: int,
    evaluate: Callable[[Configuration], list],
    row_params: Callable[[int, int], dict],
    fit_params: dict,
    trial_seed: int | None = None,
) -> DecayReport:
    """One sample per trial and one indicator per row; rows are indexed 1, 2, ...

    ``evaluate`` gives a trial's indicators, ``row_params(index, resamples)``
    a row's report parameters.  All rows read the same samples, so they are
    coupled across the index.  The trials and rows are seeded with
    ``trial_seed`` (default ``master_seed``); the report keeps
    ``master_seed``.
    """
    seed = master_seed if trial_seed is None else trial_seed
    hits, resamples = run_trials(params, window, r_min, n_trials, seed, evaluate)
    indices = list(range(1, len(hits[0]) + 1))
    rows = [
        from_successes(
            sum(bool(h[j]) for h in hits), n_trials, seed, row_params(m, resamples)
        )
        for j, m in enumerate(indices)
    ]
    return fit_decay(indices, rows, master_seed, fit_params)


def arm_decay_scan(
    params: SoupParams,
    r_min: float,
    m_max: int,
    n_trials: int,
    master_seed: int,
) -> DecayReport:
    """P(arm across A(1, 2^m)) for m = 1..m_max with a power-law fit.

    Estimates use the truncated soup at r_min, which lower-bounds the
    untruncated arm probabilities (nested coupling).  Each trial samples
    D(2^m_max) once and clusters its sticks on A(1, 2^m_max) once; row m
    holds when a cluster touching the inner circle reaches radius 2^m (see
    arm_reach).  By Poisson restriction each row has the law of the arm
    event sampled on D(2^m) alone, and the rows are nonincreasing in m
    trial by trial.
    """
    if m_max < 2:
        raise ValueError("scan needs m_max >= 2")
    origin = Point(0.0, 0.0)
    outer = 2.0 ** m_max
    window = DiskWindow(origin, outer)
    annulus = Annulus(origin, 1.0, outer)
    reach_needed = [arm_target(Annulus(origin, 1.0, 2.0 ** m)) for m in range(1, m_max + 1)]

    def evaluate(cfg):
        reach = arm_reach(cfg, annulus)
        return [reach >= need for need in reach_needed]

    return _scan(
        params, window, r_min, n_trials, master_seed, evaluate,
        lambda m, resamples: {
            "event": "ArmEventSpec",
            "u": params.u,
            "alpha": params.alpha,
            "r_min": r_min,
            "window_a": outer,
            "resamples": resamples,
        },
        {"kind": "arm_decay", "u": params.u, "alpha": params.alpha, "r_min": r_min},
        # row m_max is then the single-annulus estimate_probability of
        # A(1, 2^m_max) at this seed, sample for sample
        trial_seed=derive_seed(master_seed, 1000 + m_max),
    )


def h1_scan(
    params: SoupParams,
    r_min: float,
    k: int,
    m_max: int,
    n_trials: int,
    master_seed: int,
) -> DecayReport:
    """P(the exploration path traverses an annulus of radius ratio 2^-m at
    least k times), for m = 1..m_max.

    The box is [-2^m_max, 2^m_max]^2 and the annuli are centered on its
    center with fixed outer radius 2^(m_max - 1) and inner radius shrinking
    as 2^(m_max - 1 - m), so the boundary-circle ratio is 2^-m.  Growing the
    outer circle instead would not discriminate: the walk starts and ends on
    the box boundary, outside every outer circle, so one entering arm to a
    fixed inner circle forces an arm across all larger annuli at once.

    One exploration per trial; all scales are evaluated on the same traced
    path, so estimates are coupled across m and exactly nested in k for a
    fixed master seed.
    """
    if m_max < 1:
        raise ValueError("scan needs m_max >= 1")
    if k < 1:
        raise ValueError("traversal count k must be at least 1")
    half = 2.0 ** m_max
    box = Box(Point(-half, -half), Point(half, half))
    window = DiskWindow(Point(0.0, 0.0), half * math.sqrt(2.0))
    outer = 2.0 ** (m_max - 1)
    annuli = [
        Annulus(Point(0.0, 0.0), outer * 2.0 ** (-m), outer)
        for m in range(1, m_max + 1)
    ]

    def evaluate(cfg):
        res = trace_exploration(build_arrangement(cfg, box))
        return [count_traversals(res.path, ann)[0] >= k for ann in annuli]

    return _scan(
        params, window, r_min, n_trials, master_seed, evaluate,
        lambda m, _: {"kind": "h1", "m": m, "k": k, "u": params.u, "r_min": r_min},
        {"kind": "h1", "k": k, "u": params.u, "alpha": params.alpha, "r_min": r_min},
    )


# ---------------------------------------------------------------------------
# correlation decay


@dataclass(frozen=True)
class LocalEvent:
    """An indicator depending only on sticks touching B(0, region_radius)."""

    name: str
    region_radius: float
    fn: Callable[[Configuration], bool]


def hits_disk_event(l: float) -> LocalEvent:
    def fn(c: Configuration) -> bool:
        if c.n_sticks == 0:
            return False
        dmin, _ = radial_interval(c.segments(), 0.0, 0.0)
        return bool(np.any(dmin <= l))

    return LocalEvent(f"some_stick_hits_disk_{l}", l, fn)


def crosses_circle_event(l: float) -> LocalEvent:
    def fn(c: Configuration) -> bool:
        if c.n_sticks == 0:
            return False
        dmin, dmax = radial_interval(c.segments(), 0.0, 0.0)
        return bool(np.any((dmin <= l) & (dmax >= l)))

    return LocalEvent(f"some_stick_crosses_circle_{l}", l, fn)


@dataclass(frozen=True)
class CorrelationReport:
    n_trials: int
    cov_estimate: float
    std_error: float
    bound: float
    p1: float
    p2: float
    degenerate: bool
    master_seed: int
    params: dict = field(default_factory=dict)


def correlation_estimate(
    f1: LocalEvent,
    f2: LocalEvent,
    params: SoupParams,
    r_min: float,
    n_trials: int,
    master_seed: int,
) -> CorrelationReport:
    """Sample covariance of two local indicators next to its closed-form bound."""
    if n_trials < 2:
        raise ValueError("covariance needs at least 2 trials")
    radius = max(f1.region_radius, f2.region_radius)
    window = DiskWindow(Point(0.0, 0.0), radius)
    outcomes, _ = run_trials(
        params, window, r_min, n_trials, master_seed,
        lambda cfg: (f1.fn(cfg), f2.fn(cfg)),
    )
    x, y = (np.array(v, dtype=float) for v in zip(*outcomes))
    degenerate = bool(x.std() == 0.0 or y.std() == 0.0)
    prod = (x - x.mean()) * (y - y.mean())
    cov = float(prod.mean())
    se = float(prod.std(ddof=1) / math.sqrt(n_trials)) if not degenerate else 0.0
    if degenerate:
        cov = 0.0
    l1 = min(f1.region_radius, f2.region_radius)
    l2 = max(f1.region_radius, f2.region_radius)
    bound = decorrelation_bound(params.alpha, params.u, l1, l2) if l1 < l2 else 2.0
    return CorrelationReport(
        n_trials=n_trials,
        cov_estimate=cov,
        std_error=se,
        bound=bound,
        p1=float(x.mean()),
        p2=float(y.mean()),
        degenerate=degenerate,
        master_seed=master_seed,
        params={"f1": f1.name, "f2": f2.name, "u": params.u, "r_min": r_min},
    )


# ---------------------------------------------------------------------------
# mean-count cross-check


@dataclass(frozen=True)
class MeanCountReport:
    n_trials: int
    empirical_mean: float
    std_error: float
    oracle: float
    z_score: float | None  # None when the counts have zero spread
    master_seed: int
    params: dict = field(default_factory=dict)


def parker_cowan_check(
    params: SoupParams,
    window: DiskWindow,
    r: float,
    t: float,
    n_trials: int,
    master_seed: int,
) -> MeanCountReport:
    """Mean sampled count of sticks with R in [r, t) hitting the window disk,
    compared to the closed-form band expectation.  Needs at least two trials
    for the standard error; the z-score is None when the counts are all equal.
    """
    if not (0 < r < t):
        raise ValueError(f"need 0 < r < t, got r={r}, t={t}")
    if n_trials < 2:
        raise ValueError("mean-count check needs at least 2 trials")
    outcomes, _ = run_trials(
        params, window, r, n_trials, master_seed,
        lambda cfg: np.count_nonzero(cfg.stick_data[:, 2] < t),
    )
    counts = np.array(outcomes, dtype=float)
    a = window.radius
    oracle = expected_count_band_convex(
        params.alpha, params.u, r, t, math.pi * a * a, 2 * math.pi * a
    )
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(n_trials))
    return MeanCountReport(
        n_trials=n_trials,
        empirical_mean=mean,
        std_error=se,
        oracle=oracle,
        z_score=(mean - oracle) / se if se > 0 else None,
        master_seed=master_seed,
        params={"u": params.u, "alpha": params.alpha, "r": r, "t": t, "window_a": a},
    )


# ---------------------------------------------------------------------------
# well-separated ball scan for the traced interface suffix


# dilation factor of the balls that must stay disjoint
_SEPARATION = 2.0


def validate_separated(balls: Sequence[tuple]) -> None:
    """Require the dilations of the balls by _SEPARATION to be disjoint."""
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            (c1, r1), (c2, r2) = balls[i], balls[j]
            (x1, y1), (x2, y2) = _xy(c1), _xy(c2)
            if math.hypot(x1 - x2, y1 - y2) < _SEPARATION * (r1 + r2):
                raise ValueError(f"balls {i} and {j} are not {_SEPARATION}-separated")


def property_void_scan(
    params: SoupParams,
    r_min: float,
    balls: Sequence[tuple],
    n_trials: int,
    master_seed: int,
    box: Box | None = None,
) -> DecayReport:
    """P(the interface suffix meets the first n balls), n = 1..len(balls).

    Prefix events are nested per trial, so the estimates are nonincreasing by
    construction; the geometric factor per ball is the report's ``q_hat``.
    """
    for i, (center, radius) in enumerate(balls):
        x, y = _xy(center)
        if not (math.isfinite(x) and math.isfinite(y) and 0 < radius < math.inf):
            raise ValueError(f"ball {i} needs a finite centre and a finite radius > 0")
    validate_separated(balls)
    if not balls:
        raise ValueError("need at least one ball")
    if box is None:
        box = Box(Point(0.0, 0.0), Point(1.0, 1.0))
    window = DiskWindow(box.center(), box.diagonal() / 2.0)

    def evaluate(cfg):
        tail = last_left_subpath(trace_exploration(build_arrangement(cfg, box)), box)
        alive = True
        prefix = []
        for ball in balls:
            alive = alive and hits_all_balls(tail, [ball])
            prefix.append(alive)
        return prefix

    return _scan(
        params, window, r_min, n_trials, master_seed, evaluate,
        lambda n, _: {"kind": "void", "n": n, "u": params.u, "r_min": r_min},
        {"kind": "void", "u": params.u, "alpha": params.alpha, "r_min": r_min},
    )


# ---------------------------------------------------------------------------
# coupled truncation monotonicity


@dataclass(frozen=True)
class CoupledMonotonicityReport:
    r_values: list[float]
    estimates: list[float]
    violations: int
    n_trials: int
    master_seed: int


def coupled_arm_monotonicity(
    params: SoupParams,
    annulus: Annulus,
    r_values: Sequence[float],
    n_trials: int,
    master_seed: int,
) -> CoupledMonotonicityReport:
    """Evaluate the arm event at several truncations of one sample per trial.

    The coarser configurations are restrictions of the finest one, so the
    indicator must be nonincreasing in r trial by trial, exactly.
    """
    rs = sorted(float(r) for r in r_values)
    window = DiskWindow(annulus.center, annulus.outer)
    outcomes, _ = run_trials(
        params, window, rs[0], n_trials, master_seed,
        lambda cfg: [arm_event(restrict_configuration(cfg, r), annulus) for r in rs],
    )
    ind = np.array(outcomes, dtype=bool)
    hits = ind.sum(axis=0)
    violations = int(np.count_nonzero(ind[:, 1:] & ~ind[:, :-1]))
    return CoupledMonotonicityReport(
        r_values=rs,
        estimates=[float(h) / n_trials for h in hits],
        violations=violations,
        n_trials=n_trials,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# invasion vs. i.i.d. gap comparison


@dataclass(frozen=True)
class InvasionComparisonReport:
    t_values: list[int]
    mean_invasion_sums: list[float]
    mean_iid_sums: list[float]
    diff_means: list[float]
    diff_std_errors: list[float]
    dominated: bool
    n_trials: int
    truncated_records: int
    master_seed: int


def invasion_domination_check(
    params: SoupParams,
    m: int,
    r_min: float,
    n_trials: int,
    master_seed: int,
    t_values: Sequence[int] = (2, 4, 8),
) -> InvasionComparisonReport:
    """Compare partial sums of invasion gaps against the i.i.d. first gap.

    The first gap of each record is an i.i.d. draw of the single-annulus gap
    law; the later gaps are stochastically dominated by it, so the paired
    difference sum(L, j <= t) - t * L1 has nonpositive mean (gaps past the
    record's end count as zero).  Needs at least two trials for the standard
    errors the verdict rests on.
    """
    if n_trials < 2:
        raise ValueError("domination check needs at least 2 trials")
    window = DiskWindow(Point(0.0, 0.0), 2.0 ** m)
    ts = sorted(int(t) for t in t_values)
    records, _ = run_trials(
        params, window, r_min, n_trials, master_seed,
        lambda cfg: invasion_sequence(cfg, m),
    )
    truncated = sum(rec.truncated for rec in records)
    first = np.array([rec.L[0] for rec in records], dtype=float)
    sums = np.array([[sum(rec.L[:t]) for t in ts] for rec in records], dtype=float)
    diff = sums - first[:, None] * np.asarray(ts, dtype=float)[None, :]
    dm = diff.mean(axis=0)
    dse = diff.std(axis=0, ddof=1) / math.sqrt(n_trials)
    dominated = bool(np.all(dm <= 3.0 * dse))
    return InvasionComparisonReport(
        t_values=ts,
        mean_invasion_sums=[float(v) for v in sums.mean(axis=0)],
        mean_iid_sums=[float(t * first.mean()) for t in ts],
        diff_means=[float(v) for v in dm],
        diff_std_errors=[float(v) for v in dse],
        dominated=dominated,
        n_trials=n_trials,
        truncated_records=truncated,
        master_seed=master_seed,
    )


def y_gap_samples(
    params: SoupParams, j: int, r_min: float, n_samples: int, master_seed: int
) -> np.ndarray:
    """Fresh-configuration gap draws j - D_j (one per sample)."""
    window = DiskWindow(Point(0.0, 0.0), 2.0 ** j)
    gaps, _ = run_trials(
        params, window, r_min, n_samples, master_seed, lambda cfg: y_statistic(cfg, j)
    )
    return np.array(gaps, dtype=np.int64)
