"""In-memory span tracer for the sticksoup benchmark.

The tracer wraps public sticksoup functions at the module attributes their
callers look up (``sticksoup.events.candidate_pairs`` and
``sticksoup.exploration.candidate_pairs`` are two separate bindings), so the
program itself is not changed.  Each call records a span
``(name, start, end, parent, command, trial)``; counts are taken from call
arguments and return values.  Trial boundaries come from the
``derive_seed(master, i, attempt)`` calls the estimators make per trial.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter

# (module, attribute) pairs the workloads' calls go through; the span name is
# "<layer>.<function>", where the layer is the module defining the function.
BINDINGS = [
    ("sticksoup.cli", "run"),
    ("sticksoup.cli", "arm_decay_scan"),
    ("sticksoup.cli", "h1_scan"),
    ("sticksoup.cli", "parker_cowan_check"),
    ("sticksoup.cli", "invasion_domination_check"),
    ("sticksoup.cli", "mu_double_circle"),
    ("sticksoup.estimators", "estimate_probability"),
    ("sticksoup.estimators", "sample_configuration"),
    ("sticksoup.estimators", "arm_event"),
    ("sticksoup.estimators", "invasion_sequence"),
    ("sticksoup.estimators", "build_arrangement"),
    ("sticksoup.estimators", "trace_exploration"),
    ("sticksoup.estimators", "count_traversals"),
    ("sticksoup.events", "covered_components"),
    ("sticksoup.events", "candidate_pairs"),
    ("sticksoup.events", "batch_pair_intersections"),
    ("sticksoup.events", "radial_interval"),
    ("sticksoup.exploration", "candidate_pairs"),
    ("sticksoup.exploration", "batch_pair_intersections"),
    ("sticksoup.exploration", "batch_clip_to_box"),
]

# trial markers: derive_seed(master, i, attempt) starts trial i (attempt 0)
# or resamples it (attempt > 0)
SEED_BINDINGS = [("sticksoup.estimators", "derive_seed")]


def _count_sample(counts, args, result):
    counts["soup.sample_calls"] += 1
    counts["soup.sticks"] += result.n_sticks


def _count_broad(counts, args, result):
    counts["geometry.segments"] += len(args[0])
    counts["geometry.candidates"] += len(result[0])


def _count_narrow(counts, args, result):
    counts["geometry.hits"] += int(result[0].sum())


def _count_arrangement(counts, args, result):
    counts["exploration.vertices"] += result.n_vertices
    counts["exploration.darts"] += result.n_darts


def _count_walk(counts, args, result):
    counts["exploration.walk_darts"] += len(result.dart_log)


COUNTERS = {
    "sample_configuration": _count_sample,
    "candidate_pairs": _count_broad,
    "batch_pair_intersections": _count_narrow,
    "build_arrangement": _count_arrangement,
    "trace_exploration": _count_walk,
}

COUNT_METRICS = [
    "soup.sticks",
    "soup.sample_calls",
    "geometry.segments",
    "geometry.candidates",
    "geometry.hits",
    "exploration.vertices",
    "exploration.darts",
    "exploration.walk_darts",
    "estimators.resamples",
]

# per-layer time metric -> span names whose self time it sums
TIME_METRICS = {
    "soup.sample_s": ["soup.sample_configuration"],
    "geometry.broad_s": ["geometry.candidate_pairs"],
    "geometry.narrow_s": ["geometry.batch_pair_intersections"],
    "geometry.clip_s": ["geometry.batch_clip_to_box"],
    "geometry.radial_s": ["geometry.radial_interval"],
    "events.components_s": ["events.covered_components"],
    "events.arm_s": ["events.arm_event"],
    "events.invasion_s": ["events.invasion_sequence"],
    "exploration.arrangement_s": ["exploration.build_arrangement"],
    "exploration.walk_s": ["exploration.trace_exploration"],
    "exploration.traversals_s": ["exploration.count_traversals"],
    "measures.double_circle_s": ["measures.mu_double_circle"],
    "estimators.self_s": [
        "estimators.arm_decay_scan",
        "estimators.h1_scan",
        "estimators.estimate_probability",
        "estimators.parker_cowan_check",
        "estimators.invasion_domination_check",
    ],
    "cli.self_s": ["cli.run"],
}


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, command, trial]
        self.trials: list[tuple] = []  # (command, index, start, end)
        self.counts: Counter = Counter()
        self.command = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open_trial: list | None = None  # [owner span, index, start]
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for mod_name, attr in BINDINGS + SEED_BINDINGS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if (mod_name, attr) in SEED_BINDINGS:
                wrapper = self._wrap_seed(fn)
            else:
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrapper = self._wrap(f"{layer}.{fn.__name__}", fn, COUNTERS.get(fn.__name__))
            self._patches.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            trial = self._open_trial[1] if self._open_trial else -1
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.command, trial]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if self._open_trial is not None and self._open_trial[0] == index:
                    self._close_trial(span[2])
            if counter is not None:
                counter(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_seed(self, fn):
        def wrapper(master, *indices):
            if len(indices) == 2:
                now = time.perf_counter()
                if indices[1] == 0:
                    if self._open_trial is not None:
                        self._close_trial(now)
                    owner = self._stack[-1] if self._stack else -1
                    self._open_trial = [owner, indices[0], now]
                else:
                    self.counts["estimators.resamples"] += 1
            return fn(master, *indices)

        wrapper.__wrapped__ = fn
        return wrapper

    def _close_trial(self, end: float) -> None:
        _, index, start = self._open_trial
        self.trials.append((self.command, index, start, end))
        self._open_trial = None

    # -- per-pass summaries -----------------------------------------------

    def mark(self) -> tuple[int, int]:
        """Positions to pass to ``summary`` for the work done after now."""
        self.counts.clear()
        self._open_trial = None
        return len(self.spans), len(self.trials)

    def summary(self, mark: tuple[int, int]) -> dict:
        """Self time per metric, counts and trial times since ``mark``."""
        first, first_trial = mark
        spans = self.spans[first:]
        self_time = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= first:
                self_time[s[3] - first] -= s[2] - s[1]
        by_name: Counter = Counter()
        for s, t in zip(spans, self_time):
            by_name[s[0]] += t
        times = {m: sum(by_name[n] for n in names) for m, names in TIME_METRICS.items()}
        counts = {m: int(self.counts[m]) for m in COUNT_METRICS}
        trial_ms = [1e3 * (end - start) for _, _, start, end in self.trials[first_trial:]]
        return {"times": times, "counts": counts, "trial_ms": trial_ms}

    def dump(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "command", "trial"],
            "spans": self.spans,
            "trials": self.trials,
            "missing_bindings": self.missing,
        }


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics over traced passes: median times, exact counts."""
    out = {}
    for m in TIME_METRICS:
        out[m] = statistics.median(s["times"][m] for s in summaries)
    for m in COUNT_METRICS:
        out[m] = summaries[0]["counts"][m]
    cand = out["geometry.candidates"]
    out["geometry.hit_ratio"] = out["geometry.hits"] / cand if cand else 0.0
    trial_ms = [t for s in summaries for t in s["trial_ms"]]
    if len(trial_ms) >= 2:
        out["estimators.trial_ms_p50"] = statistics.median(trial_ms)
        out["estimators.trial_ms_p90"] = statistics.quantiles(trial_ms, n=10)[8]
    else:
        out["estimators.trial_ms_p50"] = out["estimators.trial_ms_p90"] = (
            trial_ms[0] if trial_ms else 0.0
        )
    return out


def count_mismatches(summaries: list[dict]) -> list[str]:
    """Names of count metrics that differ between traced passes of one input."""
    first = summaries[0]["counts"]
    return sorted(
        {m for s in summaries[1:] for m in COUNT_METRICS if s["counts"][m] != first[m]}
    )
