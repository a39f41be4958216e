"""Benchmark workloads: fixed lists of sticksoup command lines and their checks.

Each workload turns a benchmark seed into a list of ``Command``s.  A command
is run in-process through ``sticksoup.cli.run``; ``check`` reads the JSON
report the command printed and returns a failure reason, or None when the
result is right.  ``trials`` is the number of estimator trials the command
runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from scipy.stats import binom

ARM_TRIALS = 10        # scan trials per m; keeps >= 2 rows with >= 5 successes
ARM_MMAX = 4
H1_TRIALS = 40         # explorations per command; same fit floor
H1_MMAX = 3
INVASION_TRIALS = 40
PARKER_COWAN_TRIALS = 2000

ROW_CHECK_LEVEL = 0.999  # per command; Bonferroni-split over the scan rows
PARKER_COWAN_MAX_Z = 4.0
DOUBLE_CIRCLE_ALPHA = 2.5
DOUBLE_CIRCLE_VALUE = 6.992153478936128  # recorded at the benchmark's first commit
DOUBLE_CIRCLE_RTOL = 1e-8

# Success probabilities per scan row, recorded at the benchmark's first commit
# from independent reference batches (successes, trials) of the same laws.
ARM_REFERENCE = [(783, 800), (675, 800), (366, 500), (182, 300)]
H1_REFERENCE = [(209, 400), (154, 400), (110, 400)]


@dataclass(frozen=True)
class Command:
    argv: list[str]
    trials: int
    check: Callable[[dict], str | None]


def _rows_check(reference):
    """Every row's success count passes a two-sided exact binomial test
    against its reference rate; the rows share the command's level."""
    tail = (1.0 - ROW_CHECK_LEVEL) / (2.0 * len(reference))

    def check(report: dict) -> str | None:
        rows = report["result"]["rows"]
        if len(rows) != len(reference):
            return f"expected {len(reference)} rows, got {len(rows)}"
        for m, (row, (s_ref, n_ref)) in enumerate(zip(rows, reference), start=1):
            s, n, p = row["successes"], row["n_trials"], s_ref / n_ref
            if binom.cdf(s, n, p) < tail or binom.sf(s - 1, n, p) < tail:
                return f"row m={m}: {s}/{n} successes, reference rate {p:.4f}"
        return None

    return check


def _check_parker_cowan(report: dict) -> str | None:
    z = report["result"]["z_score"]
    return None if abs(z) <= PARKER_COWAN_MAX_Z else f"|z| = {abs(z):.3f}"


def _check_double_circle(report: dict) -> str | None:
    value = report["result"]["value"]
    if isinstance(value, float) and math.isclose(
        value, DOUBLE_CIRCLE_VALUE, rel_tol=DOUBLE_CIRCLE_RTOL, abs_tol=0.0
    ):
        return None
    return f"value {value!r} != {DOUBLE_CIRCLE_VALUE!r}"


def _check_domination(report: dict) -> str | None:
    return None if report["result"]["dominated"] is True else "dominated: false"


def _seeds(workload: str, seed: int, n: int) -> list[str]:
    rng = random.Random(f"{workload}:{seed}")
    return [str(rng.randrange(1 << 31)) for _ in range(n)]


def _arm(seed: int) -> list[Command]:
    (s,) = _seeds("arm", seed, 1)
    argv = ["estimate", "arm", "--u", "0.15", "--alpha", "2", "--rmin", "0.05",
            "--scan-mmax", str(ARM_MMAX), "--trials", str(ARM_TRIALS), "--seed", s]
    return [Command(argv, ARM_MMAX * ARM_TRIALS, _rows_check(ARM_REFERENCE))]


def _h1(seed: int) -> list[Command]:
    (s,) = _seeds("h1", seed, 1)
    argv = ["estimate", "h1", "--u", "0.2", "--alpha", "2", "--rmin", "0.1",
            "--k", "1", "--mmax", str(H1_MMAX), "--trials", str(H1_TRIALS), "--seed", s]
    return [Command(argv, H1_TRIALS, _rows_check(H1_REFERENCE))]


def _verify(seed: int) -> list[Command]:
    s_inv, s_pc = _seeds("verify", seed, 2)
    return [
        Command(["invasion", "--u", "1", "--alpha", "2", "--m", "6", "--rmin", "0.5",
                 "--domination", "--trials", str(INVASION_TRIALS), "--seed", s_inv],
                INVASION_TRIALS, _check_domination),
        Command(["verify", "parker-cowan", "--u", "1", "--alpha", "2", "--r", "0.5",
                 "--t", "2", "--trials", str(PARKER_COWAN_TRIALS), "--seed", s_pc],
                PARKER_COWAN_TRIALS, _check_parker_cowan),
        Command(["verify", "double-circle", "--alpha", str(DOUBLE_CIRCLE_ALPHA)],
                0, _check_double_circle),
    ]


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "arm": _arm,
    "h1": _h1,
    "verify": _verify,
}
