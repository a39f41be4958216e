"""Report containers for the Monte Carlo harness: Wilson intervals, decay fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class FitError(RuntimeError):
    """Not enough usable rows for a decay fit."""


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    p = successes / n
    z2 = z * z
    center = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    # clamp against rounding so the interval always brackets p
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


@dataclass(frozen=True)
class EstimateReport:
    """One Monte Carlo probability estimate with provenance."""

    n_trials: int
    successes: int
    estimate: float
    std_error: float
    ci95: tuple[float, float]
    master_seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.estimate <= 1):
            raise ValueError(f"estimate must lie in [0, 1], got {self.estimate}")
        if not (self.ci95[0] <= self.estimate <= self.ci95[1]):
            raise ValueError("estimate outside its own confidence interval")

    def overlaps(self, other: "EstimateReport") -> bool:
        return self.ci95[0] <= other.ci95[1] and other.ci95[0] <= self.ci95[1]

    def to_json_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "ci95": list(self.ci95),
            "master_seed": self.master_seed,
            "params": self.params,
        }


def from_successes(successes: int, n_trials: int, master_seed: int, params: dict
                   ) -> EstimateReport:
    p = successes / n_trials
    se = math.sqrt(max(p * (1 - p), 0.0) / n_trials)
    return EstimateReport(
        n_trials=n_trials,
        successes=successes,
        estimate=p,
        std_error=se,
        ci95=wilson_interval(successes, n_trials),
        master_seed=master_seed,
        params=params,
    )


def weighted_loglinear_fit(x, y, w):
    """Weighted least squares of y against x; returns (slope, intercept, r2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if len(x) < 2:
        raise FitError(f"need at least two usable rows for a fit, got {len(x)}")
    sw = w.sum()
    xb = (w * x).sum() / sw
    yb = (w * y).sum() / sw
    sxx = (w * (x - xb) ** 2).sum()
    if sxx <= 0:
        raise FitError("degenerate abscissae in fit")
    slope = (w * (x - xb) * (y - yb)).sum() / sxx
    intercept = yb - slope * xb
    ss_res = (w * (y - slope * x - intercept) ** 2).sum()
    ss_tot = (w * (y - yb) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


@dataclass(frozen=True)
class DecayReport:
    """Scale-indexed estimates with a weighted log-linear decay fit.

    The fit regresses log(estimate) on index * log(2), so ``2**slope`` is the
    multiplicative decay per index step; ``eta_hat = -slope`` is the empirical
    power-law exponent and ``q_hat = 2**slope`` the per-step geometric factor.
    Rows with fewer than 5 successes are excluded from the fit.
    """

    indices: list[int]
    rows: list[EstimateReport]
    slope: float
    intercept: float
    r_squared: float
    used_indices: list[int]
    master_seed: int
    params: dict = field(default_factory=dict)

    @property
    def eta_hat(self) -> float:
        return -self.slope

    @property
    def q_hat(self) -> float:
        return float(2.0 ** self.slope)

    @property
    def estimates(self) -> list[float]:
        return [r.estimate for r in self.rows]

    def to_json_dict(self) -> dict:
        return {
            "indices": self.indices,
            "rows": [r.to_json_dict() for r in self.rows],
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "eta_hat": self.eta_hat,
            "q_hat": self.q_hat,
            "used_indices": self.used_indices,
            "master_seed": self.master_seed,
            "params": self.params,
        }

    def to_csv(self) -> str:
        lines = ["m,n_trials,successes,estimate,stderr,ci_lo,ci_hi"]
        for m, r in zip(self.indices, self.rows):
            lines.append(
                f"{m},{r.n_trials},{r.successes},{r.estimate!r},"
                f"{r.std_error!r},{r.ci95[0]!r},{r.ci95[1]!r}"
            )
        return "\n".join(lines) + "\n"


def fit_decay(indices, rows, master_seed, params, min_successes: int = 5
              ) -> DecayReport:
    """Build a DecayReport from per-index EstimateReports."""
    xs, ys, ws, used = [], [], [], []
    for m, r in zip(indices, rows):
        if r.successes < min_successes or r.estimate <= 0:
            continue
        xs.append(m * math.log(2.0))
        ys.append(math.log(r.estimate))
        # inverse variance of log p-hat
        ws.append((r.estimate / r.std_error) ** 2 if r.std_error > 0 else 0.0)
        used.append(m)
    if any(w == 0 for w in ws):  # saturated rows (p = 1): tiny but positive weight
        ws = [w if w > 0 else 1.0 for w in ws]
    slope, intercept, r2 = weighted_loglinear_fit(xs, ys, ws)
    return DecayReport(
        indices=list(indices),
        rows=list(rows),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        used_indices=used,
        master_seed=master_seed,
        params=params,
    )
