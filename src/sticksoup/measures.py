"""Closed-form values of the stick hit measure.

These are the deterministic oracles the Monte Carlo estimators are checked
against.  The measure of sticks hitting a fixed shape is infinite in several
parameter ranges; infinities are returned as ``math.inf``, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .reports import EstimateReport, from_successes
from .geometry import _hits_vertical, sticks_to_segments
from .seeds import derive_seed
from .soup import InfiniteMeasureError, _hit_sticks, hit_weights_disk


@dataclass(frozen=True)
class SegmentShape:
    """A reference line segment of the given length."""

    length: float


@dataclass(frozen=True)
class BallShape:
    """A reference disk of the given radius."""

    radius: float


@dataclass(frozen=True)
class RadiusAtLeast:
    r: float


@dataclass(frozen=True)
class RadiusBelow:
    r: float


def mu_hit(alpha: float, shape, radius_range) -> float:
    """Measure (per unit intensity) of sticks hitting the shape.

    Segment of length a:
      R >= r: infinite for alpha <= 1, else (4/pi) (alpha/(alpha-1)) a r^(1-alpha)
      R < r:  infinite for alpha >= 1, else (4/pi) (alpha/(1-alpha)) a r^(1-alpha)
    Ball of radius a:
      R < r:  infinite for every alpha
      R >= r: infinite for alpha <= 1, else pi a^2 r^-alpha
              + 4 (alpha/(alpha-1)) a r^(1-alpha)
    """
    if not (0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    r = radius_range.r
    if not (r > 0):
        raise ValueError(f"radius threshold must be positive, got {r}")
    if isinstance(shape, SegmentShape):
        a = shape.length
        if not (a > 0):
            raise ValueError("segment length must be positive")
        if isinstance(radius_range, RadiusAtLeast):
            if alpha <= 1:
                return math.inf
            return (4.0 / math.pi) * (alpha / (alpha - 1.0)) * a * r ** (1.0 - alpha)
        if alpha >= 1:
            return math.inf
        return (4.0 / math.pi) * (alpha / (1.0 - alpha)) * a * r ** (1.0 - alpha)
    if isinstance(shape, BallShape):
        a = shape.radius
        if not (a > 0):
            raise ValueError("ball radius must be positive")
        if isinstance(radius_range, RadiusBelow):
            return math.inf
        if alpha <= 1:
            return math.inf
        w_area, w_caps = hit_weights_disk(alpha, r, a)
        return w_area + w_caps
    raise TypeError(f"unknown shape {shape!r}")


def mu_double_circle(alpha: float) -> float:
    """Measure of sticks meeting a circle in exactly two points.

    Finite exactly for alpha in (1, 3); equal to 2*pi at alpha = 2.  The value
    is independent of the circle radius at alpha = 2 by scale invariance; for
    other alpha the unit circle is used (radius l rescales it by l^(2-alpha)).

    Closed form 2 sqrt(pi) Gamma((1-alpha)/2) / ((alpha-2) Gamma(1-alpha/2)):
    in x = sin(theta) the short-stick part is the integral over (0, 1) of
    (4x - 2 asin x - 2x sqrt(1-x^2)) alpha x^(-1-alpha) dx, a sum of Beta
    integrals for alpha < 1 that continues analytically to (0, 3); its
    non-Beta terms cancel the long-stick part 4 alpha/(alpha-1) - pi.
    """
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha <= 1 or alpha >= 3:
        return math.inf
    if alpha == 2.0:  # removable singularity: pole of Gamma(1 - alpha/2)
        return 2.0 * math.pi
    return (
        2.0 * math.sqrt(math.pi) * math.gamma((1.0 - alpha) / 2.0)
        / ((alpha - 2.0) * math.gamma(1.0 - alpha / 2.0))
    )


def annulus_crossing_bounds(alpha: float, l1: float, l2: float) -> tuple[float, float]:
    """Sandwich for the measure of sticks meeting both circles of an annulus.

    Lower bound: sticks hitting B(l1) with R >= l2.  Upper bound: sticks
    hitting B(l1) with 2R >= l2 - l1.
    """
    if alpha <= 1:
        raise ValueError(f"bounds require alpha > 1, got {alpha}")
    if not (0 < l1 < l2):
        raise ValueError(f"need 0 < l1 < l2, got ({l1}, {l2})")
    lower = sum(hit_weights_disk(alpha, l2, l1))
    upper = sum(hit_weights_disk(alpha, (l2 - l1) / 2.0, l1))
    return lower, upper


def decorrelation_bound(alpha: float, u: float, l1: float, l2: float) -> float:
    """Covariance bound for [-1, 1]-valued observables of the regions inside
    B(l1) and outside B(l2): min(2, 4 u mu(both circles hit))."""
    _, upper = annulus_crossing_bounds(alpha, l1, l2)
    return min(2.0, 4.0 * u * upper)


def _crosses_vertical_sides(segs: np.ndarray, x0: float, x1: float, y0: float,
                            y1: float) -> np.ndarray:
    """Per segment, whether it meets both vertical sides {x0} x [y0, y1] and
    {x1} x [y0, y1] of a box: the single-stick crossing of ``lr1_measure``."""
    return _hits_vertical(segs, x0, y0, y1) & _hits_vertical(segs, x1, y0, y1)


def lr1_measure(
    alpha: float,
    l: float,
    k: float,
    n_trials: int,
    u: float = 1.0,
    master_seed: int = 0,
) -> EstimateReport:
    """Monte Carlo estimate of the measure of single sticks crossing a box.

    The box is [0, kl] x [0, l]; a crossing stick must meet both vertical
    sides, hence have 2R >= kl, so sticks are importance-sampled from the law
    of sticks hitting the circumscribed disk truncated at r_min = kl/2.  The
    measure estimate is (disk hit measure) * (crossing fraction) and the
    crossing probability at intensity u is 1 - exp(-u * mu_hat).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if not (l > 0 and k > 0):
        raise ValueError("box dimensions require l > 0 and k > 0")
    if alpha <= 1:
        raise InfiniteMeasureError("single-stick sampling requires alpha > 1")
    width = k * l
    r_min = width / 2.0
    disk_r = math.hypot(width, l) / 2.0
    w_area, w_caps = hit_weights_disk(alpha, r_min, disk_r)
    total_weight = w_area + w_caps
    rng = np.random.default_rng(np.uint64(derive_seed(master_seed, 0)))
    data = _hit_sticks(rng.random(8 * n_trials).reshape(8, n_trials), alpha, disk_r, r_min)
    data[:, 0] += width / 2.0
    data[:, 1] += l / 2.0
    crossings = int(np.count_nonzero(
        _crosses_vertical_sides(sticks_to_segments(data), 0.0, width, 0.0, l)
    ))
    report = from_successes(crossings, n_trials, master_seed, {})
    mu_hat = total_weight * report.estimate
    return replace(report, params={
        "kind": "lr1_measure",
        "alpha": alpha,
        "l": l,
        "k": k,
        "u": u,
        "r_min": r_min,
        "mu_hat": mu_hat,
        "mu_std_error": total_weight * report.std_error,
        "probability": 1.0 - math.exp(-u * mu_hat),
    })
