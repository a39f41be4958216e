"""Exact sampling of the truncated stick soup restricted to a disk window.

The soup is a Poisson process on (center, half-length R, direction V) with
intensity u * dz (x) alpha R^-(1+alpha) dR (x) dV/pi.  For a disk window of
radius a, the set of centers whose stick meets the closed disk is a stadium
(a 2a x 2R rectangle capped by two half-disks of radius a), so sticks hitting
the window can be drawn exactly, with zero rejections:

  1. N ~ Poisson(u * (pi a^2 r^-alpha + 4 a alpha/(alpha-1) r^(1-alpha)))
  2. R from the density proportional to alpha R^-(1+alpha) (pi a^2 + 4 a R)
     on [r, inf), a two-component mixture of Pareto tails drawn by inversion
  3. V uniform on (-pi/2, pi/2]
  4. center uniform in the stadium oriented along V
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .geometry import REL_EPS, GeometryError, Point, Stick, sticks_to_segments


class InfiniteMeasureError(ValueError):
    """The requested hit measure is infinite for these parameters."""


@dataclass(frozen=True)
class SoupParams:
    u: float
    alpha: float
    master_seed: int = 0

    def __post_init__(self):
        if not (self.u > 0):
            raise ValueError(f"intensity u must be positive, got {self.u}")
        if not (self.alpha > 0):
            raise ValueError(f"tail exponent alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class DiskWindow:
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise GeometryError(f"window radius must be positive, got {self.radius}")

    def require_contains(self, center: Point, radius: float) -> None:
        """Raise ValueError unless the closed disk B(center, radius) lies in
        the window, up to the relative tolerance of the geometry kernels."""
        d = math.hypot(center.x - self.center.x, center.y - self.center.y)
        if d + radius > self.radius + REL_EPS * max(self.radius, 1.0):
            raise ValueError(
                f"region of radius {radius} at {center} exceeds the sampling window; "
                "sample a larger window"
            )


@dataclass
class Configuration:
    """A sampled realization: all sticks with R >= r_min hitting the window.

    ``stick_data`` is an (n, 4) array of rows (cx, cy, r, v); the ``sticks``
    property materializes Stick objects on demand.  Deterministic given
    (params, window, r_min, seed).
    """

    params: SoupParams
    window: DiskWindow
    r_min: float
    seed: int
    stick_data: np.ndarray
    _sticks_cache: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.stick_data = np.asarray(self.stick_data, dtype=float).reshape(-1, 4)

    @property
    def n_sticks(self) -> int:
        return len(self.stick_data)

    @property
    def sticks(self) -> list[Stick]:
        if self._sticks_cache is None:
            self._sticks_cache = [
                Stick(Point(cx, cy), r, v) for cx, cy, r, v in self.stick_data
            ]
        return self._sticks_cache

    def segments(self) -> np.ndarray:
        """Endpoint array (n, 4) of the stick segments."""
        return sticks_to_segments(self.stick_data)


def hit_weights_disk(alpha: float, r: float, a: float) -> tuple[float, float]:
    """Area and perimeter components of the disk hit measure (per unit u)."""
    if alpha <= 1:
        raise InfiniteMeasureError(
            f"disk hit measure is infinite for alpha <= 1 (alpha={alpha})"
        )
    w_area = math.pi * a * a * r ** (-alpha)
    w_caps = 4.0 * a * (alpha / (alpha - 1.0)) * r ** (1.0 - alpha)
    return w_area, w_caps


def expected_hit_count_disk(alpha: float, u: float, r: float, a: float) -> float:
    """Mean number of sticks with R >= r whose segment meets a disk of radius a."""
    if not (u > 0 and r > 0 and a > 0):
        raise ValueError("u, r and a must all be positive")
    w_area, w_caps = hit_weights_disk(alpha, r, a)
    return u * (w_area + w_caps)


def expected_count_band_convex(
    alpha: float, u: float, r: float, t: float, area: float, perimeter: float
) -> float:
    """Mean number of sticks with R in [r, t) hitting a convex set.

    The t = inf limit is allowed for alpha > 1.
    """
    if not (0 < r < t):
        raise ValueError(f"need 0 < r < t, got r={r}, t={t}")
    if area < 0 or perimeter < 0:
        raise ValueError("area and perimeter must be nonnegative")
    if math.isinf(t):
        if alpha <= 1:
            raise InfiniteMeasureError("band measure with t=inf needs alpha > 1")
        tail_mass = r ** (-alpha)
        length_int = r ** (1 - alpha) / (alpha - 1.0)
    else:
        tail_mass = r ** (-alpha) - t ** (-alpha)
        if alpha == 1.0:
            length_int = math.log(t / r)
        else:
            length_int = (r ** (1 - alpha) - t ** (1 - alpha)) / (alpha - 1.0)
    return u * tail_mass * area + (2.0 * alpha * u / math.pi) * length_int * perimeter


def _sample_hit_sticks(
    rng: np.random.Generator, alpha: float, a: float, r_min: float, n: int
) -> np.ndarray:
    """Draw n sticks from the normalized law of sticks hitting B(0, a).

    Returns (n, 4) rows (cx, cy, r, v) relative to the window center.
    """
    w_area, w_caps = hit_weights_disk(alpha, r_min, a)
    p_area = w_area / (w_area + w_caps)
    pick = rng.random(n)
    u_r = rng.random(n)
    # area component: Pareto(alpha); cap component: Pareto(alpha - 1)
    radii = np.where(
        pick < p_area,
        r_min * (1.0 - u_r) ** (-1.0 / alpha),
        r_min * (1.0 - u_r) ** (-1.0 / (alpha - 1.0)),
    )
    dirs = rng.uniform(-math.pi / 2, math.pi / 2, n)
    ex, ey = np.cos(dirs), np.sin(dirs)
    # center: uniform in the stadium = rectangle (area 4 a R) + two half-disk caps
    in_rect = rng.random(n) * (math.pi * a * a + 4 * a * radii) < 4 * a * radii
    along = rng.uniform(-1.0, 1.0, n) * radii
    across = rng.uniform(-a, a, n)
    rect_x = along * ex - across * ey
    rect_y = along * ey + across * ex
    cap_rad = a * np.sqrt(rng.random(n))
    cap_ang = rng.uniform(0.0, 2 * math.pi, n)
    wx = cap_rad * np.cos(cap_ang)
    wy = cap_rad * np.sin(cap_ang)
    side = np.where(wx * ex + wy * ey >= 0, 1.0, -1.0)
    cap_x = side * radii * ex + wx
    cap_y = side * radii * ey + wy
    cx = np.where(in_rect, rect_x, cap_x)
    cy = np.where(in_rect, rect_y, cap_y)
    return np.column_stack([cx, cy, radii, dirs])


def sample_configuration(
    params: SoupParams, window: DiskWindow, r_min: float, trial_seed: int
) -> Configuration:
    """Exact draw of every stick with R >= r_min meeting the closed window disk."""
    if not (r_min > 0):
        raise ValueError(f"truncation radius must be positive, got {r_min}")
    mean = expected_hit_count_disk(params.alpha, params.u, r_min, window.radius)
    rng = np.random.default_rng(np.uint64(trial_seed & ((1 << 64) - 1)))
    n = int(rng.poisson(mean))
    data = _sample_hit_sticks(rng, params.alpha, window.radius, r_min, n)
    data[:, 0] += window.center.x
    data[:, 1] += window.center.y
    return Configuration(params, window, r_min, trial_seed, data)


def restrict_configuration(c: Configuration, r_new: float) -> Configuration:
    """Keep exactly the sticks with radius >= r_new (nested coupling)."""
    if r_new < c.r_min:
        raise ValueError(
            f"cannot refine truncation from {c.r_min} to {r_new}; resample instead"
        )
    keep = c.stick_data[:, 2] >= r_new
    return Configuration(c.params, c.window, r_new, c.seed, c.stick_data[keep])


def apply_homothety(c: Configuration, ratio: float) -> Configuration:
    """Scale the configuration about the origin: (z, R, V) -> (ratio z, ratio R, V).

    The window and truncation scale along; the effective intensity of the
    scaled soup is u * ratio^(2 - alpha) (unchanged at alpha = 2).
    """
    if not (ratio > 0):
        raise ValueError(f"homothety ratio must be positive, got {ratio}")
    data = c.stick_data.copy()
    data[:, 0] *= ratio
    data[:, 1] *= ratio
    data[:, 2] *= ratio
    u_eff = c.params.u * ratio ** (2.0 - c.params.alpha)
    params = SoupParams(u_eff, c.params.alpha, c.params.master_seed)
    window = DiskWindow(
        Point(c.window.center.x * ratio, c.window.center.y * ratio),
        c.window.radius * ratio,
    )
    return Configuration(params, window, c.r_min * ratio, c.seed, data)


def radius_marginal_cdf(alpha: float, a: float, r_min: float, x):
    """CDF of the stick half-length among sticks hitting a disk of radius a."""
    w_area, w_caps = hit_weights_disk(alpha, r_min, a)
    x = np.asarray(x, dtype=float)
    surv = (
        math.pi * a * a * np.maximum(x, r_min) ** (-alpha)
        + 4.0 * a * (alpha / (alpha - 1.0)) * np.maximum(x, r_min) ** (1.0 - alpha)
    ) / (w_area + w_caps)
    return np.where(x < r_min, 0.0, 1.0 - surv)


# ---------------------------------------------------------------------------
# JSON Lines serialization: one header object, then one object per stick


def configuration_to_jsonl(c: Configuration) -> str:
    header = {
        "u": c.params.u,
        "alpha": c.params.alpha,
        "r_min": c.r_min,
        "window_cx": c.window.center.x,
        "window_cy": c.window.center.y,
        "window_a": c.window.radius,
        "seed": c.seed,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for cx, cy, r, v in c.stick_data:
        lines.append(
            json.dumps({"cx": cx, "cy": cy, "r": r, "v": v}, sort_keys=True)
        )
    return "\n".join(lines) + "\n"


def configuration_from_jsonl(stream: IO[str] | Iterable[str]) -> Configuration:
    lines = iter(stream)
    header = json.loads(next(lines))
    rows = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        rows.append((d["cx"], d["cy"], d["r"], d["v"]))
    params = SoupParams(header["u"], header["alpha"], header.get("seed", 0))
    window = DiskWindow(
        Point(header["window_cx"], header["window_cy"]), header["window_a"]
    )
    data = np.asarray(rows, dtype=float).reshape(-1, 4)
    return Configuration(params, window, header["r_min"], header["seed"], data)
