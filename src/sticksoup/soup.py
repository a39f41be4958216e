"""Exact sampling of the truncated stick soup restricted to a disk window.

The soup is a Poisson process on (center, half-length R, direction V) with
intensity u * dz (x) alpha R^-(1+alpha) dR (x) dV/pi.  For a disk window of
radius a, the set of centers whose stick meets the closed disk is a stadium
(a 2a x 2R rectangle capped by two half-disks of radius a), so sticks hitting
the window can be drawn exactly, with zero rejections:

  1. N ~ Poisson(u * (pi a^2 r^-alpha + 4 a alpha/(alpha-1) r^(1-alpha)))
  2. R from the density proportional to alpha R^-(1+alpha) (pi a^2 + 4 a R)
     on [r, inf), a two-component mixture of Pareto tails drawn by inversion
  3. V uniform on [-pi/2, pi/2)
  4. center uniform in the stadium oriented along V
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from .geometry import (
    GeometryError,
    Point,
    Stick,
    _may_cross_dyadic_circle,
    _norm,
    radial_interval,
    region_tol,
    sticks_to_segments,
)


class InfiniteMeasureError(ValueError):
    """The requested hit measure is infinite for these parameters."""


@dataclass(frozen=True)
class SoupParams:
    u: float
    alpha: float

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
        if d + radius > self.radius + region_tol(self):
            raise ValueError(
                f"region of radius {radius} at {center} exceeds the sampling window; "
                "sample a larger window"
            )


@dataclass
class Configuration:
    """A sampled realization: all sticks with R >= r_min hitting the window.

    ``stick_data`` is an (n, 4) array of rows (cx, cy, r, v); ``sticks``
    materializes Stick objects on first use.  Deterministic given
    (params, window, r_min, seed).
    """

    params: SoupParams
    window: DiskWindow
    r_min: float
    seed: int
    stick_data: np.ndarray

    def __post_init__(self):
        self.stick_data = np.asarray(self.stick_data, dtype=float).reshape(-1, 4)

    @property
    def n_sticks(self) -> int:
        return len(self.stick_data)

    @cached_property
    def sticks(self) -> list[Stick]:
        # v = -pi/2 is the same unoriented stick as Stick's v = pi/2
        return [Stick(Point(cx, cy), r, math.pi / 2 if v == -math.pi / 2 else v)
                for cx, cy, r, v in self.stick_data]

    def segments(self) -> np.ndarray:
        """Endpoint array (n, 4) of the stick segments."""
        return sticks_to_segments(self.stick_data)


def hit_weights_disk(alpha: float, r: float, a: float) -> tuple[float, float]:
    """Area and perimeter components of the disk hit measure (per unit u).

    The truncation radius ``r`` may be an array; the components follow it.
    """
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


def _uniform(u, low: float, high: float):
    """``rng.uniform(low, high)`` from ``rng.random()`` draws, bit for bit."""
    return low + (high - low) * u


# Sticks the kernel builds at a time: its temporaries stay small enough to
# be reused from one block to the next, not mapped afresh for every draw.
_KERNEL_BLOCK = 4096


def _stick_frame(u: np.ndarray, p_area: float, alpha: float, a: float, r_min: float):
    """For one block of ``_hit_sticks``' uniforms: the radii, the indices of
    the sticks whose centre falls in the stadium's rectangle, and those
    centres' coordinates (along, across) in the frame of their stick."""
    pick, u_r, _, u_rect, u_along, u_across, _, _ = u
    # area component: Pareto(alpha); cap component: Pareto(alpha - 1)
    radii = np.where(
        pick < p_area,
        r_min * (1.0 - u_r) ** (-1.0 / alpha),
        r_min * (1.0 - u_r) ** (-1.0 / (alpha - 1.0)),
    )
    rect = np.flatnonzero(u_rect * (math.pi * a * a + 4 * a * radii) < 4 * a * radii)
    along = _uniform(u_along[rect], -1.0, 1.0) * radii[rect]
    across = _uniform(u_across[rect], -a, a)
    return radii, rect, along, across


def _area_share(alpha: float, a: float, r_min: float) -> float:
    """Probability that a stick hitting B(0, a) is drawn from the area term."""
    w_area, w_caps = hit_weights_disk(alpha, r_min, a)
    return w_area / (w_area + w_caps)


def _hit_sticks(u: np.ndarray, alpha: float, a: float, r_min: float) -> np.ndarray:
    """Sticks of the normalized law of sticks hitting B(0, a), one per column
    of the (8, n) uniforms ``u``.

    The rows of ``u`` are, in draw order: component pick, radius, direction,
    rectangle test, along, across, cap radius, cap angle.  Each stick reads
    only its own column, so a concatenation of blocks gives the
    concatenation of their sticks.  Returns (n, 4) rows (cx, cy, r, v)
    relative to the window center.
    """
    p_area = _area_share(alpha, a, r_min)
    out = np.empty((u.shape[1], 4))
    for first in range(0, len(out), _KERNEL_BLOCK):
        cols = slice(first, first + _KERNEL_BLOCK)
        block = u[:, cols]
        cx, cy, radii, dirs = out[cols].T
        radii[:], rect, along, across = _stick_frame(block, p_area, alpha, a, r_min)
        dirs[:] = _uniform(block[2], -math.pi / 2, math.pi / 2)
        ex, ey = np.cos(dirs), np.sin(dirs)
        # center: uniform in the stadium = rectangle (area 4 a R) + two
        # half-disk caps; the caps hold all but a few percent of the sticks
        cap_r = a * np.sqrt(block[6])
        cap_v = _uniform(block[7], 0.0, 2 * math.pi)
        wx = cap_r * np.cos(cap_v)
        wy = cap_r * np.sin(cap_v)
        # the cap on the side of (wx, wy) along the stick
        reach = np.where(wx * ex + wy * ey >= 0, radii, -radii)
        cx[:] = reach * ex + wx
        cy[:] = reach * ey + wy
        cx[rect] = along * ex[rect] - across * ey[rect]
        cy[rect] = along * ey[rect] + across * ex[rect]
    return out


def _dyadic_columns(u: np.ndarray, alpha: float, a: float, r_min: float,
                    offset: float) -> np.ndarray:
    """Mask of the columns of ``u`` whose stick, as ``_hit_sticks`` draws it,
    may cross a circle |z| = 2^k about the window centre; no trigonometry.

    A rectangle stick's centre lies at distance d = sqrt(along^2 + across^2)
    from the window centre.  A cap stick's centre is R e + w, with w in the
    cap disk of radius cap_r and on the side of the direction e, so d lies
    in [sqrt(R^2 + cap_r^2), R + cap_r].  The bounds are widened by
    1e-12 (R + a + offset), far above the rounding of the kernel and of
    adding and then removing the window centre, whose coordinates' absolute
    values sum to ``offset``.  ``geometry._may_cross_dyadic_circle`` is
    monotone in the bounds, so every stick that ``events._spanning_indices``
    keeps from the sampled rows has its column kept here.
    """
    p_area = _area_share(alpha, a, r_min)
    keep = np.empty(u.shape[1], dtype=bool)
    for first in range(0, len(keep), _KERNEL_BLOCK):
        cols = slice(first, first + _KERNEL_BLOCK)
        radii, rect, along, across = _stick_frame(u[:, cols], p_area, alpha, a, r_min)
        cap_r = a * np.sqrt(u[6, cols])
        d_lo = np.sqrt(radii * radii + cap_r * cap_r)
        d_hi = radii + cap_r
        d_lo[rect] = d_hi[rect] = _norm(along, across)
        slack = 1e-12 * (radii + (a + offset))
        keep[cols] = _may_cross_dyadic_circle(d_lo - slack, d_hi + slack, radii)
    return keep


def configuration_mean(params: SoupParams, window: DiskWindow, r_min: float) -> float:
    """Mean stick count of a configuration sampled at (params, window, r_min)."""
    if not (r_min > 0):
        raise ValueError(f"truncation radius must be positive, got {r_min}")
    return expected_hit_count_disk(params.alpha, params.u, r_min, window.radius)


def sample_configurations(
    params: SoupParams, window: DiskWindow, r_min: float, seeds: Sequence[int],
    dyadic_only: bool = False,
) -> list[Configuration]:
    """``sample_configuration`` for each seed, with one kernel pass for all.

    Each seed's generator draws its Poisson count n and then one block of
    8 n uniforms, in the order ``_hit_sticks`` reads them; the blocks are
    concatenated and the configurations are views of the one result.

    With ``dyadic_only`` each configuration holds only the sticks that may
    cross a circle |z - window centre| = 2^k (``_dyadic_columns``), bit for
    bit and in draw order: all that the invasion records read, and a small
    share of the sticks on large windows.
    """
    mean = configuration_mean(params, window, r_min)
    blocks = []
    for seed in seeds:
        rng = np.random.default_rng(np.uint64(seed & ((1 << 64) - 1)))
        n = int(rng.poisson(mean))
        blocks.append(rng.random(8 * n).reshape(8, n))
    u = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    ends = np.cumsum([b.shape[1] for b in blocks])[:-1]
    if dyadic_only:
        keep = _dyadic_columns(u, params.alpha, window.radius, r_min,
                               abs(window.center.x) + abs(window.center.y))
        u = np.compress(keep, u, axis=1)
        ends = np.concatenate([[0], np.cumsum(keep)])[ends]
    data = _hit_sticks(u, params.alpha, window.radius, r_min)
    data[:, 0] += window.center.x
    data[:, 1] += window.center.y
    return [Configuration(params, window, r_min, seed, part)
            for seed, part in zip(seeds, np.split(data, ends))]


def sample_configuration(
    params: SoupParams, window: DiskWindow, r_min: float, trial_seed: int,
    dyadic_only: bool = False,
) -> Configuration:
    """Exact draw of every stick with R >= r_min meeting the closed window disk
    (with ``dyadic_only``, of those that may cross a dyadic circle)."""
    return sample_configurations(params, window, r_min, [trial_seed], dyadic_only)[0]


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
    params = SoupParams(u_eff, c.params.alpha)
    window = DiskWindow(
        Point(c.window.center.x * ratio, c.window.center.y * ratio),
        c.window.radius * ratio,
    )
    return Configuration(params, window, c.r_min * ratio, c.seed, data)


def radius_marginal_cdf(alpha: float, a: float, r_min: float, x):
    """CDF of the stick half-length among sticks hitting a disk of radius a."""
    total = sum(hit_weights_disk(alpha, r_min, a))
    x = np.asarray(x, dtype=float)
    surv = sum(hit_weights_disk(alpha, np.maximum(x, r_min), a)) / total
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


_HEADER_KEYS = ("u", "alpha", "r_min", "window_cx", "window_cy", "window_a", "seed")
_STICK_KEYS = ("cx", "cy", "r", "v")


def _finite_values(line: str, keys: tuple[str, ...], where: str) -> list:
    try:
        d = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {exc.msg}") from None
    if not isinstance(d, dict) or not all(k in d for k in keys):
        raise ValueError(f"{where}: expected an object with the keys {', '.join(keys)}")
    for k in keys:
        try:  # a JSON integer past the float range overflows
            ok = type(d[k]) in (int, float) and math.isfinite(d[k])
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"{where}: {k} must be a finite number, got {d[k]!r}")
    return [d[k] for k in keys]


def configuration_from_jsonl(stream: IO[str] | Iterable[str]) -> Configuration:
    """Read a configuration written by ``configuration_to_jsonl``.

    Raises ValueError unless the header and every stick have their keys with
    finite values, window_a and r_min are positive, and every stick has
    r >= r_min, v in [-pi/2, pi/2] and meets the window disk within the
    tolerance of ``DiskWindow.require_contains``.
    """
    lines = [(n, line) for n, line in enumerate(stream, 1) if line.strip()]
    if not lines:
        raise ValueError("configuration file is empty")
    n0, header = lines[0]
    u, alpha, r_min, wx, wy, a, seed = _finite_values(header, _HEADER_KEYS, f"line {n0}")
    if not (a > 0 and r_min > 0):
        raise ValueError(f"line {n0}: window_a and r_min must be positive")
    data = np.array(
        [_finite_values(line, _STICK_KEYS, f"line {n}") for n, line in lines[1:]], dtype=float
    ).reshape(-1, 4)
    window = DiskWindow(Point(wx, wy), a)
    dmin, _ = radial_interval(sticks_to_segments(data), wx, wy)
    for bad, what in (
        (data[:, 2] < r_min, f"r below r_min = {r_min}"),
        (np.abs(data[:, 3]) > math.pi / 2, "v outside [-pi/2, pi/2]"),
        (dmin > a + region_tol(window), "stick misses the window disk"),
    ):
        if np.any(bad):
            raise ValueError(f"line {lines[1 + int(np.argmax(bad))][0]}: {what}")
    return Configuration(SoupParams(u, alpha), window, r_min, seed, data)
