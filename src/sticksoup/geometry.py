"""Planar primitives: points, sticks, segments, boxes, annuli, polylines.

Plain double precision with a relative coincidence tolerance: ``REL_EPS``
scaled by the size of the region of interest (``region_tol``), or by the
extent of the inputs in the scalar kit.  Inputs that land inside the
tolerance band are merged or reported, never silently repaired; under the
continuous stick-soup law such configurations have probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

REL_EPS = 1e-9


class GeometryError(ValueError):
    """Invalid geometric construction (non-finite, degenerate or empty)."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x}, {self.y})")


def _xy(p) -> tuple:
    """The coordinates of a point given as a Point or an (x, y) pair."""
    return (p.x, p.y) if isinstance(p, Point) else (p[0], p[1])


@dataclass(frozen=True)
class Stick:
    """One segment of the soup: center, half-length and direction angle."""

    center: Point
    radius: float
    direction: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise GeometryError(f"stick radius must be positive, got {self.radius}")
        if not (-math.pi / 2 < self.direction <= math.pi / 2):
            raise GeometryError(
                f"stick direction must lie in (-pi/2, pi/2], got {self.direction}"
            )


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a.x == self.b.x and self.a.y == self.b.y:
            raise GeometryError("degenerate segment: identical endpoints")

    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)

    def midpoint(self) -> Point:
        return Point((self.a.x + self.b.x) / 2, (self.a.y + self.b.y) / 2)


@dataclass(frozen=True)
class Box:
    min: Point
    max: Point

    def __post_init__(self):
        if not (self.min.x < self.max.x and self.min.y < self.max.y):
            raise GeometryError("box needs min < max on both axes")

    def width(self) -> float:
        return self.max.x - self.min.x

    def height(self) -> float:
        return self.max.y - self.min.y

    def diagonal(self) -> float:
        return math.hypot(self.width(), self.height())

    def center(self) -> Point:
        return Point((self.min.x + self.max.x) / 2, (self.min.y + self.max.y) / 2)


@dataclass(frozen=True)
class Annulus:
    """Closed annulus between the inner and outer circles around ``center``."""

    center: Point
    inner: float
    outer: float

    def __post_init__(self):
        if not (0 < self.inner < self.outer):
            raise GeometryError(
                f"annulus needs 0 < inner < outer, got ({self.inner}, {self.outer})"
            )


def region_tol(region) -> float:
    """Coincidence tolerance of a region: ``REL_EPS * max(size, 1)``.

    The size is a box's diagonal, an annulus's outer radius, or the
    ``radius`` of anything else (a disk window).  The floor keeps the band
    from shrinking below ``REL_EPS`` on small regions.  It is also why exact
    homothety covariance (detectors commuting with z -> lambda z) holds only
    for regions of size at least 1 before and after the map: only there does
    the tolerance scale with the region.
    """
    if isinstance(region, Box):
        size = region.diagonal()
    elif isinstance(region, Annulus):
        size = region.outer
    else:
        size = region.radius
    return REL_EPS * max(size, 1.0)


def box_sides(xy: np.ndarray, b: Box, tol: float) -> dict[str, np.ndarray]:
    """Per point of an (n, 2) array, whether it lies within tol of each side
    line of the box."""
    return {
        "bottom": np.abs(xy[:, 1] - b.min.y) <= tol,
        "right": np.abs(xy[:, 0] - b.max.x) <= tol,
        "top": np.abs(xy[:, 1] - b.max.y) <= tol,
        "left": np.abs(xy[:, 0] - b.min.x) <= tol,
    }


class Polyline:
    """Ordered list of vertices; stored internally as an (n, 2) float array."""

    __slots__ = ("coords",)

    def __init__(self, vertices):
        if isinstance(vertices, np.ndarray):
            coords = np.asarray(vertices, dtype=float)
        else:
            coords = np.asarray([_xy(v) for v in vertices], dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 1:
            raise GeometryError("polyline needs at least one (x, y) vertex")
        if not np.all(np.isfinite(coords)):
            raise GeometryError("polyline with non-finite coordinates")
        if coords.shape[0] > 1:
            dup = np.all(coords[1:] == coords[:-1], axis=1)
            if np.any(dup):
                raise GeometryError("polyline with repeated consecutive vertices")
        self.coords = coords

    @property
    def vertices(self) -> list[Point]:
        return [Point(float(x), float(y)) for x, y in self.coords]

    def length(self) -> float:
        if len(self.coords) < 2:
            return 0.0
        return float(np.sum(np.hypot(*np.diff(self.coords, axis=0).T)))

    def __len__(self) -> int:
        return len(self.coords)


# ---------------------------------------------------------------------------
# scalar operations


def _extent(*values: float) -> float:
    return max(1.0, *(abs(v) for v in values))


def stick_to_segment(s: Stick) -> Segment:
    dx = s.radius * math.cos(s.direction)
    dy = s.radius * math.sin(s.direction)
    return Segment(
        Point(s.center.x - dx, s.center.y - dy),
        Point(s.center.x + dx, s.center.y + dy),
    )


def segment_intersection(s1: Segment, s2: Segment) -> tuple[Point | None, bool]:
    """Intersection of two closed segments.

    Returns ``(point, False)`` for a unique contact point (transversal or an
    endpoint touch), ``(None, True)`` when the segments share a collinear
    sub-segment of positive length, and ``(None, False)`` when disjoint.
    """
    ax, ay = s1.a.x, s1.a.y
    rx, ry = s1.b.x - ax, s1.b.y - ay
    qx, qy = s2.a.x, s2.a.y
    sx, sy = s2.b.x - qx, s2.b.y - qy
    scale = _extent(ax, ay, s1.b.x, s1.b.y, qx, qy, s2.b.x, s2.b.y)
    eps_len = REL_EPS * scale
    len_r = math.hypot(rx, ry)
    len_s = math.hypot(sx, sy)
    # segments shorter than the working tolerance behave as points
    if len_r <= eps_len or len_s <= eps_len:
        if len_r <= eps_len and len_s <= eps_len:
            hit = math.hypot(ax - qx, ay - qy) <= eps_len
            return (s1.a, False) if hit else (None, False)
        if len_r <= eps_len:
            hit = point_segment_distance(s1.a, s2) <= eps_len
            return (s1.a, False) if hit else (None, False)
        hit = point_segment_distance(s2.a, s1) <= eps_len
        return (s2.a, False) if hit else (None, False)
    den = rx * sy - ry * sx
    dqx, dqy = qx - ax, qy - ay
    if abs(den) <= REL_EPS * len_r * len_s:
        # parallel; collinear iff s2.a sits on the supporting line of s1
        if abs(dqx * ry - dqy * rx) > eps_len * len_r:
            return None, False
        rr = rx * rx + ry * ry
        t0 = (dqx * rx + dqy * ry) / rr
        t1 = t0 + (sx * rx + sy * ry) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        ov_lo, ov_hi = max(0.0, lo), min(1.0, hi)
        tol_t = eps_len / len_r
        if ov_hi < ov_lo - tol_t:
            return None, False
        if ov_hi - ov_lo <= tol_t:  # endpoint-to-endpoint touch
            t = min(1.0, max(0.0, (ov_lo + ov_hi) / 2))
            return Point(ax + t * rx, ay + t * ry), False
        return None, True
    t = (dqx * sy - dqy * sx) / den
    u = (dqx * ry - dqy * rx) / den
    tol_t = eps_len / len_r
    tol_u = eps_len / len_s
    if -tol_t <= t <= 1 + tol_t and -tol_u <= u <= 1 + tol_u:
        t = min(1.0, max(0.0, t))
        return Point(ax + t * rx, ay + t * ry), False
    return None, False


def segment_circle_intersections(
    s: Segment, center: Point, radius: float
) -> list[Point]:
    """Points where the circle meets the closed segment (within tolerance),
    sorted along the segment.

    A tangential contact (within tolerance) counts as one point.
    """
    if radius <= 0:
        raise GeometryError(f"circle radius must be positive, got {radius}")
    dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
    fx, fy = s.a.x - center.x, s.a.y - center.y
    aa = dx * dx + dy * dy
    bb = 2 * (fx * dx + fy * dy)
    cc = fx * fx + fy * fy - radius * radius
    scale = _extent(radius, fx, fy, math.sqrt(aa))
    if math.sqrt(aa) <= REL_EPS * scale:  # point-like at working tolerance
        on = abs(math.hypot(fx, fy) - radius) <= REL_EPS * scale
        return [s.a] if on else []
    disc = bb * bb - 4 * aa * cc
    disc_tol = 4 * aa * (REL_EPS * scale) ** 2
    if disc < -disc_tol:
        return []
    tol_t = REL_EPS * scale / math.sqrt(aa)
    if disc <= disc_tol:
        roots = [-bb / (2 * aa)]
    else:
        sq = math.sqrt(disc)
        roots = sorted([(-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)])
        if roots[1] - roots[0] <= tol_t:
            roots = [(roots[0] + roots[1]) / 2]
    # a root just past an end is kept unclamped: clamping it would move the
    # point off the circle by up to the tolerance
    return [
        Point(s.a.x + t * dx, s.a.y + t * dy) for t in roots if -tol_t <= t <= 1 + tol_t
    ]


def clip_segment_to_box(s: Segment, b: Box) -> Segment | None:
    """Liang-Barsky clip of the closed segment to the closed box.

    Returns the positive-length intersection, or None (single-point contacts
    count as empty).
    """
    ax, ay = s.a.x, s.a.y
    dx, dy = s.b.x - ax, s.b.y - ay
    eps_len = region_tol(b)
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, ax - b.min.x),
        (dx, b.max.x - ax),
        (-dy, ay - b.min.y),
        (dy, b.max.y - ay),
    ):
        if p == 0.0:
            if q < -eps_len:
                return None
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    seg_len = math.hypot(dx, dy)
    if (t1 - t0) * seg_len <= eps_len:
        return None
    return Segment(
        Point(ax + t0 * dx, ay + t0 * dy), Point(ax + t1 * dx, ay + t1 * dy)
    )


def point_segment_distance(p: Point, s: Segment) -> float:
    px, py = p.x - s.a.x, p.y - s.a.y
    dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
    dd = dx * dx + dy * dy
    t = (px * dx + py * dy) / dd if dd > 0 else 0.0
    t = min(1.0, max(0.0, t))
    return math.hypot(px - t * dx, py - t * dy)


# ---------------------------------------------------------------------------
# vectorized kit (private): segments are (n, 4) arrays [x1, y1, x2, y2]


def sticks_to_segments(sticks: Sequence[Stick] | np.ndarray) -> np.ndarray:
    """(n, 4) endpoint array from Stick objects or an (n, 4) [cx, cy, r, v] array."""
    if isinstance(sticks, np.ndarray):
        arr = np.asarray(sticks, dtype=float).reshape(-1, 4)
        cx, cy, r, v = arr.T
    else:
        cx = np.array([s.center.x for s in sticks], dtype=float)
        cy = np.array([s.center.y for s in sticks], dtype=float)
        r = np.array([s.radius for s in sticks], dtype=float)
        v = np.array([s.direction for s in sticks], dtype=float)
    dx = r * np.cos(v)
    dy = r * np.sin(v)
    return np.column_stack([cx - dx, cy - dy, cx + dx, cy + dy])


def radial_interval(segs: np.ndarray, cx: float, cy: float):
    """Per-segment (min, max) distance from (cx, cy) to the closed segment."""
    ax = segs[:, 0] - cx
    ay = segs[:, 1] - cy
    bx = segs[:, 2] - cx
    by = segs[:, 3] - cy
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(dd > 0, -(ax * dx + ay * dy) / dd, 0.0)
    t = np.clip(t, 0.0, 1.0)
    dmin = np.hypot(ax + t * dx, ay + t * dy)
    dmax = np.maximum(np.hypot(ax, ay), np.hypot(bx, by))
    return dmin, dmax


def line_circle_roots(ax, ay, dx, dy, rad: float):
    """Per row, ``(good, t_lo, t_hi)`` for |(ax, ay) + t (dx, dy)| = rad.

    ``good`` marks the rows whose line crosses the circle (positive
    discriminant); the roots t_lo <= t_hi of the other rows are meaningless.
    """
    aa = dx * dx + dy * dy
    bb = 2 * (ax * dx + ay * dy)
    cc = ax * ax + ay * ay - rad * rad
    disc = bb * bb - 4 * aa * cc
    good = disc > 0
    sq = np.sqrt(np.where(good, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return good, (-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)


def _hits_vertical(segs: np.ndarray, x: float, y0: float, y1: float):
    """Per segment, whether it meets the closed vertical segment {x} x [y0, y1]."""
    ax, ay = segs[:, 0], segs[:, 1]
    bx, by = segs[:, 2], segs[:, 3]
    dx = bx - ax
    dy = by - ay
    vertical = dx == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(vertical, 0.0, (x - ax) / np.where(vertical, 1.0, dx))
    y = ay + t * dy
    cross = (~vertical) & (t >= 0.0) & (t <= 1.0) & (y >= y0) & (y <= y1)
    on_line = vertical & (ax == x)  # measure-zero; still honor closed sets
    overlap = on_line & (np.maximum(ay, by) >= y0) & (np.minimum(ay, by) <= y1)
    return cross | overlap


def batch_clip_to_box(segs: np.ndarray, b: Box):
    """Vectorized Liang-Barsky clip.

    Returns (keep_mask, clipped (m, 4) array) where m = keep_mask.sum(); order
    of the kept rows follows the input order.
    """
    ax, ay = segs[:, 0], segs[:, 1]
    dx, dy = segs[:, 2] - ax, segs[:, 3] - ay
    eps_len = region_tol(b)
    t0 = np.zeros(len(segs))
    t1 = np.ones(len(segs))
    keep = np.ones(len(segs), dtype=bool)
    for p, q in (
        (-dx, ax - b.min.x),
        (dx, b.max.x - ax),
        (-dy, ay - b.min.y),
        (dy, b.max.y - ay),
    ):
        par = p == 0.0
        keep &= ~(par & (q < -eps_len))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(par, 0.0, q / np.where(par, 1.0, p))
        neg = (~par) & (p < 0)
        pos = (~par) & (p > 0)
        t0 = np.where(neg, np.maximum(t0, r), t0)
        t1 = np.where(pos, np.minimum(t1, r), t1)
    seg_len = np.hypot(dx, dy)
    keep &= (t1 - t0) * seg_len > eps_len
    out = np.column_stack(
        [ax + t0 * dx, ay + t0 * dy, ax + t1 * dx, ay + t1 * dy]
    )[keep]
    return keep, out


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, equal to ``np.unique(keys)``.

    Under numpy 2.4 ``np.unique`` takes a hash-table path for integer keys
    that is about 40x slower than this sort on the million-key arrays of the
    broad phase.
    """
    s = np.sort(keys)
    if s.size == 0:
        return s
    return s[np.r_[True, s[1:] != s[:-1]]]


def _lexsort2(minor: np.ndarray, major: np.ndarray) -> np.ndarray:
    """``np.lexsort((minor, major))`` for a NaN-free ``minor`` and a
    non-negative integer ``major``, bit for bit and ties included: the stable
    rank of ``minor`` folds the two keys into one key that no two elements
    share.  The rank comes from an unstable sort, with only the runs of equal
    values re-sorted by index."""
    n = len(minor)
    order = np.argsort(minor)
    s = minor[order]
    tie = s[1:] == s[:-1]
    if np.any(tie):
        run = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
        group = np.cumsum(np.r_[True, ~tie])[run]  # one number per run of equals
        order[run] = np.sort(group * n + order[run]) % n
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return np.argsort(major * n + rank)


def _concat_ranges(lengths: np.ndarray) -> np.ndarray:
    """[0..l0), [0..l1), ... concatenated (standard grouped-arange recipe)."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _cell_table(segs: np.ndarray, eps: float):
    """The broad phase's grid: every cell within ``eps`` of each segment.

    The cell size is the median segment length, kept within [span/4096,
    span/4]; up to 200 segments share one cell.  Returns (cells, count, key):
    the cell of each (segment, cell) entry, grouped by segment in id order,
    each segment's number of entries, and the sorted packed keys
    ``cell * n + id``, so ids ascend within a cell.
    """
    n = len(segs)
    if n <= 200:
        ids = np.arange(n, dtype=np.int64)
        return np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64), ids
    lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
    span = max(
        segs[:, [0, 2]].max() - segs[:, [0, 2]].min(),
        segs[:, [1, 3]].max() - segs[:, [1, 3]].min(),
        1e-12,
    )
    cell = min(max(float(np.median(lengths)), span / 4096.0), span / 4.0)
    x0 = float(min(segs[:, 0].min(), segs[:, 2].min()))
    y0 = float(min(segs[:, 1].min(), segs[:, 3].min()))
    pad = eps / cell
    # ends in grid units, left end first
    swap = segs[:, 2] < segs[:, 0]
    xa = (np.where(swap, segs[:, 2], segs[:, 0]) - x0) / cell
    ya = (np.where(swap, segs[:, 3], segs[:, 1]) - y0) / cell
    xb = (np.where(swap, segs[:, 0], segs[:, 2]) - x0) / cell
    yb = (np.where(swap, segs[:, 1], segs[:, 3]) - y0) / cell
    # the columns within pad of the segment, then in each column the rows
    # within pad of the segment's y-extent over the column's padded x-range
    c0 = np.floor(xa - pad).astype(np.int64)
    ncol = np.floor(xb + pad).astype(np.int64) - c0 + 1
    seg = np.repeat(np.arange(n, dtype=np.int64), ncol)
    col = c0[seg] + _concat_ranges(ncol)
    xa, ya, xb, yb = xa[seg], ya[seg], xb[seg], yb[seg]
    dx = xb - xa
    flat = dx == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, dx))
    t_lo = np.where(flat, 0.0, np.clip((col - pad - xa) * inv, 0.0, 1.0))
    t_hi = np.where(flat, 1.0, np.clip((col + 1 + pad - xa) * inv, 0.0, 1.0))
    y_lo = ya + t_lo * (yb - ya)
    y_hi = ya + t_hi * (yb - ya)
    r0 = np.floor(np.minimum(y_lo, y_hi) - pad).astype(np.int64)
    nrow = np.floor(np.maximum(y_lo, y_hi) + pad).astype(np.int64) - r0 + 1
    # cell = ix * ny + iy over the shifted grid; a column's rows are
    # consecutive cells.  cell >= span/4096 keeps the grid within 4099
    # cells a side (pad, a tolerance far below a cell, adds at most one at
    # each end), so the key fits in int64 for any n below 5e11
    ny = int((r0 + nrow).max() - r0.min())
    base = (col - col.min()) * ny + (r0 - r0.min()) - (np.cumsum(nrow) - nrow)
    ent = np.repeat(np.arange(len(col)), nrow)
    cells = base[ent] + np.arange(len(ent), dtype=np.int64)
    ids = seg[ent]
    count = np.bincount(ids, minlength=n).astype(np.int64)
    return cells, count, np.sort(cells * np.int64(n) + ids)


def candidate_pairs(segs: np.ndarray, eps: float):
    """Index pairs (i < j) that share a cell of the grid of ``_cell_table``,
    sorted by ``i * n + j``.

    Each segment is listed in every cell within ``eps`` of it, so with the
    narrow phase's tolerance this is a superset of the pairs that
    ``batch_pair_intersections`` reports as hits: a hit point lies within
    ``eps`` of both segments.
    """
    n = len(segs)
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    _, _, key = _cell_table(segs, eps)
    k = key // n
    v = key - k * n
    new_group = np.r_[True, k[1:] != k[:-1]]
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.r_[starts, len(k)])
    grp = np.repeat(np.arange(len(counts)), counts)
    within = np.arange(len(k), dtype=np.int64) - starts[grp]
    j_side = np.repeat(np.arange(len(k), dtype=np.int64), within)
    i_side = np.repeat(starts[grp], within) + _concat_ranges(within)
    # ids ascend within a cell, so every pair comes out as (lower, higher)
    uniq = _sorted_unique(v[i_side] * np.int64(n) + v[j_side])
    return uniq // n, uniq % n


def batch_pair_intersections(segs: np.ndarray, I: np.ndarray, J: np.ndarray,
                             eps_len: float):
    """Closed-segment intersection test for candidate index pairs.

    Returns (hits, px, py, overlap); ``hits`` marks pairs meeting in at least
    one point, ``overlap`` the collinear positive-length sharings (for which
    px, py hold a point of the shared part).
    """
    if len(I) == 0:
        z = np.empty(0)
        return np.empty(0, dtype=bool), z, z, np.empty(0, dtype=bool)
    ax, ay = segs[I, 0], segs[I, 1]
    rx, ry = segs[I, 2] - ax, segs[I, 3] - ay
    qx, qy = segs[J, 0], segs[J, 1]
    sx, sy = segs[J, 2] - qx, segs[J, 3] - qy
    len_r = np.hypot(rx, ry)
    len_s = np.hypot(sx, sy)
    den = rx * sy - ry * sx
    dqx, dqy = qx - ax, qy - ay
    par = np.abs(den) <= REL_EPS * len_r * len_s
    safe_den = np.where(par, 1.0, den)
    t = (dqx * sy - dqy * sx) / safe_den
    u = (dqx * ry - dqy * rx) / safe_den
    tol_t = eps_len / len_r
    tol_u = eps_len / len_s
    cross_hit = (
        ~par
        & (t >= -tol_t)
        & (t <= 1 + tol_t)
        & (u >= -tol_u)
        & (u <= 1 + tol_u)
    )
    tc = np.where(cross_hit, t, 0.0)
    overlap = np.zeros(len(I), dtype=bool)
    hits = cross_hit
    if np.any(par):
        # collinear handling on the (rare) parallel subset only
        p = np.flatnonzero(par)
        col = np.abs(dqx[p] * ry[p] - dqy[p] * rx[p]) <= eps_len * len_r[p]
        rr = rx[p] ** 2 + ry[p] ** 2
        t0 = (dqx[p] * rx[p] + dqy[p] * ry[p]) / rr
        t1 = t0 + (sx[p] * rx[p] + sy[p] * ry[p]) / rr
        ov_lo = np.maximum(0.0, np.minimum(t0, t1))
        ov_hi = np.minimum(1.0, np.maximum(t0, t1))
        touch = col & (ov_hi >= ov_lo - tol_t[p]) & (ov_hi - ov_lo <= tol_t[p])
        over = col & (ov_hi - ov_lo > tol_t[p])
        overlap[p] = over
        hits = hits.copy()
        hits[p[touch | over]] = True
        tc[p] = np.clip((ov_lo + ov_hi) / 2, 0.0, 1.0)
    tc = np.clip(tc, 0.0, 1.0)
    px = ax + tc * rx
    py = ay + tc * ry
    return hits, px, py, overlap


def components(n: int, i: np.ndarray, j: np.ndarray):
    """``(count, labels)`` of the connected components of the undirected
    graph on n nodes with edges (i[k], j[k]).

    Union-find in rounds: every edge whose ends still have different roots
    hooks the larger root onto the smaller one, then pointer jumping makes
    every node point at its root.  Of the roots with a live edge, only those
    that another root hooked onto survive a round: at most half, so there are
    O(log n) rounds.  Each root is the smallest
    node of its component, and the labels (int32) number the components in
    the order of their smallest nodes, as ``scipy.sparse.csgraph`` does.
    """
    parent = np.arange(n, dtype=np.int64)
    ri = np.asarray(i, dtype=np.int64)
    rj = np.asarray(j, dtype=np.int64)
    while len(ri):
        ri, rj = parent[ri], parent[rj]
        live = np.flatnonzero(ri != rj)
        if not len(live):
            break
        ri, rj = ri[live], rj[live]
        np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    root = parent == np.arange(n)
    rank = np.cumsum(root, dtype=np.int32) - 1
    return int(rank[-1]) + 1 if n else 0, rank[parent]
