"""Deterministic event detectors on sampled configurations.

Connectivity is computed on sticks clipped to the closed region of interest;
intersections outside the region never join clusters.  All detectors are pure
functions of the configuration, so coupled comparisons (restrictions of one
sample) are exact trial by trial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import (
    REL_EPS,
    Annulus,
    Box,
    Disk,
    Stick,
    _sorted_unique,
    batch_clip_to_box,
    batch_pair_intersections,
    candidate_pairs,
    line_circle_roots,
    radial_interval,
    sticks_to_segments,
)
from .soup import Configuration


@dataclass(frozen=True)
class ClusterPartition:
    """Connected components of clipped sticks inside a region.

    ``stick_indices`` are the input indices whose clip was nonempty; ``labels``
    assigns each of them a cluster id in [0, n_clusters); ``touches`` maps a
    cluster id to the set of region-boundary pieces its sticks reach.
    """

    stick_indices: list[int]
    labels: np.ndarray
    n_clusters: int
    touches: dict[int, frozenset[str]]

    def cluster_of(self, stick_index: int) -> int | None:
        try:
            pos = self.stick_indices.index(stick_index)
        except ValueError:
            return None
        return int(self.labels[pos])

    def any_cluster_touching(self, *pieces: str) -> bool:
        need = set(pieces)
        return any(need <= t for t in self.touches.values())


def _clip_to_region(segs: np.ndarray, region):
    """Clip segments to a closed region.

    Returns (pieces (m, 4), owners (m,), touch: dict[str, bool array (m,)]).
    A segment passing through the open hole of an annulus yields two pieces.
    """
    eps = REL_EPS
    if isinstance(region, Box):
        keep, clipped = batch_clip_to_box(segs, region)
        owners = np.flatnonzero(keep)
        tol = eps * max(region.diagonal(), 1.0)
        touch = {}
        for name, test in (
            ("bottom", lambda P: np.abs(P[:, 1] - region.min.y) <= tol),
            ("top", lambda P: np.abs(P[:, 1] - region.max.y) <= tol),
            ("left", lambda P: np.abs(P[:, 0] - region.min.x) <= tol),
            ("right", lambda P: np.abs(P[:, 0] - region.max.x) <= tol),
        ):
            touch[name] = test(clipped[:, 0:2]) | test(clipped[:, 2:4])
        return clipped, owners, touch

    if isinstance(region, Disk):
        cx, cy, rad = region.center.x, region.center.y, region.radius
        pieces, owners = _clip_to_disk(segs, cx, cy, rad)
        tol = eps * max(rad, 1.0)
        dmin, dmax = radial_interval(pieces, cx, cy)
        return pieces, owners, {"circle": dmax >= rad - tol}

    if isinstance(region, Annulus):
        cx, cy = region.center.x, region.center.y
        outer_pieces, outer_owners = _clip_to_disk(segs, cx, cy, region.outer)
        pieces, owners = _subtract_open_disk(
            outer_pieces, outer_owners, cx, cy, region.inner
        )
        tol = eps * max(region.outer, 1.0)
        dmin, dmax = radial_interval(pieces, cx, cy)
        return pieces, owners, {
            "inner": dmin <= region.inner + tol,
            "outer": dmax >= region.outer - tol,
        }

    raise TypeError(f"unsupported region {region!r}")


def _segment_disk_params(segs: np.ndarray, cx: float, cy: float, rad: float):
    """Per segment, the parameter interval [t0, t1] inside the closed disk
    (t0 > t1 when the segment misses the disk)."""
    good, lo, hi = line_circle_roots(
        segs[:, 0] - cx, segs[:, 1] - cy,
        segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1], rad,
    )
    t0 = np.maximum(np.where(good, lo, 1.0), 0.0)
    t1 = np.minimum(np.where(good, hi, 0.0), 1.0)
    return t0, t1


def _materialize(segs, owners, t0, t1, min_len_eps):
    dx = segs[:, 2] - segs[:, 0]
    dy = segs[:, 3] - segs[:, 1]
    seg_len = np.hypot(dx, dy)
    keep = (t1 - t0) * seg_len > min_len_eps
    t0, t1 = t0[keep], t1[keep]
    base = segs[keep]
    out = np.column_stack(
        [
            base[:, 0] + t0 * (base[:, 2] - base[:, 0]),
            base[:, 1] + t0 * (base[:, 3] - base[:, 1]),
            base[:, 0] + t1 * (base[:, 2] - base[:, 0]),
            base[:, 1] + t1 * (base[:, 3] - base[:, 1]),
        ]
    )
    return out, owners[keep]


def _clip_to_disk(segs: np.ndarray, cx: float, cy: float, rad: float):
    t0, t1 = _segment_disk_params(segs, cx, cy, rad)
    owners = np.arange(len(segs))
    return _materialize(segs, owners, t0, t1, REL_EPS * max(rad, 1.0))


def _subtract_open_disk(segs: np.ndarray, owners: np.ndarray, cx: float,
                        cy: float, rad: float):
    """Remove the open inner disk; a segment through it splits in two."""
    h0, h1 = _segment_disk_params(segs, cx, cy, rad)
    min_len = REL_EPS * max(rad, 1.0)
    hole = h1 > h0
    left, lo = _materialize(
        segs, owners, np.zeros(len(segs)), np.where(hole, h0, 1.0), min_len
    )
    # zero-length (dropped) right piece unless the segment crosses the hole
    right, ro = _materialize(
        segs, owners, np.where(hole, h1, 1.0), np.ones(len(segs)), min_len
    )
    return np.vstack([left, right]), np.concatenate([lo, ro])


def covered_components(
    sticks: Sequence[Stick] | np.ndarray, region
) -> ClusterPartition:
    """Cluster sticks by pairwise intersection of their clips to the region.

    Pieces of one stick count as one node (a stick is connected), so a stick
    whose clip is split by an annulus hole still carries a single cluster id;
    both halves end on the inner circle, so this never creates a spurious
    inner-outer connection.
    """
    segs = sticks_to_segments(sticks)
    pieces, owners, touch = _clip_to_region(segs, region)
    kept = _sorted_unique(owners)
    n = len(kept)
    if n == 0:
        return ClusterPartition([], np.empty(0, dtype=int), 0, {})
    node = np.searchsorted(kept, owners)  # graph node per clipped piece
    ri = rj = np.empty(0, dtype=np.int64)
    if len(pieces) > 1:
        I, J = candidate_pairs(pieces)
        if len(I):
            scale = max(1.0, float(np.abs(pieces).max()))
            hits, _, _, _ = batch_pair_intersections(pieces, I, J, REL_EPS * scale)
            ri = node[I[hits]]
            rj = node[J[hits]]
    graph = coo_matrix(
        (np.ones(len(ri), dtype=np.int8), (ri, rj)), shape=(n, n)
    )
    n_clusters, labels = connected_components(graph, directed=False)
    # one bit per boundary piece in each cluster's code, then one shared
    # frozenset per distinct code
    names = list(touch)
    code = np.zeros(n_clusters, dtype=np.int64)
    for bit, flags in enumerate(touch.values()):
        code[labels[node[flags]]] |= 1 << bit
    table = [
        frozenset(name for bit, name in enumerate(names) if mask >> bit & 1)
        for mask in range(1 << len(names))
    ]
    return ClusterPartition(
        kept.tolist(),
        labels,
        int(n_clusters),
        {c: table[m] for c, m in enumerate(code.tolist())},
    )


def arm_event(c: Configuration, ann: Annulus) -> bool:
    """True iff a cluster of clipped sticks joins the inner and outer circles."""
    c.window.require_contains(ann.center, ann.outer)
    if c.n_sticks == 0:
        return False
    segs = c.segments()
    dmin, dmax = radial_interval(segs, ann.center.x, ann.center.y)
    cand = (dmin <= ann.outer) & (dmax >= ann.inner)
    if not np.any(cand):
        return False
    part = covered_components(c.stick_data[cand], ann)
    return part.any_cluster_touching("inner", "outer")


def lr1_event(c: Configuration, b: Box, k: float) -> bool:
    """True iff one single stick meets both vertical sides of the box."""
    if not (k > 0):
        raise ValueError(f"aspect ratio k must be positive, got {k}")
    if abs(b.width() - k * b.height()) > 1e-6 * max(1.0, b.diagonal()):
        raise ValueError(
            f"box width {b.width()} is not k={k} times its height {b.height()}"
        )
    corner_r = math.hypot(b.width(), b.height()) / 2.0
    c.window.require_contains(b.center(), corner_r)
    if c.n_sticks == 0:
        return False
    segs = c.segments()
    return bool(np.any(_hits_vertical(segs, b.min.x, b.min.y, b.max.y)
                       & _hits_vertical(segs, b.max.x, b.min.y, b.max.y)))


def _hits_vertical(segs: np.ndarray, x: float, y0: float, y1: float):
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


def double_intersection_count(c: Configuration, circle_radius: float) -> int:
    """Number of sticks meeting the circle around the window center twice."""
    if not (circle_radius > 0):
        raise ValueError("circle radius must be positive")
    tol = REL_EPS * max(c.window.radius, 1.0)
    if circle_radius > c.window.radius + tol:
        raise ValueError("circle exceeds the sampling window")
    if c.n_sticks == 0:
        return 0
    return int(np.count_nonzero(double_circle_crossers(
        c.stick_data, c.window.center.x, c.window.center.y, circle_radius)))


def double_circle_crossers(stick_data: np.ndarray, cx: float, cy: float,
                           rho: float) -> np.ndarray:
    """Boolean mask of sticks whose segment meets the circle in two points."""
    data = np.asarray(stick_data, dtype=float).reshape(-1, 4)
    qx = data[:, 0] - cx
    qy = data[:, 1] - cy
    r = data[:, 2]
    ex = np.cos(data[:, 3])
    ey = np.sin(data[:, 3])
    b = qx * ex + qy * ey
    c0 = qx * qx + qy * qy - rho * rho
    disc = b * b - c0
    good = disc > 0
    sq = np.sqrt(np.where(good, disc, 0.0))
    t_lo = -b - sq
    t_hi = -b + sq
    return good & (t_lo >= -r) & (t_lo <= r) & (t_hi >= -r) & (t_hi <= r) \
        & (t_hi - t_lo > 0)


# ---------------------------------------------------------------------------
# invasion sequence over dyadic annuli A_n = { 2^(n-1) < |z| <= 2^n }


@dataclass(frozen=True)
class InvasionRecord:
    """Annulus-skipping record: indices I, gaps L, attempts T.

    ``truncated`` is set when the search fell below the resolvable floor
    implied by the configuration's truncation radius.
    """

    m: int
    I: list[int]
    L: list[int]
    T: int
    truncated: bool

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.I, self.I[1:])):
            raise ValueError("invasion indices must be strictly decreasing")
        if any(l < 1 for l in self.L):
            raise ValueError("invasion gaps must be at least 1")


def _annulus_floor_index(r_min: float) -> int:
    return math.ceil(math.log2(r_min)) + 2


def _lowest_annulus_indices(segs: np.ndarray, cx: float, cy: float):
    """Per stick: (dmin, dmax, lowest annulus index its segment touches)."""
    dmin, dmax = radial_interval(segs, cx, cy)
    safe = np.maximum(dmin, 1e-300)
    lo = np.ceil(np.log2(safe))
    # guard the exact-power and rounding edges of the log
    lo = np.where(2.0 ** (lo - 1) >= safe, lo - 1, lo)
    lo = np.where(2.0 ** lo < safe, lo + 1, lo)
    return dmin, dmax, lo


def _touching_annulus(dmin, dmax, n: int):
    return (dmin <= 2.0 ** n) & (dmax > 2.0 ** (n - 1))


def _descend_once(dmin, dmax, lo, j: int) -> int:
    """D_j: largest n < j such that no stick touching A_j also touches A_n."""
    mask = _touching_annulus(dmin, dmax, j)
    if not np.any(mask):
        return j - 1
    return int(np.min(lo[mask])) - 1


def invasion_sequence(c: Configuration, m: int) -> InvasionRecord:
    """Iterate I_0 = m, I_j = D_(I_(j-1)) until the index drops below 1 or the
    resolvable floor is hit; annuli are centered on the window center."""
    if m < 1:
        raise ValueError(f"starting scale m must be at least 1, got {m}")
    tol = REL_EPS * max(c.window.radius, 1.0)
    if c.window.radius + tol < 2.0 ** m:
        raise ValueError(
            f"window radius {c.window.radius} too small for scale 2^{m}"
        )
    floor = _annulus_floor_index(c.r_min)
    if floor > 1:
        raise ValueError(
            f"truncation radius {c.r_min} cannot resolve annuli down to index 1"
        )
    segs = c.segments()
    dmin, dmax, lo = _lowest_annulus_indices(
        segs, c.window.center.x, c.window.center.y
    )
    I = [m]
    L: list[int] = []
    truncated = False
    while True:
        j = I[-1]
        d = _descend_once(dmin, dmax, lo, j)
        if d < floor:
            truncated = True
        I.append(d)
        L.append(j - d)
        if d < 1 or truncated:
            break
    T = max((idx for idx, val in enumerate(I) if val >= 1), default=0)
    return InvasionRecord(m=m, I=I, L=L, T=T, truncated=truncated)


def y_statistic(c: Configuration, j: int) -> int:
    """Gap j - D_j for a fresh configuration (one i.i.d. comparison draw).

    No floor is applied; the value is exact versus the untruncated soup for
    gaps >= 3 whenever r_min <= 2^(j-3).
    """
    tol = REL_EPS * max(c.window.radius, 1.0)
    if c.window.radius + tol < 2.0 ** j:
        raise ValueError(f"window radius {c.window.radius} too small for scale 2^{j}")
    segs = c.segments()
    dmin, dmax, lo = _lowest_annulus_indices(
        segs, c.window.center.x, c.window.center.y
    )
    return j - _descend_once(dmin, dmax, lo, j)


def event_record(event: str, params: dict, seed: int, outcome) -> str:
    """One JSON line recording an event evaluation."""
    return json.dumps(
        {"event": event, "params": params, "seed": seed, "outcome": outcome},
        sort_keys=True,
    )
