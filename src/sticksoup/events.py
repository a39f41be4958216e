"""Deterministic event detectors on sampled configurations.

Connectivity is computed on sticks clipped to the closed region of interest;
intersections outside the region never join clusters.  All detectors are pure
functions of the configuration, so coupled comparisons (restrictions of one
sample) are exact trial by trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Annulus,
    Box,
    Stick,
    _cell_table,
    _concat_ranges,
    _hits_vertical,
    _sorted_unique,
    batch_clip_to_box,
    batch_pair_intersections,
    box_sides,
    candidate_pairs,
    components,
    line_circle_roots,
    radial_interval,
    region_tol,
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
    """Clip segments to a closed box or annulus.

    Returns (pieces (m, 4), owners (m,), touch: dict[str, bool array (m,)]).
    A segment passing through the open hole of an annulus yields two pieces.
    Pieces no longer than the region's tolerance are dropped.
    """
    if not isinstance(region, (Box, Annulus)):
        raise TypeError(f"unsupported region {region!r}")
    tol = region_tol(region)
    if isinstance(region, Box):
        keep, clipped = batch_clip_to_box(segs, region)
        start = box_sides(clipped[:, 0:2], region, tol)
        end = box_sides(clipped[:, 2:4], region, tol)
        return clipped, np.flatnonzero(keep), {k: start[k] | end[k] for k in start}

    cx, cy = region.center.x, region.center.y
    t0, t1 = _segment_disk_params(segs, cx, cy, region.outer)
    outer, owners = _materialize(segs, np.arange(len(segs)), t0, t1, tol)
    # each outer piece splits at the open inner disk into the part before it,
    # [0, h0], and the part after it, [h1, 1]; a piece missing the hole keeps
    # all of itself in the first and no second, so only the pieces meeting
    # the hole get one
    h0, h1 = _segment_disk_params(outer, cx, cy, region.inner)
    hole = h1 > h0
    pieces, owners = _materialize(
        np.vstack([outer, outer[hole]]),
        np.concatenate([owners, owners[hole]]),
        np.concatenate([np.zeros(len(outer)), h1[hole]]),
        np.concatenate([np.where(hole, h0, 1.0), np.ones(np.count_nonzero(hole))]),
        tol,
    )
    dmin, dmax = radial_interval(pieces, cx, cy)
    return pieces, owners, {
        "inner": dmin <= region.inner + tol,
        "outer": dmax >= region.outer - tol,
    }


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


def _piece_clusters(segs: np.ndarray, region):
    """Clip segments to the region and cluster them; the pieces of one segment
    form one node.

    Returns (pieces, touch, kept, node, labels): the clipped pieces and their
    boundary flags as from _clip_to_region, the sorted indices of the
    segments with a nonempty clip, each piece's node (its position in
    ``kept``) and each node's cluster label.
    """
    pieces, owners, touch = _clip_to_region(segs, region)
    kept = _sorted_unique(owners)
    node = np.searchsorted(kept, owners)
    ri = rj = np.empty(0, dtype=np.int64)
    if len(pieces) > 1:
        tol = region_tol(region)
        I, J = candidate_pairs(pieces, tol)
        if len(I):
            hits, _, _, _ = batch_pair_intersections(pieces, I, J, tol)
            ri = node[I[hits]]
            rj = node[J[hits]]
    _, labels = components(len(kept), ri, rj)
    return pieces, touch, kept, node, labels


def _flood(pieces: np.ndarray, seeds: np.ndarray, eps: float):
    """Per piece, whether it is joined to a seed piece by a chain of hitting
    pieces: the union of the seeds' components in _piece_clusters.

    Each round looks up the grid cells of the newly reached pieces only and
    tests each (lower, higher) candidate pair whose partner is not reached
    yet; the grid, the pair test and the tolerance are those of the full
    labelling, so the same edges decide the same components.  Seeded from
    the pieces touching an annulus' inner circle, the pieces need no grouping
    by stick: a stick is split only where it crosses the open hole, and then
    both of its pieces end on the inner circle, so both are seeds.
    """
    n = len(pieces)
    cells, count, key = _cell_table(pieces, eps)
    first = np.cumsum(count) - count
    reached = np.zeros(n, dtype=bool)
    front = seeds
    while front.size:
        reached[front] = True
        # the frontier's own keys, sorted so that the lookups run in order
        e = np.repeat(first[front], count[front]) + _concat_ranges(count[front])
        q = np.sort(cells[e] * np.int64(n) + np.repeat(front, count[front]))
        c = q - q % n
        lo = np.searchsorted(key, c)
        size = np.searchsorted(key, c + n) - lo
        a = np.repeat(q - c, size)
        b = key[np.repeat(lo, size) + _concat_ranges(size)] - np.repeat(c, size)
        open_ = ~reached[b]
        a, b = a[open_], b[open_]
        # the narrow phase scales its collinear test by the first segment's
        # length, so each pair keeps the (lower, higher) order of the labelling
        pair = _sorted_unique(np.minimum(a, b) * np.int64(n) + np.maximum(a, b))
        I, J = pair // n, pair % n
        hits, _, _, _ = batch_pair_intersections(pieces, I, J, eps)
        front = _sorted_unique(np.concatenate([I[hits], J[hits]]))
        front = front[~reached[front]]
    return reached


def covered_components(
    sticks: Sequence[Stick] | np.ndarray, region
) -> ClusterPartition:
    """Cluster sticks by pairwise intersection of their clips to the region.

    Pieces of one stick count as one node (a stick is connected), so a stick
    whose clip is split by an annulus hole still carries a single cluster id;
    both halves end on the inner circle, so this never creates a spurious
    inner-outer connection.
    """
    _, touch, kept, node, labels = _piece_clusters(sticks_to_segments(sticks), region)
    if len(kept) == 0:
        return ClusterPartition([], np.empty(0, dtype=int), 0, {})
    n_clusters = int(labels.max()) + 1
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
        n_clusters,
        {c: table[m] for c, m in enumerate(code.tolist())},
    )


def arm_reach(c: Configuration, ann: Annulus) -> float:
    """Largest distance from the centre reached by a cluster of sticks clipped
    to the annulus that touches the inner circle; -inf when none does.

    A path from the inner circle that reaches radius rho <= ann.outer has a
    prefix inside A(inner, rho), so one cluster build answers the arm event
    of every annulus A(inner, rho) inside ann (up to the narrow phase's
    tolerance, which is ann's).  The clipped pieces are flooded, piece by
    piece, from those touching the inner circle (see _flood); the others are
    never labelled.
    """
    c.window.require_contains(ann.center, ann.outer)
    if c.n_sticks == 0:
        return -math.inf
    pieces, _, touch = _clip_to_region(c.segments(), ann)
    seeds = np.flatnonzero(touch["inner"])
    if not seeds.size:
        return -math.inf
    reached = _flood(pieces, seeds, region_tol(ann))
    _, far = radial_interval(pieces[reached], ann.center.x, ann.center.y)
    return float(far.max())


def arm_target(ann: Annulus) -> float:
    """The reach from the inner circle that makes the arm event of ``ann``:
    its outer radius, less its tolerance."""
    return ann.outer - region_tol(ann)


def arm_event(c: Configuration, ann: Annulus) -> bool:
    """True iff a cluster of clipped sticks joins the inner and outer circles."""
    return arm_reach(c, ann) >= arm_target(ann)


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


def double_intersection_count(c: Configuration, circle_radius: float) -> int:
    """Number of sticks meeting the circle around the window center twice."""
    if not (circle_radius > 0):
        raise ValueError("circle radius must be positive")
    c.window.require_contains(c.window.center, circle_radius)
    if c.n_sticks == 0:
        return 0
    return int(np.count_nonzero(double_circle_crossers(
        c.stick_data, c.window.center.x, c.window.center.y, circle_radius)))


def double_circle_crossers(stick_data: np.ndarray, cx: float, cy: float,
                           rho: float) -> np.ndarray:
    """Boolean mask of sticks whose segment meets the circle in two points."""
    segs = sticks_to_segments(np.asarray(stick_data, dtype=float))
    good, lo, hi = line_circle_roots(
        segs[:, 0] - cx, segs[:, 1] - cy,
        segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1], rho,
    )
    return good & (lo >= 0) & (hi <= 1) & (hi > lo)


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
    c.window.require_contains(c.window.center, 2.0 ** m)
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
    c.window.require_contains(c.window.center, 2.0 ** j)
    segs = c.segments()
    dmin, dmax, lo = _lowest_annulus_indices(
        segs, c.window.center.x, c.window.center.y
    )
    return j - _descend_once(dmin, dmax, lo, j)
