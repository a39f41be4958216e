"""Deterministic event detectors on sampled configurations.

Connectivity is computed on sticks clipped to the closed region of interest;
intersections outside the region never join clusters.  All detectors are pure
functions of the configuration, so coupled comparisons (restrictions of one
sample) are exact trial by trial.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Annulus,
    Box,
    Stick,
    _annulus_index,
    _cell_table,
    _concat_ranges,
    _may_cross_dyadic_circle,
    _norm,
    _sorted_unique,
    batch_clip_to_box,
    batch_pair_intersections,
    box_sides,
    candidate_pairs,
    clip_pieces,
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

    ``stick_indices`` are the input indices whose clip was nonempty, in
    ascending order; ``labels`` assigns each of them a cluster id in
    [0, n_clusters); ``touches`` maps a cluster id to the set of
    region-boundary pieces its sticks reach.
    """

    stick_indices: list[int]
    labels: np.ndarray
    n_clusters: int
    touches: dict[int, frozenset[str]]

    def cluster_of(self, stick_index: int) -> int | None:
        pos = bisect_left(self.stick_indices, stick_index)
        if pos == len(self.stick_indices) or self.stick_indices[pos] != stick_index:
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
    # A segment lies within [d - L/2, d + L/2] of the centre, d its midpoint's
    # distance and L its length.  Where that bound, widened by a relative
    # 1e-9 and 4 tol (the roots and norms err by ~1e-15 relative), lies
    # inside the open annulus, the segment meets neither circle: its roots
    # give t = [0, 1] at both stages below and its pieces touch neither
    # circle.  Only the other rows are solved.
    dx, dy = segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]
    d = _norm(0.5 * (segs[:, 0] + segs[:, 2]) - cx, 0.5 * (segs[:, 1] + segs[:, 3]) - cy)
    half = 0.5 * _norm(dx, dy)
    solve = ((d - half) * (1.0 - 1e-9) <= region.inner + 4.0 * tol) | (
        (d + half) * (1.0 + 1e-9) >= region.outer - 4.0 * tol)
    rows = np.flatnonzero(solve)
    t0, t1 = np.zeros(len(segs)), np.ones(len(segs))
    t0[rows], t1[rows] = _segment_disk_params(segs[rows], cx, cy, region.outer)
    keep, outer = clip_pieces(segs, t0, t1, tol)
    owners = np.flatnonzero(keep)
    # each outer piece splits at the open inner disk into the part before it,
    # [0, h0], and the part after it, [h1, 1]; a piece missing the hole keeps
    # all of itself in the first and no second, so only the pieces meeting
    # the hole get one
    at = np.flatnonzero(solve[owners])
    h0, h1 = _segment_disk_params(outer[at], cx, cy, region.inner)
    hole = h1 > h0
    split = at[hole]
    t1 = np.ones(len(outer))
    t1[split] = h0[hole]
    keep, first = clip_pieces(outer, 0.0, t1, tol)
    keep2, second = clip_pieces(outer[split], h1[hole], 1.0, tol)
    pieces = np.concatenate([first, second])
    owners = np.concatenate([owners[keep], owners[split][keep2]])
    on = np.flatnonzero(solve[owners])
    dmin, dmax = radial_interval(pieces[on], cx, cy)
    touch = {"inner": np.zeros(len(pieces), dtype=bool),
             "outer": np.zeros(len(pieces), dtype=bool)}
    touch["inner"][on] = dmin <= region.inner + tol
    touch["outer"][on] = dmax >= region.outer - tol
    return pieces, owners, touch


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
    tol = region_tol(region)
    I, J = candidate_pairs(pieces, tol)
    hits, _, _, _ = batch_pair_intersections(pieces, I, J, tol)
    _, labels = components(len(kept), node[I[hits]], node[J[hits]])
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
    n_clusters = int(labels.max(initial=-1)) + 1
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
    pieces, _, touch = _clip_to_region(c.segments(), ann)
    seeds = np.flatnonzero(touch["inner"])
    if not seeds.size:  # no arm; return before building the grid
        return -math.inf
    reached = _flood(pieces, seeds, region_tol(ann))
    reached_pieces = np.compress(reached, pieces, axis=0)
    _, far = radial_interval(reached_pieces, ann.center.x, ann.center.y)
    return float(far.max())


def arm_target(ann: Annulus) -> float:
    """The reach from the inner circle that makes the arm event of ``ann``:
    its outer radius, less its tolerance."""
    return ann.outer - region_tol(ann)


def arm_event(c: Configuration, ann: Annulus) -> bool:
    """True iff a cluster of clipped sticks joins the inner and outer circles."""
    return arm_reach(c, ann) >= arm_target(ann)


def double_intersection_count(c: Configuration, circle_radius: float) -> int:
    """Number of sticks meeting the circle around the window center twice."""
    if not (circle_radius > 0):
        raise ValueError("circle radius must be positive")
    c.window.require_contains(c.window.center, circle_radius)
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
    return int(_annulus_index(r_min)) + 2


def _lowest_annulus_indices(segs: np.ndarray, cx: float, cy: float):
    """Per stick: (dmin, dmax, lowest annulus index its segment touches).

    A segment through the centre (dmin = 0) gets the index of 1e-300, -996.
    """
    dmin, dmax = radial_interval(segs, cx, cy)
    return dmin, dmax, _annulus_index(np.maximum(dmin, 1e-300))


def _spanning_indices(c: Configuration):
    """``_lowest_annulus_indices`` of the sticks that may cross a dyadic circle.

    A stick that touches one annulus A_n alone (``_may_cross_dyadic_circle``
    is false at its centre distance) has lowest index n, so it moves no D_j
    (see ``_descend_once``) and is left out.
    """
    cx, cy = c.window.center.x, c.window.center.y
    data = c.stick_data
    d = _norm(data[:, 0] - cx, data[:, 1] - cy)
    spans = _may_cross_dyadic_circle(d, d, data[:, 2])
    return _lowest_annulus_indices(
        sticks_to_segments(np.compress(spans, data, axis=0)), cx, cy)


def _descend_once(dmin, dmax, lo, j: int) -> int:
    """D_j: largest n < j such that no stick touching A_j also touches A_n.

    That is one less than the lowest index ``lo`` of the sticks touching
    A_j, and D_j = j - 1 when no stick touches A_j: a stick touching A_j has
    lo <= j, so the minimum's ``initial=j`` only answers that case.
    """
    mask = (dmin <= 2.0 ** j) & (dmax > 2.0 ** (j - 1))
    return int(np.min(lo[mask], initial=j)) - 1


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
    dmin, dmax, lo = _spanning_indices(c)
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
    dmin, dmax, lo = _spanning_indices(c)
    return j - _descend_once(dmin, dmax, lo, j)
