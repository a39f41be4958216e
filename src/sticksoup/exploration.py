"""Planar arrangement of clipped sticks and the interface-tracing walk.

The box sides and the sticks clipped to the box form a planar subdivision
with a rotation system (outgoing darts sorted by angle at every vertex).
Only the connected component of the box boundary is built: the walk moves
along darts from the bottom side, so the rest of the soup cannot affect it.
The exploration walk starts on the bottom side at the lower-left corner and
repeatedly takes the first outgoing dart clockwise from the reverse of the
incoming dart, which traces the boundary of the face to its left, i.e. keeps
the covered material on its right.  Two refinements realize the imposed
boundary conditions (bottom covered, left vacant):

  * at a degree-1 vertex (a stick tip) the walk turns around and traverses
    the twin dart, so zero-width sticks are walked on both flanks;
  * at a vertex on the left side the walk also turns around: the covered
    material pierces the vacant side there, and the walk resumes on the
    opposite flank of the piercing stick.  These are the only points where
    the full walk may cross a stick; the suffix from its last left-side
    touch crosses none.

The walk stops on first arrival at a vertex of the right side (a vacant
left-right crossing exists) or of the top side (a covered bottom-top
crossing exists).  Each dart is used at most once, so termination is linear
in the number of darts.  The turn rule is precomputed as a successor per
dart, and the walk only follows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    REL_EPS,
    Annulus,
    Box,
    Polyline,
    Segment,
    _lexsort2,
    _sorted_unique,
    _xy,
    batch_clip_to_box,
    batch_pair_intersections,
    box_sides,
    candidate_pairs,
    components,
    line_circle_roots,
    radial_interval,
    region_tol,
)
from .soup import Configuration

BOTTOM, RIGHT, TOP, LEFT = -1, -2, -3, -4

_ANGLE_EPS = 1e-9  # darts closer than this in angle are unresolvable


class DegeneracyError(RuntimeError):
    """Coincidence below tolerance; resample rather than repair."""


class TraceError(RuntimeError):
    """Internal invariant of the exploration walk violated."""


@dataclass
class Arrangement:
    """Planar subdivision with twin darts and per-vertex rotation order.

    It holds the box sides and the clipped sticks in their connected
    component; ``stick_ids`` and ``clipped`` list only those sticks.  The
    rotation system is stored flat: ``rotation`` holds every dart id
    sorted by (origin, angle), and the wheel of vertex v is
    ``rotation[rot_start[v]:rot_start[v + 1]]``.
    """

    box: Box
    vertex_xy: np.ndarray          # (nv, 2)
    origin: np.ndarray             # (nd,) vertex id per dart
    twin: np.ndarray               # (nd,)
    angle: np.ndarray              # (nd,)
    label: np.ndarray              # (nd,) stick index or side constant
    rotation: np.ndarray           # (nd,) dart ids sorted by (origin, angle)
    rot_start: np.ndarray          # (nv + 1,) wheel offsets into rotation
    rot_pos: np.ndarray            # (nd,) index of dart in its wheel
    on_left: np.ndarray
    on_right: np.ndarray
    on_top: np.ndarray
    on_bottom: np.ndarray
    start_dart: int
    stick_ids: np.ndarray          # (m,) index of each stick in the arrangement
    clipped: np.ndarray            # (m, 4) those sticks clipped to the box

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_xy)

    @property
    def n_darts(self) -> int:
        return len(self.origin)

    def wheel(self, vertex: int) -> np.ndarray:
        """Outgoing darts of a vertex, sorted by angle."""
        return self.rotation[self.rot_start[vertex]:self.rot_start[vertex + 1]]

    def degree(self, vertex: int) -> int:
        return int(self.rot_start[vertex + 1] - self.rot_start[vertex])


def build_arrangement(c: Configuration, b: Box) -> Arrangement:
    """Clip the sticks to the box, split the ones the walk can reach at their
    mutual intersections and assemble the rotation system (including the four
    box sides).

    Only the connected component of the bottom side in the intersection graph
    of the box sides and the clipped sticks is built: the walk starts on the
    bottom side and moves along darts, so it never leaves that component.  The
    sides meet at the corners, so the component holds the whole box boundary.
    Degeneracy checks cover that component only.  Segments meet at a vertex
    exactly where the narrow phase reports a hit.
    """
    c.window.require_contains(b.center(), b.diagonal() / 2.0)

    eps = region_tol(b)
    sides = np.array(
        [
            [b.min.x, b.min.y, b.max.x, b.min.y],
            [b.max.x, b.min.y, b.max.x, b.max.y],
            [b.min.x, b.max.y, b.max.x, b.max.y],
            [b.min.x, b.min.y, b.min.x, b.max.y],
        ]
    )
    side_labels = np.array([BOTTOM, RIGHT, TOP, LEFT])
    keep, clipped = batch_clip_to_box(c.segments(), b)
    stick_ids = np.flatnonzero(keep)
    segs = np.vstack([sides, clipped])
    labels = np.concatenate([side_labels, stick_ids])
    n_segs = len(segs)

    I, J = candidate_pairs(segs, eps)
    hits, px, py, overlap = batch_pair_intersections(segs, I, J, eps)
    h = np.flatnonzero(hits)
    I, J, hx, hy, overlap = I[h], J[h], px[h], py[h], overlap[h]
    # the component of the bottom side (segment 0); new ids keep the old order
    _, comp = components(n_segs, I, J)
    reach = comp == comp[0]
    new_id = np.cumsum(reach) - 1
    inside = np.flatnonzero(reach[I])
    if np.any(overlap[inside]):
        k = int(inside[np.argmax(overlap[inside])])
        raise DegeneracyError(
            f"collinear overlap between segments labelled "
            f"{labels[I[k]]} and {labels[J[k]]}"
        )
    I, J, hx, hy = new_id[I[inside]], new_id[J[inside]], hx[inside], hy[inside]
    segs, labels = segs[reach], labels[reach]
    stick_ids, clipped = stick_ids[reach[len(sides):]], clipped[reach[len(sides):]]
    n_segs = len(segs)

    # cut list: every segment's start, end and hits with other segments,
    # cut from the I side first, then the J side, each in hit order
    cut_seg = [np.arange(n_segs), np.arange(n_segs)]
    cut_t = [np.zeros(n_segs), np.ones(n_segs)]
    cut_x = [segs[:, 0], segs[:, 2]]
    cut_y = [segs[:, 1], segs[:, 3]]
    for side in (I, J):
        ax = segs[side, 0]
        ay = segs[side, 1]
        dx = segs[side, 2] - ax
        dy = segs[side, 3] - ay
        cut_seg.append(side)
        cut_t.append(((hx - ax) * dx + (hy - ay) * dy) / (dx * dx + dy * dy))
        cut_x.append(hx)
        cut_y.append(hy)
    seg = np.concatenate(cut_seg)
    # stable, so equal t keep the list order above
    perm = _lexsort2(np.concatenate(cut_t), seg)
    seg = seg[perm]
    x = np.concatenate(cut_x)[perm]
    y = np.concatenate(cut_y)[perm]
    n_cuts = len(seg)
    same_seg = seg[1:] == seg[:-1]

    # a vertex is a set of cuts with one identity: a start s has id s, an end
    # n_segs + s, and both cuts of hit k share 2 n_segs + k; a cut within eps
    # of the next one on its segment joins that cut's vertex
    n_ids = 2 * n_segs + len(hx)
    ident = np.r_[np.arange(n_ids), np.arange(2 * n_segs, n_ids)][perm]
    link = np.flatnonzero(same_seg & (np.diff(x) ** 2 + np.diff(y) ** 2 <= eps * eps))
    _, comp = components(n_ids, ident[link], ident[link + 1])
    group = comp[ident]
    # each vertex is founded by its first cut, and numbered in founder order
    founder = np.full(n_ids, n_cuts)
    np.minimum.at(founder, group, np.arange(n_cuts))
    founder = founder[group]
    # a cut farther than eps from its founder ends a chain of near points
    far = (x - x[founder]) ** 2 + (y - y[founder]) ** 2 > eps * eps
    if np.any(far):
        p = founder[np.argmax(far)]
        raise DegeneracyError(f"chained near-coincident points at ({x[p]}, {y[p]})")
    is_founder = founder == np.arange(n_cuts)
    vid = (np.cumsum(is_founder) - 1)[founder]
    vertex_xy = np.column_stack([x[is_founder], y[is_founder]])
    n_vertices = len(vertex_xy)

    # edges join consecutive distinct vertices along each segment
    step = np.flatnonzero(same_seg & (vid[1:] != vid[:-1]))
    n_darts = 2 * len(step)
    origin = np.empty(n_darts, dtype=np.int64)
    origin[0::2] = vid[step]
    origin[1::2] = vid[step + 1]
    twin = np.arange(n_darts, dtype=np.int64) ^ 1
    label = np.repeat(labels[seg[step]], 2)
    tx = vertex_xy[origin[twin], 0] - vertex_xy[origin, 0]
    ty = vertex_xy[origin[twin], 1] - vertex_xy[origin, 1]
    angle = np.arctan2(ty, tx)

    rotation = _lexsort2(angle, origin)
    rot_start = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(origin, minlength=n_vertices), out=rot_start[1:])
    wheel_of = origin[rotation]
    rot_pos = np.empty(n_darts, dtype=np.int64)
    rot_pos[rotation] = np.arange(n_darts) - rot_start[wheel_of]

    # angle gap from each dart to the next counterclockwise one in its wheel
    ang = angle[rotation]
    nxt = np.arange(1, n_darts + 1)
    last = rot_start[1:][rot_start[1:] > rot_start[:-1]] - 1
    nxt[last] = rot_start[wheel_of[last]]
    gaps = ang[nxt] - ang
    gaps[last] = (ang[nxt[last]] + 2 * math.pi) - ang[last]
    bad = np.flatnonzero(gaps < _ANGLE_EPS)
    if len(bad):
        vtx = int(wheel_of[bad[0]])
        lo = rot_start[vtx]
        k = lo + int(np.argmin(gaps[lo:rot_start[vtx + 1]]))
        raise DegeneracyError(
            f"unresolvable dart angles at vertex {vtx} between "
            f"segments labelled {label[rotation[k]]} and {label[rotation[nxt[k]]]}"
        )

    on = box_sides(vertex_xy, b, eps)

    # the bottom side's start point is the corner (min.x, min.y)
    corner = int(vid[np.flatnonzero(perm == 0)[0]])
    wheel = rotation[rot_start[corner]:rot_start[corner + 1]]
    if np.any(label[wheel] >= 0):
        raise DegeneracyError("a stick passes through the start corner")
    bottom = wheel[label[wheel] == BOTTOM]
    if not len(bottom):
        raise TraceError("bottom side missing at the start corner")

    return Arrangement(
        box=b,
        vertex_xy=vertex_xy,
        origin=origin,
        twin=twin,
        angle=angle,
        label=label,
        rotation=rotation,
        rot_start=rot_start,
        rot_pos=rot_pos,
        on_left=on["left"],
        on_right=on["right"],
        on_top=on["top"],
        on_bottom=on["bottom"],
        start_dart=int(bottom[-1]),
        stick_ids=stick_ids,
        clipped=clipped,
    )


@dataclass
class ExplorationResult:
    """Traced interface: the path polyline plus its terminal outcome."""

    path: Polyline
    outcome: str                 # "Right" (vacant crossing) or "Top" (covered)
    dart_log: list[int]
    sticks_touched: list[int]
    edge_labels: list[int]
    arrangement: Arrangement = field(repr=False)


def trace_exploration(a: Arrangement) -> ExplorationResult:
    """Run the interface walk from the lower-left corner to right or top."""
    twin, rot_start = a.twin, a.rot_start
    # the turn rule as one successor per dart: the dart before the reversed
    # incoming one in the wheel of the vertex reached, cyclically; that is the
    # reversed dart itself at a stick tip, and it is forced at the left side.
    # A dart reaching the right side has successor -1, the top side -2.
    end = a.origin[twin]
    pos = a.rot_pos[twin]
    nxt = a.rotation[np.where(pos > 0, rot_start[end] + pos - 1, rot_start[end + 1] - 1)]
    nxt = np.where(a.on_left[end], twin, nxt)
    stop = np.where(a.on_right, -1, np.where(a.on_top, -2, 0))[end]
    nxt = np.where(stop < 0, stop, nxt).tolist()

    d = a.start_dart
    used = bytearray(a.n_darts)
    dart_log: list[int] = []
    for _ in range(a.n_darts + 1):
        if used[d]:
            raise TraceError(f"dart {d} reused; walk is cyclic")
        used[d] = 1
        dart_log.append(d)
        d = nxt[d]
        if d < 0:
            break
    else:
        raise TraceError("walk exhausted dart budget without reaching right/top")

    log = np.array(dart_log)
    labels = a.label[log]
    # distinct stick labels in order of first appearance along the walk
    sticks = labels[labels >= 0]
    order = np.argsort(sticks, kind="stable")
    first = np.ones(len(order), dtype=bool)
    first[1:] = sticks[order[1:]] != sticks[order[:-1]]
    verts = np.r_[a.origin[a.start_dart], end[log]]
    return ExplorationResult(
        path=Polyline(a.vertex_xy[verts]),
        outcome=("Right", "Top")[-1 - d],
        dart_log=dart_log,
        sticks_touched=sticks[np.sort(order[first])].tolist(),
        edge_labels=labels.tolist(),
        arrangement=a,
    )


def last_left_subpath(r: ExplorationResult, b: Box) -> Polyline:
    """Suffix of the path from its last touch of the left side of the box."""
    hits = np.flatnonzero(box_sides(r.path.coords, b, region_tol(b))["left"])
    start = int(hits[-1]) if len(hits) else 0
    return Polyline(r.path.coords[start:])


# ---------------------------------------------------------------------------
# annulus traversals


@dataclass(frozen=True)
class TraversalArm:
    direction: str               # "Entering" (outer->inner) or "Exiting"
    sticks_used: frozenset[int]


def _circle_edge_events(coords: np.ndarray, cx: float, cy: float, rad: float):
    """Global parameters (edge index + t) where the polyline crosses |p|=rad."""
    good, lo, hi = line_circle_roots(
        coords[:-1, 0] - cx, coords[:-1, 1] - cy,
        np.diff(coords[:, 0]), np.diff(coords[:, 1]), rad,
    )
    out = []
    for t in (lo, hi):
        idx = np.flatnonzero(good & (t >= 0.0) & (t < 1.0))
        out.append(idx + t[idx])
    return np.concatenate(out)


def count_traversals(
    p: Polyline, ann: Annulus, edge_labels: Sequence[int] | None = None
) -> tuple[int, list[TraversalArm]]:
    """Count maximal sub-paths running from one boundary circle of the annulus
    to the other through its open interior, labelling each Entering/Exiting.

    The circle crossings cut the path into pieces, each inside or outside by
    its midpoint radius (pieces of parameter length <= 1e-12 are skipped).  A
    run of inside pieces opens at the crossing before its first piece and
    closes at the crossing before the next outside piece; it is a traversal
    when the two crossings lie on different circles.  A run open at the start
    of the path, or still open at its end, is not.  Arms are in path order.
    """
    coords = p.coords
    if len(coords) < 2:
        return 0, []
    cx, cy = ann.center.x, ann.center.y
    ev_inner = _circle_edge_events(coords, cx, cy, ann.inner)
    ev_outer = _circle_edge_events(coords, cx, cy, ann.outer)
    events = np.concatenate([ev_inner, ev_outer])
    which = np.concatenate(
        [np.zeros(len(ev_inner), dtype=int), np.ones(len(ev_outer), dtype=int)]
    )
    order = np.argsort(events, kind="stable")
    events = events[order]
    which = which[order]

    bounds = np.r_[0.0, events, len(coords) - 1.0]
    piece = np.flatnonzero(np.diff(bounds) > 1e-12)
    mid = (bounds[piece] + bounds[piece + 1]) / 2.0
    i = np.minimum(np.floor(mid).astype(np.int64), len(coords) - 2)
    xy = coords[i] + (mid - i)[:, None] * (coords[i + 1] - coords[i])
    rho = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy)
    inside = (ann.inner < rho) & (rho < ann.outer)
    # the event index opening and closing each run of inside pieces (-1 is
    # the path start); a run with no close is open at the end of the path
    was_inside = np.r_[False, inside[:-1]]
    closes = piece[was_inside & ~inside] - 1
    opens = piece[inside & ~was_inside][: len(closes)] - 1
    keep = opens >= 0
    opens, closes = opens[keep], closes[keep]
    keep = which[opens] != which[closes]
    labels = [] if edge_labels is None else edge_labels
    arms = [
        TraversalArm(
            "Entering" if which[a] == 1 else "Exiting",
            frozenset(
                int(lab)
                for lab in labels[math.floor(events[a]):math.ceil(events[b])]
                if lab >= 0
            ),
        )
        for a, b in zip(opens[keep].tolist(), closes[keep].tolist())
    ]
    return len(arms), arms


# ---------------------------------------------------------------------------
# curve predicates


def polyline_crosses_segment(p: Polyline, s: Segment) -> bool:
    """True iff the polyline passes through the open segment transversally.

    Touch-and-return does not count; a collinear run counts only when it is
    contained in the open segment and the path enters and leaves on opposite
    sides of the supporting line.
    """
    coords = p.coords
    if len(coords) < 2:
        return False
    zx, zy = s.a.x, s.a.y
    dx, dy = s.b.x - zx, s.b.y - zy
    L2 = dx * dx + dy * dy
    L = math.sqrt(L2)
    scale = max(
        1.0, float(np.abs(coords).max()), abs(zx), abs(zy), abs(s.b.x), abs(s.b.y)
    )
    tol = REL_EPS * scale
    sd = ((coords[:, 0] - zx) * dy - (coords[:, 1] - zy) * dx) / L
    sigma = np.zeros(len(coords), dtype=int)
    sigma[sd > tol] = 1
    sigma[sd < -tol] = -1
    tpar = ((coords[:, 0] - zx) * dx + (coords[:, 1] - zy) * dy) / L2
    tol_u = tol / L
    nz = np.flatnonzero(sigma != 0)
    for a, b in zip(nz[:-1], nz[1:]):
        if sigma[a] == sigma[b]:
            continue
        if b == a + 1:
            # transversal edge; locate the line hit along the segment
            t = sd[a] / (sd[a] - sd[b])
            u = tpar[a] + t * (tpar[b] - tpar[a])
            if tol_u < u < 1 - tol_u:
                return True
        else:
            # collinear run strictly between a and b
            run = tpar[a + 1 : b]
            if np.all(run > tol_u) and np.all(run < 1 - tol_u):
                return True
    return False


def box_dimension(p: Polyline, scales: Sequence[float]) -> float:
    """Box-counting dimension: slope of log(occupied cells) vs log(1/scale)."""
    coords = p.coords
    if len(coords) < 2:
        raise ValueError("box dimension needs a polyline with at least 2 vertices")
    uniq = sorted(set(float(s) for s in scales))
    if len(uniq) < 2:
        raise ValueError("box dimension needs at least 2 distinct scales")
    if uniq[0] <= 0:
        raise ValueError("scales must be positive")
    dx = np.diff(coords[:, 0])
    dy = np.diff(coords[:, 1])
    lens = np.hypot(dx, dy)
    counts = []
    for s in uniq:
        step = s / 3.0
        n_per = np.maximum(np.ceil(lens / step).astype(np.int64), 1)
        total = int(n_per.sum())
        starts = np.cumsum(n_per) - n_per
        owner = np.repeat(np.arange(len(lens)), n_per)
        frac = (np.arange(total) - starts[owner]) / n_per[owner]
        xs = np.r_[coords[:-1, 0][owner] + frac * dx[owner], coords[-1, 0]]
        ys = np.r_[coords[:-1, 1][owner] + frac * dy[owner], coords[-1, 1]]
        ix = np.floor(xs / s).astype(np.int64)
        iy = np.floor(ys / s).astype(np.int64)
        counts.append(len(_sorted_unique(ix * (np.int64(1) << 32) + iy)))
    logs = np.log(1.0 / np.asarray(uniq))
    slope = np.polyfit(logs, np.log(np.asarray(counts, dtype=float)), 1)[0]
    return float(slope)


def _edges(coords: np.ndarray) -> np.ndarray:
    """A polyline's edges as (n, 4) segments; one point edge for one vertex."""
    if len(coords) == 1:
        return np.hstack([coords, coords])
    return np.hstack([coords[:-1], coords[1:]])


def hits_all_balls(p: Polyline, balls: Sequence[tuple]) -> bool:
    """True iff the polyline meets every closed ball (center, radius)."""
    edges = _edges(p.coords)
    for center, radius in balls:
        if float(radial_interval(edges, *_xy(center))[0].min()) > radius:
            return False
    return True
