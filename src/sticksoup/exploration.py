"""Planar arrangement of clipped sticks and the interface-tracing walk.

The box sides and the sticks clipped to the box form a planar subdivision
with a rotation system (outgoing darts sorted by angle at every vertex).
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
in the number of darts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    REL_EPS,
    Annulus,
    Box,
    Point,
    Polyline,
    Segment,
    _sorted_unique,
    batch_clip_to_box,
    batch_pair_intersections,
    candidate_pairs,
    line_circle_roots,
)
from .soup import Configuration

BOTTOM, RIGHT, TOP, LEFT = -1, -2, -3, -4

_ANGLE_EPS = 1e-9  # darts closer than this in angle are unresolvable


class DegeneracyError(RuntimeError):
    """Coincidence below tolerance; resample rather than repair."""


class TraceError(RuntimeError):
    """Internal invariant of the exploration walk violated."""


class _Snapper:
    """Merge points within eps into canonical vertices (grid with neighbors)."""

    __slots__ = ("eps", "cells", "xs", "ys")

    def __init__(self, eps: float):
        self.eps = eps
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.xs: list[float] = []
        self.ys: list[float] = []

    def get(self, x: float, y: float) -> int:
        q = self.eps
        ix, iy = round(x / q), round(y / q)
        eps2 = q * q
        for nx in (ix - 1, ix, ix + 1):
            for ny in (iy - 1, iy, iy + 1):
                for vid in self.cells.get((nx, ny), ()):
                    dx = self.xs[vid] - x
                    dy = self.ys[vid] - y
                    if dx * dx + dy * dy <= eps2:
                        return vid
        vid = len(self.xs)
        self.xs.append(x)
        self.ys.append(y)
        self.cells.setdefault((ix, iy), []).append(vid)
        return vid


@dataclass
class Arrangement:
    """Planar subdivision with twin darts and per-vertex rotation order."""

    box: Box
    vertex_xy: np.ndarray          # (nv, 2)
    origin: np.ndarray             # (nd,) vertex id per dart
    twin: np.ndarray               # (nd,)
    angle: np.ndarray              # (nd,)
    label: np.ndarray              # (nd,) stick index or side constant
    rotation: list[np.ndarray]     # per vertex, dart ids sorted by angle
    rot_pos: np.ndarray            # (nd,) index of dart in its wheel
    on_left: np.ndarray
    on_right: np.ndarray
    on_top: np.ndarray
    on_bottom: np.ndarray
    start_dart: int
    stick_ids: np.ndarray          # (m,) index of each clipped stick
    clipped: np.ndarray            # (m, 4) the sticks clipped to the box

    @functools.cached_property
    def stick_segments(self) -> dict[int, Segment]:
        """Clipped stick per stick index, as Segment objects."""
        return {
            int(s): Segment(Point(x1, y1), Point(x2, y2))
            for s, (x1, y1, x2, y2) in zip(self.stick_ids, self.clipped)
        }

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_xy)

    @property
    def n_darts(self) -> int:
        return len(self.origin)

    def target(self, dart: int) -> int:
        return int(self.origin[self.twin[dart]])

    def degree(self, vertex: int) -> int:
        return len(self.rotation[vertex])


def build_arrangement(c: Configuration, b: Box) -> Arrangement:
    """Clip the sticks to the box, split everything at mutual intersections
    and assemble the rotation system (including the four box sides)."""
    corner_r = b.diagonal() / 2.0
    center = b.center()
    d = math.hypot(center.x - c.window.center.x, center.y - c.window.center.y)
    if d + corner_r > c.window.radius * (1 + 1e-9) + REL_EPS:
        raise ValueError("box exceeds the sampling window; sample a larger window")

    eps = REL_EPS * max(b.diagonal(), 1.0)
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

    # intersection points between all pairs of segments
    I, J = candidate_pairs(segs)
    cuts: list[list[tuple[float, float, float]]] = [[] for _ in range(len(segs))]
    if len(I):
        hits, px, py, overlap = batch_pair_intersections(segs, I, J, eps)
        if np.any(overlap):
            k = int(np.flatnonzero(overlap)[0])
            raise DegeneracyError(
                f"collinear overlap between segments labelled "
                f"{labels[I[k]]} and {labels[J[k]]}"
            )
        hi = I[hits]
        hj = J[hits]
        hx = px[hits]
        hy = py[hits]
        for side in (hi, hj):
            ax = segs[side, 0]
            ay = segs[side, 1]
            dx = segs[side, 2] - ax
            dy = segs[side, 3] - ay
            tt = ((hx - ax) * dx + (hy - ay) * dy) / (dx * dx + dy * dy)
            for seg_idx, t, x, y in zip(side, tt, hx, hy):
                cuts[seg_idx].append((float(t), float(x), float(y)))

    snap = _Snapper(eps)
    edges: list[tuple[int, int, int]] = []
    for idx in range(len(segs)):
        x1, y1, x2, y2 = segs[idx]
        pts = [(0.0, x1, y1), (1.0, x2, y2)] + cuts[idx]
        pts.sort(key=lambda e: e[0])
        prev = snap.get(pts[0][1], pts[0][2])
        for _, x, y in pts[1:]:
            cur = snap.get(x, y)
            if cur != prev:
                edges.append((prev, cur, int(labels[idx])))
                prev = cur

    vertex_xy = np.column_stack(
        [np.asarray(snap.xs, dtype=float), np.asarray(snap.ys, dtype=float)]
    )
    n_edges = len(edges)
    origin = np.empty(2 * n_edges, dtype=np.int64)
    twin = np.empty(2 * n_edges, dtype=np.int64)
    label = np.empty(2 * n_edges, dtype=np.int64)
    for e, (u, v, lab) in enumerate(edges):
        origin[2 * e] = u
        origin[2 * e + 1] = v
        twin[2 * e] = 2 * e + 1
        twin[2 * e + 1] = 2 * e
        label[2 * e] = lab
        label[2 * e + 1] = lab
    tx = vertex_xy[origin[twin], 0] - vertex_xy[origin, 0]
    ty = vertex_xy[origin[twin], 1] - vertex_xy[origin, 1]
    angle = np.arctan2(ty, tx)

    rotation: list[np.ndarray] = [None] * len(vertex_xy)  # type: ignore
    rot_pos = np.empty(2 * n_edges, dtype=np.int64)
    order = np.lexsort((angle, origin))
    sorted_origin = origin[order]
    bounds = np.flatnonzero(np.r_[True, sorted_origin[1:] != sorted_origin[:-1]])
    bounds = np.r_[bounds, len(order)]
    for gi in range(len(bounds) - 1):
        lo, hi = bounds[gi], bounds[gi + 1]
        wheel = order[lo:hi]
        vtx = int(sorted_origin[lo])
        rotation[vtx] = wheel
        rot_pos[wheel] = np.arange(hi - lo)
        if hi - lo > 1:
            angs = angle[wheel]
            gaps = np.diff(np.r_[angs, angs[0] + 2 * math.pi])
            if np.min(gaps) < _ANGLE_EPS:
                k = int(np.argmin(gaps))
                pair = (int(label[wheel[k]]), int(label[wheel[(k + 1) % len(wheel)]]))
                raise DegeneracyError(
                    f"unresolvable dart angles at vertex {vtx} between "
                    f"segments labelled {pair[0]} and {pair[1]}"
                )
    for vtx in range(len(vertex_xy)):
        if rotation[vtx] is None:
            rotation[vtx] = np.empty(0, dtype=np.int64)

    tol = eps
    on_left = np.abs(vertex_xy[:, 0] - b.min.x) <= tol
    on_right = np.abs(vertex_xy[:, 0] - b.max.x) <= tol
    on_top = np.abs(vertex_xy[:, 1] - b.max.y) <= tol
    on_bottom = np.abs(vertex_xy[:, 1] - b.min.y) <= tol

    corner = snap.get(b.min.x, b.min.y)
    start_dart = -1
    for dart in rotation[corner]:
        if label[dart] == BOTTOM:
            start_dart = int(dart)
        elif label[dart] >= 0:
            raise DegeneracyError("a stick passes through the start corner")
    if start_dart < 0:
        raise TraceError("bottom side missing at the start corner")

    return Arrangement(
        box=b,
        vertex_xy=vertex_xy,
        origin=origin,
        twin=twin,
        angle=angle,
        label=label,
        rotation=rotation,
        rot_pos=rot_pos,
        on_left=on_left,
        on_right=on_right,
        on_top=on_top,
        on_bottom=on_bottom,
        start_dart=start_dart,
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
    d = a.start_dart
    used = np.zeros(a.n_darts, dtype=bool)
    verts = [int(a.origin[d])]
    dart_log: list[int] = []
    outcome = None
    for _ in range(a.n_darts + 1):
        if used[d]:
            raise TraceError(f"dart {d} reused; walk is cyclic")
        used[d] = True
        dart_log.append(int(d))
        v = a.target(d)
        verts.append(v)
        if a.on_right[v]:
            outcome = "Right"
            break
        if a.on_top[v]:
            outcome = "Top"
            break
        if a.on_left[v] or a.degree(v) == 1:
            d = int(a.twin[d])   # pierce the left side / wrap a stick tip
            continue
        wheel = a.rotation[v]
        d = int(wheel[a.rot_pos[a.twin[d]] - 1])
    if outcome is None:
        raise TraceError("walk exhausted dart budget without reaching right/top")

    labels = [int(a.label[dd]) for dd in dart_log]
    touched: list[int] = []
    seen: set[int] = set()
    for lab in labels:
        if lab >= 0 and lab not in seen:
            seen.add(lab)
            touched.append(lab)
    path = Polyline(a.vertex_xy[verts])
    return ExplorationResult(
        path=path,
        outcome=outcome,
        dart_log=dart_log,
        sticks_touched=touched,
        edge_labels=labels,
        arrangement=a,
    )


def last_left_subpath(r: ExplorationResult, b: Box) -> Polyline:
    """Suffix of the path from its last touch of the left side of the box."""
    tol = REL_EPS * max(b.diagonal(), 1.0)
    xs = r.path.coords[:, 0]
    hits = np.flatnonzero(xs <= b.min.x + tol)
    start = int(hits[-1]) if len(hits) else 0
    return Polyline(r.path.coords[start:])


# ---------------------------------------------------------------------------
# annulus traversals


@dataclass(frozen=True)
class TraversalArm:
    direction: str               # "Entering" (outer->inner) or "Exiting"
    polyline: Polyline
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


def _point_at(coords: np.ndarray, s: float) -> tuple[float, float]:
    i = min(int(math.floor(s)), len(coords) - 2)
    t = s - i
    x = coords[i, 0] + t * (coords[i + 1, 0] - coords[i, 0])
    y = coords[i, 1] + t * (coords[i + 1, 1] - coords[i, 1])
    return x, y


def count_traversals(
    p: Polyline, ann: Annulus, edge_labels: Sequence[int] | None = None
) -> tuple[int, list[TraversalArm]]:
    """Count maximal sub-paths running from one boundary circle of the annulus
    to the other through its open interior, labelling each Entering/Exiting."""
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

    total = float(len(coords) - 1)
    bounds = np.r_[0.0, events, total]
    arms: list[TraversalArm] = []
    run_start: int | None = None  # index into `events` of the run's opening event
    for piece in range(len(bounds) - 1):
        s0, s1 = bounds[piece], bounds[piece + 1]
        if s1 - s0 <= 1e-12:
            continue
        # classify the piece by its midpoint radius
        mx, my = _point_at(coords, (s0 + s1) / 2.0)
        rho = math.hypot(mx - cx, my - cy)
        inside = ann.inner < rho < ann.outer
        if inside:
            if run_start is None:
                run_start = piece - 1  # event index opening this run (-1 = path start)
            continue
        if run_start is not None:
            open_ev = run_start
            close_ev = piece - 1  # event index that closed the run
            if open_ev >= 0 and close_ev < len(events) and which[open_ev] != which[close_ev]:
                s_a, s_b = float(events[open_ev]), float(events[close_ev])
                pts = [_point_at(coords, s_a)]
                for i in range(int(math.floor(s_a)) + 1, int(math.ceil(s_b))):
                    pts.append((coords[i, 0], coords[i, 1]))
                pts.append(_point_at(coords, s_b))
                dedup = [pts[0]]
                for q in pts[1:]:
                    if q != dedup[-1]:
                        dedup.append(q)
                used: set[int] = set()
                if edge_labels is not None:
                    for i in range(int(math.floor(s_a)), int(math.ceil(s_b))):
                        if 0 <= i < len(edge_labels) and edge_labels[i] >= 0:
                            used.add(int(edge_labels[i]))
                direction = "Entering" if which[open_ev] == 1 else "Exiting"
                poly = Polyline(dedup) if len(dedup) > 1 else Polyline([dedup[0]])
                arms.append(TraversalArm(direction, poly, frozenset(used)))
            run_start = None
    if run_start is not None and run_start >= 0:
        pass  # path ends strictly inside the annulus: not a traversal
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


def polyline_sup_distance(p: Polyline, q: Polyline, step: float = 0.01) -> float:
    """Symmetric sup of point-to-curve distances between two polylines.

    A diagnostic for comparing the traces of nested truncations of one
    sample; no convergence rate is asserted anywhere, the number is only
    reported.  Curves are resampled at the given arc step.
    """

    def resample(coords):
        if len(coords) < 2:
            return coords
        out = [coords[0]]
        for a, b in zip(coords[:-1], coords[1:]):
            n = max(int(math.ceil(math.hypot(*(b - a)) / step)), 1)
            for t in range(1, n + 1):
                out.append(a + (b - a) * (t / n))
        return np.asarray(out)

    def one_sided(src, dst):
        worst = 0.0
        ax = dst[:-1, 0]
        ay = dst[:-1, 1]
        dx = np.diff(dst[:, 0])
        dy = np.diff(dst[:, 1])
        dd = np.maximum(dx * dx + dy * dy, 1e-300)
        for x, y in src:
            t = np.clip(((x - ax) * dx + (y - ay) * dy) / dd, 0.0, 1.0)
            d = np.min(np.hypot(x - ax - t * dx, y - ay - t * dy))
            worst = max(worst, float(d))
        return worst

    a = resample(p.coords)
    b = resample(q.coords)
    if len(a) < 2 or len(b) < 2:
        return float(
            max(
                np.max(np.hypot(a[:, 0] - b[0, 0], a[:, 1] - b[0, 1])),
                np.max(np.hypot(b[:, 0] - a[0, 0], b[:, 1] - a[0, 1])),
            )
        )
    return max(one_sided(a, b), one_sided(b, a))


def hits_all_balls(p: Polyline, balls: Sequence[tuple]) -> bool:
    """True iff the polyline meets every closed ball (center, radius)."""
    coords = p.coords
    for center, radius in balls:
        cx = center.x if isinstance(center, Point) else center[0]
        cy = center.y if isinstance(center, Point) else center[1]
        if len(coords) == 1:
            d = math.hypot(coords[0, 0] - cx, coords[0, 1] - cy)
        else:
            ax = coords[:-1, 0] - cx
            ay = coords[:-1, 1] - cy
            ddx = np.diff(coords[:, 0])
            ddy = np.diff(coords[:, 1])
            dd = ddx * ddx + ddy * ddy
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(dd > 0, -(ax * ddx + ay * ddy) / dd, 0.0)
            t = np.clip(t, 0.0, 1.0)
            d = float(np.min(np.hypot(ax + t * ddx, ay + t * ddy)))
        if d > radius:
            return False
    return True
