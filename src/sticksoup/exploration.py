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

from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import (
    REL_EPS,
    Annulus,
    Box,
    Point,
    Polyline,
    Segment,
    _concat_ranges,
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


def _snap(x: np.ndarray, y: np.ndarray, eps: float):
    """Merge points within eps into vertices; returns (vertex id per point,
    index of the point that founds each vertex).

    Points are taken in array order: a point joins the vertex founded by an
    earlier point within eps, else founds a new one, and vertices are
    numbered by first appearance.  That rule is order-independent exactly
    when every group of near points is pairwise within eps; a chain (A near
    B, B near C, C not near A) raises DegeneracyError.
    """
    n = len(x)
    # collapse exact duplicates; the stable sort keeps the earliest first
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    new = np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])]
    group = np.empty(n, dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    first = order[new]
    ux, uy = xs[new], ys[new]
    m = len(first)

    # near pairs among distinct points: 3x3 join on cells of side eps.  In
    # key order, cells (cx, cy..cy+1) and (cx+1, cy-1..cy+1) are two runs,
    # so each pair is met once, from the lower cell (or the lower position).
    cx = np.floor((ux - ux.min()) / eps).astype(np.int64)
    cy = np.floor((uy - uy.min()) / eps).astype(np.int64) + 1
    width = int(cy.max()) + 2
    key = cx * width + cy
    korder = np.argsort(key, kind="stable")
    skey = key[korder]
    pos = np.arange(m)
    runs = (
        (pos + 1, np.searchsorted(skey, skey + 2)),
        (np.searchsorted(skey, skey + width - 1), np.searchsorted(skey, skey + width + 2)),
    )
    pi = np.concatenate([np.repeat(pos, hi - lo) for lo, hi in runs])
    pj = np.concatenate([np.repeat(lo, hi - lo) + _concat_ranges(hi - lo) for lo, hi in runs])
    pi, pj = korder[pi], korder[pj]
    dx = ux[pi] - ux[pj]
    dy = uy[pi] - uy[pj]
    near = dx * dx + dy * dy <= eps * eps
    pi, pj = pi[near], pj[near]

    n_comp, comp = connected_components(
        coo_matrix((np.ones(len(pi)), (pi, pj)), shape=(m, m)), directed=False
    )
    size = np.bincount(comp, minlength=n_comp)
    chained = np.bincount(comp[pi], minlength=n_comp) != size * (size - 1) // 2
    if np.any(chained):
        p = first[np.flatnonzero(chained[comp])[0]]
        raise DegeneracyError(f"chained near-coincident points at ({x[p]}, {y[p]})")
    founder = np.full(n_comp, n, dtype=np.int64)
    np.minimum.at(founder, comp, first)
    founders = np.sort(founder)
    return np.searchsorted(founders, founder)[comp[group]], founders


@dataclass
class Arrangement:
    """Planar subdivision with twin darts and per-vertex rotation order.

    The rotation system is stored flat: ``rotation`` holds every dart id
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

    def wheel(self, vertex: int) -> np.ndarray:
        """Outgoing darts of a vertex, sorted by angle."""
        return self.rotation[self.rot_start[vertex]:self.rot_start[vertex + 1]]

    def degree(self, vertex: int) -> int:
        return int(self.rot_start[vertex + 1] - self.rot_start[vertex])


def build_arrangement(c: Configuration, b: Box) -> Arrangement:
    """Clip the sticks to the box, split everything at mutual intersections
    and assemble the rotation system (including the four box sides)."""
    c.window.require_contains(b.center(), b.diagonal() / 2.0)

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
    n_segs = len(segs)

    # cut list: every segment's start, end and hits with other segments,
    # cut from the I side first, then the J side, each in hit order
    cut_seg = [np.arange(n_segs), np.arange(n_segs)]
    cut_t = [np.zeros(n_segs), np.ones(n_segs)]
    cut_x = [segs[:, 0], segs[:, 2]]
    cut_y = [segs[:, 1], segs[:, 3]]
    I, J = candidate_pairs(segs)
    if len(I):
        hits, px, py, overlap = batch_pair_intersections(segs, I, J, eps)
        if np.any(overlap):
            k = int(np.flatnonzero(overlap)[0])
            raise DegeneracyError(
                f"collinear overlap between segments labelled "
                f"{labels[I[k]]} and {labels[J[k]]}"
            )
        hx = px[hits]
        hy = py[hits]
        for side in (I[hits], J[hits]):
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
    perm = np.lexsort((np.concatenate(cut_t), seg))
    seg = seg[perm]
    x = np.concatenate(cut_x)[perm]
    y = np.concatenate(cut_y)[perm]
    vid, founders = _snap(x, y, eps)
    vertex_xy = np.column_stack([x[founders], y[founders]])
    n_vertices = len(vertex_xy)

    # edges join consecutive distinct vertices along each segment
    step = np.flatnonzero((seg[1:] == seg[:-1]) & (vid[1:] != vid[:-1]))
    n_darts = 2 * len(step)
    origin = np.empty(n_darts, dtype=np.int64)
    origin[0::2] = vid[step]
    origin[1::2] = vid[step + 1]
    twin = np.arange(n_darts, dtype=np.int64) ^ 1
    label = np.repeat(labels[seg[step]], 2)
    tx = vertex_xy[origin[twin], 0] - vertex_xy[origin, 0]
    ty = vertex_xy[origin[twin], 1] - vertex_xy[origin, 1]
    angle = np.arctan2(ty, tx)

    rotation = np.lexsort((angle, origin))
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

    tol = eps
    on_left = np.abs(vertex_xy[:, 0] - b.min.x) <= tol
    on_right = np.abs(vertex_xy[:, 0] - b.max.x) <= tol
    on_top = np.abs(vertex_xy[:, 1] - b.max.y) <= tol
    on_bottom = np.abs(vertex_xy[:, 1] - b.min.y) <= tol

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
        on_left=on_left,
        on_right=on_right,
        on_top=on_top,
        on_bottom=on_bottom,
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
    origin, twin, rotation, rot_start, rot_pos = (
        a.origin, a.twin, a.rotation, a.rot_start, a.rot_pos
    )
    on_left, on_right, on_top = a.on_left, a.on_right, a.on_top
    d = a.start_dart
    used = np.zeros(a.n_darts, dtype=bool)
    verts = [int(origin[d])]
    dart_log: list[int] = []
    outcome = None
    for _ in range(a.n_darts + 1):
        if used[d]:
            raise TraceError(f"dart {d} reused; walk is cyclic")
        used[d] = True
        dart_log.append(d)
        back = int(twin[d])
        v = int(origin[back])
        verts.append(v)
        if on_right[v]:
            outcome = "Right"
            break
        if on_top[v]:
            outcome = "Top"
            break
        lo, hi = rot_start[v], rot_start[v + 1]
        if on_left[v] or hi - lo == 1:
            d = back   # pierce the left side / wrap a stick tip
            continue
        # the dart before the reversed incoming one, cyclically
        pos = rot_pos[back]
        d = int(rotation[lo + pos - 1] if pos else rotation[hi - 1])
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
