import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from sticksoup import events, geometry
from sticksoup.events import _clip_to_region
from sticksoup.geometry import (
    REL_EPS,
    Annulus,
    Box,
    GeometryError,
    Point,
    Polyline,
    Segment,
    Stick,
    _cell_table,
    _concat_ranges,
    _lexsort2,
    _sorted_unique,
    batch_clip_to_box,
    batch_pair_intersections,
    candidate_pairs,
    clip_pieces,
    clip_segment_to_box,
    components,
    point_segment_distance,
    region_tol,
    segment_circle_intersections,
    segment_intersection,
    stick_to_segment,
    sticks_to_segments,
)
from sticksoup.seeds import derive_seed
from sticksoup.soup import DiskWindow, SoupParams, sample_configuration

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def seg(x1, y1, x2, y2):
    return Segment(Point(x1, y1), Point(x2, y2))


class TestTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(GeometryError):
            Point(float("nan"), 0.0)
        with pytest.raises(GeometryError):
            Point(0.0, float("inf"))

    def test_stick_invariants(self):
        with pytest.raises(GeometryError):
            Stick(Point(0, 0), 0.0, 0.0)
        with pytest.raises(GeometryError):
            Stick(Point(0, 0), 1.0, -math.pi / 2)  # open at -pi/2
        Stick(Point(0, 0), 1.0, math.pi / 2)  # closed at +pi/2

    def test_segment_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            Segment(Point(1, 2), Point(1, 2))

    def test_box_and_annulus_invariants(self):
        with pytest.raises(GeometryError):
            Box(Point(0, 0), Point(0, 1))
        with pytest.raises(GeometryError):
            Annulus(Point(0, 0), 2.0, 1.0)
        with pytest.raises(GeometryError):
            Annulus(Point(0, 0), 0.0, 1.0)

    def test_polyline_invariants(self):
        with pytest.raises(GeometryError):
            Polyline([])
        with pytest.raises(GeometryError):
            Polyline([Point(0, 0), Point(0, 0)])
        p = Polyline([Point(0, 0), Point(1, 0), Point(1, 1)])
        assert p.length() == pytest.approx(2.0)
        assert len(p.vertices) == 3


class TestStickToSegment:
    def test_axis_cases(self):
        s = stick_to_segment(Stick(Point(0, 0), 1.0, 0.0))
        assert (s.a.x, s.a.y) == pytest.approx((-1, 0))
        assert (s.b.x, s.b.y) == pytest.approx((1, 0))
        s = stick_to_segment(Stick(Point(0, 0), 1.0, math.pi / 2))
        assert (s.a.x, s.a.y) == pytest.approx((0, -1))
        assert (s.b.x, s.b.y) == pytest.approx((0, 1))

    def test_translated(self):
        s = stick_to_segment(Stick(Point(1, 1), 0.5, 0.0))
        assert (s.a.x, s.a.y) == pytest.approx((0.5, 1))
        assert (s.b.x, s.b.y) == pytest.approx((1.5, 1))

    @given(finite, finite, st.floats(1e-3, 10), st.floats(-1.5, 1.5))
    @settings(max_examples=200)
    def test_length_and_midpoint(self, cx, cy, r, v):
        v = max(min(v, math.pi / 2), -math.pi / 2 + 1e-9)
        s = stick_to_segment(Stick(Point(cx, cy), r, v))
        scale = max(1.0, abs(cx), abs(cy), r)
        assert s.length() == pytest.approx(2 * r, rel=1e-12)
        m = s.midpoint()
        assert abs(m.x - cx) <= 1e-12 * scale
        assert abs(m.y - cy) <= 1e-12 * scale


class TestSegmentIntersection:
    def test_transversal(self):
        p, overlap = segment_intersection(seg(0, 0, 2, 0), seg(1, -1, 1, 1))
        assert not overlap
        assert (p.x, p.y) == pytest.approx((1, 0))

    def test_disjoint(self):
        p, overlap = segment_intersection(seg(0, 0, 1, 0), seg(0, 1, 1, 1))
        assert p is None and not overlap

    def test_collinear_overlap(self):
        p, overlap = segment_intersection(seg(0, 0, 2, 0), seg(1, 0, 3, 0))
        assert overlap and p is None

    def test_collinear_endpoint_touch(self):
        p, overlap = segment_intersection(seg(0, 0, 1, 0), seg(1, 0, 2, 0))
        assert not overlap
        assert (p.x, p.y) == pytest.approx((1, 0))

    def test_endpoint_on_interior_counts(self):
        # closed segments: boundary contact is an intersection
        p, overlap = segment_intersection(seg(0, 0, 2, 0), seg(1, 0, 1, 1))
        assert not overlap and (p.x, p.y) == pytest.approx((1, 0))

    @given(*(finite,) * 8)
    @settings(max_examples=300)
    def test_symmetry(self, x1, y1, x2, y2, x3, y3, x4, y4):
        if (x1, y1) == (x2, y2) or (x3, y3) == (x4, y4):
            return
        s1, s2 = seg(x1, y1, x2, y2), seg(x3, y3, x4, y4)
        p12, o12 = segment_intersection(s1, s2)
        p21, o21 = segment_intersection(s2, s1)
        assert o12 == o21
        assert (p12 is None) == (p21 is None)
        if p12 is not None:
            scale = max(1.0, *(abs(v) for v in (x1, y1, x2, y2, x3, y3, x4, y4)))
            assert math.hypot(p12.x - p21.x, p12.y - p21.y) <= 1e-7 * scale


class TestSegmentCircle:
    def test_two_hits(self):
        pts = segment_circle_intersections(seg(-2, 0, 2, 0), Point(0, 0), 1.0)
        assert len(pts) == 2
        assert (pts[0].x, pts[1].x) == pytest.approx((-1, 1))

    def test_miss(self):
        assert segment_circle_intersections(seg(0, 2, 2, 2), Point(0, 0), 1.0) == []

    def test_one_hit_from_inside(self):
        pts = segment_circle_intersections(seg(0, 0, 2, 0), Point(0, 0), 1.0)
        assert len(pts) == 1
        assert (pts[0].x, pts[0].y) == pytest.approx((1, 0))

    def test_tangency_counts_once(self):
        pts = segment_circle_intersections(seg(-1, 1, 1, 1), Point(0, 0), 1.0)
        assert len(pts) == 1
        assert (pts[0].x, pts[0].y) == pytest.approx((0, 1))

    @given(*(finite,) * 4, st.floats(-10, 10), st.floats(-10, 10), st.floats(0.01, 20))
    @example(1e-9, 0.0, 2.0, 0.0, 0.5, 0.0, 0.5)  # a root 1e-9 before the start
    @settings(max_examples=300)
    def test_hits_lie_on_circle_and_segment(self, x1, y1, x2, y2, cx, cy, rad):
        if (x1, y1) == (x2, y2):
            return
        s = seg(x1, y1, x2, y2)
        for p in segment_circle_intersections(s, Point(cx, cy), rad):
            assert math.hypot(p.x - cx, p.y - cy) == pytest.approx(rad, rel=1e-9, abs=1e-9)
            assert point_segment_distance(p, s) <= 1e-7 * max(1.0, rad, abs(cx), abs(cy))


@pytest.mark.parametrize("region, tol", [
    (Box(Point(0, 0), Point(3, 4)), 5e-9),
    (Box(Point(0, 0), Point(0.1, 0.1)), 1e-9),  # the floor
    (Annulus(Point(0, 0), 1.0, 16.0), 16e-9),
    (DiskWindow(Point(0, 0), 0.5), 1e-9),
    (DiskWindow(Point(0, 0), 8.0), 8e-9),
])
def test_region_tol(region, tol):
    assert region_tol(region) == pytest.approx(tol, rel=1e-12)


class TestClip:
    BOX = Box(Point(0, 0), Point(1, 1))

    def test_inside_unchanged(self):
        s = seg(0.2, 0.2, 0.8, 0.9)
        c = clip_segment_to_box(s, self.BOX)
        assert (c.a.x, c.a.y, c.b.x, c.b.y) == pytest.approx((0.2, 0.2, 0.8, 0.9))

    def test_disjoint_none(self):
        assert clip_segment_to_box(seg(2, 2, 3, 3), self.BOX) is None

    def test_crossing_clipped(self):
        c = clip_segment_to_box(seg(-1, 0.5, 3, 0.5), self.BOX)
        assert (c.a.x, c.a.y, c.b.x, c.b.y) == pytest.approx((0, 0.5, 1, 0.5))

    def test_single_point_contact_empty(self):
        assert clip_segment_to_box(seg(1, 1, 2, 2), self.BOX) is None

    @given(*(finite,) * 4)
    @settings(max_examples=300)
    def test_contained_in_both(self, x1, y1, x2, y2):
        if (x1, y1) == (x2, y2):
            return
        s = seg(x1, y1, x2, y2)
        c = clip_segment_to_box(s, self.BOX)
        if c is None:
            return
        tol = 1e-7
        for p in (c.a, c.b):
            assert -tol <= p.x <= 1 + tol and -tol <= p.y <= 1 + tol
            assert point_segment_distance(p, s) <= tol * max(
                1.0, abs(x1), abs(y1), abs(x2), abs(y2)
            )


class TestClipPieces:
    """The one builder of clipped pieces, behind the box clip and both
    annulus stages."""

    SEGS = np.array([[0.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 3.0], [0.0, 0.0, 1.0, 1.0]])

    def test_pieces_and_keep(self):
        keep, pieces = clip_pieces(
            self.SEGS, np.array([0.25, 0.5, 0.3]), np.array([0.75, 0.5, 0.2]), 1e-9
        )
        # an empty interval and a reversed one give no piece
        assert keep.tolist() == [True, False, False]
        assert pieces.tolist() == [[0.5, 0.0, 1.5, 0.0]]

    def test_drops_pieces_no_longer_than_eps(self):
        t0 = np.zeros(3)
        t1 = np.full(3, 0.25)  # piece lengths 0.5, 0.5 and 0.354
        keep, pieces = clip_pieces(self.SEGS, t0, t1, 0.5)
        assert not keep.any() and pieces.shape == (0, 4)
        keep, _ = clip_pieces(self.SEGS, t0, t1, 0.4)
        assert keep.tolist() == [True, True, False]

    def test_box_clip_drops_parallel_outside(self):
        # parallel to a side and outside it, but long enough inside the
        # other axis' slab: the t1 = 0 of that side drops it
        segs = np.array([[-0.5, 2.0, 1.5, 2.0], [2.0, -0.5, 2.0, 1.5],
                         [-0.5, 0.5, 1.5, 0.5], [0.5, -1e-12, 0.5, 2.0]])
        keep, out = batch_clip_to_box(segs, Box(Point(0, 0), Point(1, 1)))
        assert keep.tolist() == [False, False, True, True]
        assert out.tolist() == [[0.0, 0.5, 1.0, 0.5], [0.5, 0.0, 0.5, 1.0]]


class TestEmptyInputs:
    """The general kernels on empty input, with the values and dtypes of
    their former early returns."""

    E = np.empty(0, dtype=np.int64)

    @pytest.mark.parametrize("n", [0, 1])
    def test_candidate_pairs(self, n):
        segs = np.array([[0.0, 0.0, 1.0, 1.0]])[:n]
        I, J = candidate_pairs(segs, 1e-9)
        for a in (I, J):
            assert a.shape == (0,) and a.dtype == np.int64

    @pytest.mark.parametrize("n", [0, 2])
    def test_batch_pair_intersections(self, n):
        segs = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]])[:n]
        hits, px, py, overlap = batch_pair_intersections(segs, self.E, self.E, 1e-9)
        for a, dtype in ((hits, bool), (px, float), (py, float), (overlap, bool)):
            assert a.shape == (0,) and a.dtype == dtype

    @pytest.mark.parametrize("lengths", [[], [0, 0, 0]])
    def test_concat_ranges(self, lengths):
        out = _concat_ranges(np.array(lengths, dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_one_vertex_polyline_length(self):
        length = Polyline([(0.5, 0.5)]).length()
        assert length == 0.0 and type(length) is float


class TestCandidatePairsGrid:
    """The grid broad phase (more than 200 segments) against all pairs."""

    @staticmethod
    def touching_segments():
        """Pieces of lines that meet at ends or along a line: collinear
        overlaps, end-to-end touches, shared endpoints and equal-y horizontal
        pairs, among their own random crossings."""
        rng = np.random.default_rng(4)
        k = 60
        p = rng.uniform(-2, 2, (k, 2))
        r = rng.uniform(-0.5, 0.5, (k, 2))

        def along(t0, t1):
            return np.hstack([p + t0 * r, p + t1 * r])

        y = rng.uniform(-2, 2, k)
        x = np.sort(rng.uniform(-2, 2, (k, 3)), axis=1)
        return np.vstack([
            along(0, 1), along(1, 2), along(0.5, 1.5), along(2.5, 3),
            np.hstack([p, p + rng.uniform(-0.5, 0.5, (k, 2))]),  # shares along(0, 1)'s start
            np.column_stack([x[:, 0], y, x[:, 1], y]),
            np.column_stack([x[:, 1], y, x[:, 2], y]),
            np.column_stack([x[:, 0], y, x[:, 2], y]),
        ])

    @staticmethod
    def segments(seed):
        if seed == "touching":
            return TestCandidatePairsGrid.touching_segments()
        cfg = sample_configuration(
            SoupParams(0.15, 2.0), DiskWindow(Point(0, 0), 2.0), 0.05, seed
        )
        rng = np.random.default_rng(seed)
        k = 40
        x = rng.uniform(-2, 2, size=(k, 2))
        y = rng.uniform(-2, 2, size=k)
        horizontal = np.column_stack([x.min(axis=1), y, x.max(axis=1), y])
        # vertical sticks starting exactly on a horizontal one (T-junctions)
        mid = x.mean(axis=1)
        t_junction = np.column_stack([mid, y, mid, y + rng.uniform(0.05, 1.0, k)])
        vertical = np.column_stack([y, x.min(axis=1), y, x.max(axis=1)])
        long_sticks = sticks_to_segments(np.column_stack([
            rng.uniform(-1, 1, size=(k, 2)),
            rng.uniform(10, 100, k),
            rng.uniform(-math.pi / 2, math.pi / 2, k),
        ]))
        return np.vstack([
            sticks_to_segments(cfg.stick_data),
            horizontal, t_junction, vertical, long_sticks,
        ])

    @pytest.mark.parametrize("seed", [1, 2, 3, "touching"])
    def test_unique_ordered_superset_of_hits(self, seed):
        segs = self.segments(seed)
        n = len(segs)
        assert n > 200
        eps = REL_EPS * max(1.0, float(np.abs(segs).max()))
        I, J = candidate_pairs(segs, eps)
        assert np.all(I < J)
        keys = I * n + J
        assert len(np.unique(keys)) == len(keys)
        AI, AJ = np.triu_indices(n, 1)
        hits = batch_pair_intersections(segs, AI, AJ, eps)[0]
        true_keys = AI[hits] * n + AJ[hits]
        assert len(true_keys) > n
        assert np.all(np.isin(true_keys, keys))


def aw_supercover_cells(segs, cell, x0, y0):
    """Grid cells traversed by each segment (Amanatides-Woo, lockstep): the
    walk the broad phase used before its cells were padded by the tolerance.

    Returns (ix, iy, ids): int64 cell column and row, and the owning segment
    index, one entry per (cell, segment).
    """
    n = len(segs)
    x1 = (segs[:, 0] - x0) / cell
    y1 = (segs[:, 1] - y0) / cell
    x2 = (segs[:, 2] - x0) / cell
    y2 = (segs[:, 3] - y0) / cell
    ix = np.floor(x1).astype(np.int64)
    iy = np.floor(y1).astype(np.int64)
    jx = np.floor(x2).astype(np.int64)
    jy = np.floor(y2).astype(np.int64)
    dx = x2 - x1
    dy = y2 - y1
    stepx = np.sign(dx).astype(np.int64)
    stepy = np.sign(dy).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_dx = np.where(dx != 0, 1.0 / np.where(dx != 0, dx, 1.0), np.inf)
        inv_dy = np.where(dy != 0, 1.0 / np.where(dy != 0, dy, 1.0), np.inf)
        tmaxx = np.where(
            dx != 0, (ix + (stepx > 0).astype(float) - x1) * inv_dx, np.inf
        )
        tmaxy = np.where(
            dy != 0, (iy + (stepy > 0).astype(float) - y1) * inv_dy, np.inf
        )
    tdx = np.abs(inv_dx)
    tdy = np.abs(inv_dy)
    ids_parts, ix_parts, iy_parts = [], [], []
    active = np.ones(n, dtype=bool)
    max_steps = int(np.max(np.abs(jx - ix) + np.abs(jy - iy))) + 1
    for _ in range(max_steps + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ix_parts.append(ix[idx])
        iy_parts.append(iy[idx])
        ids_parts.append(idx)
        done = (ix[idx] == jx[idx]) & (iy[idx] == jy[idx])
        active[idx[done]] = False
        go = idx[~done]
        if go.size == 0:
            break
        move_x = tmaxx[go] <= tmaxy[go]
        gx = go[move_x]
        gy = go[~move_x]
        ix[gx] += stepx[gx]
        tmaxx[gx] += tdx[gx]
        iy[gy] += stepy[gy]
        tmaxy[gy] += tdy[gy]
    return (np.concatenate(ix_parts), np.concatenate(iy_parts),
            np.concatenate(ids_parts))


def lexsort_candidate_pairs(segs):
    """The broad phase before the padded grid: the Amanatides-Woo walk over
    unpadded cells and an np.lexsort of (cell key, id).  The reference whose
    hits the padded grid must reproduce."""
    n = len(segs)
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if n <= 200:
        return np.triu_indices(n, k=1)
    lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
    span = max(
        segs[:, [0, 2]].max() - segs[:, [0, 2]].min(),
        segs[:, [1, 3]].max() - segs[:, [1, 3]].min(),
        1e-12,
    )
    cell = float(np.median(lengths))
    cell = min(max(cell, span / 4096.0), span / 4.0)
    x0 = float(min(segs[:, 0].min(), segs[:, 2].min()))
    y0 = float(min(segs[:, 1].min(), segs[:, 3].min()))
    ix, iy, ids = aw_supercover_cells(segs, cell, x0, y0)
    keys = ix * (np.int64(1) << 31) + iy
    order = np.lexsort((ids, keys))
    k = keys[order]
    v = ids[order]
    new_group = np.r_[True, k[1:] != k[:-1]]
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.r_[starts, len(k)])
    grp = np.repeat(np.arange(len(counts)), counts)
    within = np.arange(len(k), dtype=np.int64) - starts[grp]
    j_side = np.repeat(np.arange(len(k), dtype=np.int64), within)
    i_side = np.repeat(starts[grp], within) + _concat_ranges(within)
    raw_i = v[i_side]
    raw_j = v[j_side]
    lo = np.minimum(raw_i, raw_j)
    hi = np.maximum(raw_i, raw_j)
    uniq = _sorted_unique(lo * np.int64(n) + hi)
    return uniq // n, uniq % n


def extent_tol(segs):
    return REL_EPS * max(1.0, float(np.abs(segs).max(initial=0.0)))


class TestCandidatePairsMatchLexsort:
    """The padded grid against the lexsort broad phase on the pieces
    production clusters and on grids at the cell-size bounds: a superset of
    its pairs, and the same narrow-phase output over the hits, bit for bit."""

    @staticmethod
    def check(segs, eps):
        I, J = candidate_pairs(segs, eps)
        RI, RJ = lexsort_candidate_pairs(segs)
        assert I.dtype == RI.dtype and J.dtype == RJ.dtype
        n = len(segs)
        assert np.all(np.isin(RI * n + RJ, I * n + J))

        def narrow(I, J):
            hits, px, py, overlap = batch_pair_intersections(segs, I, J, eps)
            return I[hits], J[hits], px[hits], py[hits], overlap[hits]

        got, ref = narrow(I, J), narrow(RI, RJ)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        return len(got[0])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_annulus_pieces(self, m):
        ann = Annulus(Point(0, 0), 1.0, 2.0 ** m)
        for i in range(3):
            cfg = sample_configuration(
                SoupParams(0.15, 2.0), DiskWindow(Point(0, 0), 2.0 ** m), 0.05,
                derive_seed(12, m, i),
            )
            pieces, _, _ = _clip_to_region(cfg.segments(), ann)
            assert len(pieces) > 200
            assert self.check(pieces, region_tol(ann)) > len(pieces) / 2

    def test_h1_box_pieces(self):
        box = Box(Point(-8, -8), Point(8, 8))
        for i in range(2):
            cfg = sample_configuration(
                SoupParams(0.2, 2.0), DiskWindow(Point(0, 0), 8 * math.sqrt(2)), 0.1,
                derive_seed(13, i),
            )
            _, pieces = batch_clip_to_box(cfg.segments(), box)
            assert self.check(pieces, region_tol(box)) > len(pieces) / 2 > 100

    def test_touching(self):
        segs = TestCandidatePairsGrid.touching_segments()
        assert self.check(segs, extent_tol(segs)) > len(segs) > 200

    @pytest.mark.parametrize("n", [0, 1, 2, 200])
    def test_all_pairs(self, n):
        segs = np.random.default_rng(n).uniform(-1, 1, (n, 4))
        I, _ = candidate_pairs(segs, extent_tol(segs))
        assert len(I) == n * (n - 1) // 2
        self.check(segs, extent_tol(segs))

    def test_one_long_piece_sets_the_finest_cell(self):
        # short pieces in [0, 1]^2 and one piece 1000 long: the median length
        # is far below span/4096, so the grid is 4096 cells a side and the
        # long piece crosses thousands of them
        rng = np.random.default_rng(14)
        start = rng.uniform(0, 1, (3000, 2))
        step = rng.uniform(-1e-3, 1e-3, (3000, 2))
        step[:300, 0] = 0.0  # vertical
        step[300:600, 1] = 0.0  # horizontal
        segs = np.vstack([np.hstack([start, start + step]), [[0.5, 0.5, 1000.0, 700.0]]])
        lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
        assert np.median(lengths) < 1000.0 / 4096
        eps = extent_tol(segs)
        _, J = candidate_pairs(segs, eps)
        assert np.any(J == len(segs) - 1)
        assert self.check(segs, eps) > 0

    def test_pair_across_a_cell_line(self):
        # 300 unit pieces set a grid of unit cells from (0, 0); a horizontal
        # piece ends 0.4 eps left of the line x = 20 and a vertical one runs
        # 0.4 eps right of it.  The narrow phase joins them; only a grid whose
        # cells are padded by eps lists them in one cell, as the all-pairs
        # path for 200 pieces or fewer does.
        rng = np.random.default_rng(15)
        corner = rng.uniform(0, 39, (400, 2))
        corner = corner[(np.abs(corner - 20) > 2).any(axis=1)][:298]
        filler = np.vstack([
            np.hstack([corner, corner + [1.0, 0.0]]),
            [[0.0, 0.0, 1.0, 0.0], [39.0, 40.0, 40.0, 40.0]],
        ])
        eps = extent_tol(filler)
        pair = np.array([
            [19.5, 20.5, 20.0 - 0.4 * eps, 20.5],
            [20.0 + 0.4 * eps, 20.2, 20.0 + 0.4 * eps, 20.8],
        ])
        segs = np.vstack([filler, pair])
        n = len(segs)
        assert n == 302 and extent_tol(segs) == eps
        a, b = np.array([n - 2]), np.array([n - 1])
        assert batch_pair_intersections(segs, a, b, eps)[0][0]
        RI, RJ = lexsort_candidate_pairs(segs)
        assert not np.any((RI == n - 2) & (RJ == n - 1))
        I, J = candidate_pairs(segs, eps)
        assert np.any((I == n - 2) & (J == n - 1))
        assert len(candidate_pairs(pair, eps)[0]) == 1


def whole_array_cell_table(segs, eps):
    """``_cell_table`` in one pass over all segments, as before it worked in
    blocks: the reference whose cells, counts and keys it must equal."""
    n = len(segs)
    dx, dy = segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]
    lengths = np.sqrt(dx * dx + dy * dy)   # the kernels' norm, not hypot
    span = max(
        segs[:, [0, 2]].max() - segs[:, [0, 2]].min(),
        segs[:, [1, 3]].max() - segs[:, [1, 3]].min(),
        1e-12,
    )
    cell = min(max(float(np.median(lengths)), span / 4096.0), span / 4.0)
    x0 = float(min(segs[:, 0].min(), segs[:, 2].min()))
    y0 = float(min(segs[:, 1].min(), segs[:, 3].min()))
    pad = eps / cell
    swap = segs[:, 2] < segs[:, 0]
    xa = (np.where(swap, segs[:, 2], segs[:, 0]) - x0) / cell
    ya = (np.where(swap, segs[:, 3], segs[:, 1]) - y0) / cell
    xb = (np.where(swap, segs[:, 0], segs[:, 2]) - x0) / cell
    yb = (np.where(swap, segs[:, 1], segs[:, 3]) - y0) / cell
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
    ny = int((r0 + nrow).max() - r0.min())
    base = (col - col.min()) * ny + (r0 - r0.min()) - (np.cumsum(nrow) - nrow)
    ent = np.repeat(np.arange(len(col)), nrow)
    cells = base[ent] + np.arange(len(ent), dtype=np.int64)
    ids = seg[ent]
    count = np.bincount(ids, minlength=n).astype(np.int64)
    return cells, count, np.sort(cells * np.int64(n) + ids)


class TestCellTableBlocks:
    """The grid built in blocks of segments against the whole-array
    reference, bit for bit, on either side of the block seams."""

    @staticmethod
    def check(segs, eps):
        got, ref = _cell_table(segs, eps), whole_array_cell_table(segs, eps)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.fixture(scope="class")
    def arm_pieces(self):
        ann = Annulus(Point(0, 0), 1.0, 16.0)
        cfg = sample_configuration(
            SoupParams(0.15, 2.0), DiskWindow(Point(0, 0), 16.0), 0.05, derive_seed(23, 1)
        )
        pieces, _, _ = _clip_to_region(cfg.segments(), ann)
        assert len(pieces) > 3 * geometry._GRID_BLOCK
        return pieces, region_tol(ann)

    @pytest.mark.parametrize("seam", [0, 1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_prefixes_at_block_seams(self, arm_pieces, seam, offset):
        pieces, eps = arm_pieces
        n = max(201, seam * geometry._GRID_BLOCK + offset)
        self.check(pieces[:n], eps)

    @pytest.mark.parametrize("order", ["sampled", "by_y", "by_x_descending"])
    def test_whole_soup(self, arm_pieces, order):
        # sorted, the blocks cover different bands of the grid, so the
        # grid's extent must come from all of them
        pieces, eps = arm_pieces
        key = {"sampled": None, "by_y": pieces[:, 1], "by_x_descending": -pieces[:, 0]}[order]
        self.check(pieces if key is None else pieces[np.argsort(key)], eps)

    def test_vertical_and_point_segments(self):
        # flat columns (dx == 0) and zero-length segments in every block
        rng = np.random.default_rng(23)
        n = 2 * geometry._GRID_BLOCK + 7
        x, y = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
        h = np.where(np.arange(n) % 3 == 0, 0.0, rng.uniform(0, 0.5, n))
        self.check(np.column_stack([x, y, x, y + h]), 1e-9)


def structured_pairs(rng, n):
    """n pairs of segments (a, b) in [-1, 1]^2: generic pairs, shared
    endpoints and ones 0.5 REL_EPS apart, T-junctions, collinear pairs
    (overlapping, touching end to end or apart) and equal-y horizontal pairs.
    Drawn in [-8, 8]^2 and scaled by 1/8, which is exact."""
    a = rng.uniform(-1, 1, (n, 4))
    b = rng.uniform(-1, 1, (n, 4))
    kind = rng.integers(0, 7, n)
    p, r = a[:, :2], a[:, 2:] - a[:, :2]
    t = rng.choice([-0.5, 0.0, 0.3, 1.0, 1.5], (n, 2))
    t[:, 1] += rng.uniform(0.1, 1.0, n) * (kind == 3)
    on_line = np.hstack([p + t[:, :1] * r, p + t[:, 1:] * r])
    b[kind == 1, :2] = a[kind == 1, 2:]                              # shared endpoint
    tee = kind == 2                                                  # T-junction
    b[tee, :2] = p[tee] + rng.uniform(0, 1, (tee.sum(), 1)) * r[tee]
    col = (kind == 3) | (kind == 4)                                  # collinear
    b[col] = on_line[col]
    flat = kind == 5                                                 # equal y
    a[flat, 3] = a[flat, 1]
    b[flat, 1] = b[flat, 3] = a[flat, 1]
    near = kind == 6                                                 # near endpoint
    th = rng.uniform(0, 2 * math.pi, near.sum())
    b[near, :2] = a[near, 2:] + 4 * REL_EPS * np.column_stack([np.cos(th), np.sin(th)])
    return a / 8, b / 8


class TestKernelsMatchScalar:
    """The vectorized kernels that production uses against the scalar ones,
    bit for bit."""

    @staticmethod
    def check_pairs(segs, I, J, eps):
        hits, px, py, overlap = batch_pair_intersections(segs, I, J, eps)
        for k, (i, j) in enumerate(zip(I, J)):
            p, over = segment_intersection(seg(*segs[i]), seg(*segs[j]))
            assert (bool(hits[k]), bool(overlap[k])) == (p is not None or over, over)
            if p is not None:
                assert (px[k], py[k]) == (p.x, p.y)

    def test_pair_intersections(self):
        rng = np.random.default_rng(11)
        a, b = structured_pairs(rng, 6000)
        n = len(a)
        segs = np.vstack([a, b])
        lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
        keep = np.flatnonzero((lengths[:n] > REL_EPS) & (lengths[n:] > REL_EPS))
        # every coordinate lies in [-1, 1], so each pair's tolerance is REL_EPS
        assert np.abs(segs).max() <= 1
        I, J = keep, keep + n
        self.check_pairs(segs, I, J, REL_EPS)
        hits, _, _, overlap = batch_pair_intersections(segs, I, J, REL_EPS)
        assert 1000 < hits.sum() < len(keep) and overlap.sum() > 100

    def test_pair_intersections_scaled(self):
        rng = np.random.default_rng(12)
        a, b = structured_pairs(rng, 400)
        for k, scale in enumerate(rng.choice([3.0, 8.0, 1e3], len(a))):
            segs = scale * np.vstack([a[k], b[k]])
            eps = REL_EPS * max(1.0, float(np.abs(segs).max()))
            if np.all(np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]) > eps):
                self.check_pairs(segs, np.array([0]), np.array([1]), eps)

    @pytest.mark.parametrize("box", [
        Box(Point(0, 0), Point(1, 1)),
        Box(Point(-8, -8), Point(8, 8)),
        Box(Point(-2.5, 0.25), Point(1.5, 3.0)),
    ], ids=["unit", "h1", "offset"])
    def test_clip_to_box(self, box):
        rng = np.random.default_rng(13)
        n = 20000
        lo = np.array([box.min.x, box.min.y] * 2)
        span = np.array([box.width(), box.height()] * 2)
        segs = lo - span / 2 + 2 * span * rng.uniform(0, 1, (n, 4))
        # sides, corners and lines along the sides, on and just off them
        xs = np.array([box.min.x, box.max.x])
        ys = np.array([box.min.y, box.max.y])
        off = rng.choice([0.0, 0.0, 1e-10, -1e-10, 1e-6], (n, 4)) * max(box.diagonal(), 1)
        snap = rng.integers(0, 5, (n, 4))
        for c, ends in ((0, xs), (1, ys), (2, xs), (3, ys)):
            on = snap[:, c] < 2
            segs[on, c] = ends[snap[on, c]] + off[on, c]
        vertical = rng.uniform(0, 1, n) < 0.1
        segs[vertical, 2] = segs[vertical, 0]
        segs = segs[np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]) > 0]
        keep, clipped = batch_clip_to_box(segs, box)
        assert 0 < keep.sum() < len(segs)
        rows = iter(clipped)
        for s, kept in zip(segs, keep):
            c = clip_segment_to_box(seg(*s), box)
            assert (c is not None) == kept
            if kept:
                assert tuple(next(rows)) == (c.a.x, c.a.y, c.b.x, c.b.y)


def scipy_components(n, i, j):
    """The oracle: scipy's connected components of the same edge list."""
    return connected_components(
        coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)), directed=False
    )


def edges(pairs):
    a = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return a[:, 0], a[:, 1]


class TestComponentsMatchScipy:
    """The numpy union-find against scipy: count, labels and label dtype."""

    @staticmethod
    def check(n, i, j):
        count, labels = components(n, i, j)
        want_count, want_labels = scipy_components(n, i, j)
        assert count == want_count and isinstance(count, int)
        assert labels.dtype == want_labels.dtype
        np.testing.assert_array_equal(labels, want_labels)

    @pytest.mark.parametrize("n, pairs", [
        (0, []),
        (1, []),
        (5, []),
        (4, [(2, 2), (0, 0)]),
        (4, [(1, 3), (3, 1), (1, 3), (2, 2)]),
        (7, [(5, 2), (6, 2)]),
        (9, [(4, k) for k in range(9)]),
        (9, [(0, k) for k in range(1, 9, 2)]),
        (6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]),
    ], ids=["n=0", "single", "no-edges", "self-loops", "duplicates", "isolated",
            "star", "star-at-0", "reversed-chain"])
    def test_small(self, n, pairs):
        self.check(n, *edges(pairs))

    def test_permuted_chains(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 17, 1000, 20000):
            p = rng.permutation(n)
            self.check(n, p[:-1], p[1:])
            cut = rng.random(n - 1) < 0.9  # a few chains at once
            self.check(n, p[1:][cut], p[:-1][cut])

    def test_random_graphs(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            m = int(rng.integers(0, 2 * n))
            self.check(n, rng.integers(0, n, m), rng.integers(0, n, m))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_h1_hit_graphs(self, seed):
        """The graph that build_arrangement clusters: the box sides and the
        sticks of an h1 scan soup on [-8, 8]^2, joined where they meet."""
        box = Box(Point(-8, -8), Point(8, 8))
        window = DiskWindow(Point(0, 0), 8 * math.sqrt(2))
        cfg = sample_configuration(SoupParams(0.2, 2.0), window, 0.1, seed)
        _, clipped = batch_clip_to_box(cfg.segments(), box)
        segs = np.vstack([
            [[-8, -8, 8, -8], [8, -8, 8, 8], [-8, 8, 8, 8], [-8, -8, -8, 8]], clipped,
        ])
        eps = region_tol(box)
        I, J = candidate_pairs(segs, eps)
        hits = batch_pair_intersections(segs, I, J, eps)[0]
        assert len(segs) > 3000 and hits.sum() > 3000
        self.check(len(segs), I[hits], J[hits])


class TestLexsort2:
    @staticmethod
    def check(minor, major):
        minor = np.asarray(minor, dtype=float)
        major = np.asarray(major, dtype=np.int64)
        np.testing.assert_array_equal(_lexsort2(minor, major), np.lexsort((minor, major)))

    @pytest.mark.parametrize("minor, major", [
        ([], []),
        ([0.5], [3]),
        ([0.0, -0.0, 0.0, -0.0], [0, 0, 0, 0]),
        ([-0.0, 1.0, 0.0, -0.0, 1.0], [1, 0, 1, 0, 0]),
        ([2.0, 2.0, 2.0], [2, 1, 2]),
    ], ids=["empty", "n=1", "signed-zeros", "signed-zeros-two-keys", "all-equal"])
    def test_small(self, minor, major):
        self.check(minor, major)

    def test_ties(self):
        rng = np.random.default_rng(23)
        values = np.array([-math.pi, -1.0, -0.0, 0.0, 0.25, 1.0, math.pi])
        for _ in range(200):
            n = int(rng.integers(0, 80))
            self.check(rng.choice(values, n), rng.integers(0, 6, n))
        n = 20000  # the rotation's shape: many wheels, few tied angles
        minor = np.round(rng.uniform(-math.pi, math.pi, n), 3)
        self.check(minor, rng.integers(0, n // 4, n))


# Reference norms: the formulas the batch kernels used before _norm, with
# np.hypot (one libm call per element).


def hypot_radial_interval(segs, cx, cy):
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


def use_hypot_norms(monkeypatch):
    """Run the batch kernels on the reference norms for the rest of the test."""
    monkeypatch.setattr(geometry, "_norm", np.hypot)
    monkeypatch.setattr(events, "radial_interval", hypot_radial_interval)


def within_one_ulp(got, ref):
    return np.all(np.abs(got - ref) <= np.spacing(ref))


# (params, window radius, r_min, region) of the three benchmark workloads'
# soups: `verify` (invasion, ~52k sticks), `arm` (~49k) and `h1` (~8.2k).
# `verify` clusters nothing; its region is the `arm` annulus, which keeps
# the pair tests few on these dense soups
WORKLOAD_SOUPS = {
    "verify": (SoupParams(1.0, 2.0), 64.0, 0.5, Annulus(Point(0, 0), 1.0, 16.0)),
    "arm": (SoupParams(0.15, 2.0), 16.0, 0.05, Annulus(Point(0, 0), 1.0, 16.0)),
    "h1": (SoupParams(0.2, 2.0), 8.0 * math.sqrt(2.0), 0.1, Box(Point(-8, -8), Point(8, 8))),
}


class TestNormMatchesHypot:
    def test_norm_within_one_ulp(self):
        rng = np.random.default_rng(31)
        n = 400_000
        # squares stay clear of overflow and of the subnormals
        x = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-100, 100, n)
        # the other component at ratios 1e-8 .. 1e8 of the first
        y = x * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
        for a, b in ((x, y), (y, x), (x, x), (rng.normal(size=n), rng.normal(size=n))):
            assert within_one_ulp(geometry._norm(a, b), np.hypot(a, b))
        assert geometry._norm(0.0, 0.0) == 0.0
        assert geometry._norm(np.zeros(3), -np.zeros(3)).tolist() == [0.0] * 3

    @pytest.mark.parametrize("size", sorted(WORKLOAD_SOUPS))
    def test_radial_interval_within_one_ulp(self, size):
        params, radius, r_min, _ = WORKLOAD_SOUPS[size]
        window = DiskWindow(Point(0, 0), radius)
        for s in range(3):
            segs = sample_configuration(params, window, r_min, 700 + s).segments()
            for cx, cy in ((0.0, 0.0), (0.3, -1.7)):
                for got, ref in zip(geometry.radial_interval(segs, cx, cy),
                                    hypot_radial_interval(segs, cx, cy)):
                    assert within_one_ulp(got, ref)

    @staticmethod
    def decisions(segs, region):
        """The threshold decisions that read the kernels' norms."""
        _, _, lo = events._lowest_annulus_indices(segs, 0.0, 0.0)
        pieces, owners, touch = _clip_to_region(segs, region)
        tol = region_tol(region)
        I, J = candidate_pairs(pieces, tol)
        hits, px, py, overlap = batch_pair_intersections(pieces, I, J, tol)
        return [lo, owners, pieces, *touch.values(), I[hits], J[hits], px[hits],
                py[hits], overlap[hits]]

    @pytest.mark.parametrize("size", sorted(WORKLOAD_SOUPS))
    def test_decisions_match_on_workload_soups(self, monkeypatch, size):
        params, radius, r_min, region = WORKLOAD_SOUPS[size]
        window = DiskWindow(Point(0, 0), radius)
        soups = [sample_configuration(params, window, r_min, 800 + s).segments()
                 for s in range(10)]
        got = [self.decisions(segs, region) for segs in soups]
        use_hypot_norms(monkeypatch)
        for segs, mine in zip(soups, got):
            for a, b in zip(mine, self.decisions(segs, region)):
                np.testing.assert_array_equal(a, b)
