import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sticksoup.geometry import (
    REL_EPS,
    Annulus,
    Box,
    GeometryError,
    Point,
    Polyline,
    Segment,
    Stick,
    batch_pair_intersections,
    candidate_pairs,
    clip_segment_to_box,
    point_segment_distance,
    segment_circle_intersections,
    segment_intersection,
    stick_to_segment,
    sticks_to_segments,
)
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


class TestCandidatePairsGrid:
    """The grid broad phase (more than 200 segments) against all pairs."""

    @staticmethod
    def segments(seed):
        cfg = sample_configuration(
            SoupParams(0.15, 2.0, 0), DiskWindow(Point(0, 0), 2.0), 0.05, seed
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unique_ordered_superset_of_hits(self, seed):
        segs = self.segments(seed)
        n = len(segs)
        assert n > 200
        I, J = candidate_pairs(segs)
        assert np.all(I < J)
        keys = I * n + J
        assert len(np.unique(keys)) == len(keys)
        AI, AJ = np.triu_indices(n, 1)
        eps = REL_EPS * max(1.0, float(np.abs(segs).max()))
        hits = batch_pair_intersections(segs, AI, AJ, eps)[0]
        true_keys = AI[hits] * n + AJ[hits]
        assert len(true_keys) > n
        assert np.all(np.isin(true_keys, keys))
