import math

import numpy as np
import pytest

from sticksoup.events import (
    _clip_to_region,
    _flood,
    _piece_clusters,
    arm_event,
    arm_reach,
    covered_components,
    double_circle_crossers,
    double_intersection_count,
    invasion_sequence,
    lr1_event,
    y_statistic,
)
from sticksoup.geometry import (
    Annulus,
    Box,
    Point,
    Segment,
    Stick,
    radial_interval,
    region_tol,
    segment_intersection,
    stick_to_segment,
    sticks_to_segments,
)
from sticksoup.seeds import derive_seed
from sticksoup.soup import (
    Configuration,
    DiskWindow,
    SoupParams,
    apply_homothety,
    restrict_configuration,
    sample_configuration,
)

PARAMS = SoupParams(1.0, 2.0)


def cfg_from(rows, window_radius=8.0, r_min=0.01, center=(0.0, 0.0)):
    return Configuration(
        PARAMS,
        DiskWindow(Point(*center), window_radius),
        r_min,
        0,
        np.asarray(rows, dtype=float).reshape(-1, 4),
    )


class TestCoveredComponents:
    BOX = Box(Point(0, 0), Point(1, 1))

    def test_two_crossing_sticks_one_cluster(self):
        sticks = [Stick(Point(0.5, 0.5), 0.2, 0.3), Stick(Point(0.5, 0.5), 0.2, -0.8)]
        part = covered_components(sticks, self.BOX)
        assert part.n_clusters == 1
        assert part.cluster_of(0) == part.cluster_of(1)

    def test_two_disjoint_sticks_two_clusters(self):
        sticks = [Stick(Point(0.2, 0.2), 0.05, 0.0), Stick(Point(0.8, 0.8), 0.05, 0.0)]
        part = covered_components(sticks, self.BOX)
        assert part.n_clusters == 2
        assert part.cluster_of(0) != part.cluster_of(1)

    def test_empty_partition(self):
        part = covered_components([], self.BOX)
        assert part.n_clusters == 0 and part.stick_indices == []

    def test_boundary_touch_flags(self):
        sticks = [Stick(Point(0.5, 0.5), 0.7, math.pi / 2)]  # spans bottom to top
        part = covered_components(sticks, self.BOX)
        assert part.touches[0] >= {"bottom", "top"}

    def test_chain_outside_region_does_not_connect(self):
        # two sticks crossing each other outside the annulus stay separate
        ann = Annulus(Point(0, 0), 1.0, 2.0)
        sticks = [
            Stick(Point(1.2, 0.02), 0.7, 0.05),
            Stick(Point(1.2, -0.02), 0.7, -0.05),
        ]
        # their unique crossing lies near (0.77, 0) + ... push it inside B(1)
        sticks = [
            Stick(Point(0.9, 0.3), 0.7, 0.3),
            Stick(Point(0.9, -0.3), 0.7, -0.3),
        ]
        part = covered_components(sticks, ann)
        # both clips are in the annulus, crossing at ~(0.23, 0) inside the hole
        assert part.n_clusters == 2

    def test_clusters_touch_different_circles(self):
        ann = Annulus(Point(0, 0), 1.0, 4.0)
        sticks = [
            Stick(Point(1.25, 0.0), 0.75, 0.0),          # radii 0.5 .. 2
            Stick(Point(0.0, 4.0), 1.0, math.pi / 2),    # radii 3 .. 5
            Stick(Point(-2.0, -2.0), 0.3, 0.4),          # inside, no circle
            Stick(Point(-2.5, 0.0), 2.0, 0.0),           # radii 0.5 .. 4.5
        ]
        part = covered_components(sticks, ann)
        assert part.n_clusters == 4
        touched = [part.touches[part.cluster_of(i)] for i in range(4)]
        assert touched == [
            {"inner"}, {"outer"}, frozenset(), {"inner", "outer"}
        ]
        part = covered_components(sticks[:3], ann)
        assert not part.any_cluster_touching("inner", "outer")


class TestAnnulusClip:
    """Clipping to a closed annulus: one piece per stick that meets it, two
    for a stick whose interior crosses the open hole, never a repeated row."""

    ANN = Annulus(Point(0, 0), 1.0, 2.0)

    @staticmethod
    def expected_pieces(segs, ann):
        cx, cy = ann.center.x, ann.center.y
        dmin, dmax = radial_interval(segs, cx, cy)
        ends_out = np.minimum(
            np.hypot(segs[:, 0] - cx, segs[:, 1] - cy),
            np.hypot(segs[:, 2] - cx, segs[:, 3] - cy),
        ) > ann.inner
        meets = (dmin <= ann.outer) & (dmax >= ann.inner)
        return meets.astype(int) + (meets & (dmin < ann.inner) & ends_out)

    def check(self, segs, ann, expected):
        pieces, owners, _ = _clip_to_region(segs, ann)
        assert np.bincount(owners, minlength=len(segs)).tolist() == list(expected)
        assert len(np.unique(pieces, axis=0)) == len(pieces)

    def test_hand_built(self):
        segs = sticks_to_segments(np.array([
            [0.0, 0.0, 1.5, 0.0],          # crosses the hole
            [0.0, 0.2, 3.0, 0.1],          # crosses the hole and both circles
            [1.5, 0.0, 0.2, math.pi / 2],  # inside the annulus
            [1.25, 0.0, 1.0, 0.0],         # from the hole to outside
            [0.0, 0.0, 0.5, 0.3],          # inside the hole
            [3.0, 3.0, 0.5, 0.0],          # outside the outer circle
            [0.0, 1.5, 3.0, 0.0],          # chord missing the hole
        ]))
        expected = [2, 2, 1, 1, 0, 0, 1]
        assert self.expected_pieces(segs, self.ANN).tolist() == expected
        self.check(segs, self.ANN, expected)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_seeded_soup(self, seed):
        cfg = sample_configuration(
            SoupParams(0.3, 2.0), DiskWindow(Point(0, 0), 2.0), 0.05, seed
        )
        ann = Annulus(Point(0, 0), 0.25, 2.0)
        segs = cfg.segments()
        expected = self.expected_pieces(segs, ann)
        assert np.any(expected == 2) and np.any(expected == 1)
        self.check(segs, ann, expected)

    def test_hole_stub_below_tolerance_dropped(self):
        # the piece past the inner circle is 5e-9 long: below A(1, 16)'s
        # tolerance 16e-9, so it is dropped like any other sub-tolerance piece
        segs = np.array([[0.5, 0.0, 1.0 + 5e-9, 0.0]])
        pieces, owners, _ = _clip_to_region(segs, Annulus(Point(0, 0), 1.0, 16.0))
        assert len(pieces) == 0 and len(owners) == 0


class TestArmEvent:
    ANN = Annulus(Point(0, 0), 1.0, 2.0)

    def test_single_spanning_stick(self):
        c = cfg_from([[1.25, 0.0, 1.0, 0.0]])  # spans radii 0.25 .. 2.25
        assert arm_event(c, self.ANN)

    def test_empty_configuration(self):
        assert not arm_event(cfg_from([]), self.ANN)

    def test_chain_of_two(self):
        # each stick spans about half the gap; they cross near radius 1.41
        c = cfg_from([[1.2, 0.0, 0.33, 0.15], [1.62, 0.0, 0.45, -0.15]])
        assert arm_event(c, self.ANN)

    def test_two_short_disjoint_sticks_false(self):
        c = cfg_from([[1.2, 0.3, 0.2, 0.0], [1.7, -0.4, 0.2, 0.0]])
        assert not arm_event(c, self.ANN)

    def test_annulus_must_fit_window(self):
        c = cfg_from([], window_radius=1.5)
        with pytest.raises(ValueError):
            arm_event(c, self.ANN)

    def test_monotone_under_restriction(self):
        window = DiskWindow(Point(0, 0), 2.0)
        for i in range(25):
            fine = sample_configuration(SoupParams(0.4, 2.0), window, 0.05, 500 + i)
            prev = None
            for r in (0.05, 0.1, 0.2, 0.4):
                ind = arm_event(restrict_configuration(fine, r), self.ANN)
                if prev is not None:
                    assert ind <= prev
                prev = ind

    def test_exact_homothety_by_four(self):
        # at alpha = 2 the law is scale invariant; scaling by 4 is exact in
        # binary floating point, and so is every tolerance REL_EPS * max(scale, 1)
        # at scales of at least 1, so the event on A(1, 4) and on A(4, 16) must agree
        window = DiskWindow(Point(0, 0), 4.0)
        outcomes = []
        for i in range(40):
            c = sample_configuration(SoupParams(0.1, 2.0), window, 0.2, 500 + i)
            base = arm_event(c, Annulus(Point(0, 0), 1.0, 4.0))
            assert arm_event(apply_homothety(c, 4.0), Annulus(Point(0, 0), 4.0, 16.0)) == base
            outcomes.append(base)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_homothety_equivariance(self):
        window = DiskWindow(Point(0, 0), 2.0)
        for i in range(15):
            c = sample_configuration(SoupParams(0.4, 2.0), window, 0.08, 900 + i)
            base = arm_event(c, self.ANN)
            for ratio in (0.5, 3.0):
                scaled = apply_homothety(c, ratio)
                ann = Annulus(Point(0, 0), ratio * 1.0, ratio * 2.0)
                assert arm_event(scaled, ann) == base


def labelled_reach(c, ann):
    """arm_reach by full labelling: every cluster of the clipped pieces, then
    the largest piece dmax over the clusters touching the inner circle.

    Returns (reach, pieces, touch, reached): the reach, the pieces of the
    sticks meeting the annulus with their boundary flags, and per piece
    whether its cluster touches the inner circle.
    """
    cx, cy = ann.center.x, ann.center.y
    segs = c.segments()
    dmin, dmax = radial_interval(segs, cx, cy)
    cand = (dmin <= ann.outer) & (dmax >= ann.inner)
    pieces, touch, _, node, labels = _piece_clusters(segs[cand], ann)
    inner = np.zeros(len(labels), dtype=bool)
    inner[labels[node[touch["inner"]]]] = True
    reached = inner[labels[node]]
    reach = radial_interval(pieces[reached], cx, cy)[1].max() if np.any(reached) else -math.inf
    return float(reach), pieces, touch, reached


class TestArmReachFlood:
    """The flood from the inner circle against full labelling, bit for bit."""

    @staticmethod
    def check(c, ann):
        got = arm_reach(c, ann)
        want, pieces, touch, labelled = labelled_reach(c, ann)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # piece by piece, the flood reaches the labelled clusters' pieces
        seeds = np.flatnonzero(touch["inner"])
        if seeds.size:
            assert np.array_equal(_flood(pieces, seeds, region_tol(ann)), labelled)
        return got

    def test_hand_built(self):
        ann = Annulus(Point(0, 0), 1.0, 4.0)
        assert self.check(cfg_from([]), ann) == -math.inf
        # inside the annulus, touching neither circle; then inside the hole
        assert self.check(cfg_from([[2.0, 0.0, 0.5, 0.3]]), ann) == -math.inf
        assert self.check(cfg_from([[0.2, 0.0, 0.5, 0.3]]), ann) == -math.inf
        # a chain from the inner circle to radius 3, and a stick past it
        # that it does not meet
        chain = [[1.25, 0.0, 0.5, 0.0], [1.75, 0.0, 0.5, math.pi / 2],
                 [2.4, 0.3, 0.65, 0.0], [3.5, 1.5, 0.3, 0.0]]
        assert self.check(cfg_from(chain), ann) == math.hypot(3.05, 0.3)
        # a stick crossing the hole, clipped to two pieces, and a chain out to
        # radius 3.5 that touches the inner circle only through one of them:
        # the right half (the split's second piece), then the left (its first)
        split = [0.0, 0.0, 1.5, 0.0]
        assert len(_clip_to_region(cfg_from([split]).segments(), ann)[0]) == 2
        right = [[1.25, 0.0, 0.5, math.pi / 2], [2.25, 0.3, 1.25, 0.0]]
        for side in (1.0, -1.0):
            chain = [[side * x, y, r, v] for x, y, r, v in right]
            assert self.check(cfg_from(chain), ann) == -math.inf
            assert self.check(cfg_from([split] + chain), ann) == math.hypot(3.5, 0.3)
        # a stick from (-0.5, 0), inside the hole, to (1.5, 0): one piece,
        # from the inner circle on, that the right chain extends
        tip = [0.5, 0.0, 1.0, 0.0]
        assert len(_clip_to_region(cfg_from([tip]).segments(), ann)[0]) == 1
        assert self.check(cfg_from([tip]), ann) == 1.5
        assert self.check(cfg_from([tip] + right), ann) == math.hypot(3.5, 0.3)

    # (m, r_min, soups) per u: r_min = 0.3 keeps A(1, 2) under 200 pieces,
    # where the grid is one cell; u = 1 at m = 4 is some 3e5 sticks a soup
    PLAN = {u: [(1, 0.3, 15), (1, 0.05, 20), (2, 0.05, 25), (3, 0.05, 15),
                (4, 0.05, 6)] for u in (0.1, 0.15)}
    PLAN[0.3] = [(1, 0.3, 15), (1, 0.05, 20), (2, 0.05, 25), (3, 0.05, 15),
                 (4, 0.05, 3)]
    PLAN[1.0] = [(1, 0.3, 15), (1, 0.05, 20), (2, 0.05, 25), (3, 0.05, 2)]

    @pytest.mark.parametrize("u", sorted(PLAN))
    def test_seeded_soups(self, u):
        events, sizes = [], []
        for m, r_min, count in self.PLAN[u]:
            window = DiskWindow(Point(0, 0), 2.0 ** m)
            ann = Annulus(Point(0, 0), 1.0, 2.0 ** m)
            for i in range(count):
                c = sample_configuration(SoupParams(u, 2.0), window, r_min,
                                         derive_seed(31, int(100 * u), m, i, int(100 * r_min)))
                events.append(self.check(c, ann) >= ann.outer - region_tol(ann))
                sizes.append(len(_clip_to_region(c.segments(), ann)[0]))
        assert len(events) >= 62
        assert min(sizes) <= 200 < max(sizes)
        # above u = 0.15 nearly every soup crosses
        assert 0 < sum(events) and (u > 0.15 or sum(events) < len(events))


class TestLr1Event:
    BOX = Box(Point(0, 0), Point(2, 1))

    def test_single_horizontal_spanning_stick(self):
        c = cfg_from([[1.0, 0.5, 1.2, 0.0]])
        assert lr1_event(c, self.BOX, 2.0)

    def test_empty(self):
        assert not lr1_event(cfg_from([]), self.BOX, 2.0)

    def test_touching_one_side_only(self):
        c = cfg_from([[0.1, 0.5, 0.3, 0.0]])
        assert not lr1_event(c, self.BOX, 2.0)

    def test_two_sticks_do_not_count(self):
        c = cfg_from([[0.5, 0.5, 0.6, 0.0], [1.5, 0.5, 0.6, 0.0]])
        assert not lr1_event(c, self.BOX, 2.0)

    def test_inconsistent_k_rejected(self):
        with pytest.raises(ValueError):
            lr1_event(cfg_from([]), self.BOX, 3.0)

    @pytest.mark.parametrize("cx, expected", [(1.0, True), (1.0 - 5e-7, False)])
    def test_stick_ending_at_the_far_side(self, cx, expected):
        # a stick from x = cx - 1 to x = cx + 1: it ends exactly on the right
        # side at cx = 1 and 5e-7 short of it below
        row = [cx, 0.5, 1.0, 0.0]
        right = Segment(Point(2.0, 0.0), Point(2.0, 1.0))
        stick = stick_to_segment(Stick(Point(cx, 0.5), 1.0, 0.0))
        point, _ = segment_intersection(stick, right)
        assert (point is not None) == expected
        assert lr1_event(cfg_from([row]), self.BOX, 2.0) == expected


class TestDoubleIntersection:
    def test_chord_counts_once(self):
        c = cfg_from([[0.9, 0.0, 1.0, math.pi / 2]], window_radius=2.0)
        assert double_intersection_count(c, 1.0) == 1

    def test_inside_stick_zero(self):
        c = cfg_from([[0.0, 0.0, 0.5, 0.3]], window_radius=2.0)
        assert double_intersection_count(c, 1.0) == 0

    def test_empty_zero(self):
        assert double_intersection_count(cfg_from([], window_radius=2.0), 1.0) == 0

    def test_stick_through_disk_counts(self):
        c = cfg_from([[0.0, 0.2, 3.0, 0.0]], window_radius=2.0)
        assert double_intersection_count(c, 1.0) == 1

    def test_single_crossing_not_counted(self):
        c = cfg_from([[1.0, 0.0, 0.5, 0.0]], window_radius=2.0)  # one endpoint inside
        assert double_intersection_count(c, 1.0) == 0

    def test_circle_must_fit_window(self):
        with pytest.raises(ValueError):
            double_intersection_count(cfg_from([], window_radius=0.5), 1.0)

    @pytest.mark.parametrize("row, expected", [
        ([0.0, 1.0, 1.0, 0.0], False),    # tangent at (0, 1)
        ([1.0, 0.0, 2.0, 0.0], True),     # endpoint (-1, 0) on the circle
        ([-0.5, 0.0, 0.5, 0.0], False),   # endpoint on the circle, other inside
        ([0.0, 0.0, 1.0, 0.0], True),     # diameter, both endpoints on it
        ([0.0, 0.0, 0.5, 0.3], False),    # inside, no crossing
    ])
    def test_crossers_hand_built(self, row, expected):
        assert double_circle_crossers(np.array([row]), 0.0, 0.0, 1.0).tolist() == [
            expected
        ]

    def test_pinned_sampled_sum(self):
        # the first 500 configurations of acceptance criterion 3, recorded
        # before the crossing test became the shared line-circle kernel
        window = DiskWindow(Point(0.0, 0.0), 1.0)
        total = sum(
            double_intersection_count(
                sample_configuration(PARAMS, window, 0.25, derive_seed(303, i, 0)), 1.0
            )
            for i in range(500)
        )
        assert total == 2988


@pytest.mark.parametrize("check", [
    lambda c: double_intersection_count(c, 8.0),
    lambda c: invasion_sequence(c, 3),
    lambda c: y_statistic(c, 3),
], ids=["double_intersection_count", "invasion_sequence", "y_statistic"])
def test_window_containment_boundary(check):
    """A region of radius 8 fits a window of radius exactly 8 but not one of
    radius 8 / (1 + 1e-8)."""
    check(cfg_from([], window_radius=8.0, r_min=0.25))
    with pytest.raises(ValueError, match="exceeds the sampling window"):
        check(cfg_from([], window_radius=8.0 / (1.0 + 1e-8), r_min=0.25))


class TestInvasion:
    def test_empty_configuration_descends_one_by_one(self):
        c = cfg_from([], window_radius=32.0, r_min=0.05)
        rec = invasion_sequence(c, 5)
        assert rec.I == [5, 4, 3, 2, 1, 0]
        assert rec.L == [1, 1, 1, 1, 1]
        assert rec.T == 4
        assert not rec.truncated

    def test_diameter_stick_kills_all_attempts(self):
        c = cfg_from([[0.0, 0.0, 32.0, 0.1]], window_radius=32.0, r_min=0.05)
        rec = invasion_sequence(c, 5)
        assert rec.I[1] <= 0
        assert rec.T == 0

    def test_deterministic(self):
        window = DiskWindow(Point(0, 0), 32.0)
        a = sample_configuration(PARAMS, window, 0.3, 77)
        b = sample_configuration(PARAMS, window, 0.3, 77)
        assert invasion_sequence(a, 5) == invasion_sequence(b, 5)

    def test_strictly_decreasing_and_gap_invariant(self):
        window = DiskWindow(Point(0, 0), 32.0)
        for i in range(20):
            cfg = sample_configuration(PARAMS, window, 0.3, 200 + i)
            rec = invasion_sequence(cfg, 5)
            assert all(b < a for a, b in zip(rec.I, rec.I[1:]))
            assert all(l >= 1 for l in rec.L)
            # no stick touching A_(I_(j-1)) may also touch A_(I_j)
            from sticksoup.geometry import radial_interval

            dmin, dmax = radial_interval(cfg.segments(), 0.0, 0.0)
            for j_prev, j_next in zip(rec.I, rec.I[1:]):
                touch_prev = (dmin <= 2.0 ** j_prev) & (dmax > 2.0 ** (j_prev - 1))
                touch_next = (dmin <= 2.0 ** j_next) & (dmax > 2.0 ** (j_next - 1))
                assert not np.any(touch_prev & touch_next)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            invasion_sequence(cfg_from([], window_radius=8.0), 5)


class TestYStatistic:
    def test_empty_is_one(self):
        c = cfg_from([], window_radius=1.0, r_min=0.125)
        assert y_statistic(c, 0) == 1

    def test_one_linking_stick_gives_two(self):
        # touches A_0 = (1/2, 1] and A_-1 = (1/4, 1/2] only
        c = cfg_from([[0.55, 0.0, 0.2, 0.01]], window_radius=1.0, r_min=0.125)
        assert y_statistic(c, 0) == 2

    def test_matches_first_invasion_gap(self):
        window = DiskWindow(Point(0, 0), 32.0)
        for i in range(10):
            cfg = sample_configuration(PARAMS, window, 0.3, 400 + i)
            rec = invasion_sequence(cfg, 5)
            assert y_statistic(cfg, 5) == rec.L[0]
