import hashlib
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from sticksoup.events import covered_components
from sticksoup.exploration import (
    BOTTOM,
    DegeneracyError,
    box_dimension,
    build_arrangement,
    count_traversals,
    hits_all_balls,
    last_left_subpath,
    polyline_crosses_segment,
    trace_exploration,
)
from sticksoup.geometry import (
    Annulus,
    Box,
    Point,
    Polyline,
    Segment,
    _lexsort2,
    stick_to_segment,
    segment_intersection,
)
from sticksoup.soup import (
    Configuration,
    DiskWindow,
    SoupParams,
    apply_homothety,
    sample_configuration,
)
from oracles import _covered_top_bottom_oracle

PARAMS = SoupParams(1.0, 2.0)
UNIT_BOX = Box(Point(0, 0), Point(1, 1))
UNIT_WINDOW = DiskWindow(Point(0.5, 0.5), math.sqrt(2) / 2)


def cfg_from(rows, window=UNIT_WINDOW, r_min=0.01):
    return Configuration(PARAMS, window, r_min, 0, np.asarray(rows, float).reshape(-1, 4))


class TestBuildArrangement:
    def test_empty_box(self):
        arr = build_arrangement(cfg_from([]), UNIT_BOX)
        assert arr.n_vertices == 4
        assert arr.n_darts == 8  # four edges
        assert arr.label[arr.start_dart] == BOTTOM

    def test_isolated_interior_stick(self):
        # the walk cannot reach a stick that touches neither the box boundary
        # nor a stick that does, so the arrangement leaves it out
        arr = build_arrangement(cfg_from([[0.5, 0.5, 0.1, 0.4]]), UNIT_BOX)
        assert arr.n_vertices == 4
        assert arr.n_darts == 8
        assert len(arr.stick_ids) == 0 and len(arr.clipped) == 0

    def test_stick_crossing_bottom_is_kept(self):
        # vertical stick from the bottom up to height 0.4
        arr = build_arrangement(cfg_from([[0.5, 0.1, 0.3, math.pi / 2]]), UNIT_BOX)
        assert arr.stick_ids.tolist() == [0]
        assert arr.n_vertices == 6
        assert arr.n_darts == 12  # bottom cut in two, 3 more sides, 1 stick edge
        degrees = sorted(arr.degree(v) for v in range(arr.n_vertices))
        assert degrees == [1, 2, 2, 2, 2, 3]

    def test_stick_crossing_bottom_has_degree_three(self):
        arr = build_arrangement(cfg_from([[0.5, 0.0, 0.2, 1.0]]), UNIT_BOX)
        cross = None
        for v in range(arr.n_vertices):
            if arr.on_bottom[v] and arr.degree(v) == 3:
                cross = v
        assert cross is not None
        labels = sorted(int(arr.label[d]) for d in arr.wheel(cross))
        assert labels == [BOTTOM, BOTTOM, 0]

    def test_stick_through_start_corner_degenerate(self):
        with pytest.raises(DegeneracyError):
            build_arrangement(cfg_from([[0.0, 0.0, 0.1, 0.7]]), UNIT_BOX)

    def test_box_outside_window_rejected(self):
        small = DiskWindow(Point(0.5, 0.5), 0.3)
        with pytest.raises(ValueError):
            build_arrangement(cfg_from([], window=small), UNIT_BOX)


def stick_between(p, q):
    """The stick row [cx, cy, r, v] from point p to point q."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    v = math.atan2(dy, dx)
    if v > math.pi / 2:
        v -= math.pi
    elif v <= -math.pi / 2:
        v += math.pi
    return [(p[0] + q[0]) / 2, (p[1] + q[1]) / 2, math.hypot(dx, dy) / 2, v]


class TestCornerAndSideContacts:
    """A stick ending at a corner, or two sticks meeting on a side, raises
    DegeneracyError; every other outcome agrees with c05's union-find oracle
    (a covered bottom-top path exists iff the walk ends on top)."""

    WINDOW = DiskWindow(Point(0.5, 0.5), 2.0)

    def outcome(self, ends):
        cfg = cfg_from([stick_between(p, q) for p, q in ends], window=self.WINDOW)
        try:
            return trace_exploration(build_arrangement(cfg, UNIT_BOX)).outcome, cfg
        except DegeneracyError:
            return None, cfg

    @pytest.mark.parametrize("ends, match", [
        ([((1, 0), (0.5, 1))], "corner"),
        ([((0.5, 0), (1, 1))], "corner"),
        ([((0.5, 0), (1, 0.5)), ((1, 0.5), (0.5, 1))], "side"),
        ([((0.5, 0), (0, 0.5)), ((0, 0.5), (0.5, 1))], "side"),
    ], ids=["corner-1-0", "corner-1-1", "meet-on-right", "meet-on-left"])
    def test_covered_crossing_through_a_contact_raises(self, ends, match):
        # each holds a covered bottom-top path, which the walk used to miss
        cfg = cfg_from([stick_between(p, q) for p, q in ends], window=self.WINDOW)
        assert _covered_top_bottom_oracle(cfg, UNIT_BOX)
        with pytest.raises(DegeneracyError, match=match):
            build_arrangement(cfg, UNIT_BOX)

    def test_stick_to_the_top_left_corner(self):
        outcome, cfg = self.outcome([((0.5, 0), (0, 1))])
        assert outcome is None or (outcome == "Top") == _covered_top_bottom_oracle(cfg, UNIT_BOX)

    def test_sticks_meeting_inside_the_box(self):
        outcome, cfg = self.outcome([((0.5, 0), (0.9, 0.5)), ((0.9, 0.5), (0.5, 1))])
        assert outcome == "Top" and _covered_top_bottom_oracle(cfg, UNIT_BOX)

    def test_lattice_configurations(self):
        # stick ends on lattices of step 1/2, 1/4 and 1/8 over [-0.5, 1.5]^2,
        # where ends on corners and meetings on sides are common
        rng = np.random.default_rng(2323)
        tally = {None: 0, "Top": 0, "Right": 0}
        for k in range(600):
            step = (0.5, 0.25, 0.125)[k % 3]
            m = int(rng.integers(2, 14))
            pts = rng.integers(round(-0.5 / step), round(1.5 / step) + 1,
                               size=(m, 2, 2)) * step
            outcome, cfg = self.outcome([(p, q) for p, q in pts if np.any(p != q)])
            tally[outcome] += 1
            if outcome is not None:
                assert (outcome == "Top") == _covered_top_bottom_oracle(cfg, UNIT_BOX), pts
        assert min(tally.values()) >= 60


def n_components(n, i, j):
    """Connected components of the graph on range(n) with edges i[k]-j[k]."""
    return connected_components(
        coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)), directed=False
    )[0]


def check_invariants(arr):
    nd, nv = arr.n_darts, arr.n_vertices
    darts = np.arange(nd)
    assert np.array_equal(arr.twin[arr.twin], darts)
    assert np.all(arr.twin != darts)
    assert np.all(arr.origin[arr.twin] != arr.origin)
    # flat wheels: offsets, membership, strict angle order, positions
    assert arr.rot_start[0] == 0 and arr.rot_start[-1] == nd
    assert np.array_equal(np.sort(arr.rotation), darts)
    wheel_of = arr.origin[arr.rotation]
    assert np.array_equal(np.diff(arr.rot_start), np.bincount(arr.origin, minlength=nv))
    assert np.all(np.diff(wheel_of) >= 0)
    same = wheel_of[1:] == wheel_of[:-1]
    assert np.all(np.diff(arr.angle[arr.rotation])[same] > 0)
    assert np.array_equal(arr.rotation[arr.rot_start[arr.origin] + arr.rot_pos], darts)
    assert all(arr.degree(v) == len(arr.wheel(v)) for v in range(nv))
    # Euler: the face permutation (the walk's turn rule) has one orbit per
    # boundary walk.  Every bounded face has one outer walk and every
    # connected component one walk facing outwards, so F = orbits - C + 1.
    lo = arr.rot_start[arr.origin[arr.twin]]
    deg = np.diff(arr.rot_start)[arr.origin[arr.twin]]
    succ = arr.rotation[lo + (arr.rot_pos[arr.twin] - 1) % deg]
    orbits = n_components(nd, darts, succ)   # the cycles of the permutation
    # isolated vertices (no darts) are left out of V and C
    used = np.flatnonzero(np.diff(arr.rot_start) > 0)
    V = len(used)
    E = nd // 2
    C = n_components(
        V, np.searchsorted(used, arr.origin), np.searchsorted(used, arr.origin[arr.twin])
    )
    F = orbits - C + 1
    assert V - E + F == 1 + C


def reference_walk(arr):
    """The walk's darts and outcome, turning at each vertex from its wheel."""
    d, log = arr.start_dart, []
    while True:
        assert d not in log
        log.append(d)
        v = arr.origin[arr.twin[d]]
        if arr.on_right[v] or arr.on_top[v]:
            return log, "Right" if arr.on_right[v] else "Top"
        wheel = arr.wheel(v).tolist()
        if arr.on_left[v] or len(wheel) == 1:
            d = int(arr.twin[d])
        else:
            d = wheel[wheel.index(arr.twin[d]) - 1]


class TestArrangementInvariants:
    @pytest.mark.parametrize(
        "half, u, r_min, max_segments",
        [(0.5, 0.3, 0.08, 200), (4.0, 0.4, 0.1, None)],
        ids=["all-pairs", "grid"],
    )
    def test_seeded_soups(self, half, u, r_min, max_segments):
        box = Box(Point(-half, -half), Point(half, half))
        window = DiskWindow(Point(0, 0), half * math.sqrt(2))
        built = 0
        for seed in range(20):
            cfg = sample_configuration(SoupParams(u, 2.0), window, r_min, seed)
            try:
                arr = build_arrangement(cfg, box)
            except DegeneracyError:
                continue
            n_segments = 4 + len(arr.stick_ids)
            if max_segments is None:
                assert n_segments > 1000   # the grid broad phase
            else:
                assert n_segments <= max_segments   # the all-pairs broad phase
            check_invariants(arr)
            res = trace_exploration(arr)
            assert (res.dart_log, res.outcome) == reference_walk(arr)
            built += 1
        assert built >= 18

    def test_hand_built_scenes(self):
        check_invariants(build_arrangement(cfg_from([]), UNIT_BOX))
        cfg, box = figure_configuration()
        check_invariants(build_arrangement(cfg, box))

    @staticmethod
    def chain_rows(middle):
        """Three sticks whose tips lie 0.7 eps apart on a line through
        (0.5, 0.5); the middle one runs from its tip along ``middle``."""
        eps = 1e-9 * UNIT_BOX.diagonal()
        rows = []
        for k, (dx, dy) in enumerate([(-0.3, -0.2), middle, (0.3, -0.2)]):
            tip_x, tip_y = 0.5 + 0.7 * k * eps, 0.5
            r = math.hypot(dx, dy) / 2
            v = math.atan2(dy, dx)
            if v > math.pi / 2:
                v -= math.pi
            elif v <= -math.pi / 2:
                v += math.pi
            rows.append([tip_x + dx / 2, tip_y + dy / 2, r, v])
        return rows

    def test_chained_near_coincidence_degenerate(self):
        # the first and the last tip are not within eps, so which vertex the
        # middle one joins would depend on the order the points are merged
        # in; the middle stick crosses the bottom side, so the walk can reach
        # the chain
        with pytest.raises(DegeneracyError, match="chained"):
            build_arrangement(cfg_from(self.chain_rows((0.0, -0.6))), UNIT_BOX)

    def test_unreachable_chain_is_not_degenerate(self):
        # the same chain hanging off nothing: it is left out of the
        # arrangement, and the walk runs along the empty bottom side
        arr = build_arrangement(cfg_from(self.chain_rows((0.0, 0.3))), UNIT_BOX)
        assert len(arr.stick_ids) == 0
        check_invariants(arr)
        assert trace_exploration(arr).outcome == "Right"

    def test_tip_near_without_hit_is_not_joined(self):
        # a stick from the bottom side up to (0.5, 0.5), and one from 0.58 eps
        # beside that tip to the top side, 1e-6 rad off vertical: their lines
        # meet far below the second stick's start, so the narrow phase reports
        # no hit, and the walk agrees with the clusters that nothing joins
        # the bottom to the top
        eps = 1e-9 * UNIT_BOX.diagonal()
        v = math.pi / 2 - 1e-6
        start_x = 0.5 + 0.58 * eps
        rows = [
            [0.5, 0.2, 0.3, math.pi / 2],
            [start_x + 0.3 * math.cos(v), 0.5 + 0.3 * math.sin(v), 0.3, v],
        ]
        cfg = cfg_from(rows)
        res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
        assert res.outcome == "Right"
        part = covered_components(cfg.stick_data, UNIT_BOX)
        assert part.any_cluster_touching("bottom", "top") == (res.outcome == "Top")


def test_lexsort2_matches_lexsort():
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, 500):
        major = rng.integers(0, 5, n)
        # few distinct values, signed zeros among them, so most keys tie
        minor = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], n)
        assert np.array_equal(_lexsort2(minor, major), np.lexsort((minor, major)))


# (outcome, sha256 of the path coordinates, edge labels) of
# `sticksoup trace --u 0.3 --rmin 0.08 --box 0 0 1 1 --seed S`, recorded with
# the per-point snapping arrangement builder; any faster kernel must match
GOLDEN_WALKS = {
    1: ("Top", "08c1ad09ae4f4d7f20686b9ee049d6c19870c070cdc6a0abc84a204267573793",
        [-1, 75, 11, 11, 75, 75, 11, 73, 9, 9, 73, 73, 9, 71, 71, 9, 9, 71, 71, 9,
         73, 11, 19, 19, 11, 5, 5, 11, 54, 54, 11, 53, 45, 45, 53, 34, 31, 31, 34,
         34, 31, 53, 36, 36, 53, 94, 94, 53, 53, 94, 70, 70, 94, 94, 70, 29, 35, 22,
         22, 35, 46, 46, 35, 40, 40, 35, 67, 67, 35, 0, 44, 44, 0]),
    2: ("Right", "bf0607810618f6f517bad7ed00d9d5ec80110c1ee5623016d8e39bcac4e96301",
        [-1, 42, 42, -1, 81, 81, -1, 51, 51, -1, 6, 6, -1, 65, 61, 61, 65, 65, 61,
         29]),
    3: ("Right", "0ba8be628051e8f5ba0921700024e9680a2e6ebec43207050b1712b6acadc0c1",
        [-1, 70, 22, 22, 70, 70, 22, -1, 10, 10, -1, 7, 17, 17, 7, 7, 17, 55, 55, 17,
         17, 55, 3, 72, 72, 3, 53, 53, 3, 37, 37, 3, 3, 37, 37, 3, 53, 19, 19, 53,
         53, 19, 72, 72, 19, 19, 72, 3, 55, 55, 3, 3, 55, 17, 7, -1, 63, 27, 27, 63,
         14, 14, 63, 51, 51, 63, 63, 51, -1]),
    4: ("Top", "8a5f55bf9e03d63073ea193be7225eb5bb7657853f9e4c143152f63181867bf6",
        [-1, 96, 96, -1, 67, 67, -1, 56, 12, 70, 70, 12, 12, 70, 81, 92, 37, 37, 92,
         84, 84, 92, 85, 85, 92, 92, 85, 52, 51, 51, 52, 61, 25, 25, 61, 61, 25, 25,
         61, 52, 52, 61, 51, 6, 49, 49, 6, 45, 45, 6, 6, 45, 35, 35, 45, 113, 113,
         45, 83]),
    5: ("Top", "0856cea013077b44bd70e9f6d572edf34db5b9705bdd8523927443e4060ccb29",
        [-1, 33, 33, -1, 97, 97, -1, 95, 28, 28, 95, 76, 100, 23, 23, 100, 100, 23,
         23, 100, 76, 103, 103, 76, 76, 103, 95, 95, 103, 12, 12, 103, 91, 21, 72,
         72, 21, 21, 72, 91, 91, 72, 19, 19, 72, 72, 19, 103, 85, 69, 50, 50, 69, 69,
         50, 46]),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_WALKS))
def test_golden_walk(seed):
    window = DiskWindow(UNIT_BOX.center(), UNIT_BOX.diagonal() / 2.0)
    cfg = sample_configuration(SoupParams(0.3, 2.0), window, 0.08, seed)
    res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
    digest = hashlib.sha256(res.path.coords.tobytes()).hexdigest()
    assert (res.outcome, digest, res.edge_labels) == GOLDEN_WALKS[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_WALKS))
def test_sticks_touched_in_walk_order(seed):
    labels = GOLDEN_WALKS[seed][2]
    window = DiskWindow(UNIT_BOX.center(), UNIT_BOX.diagonal() / 2.0)
    cfg = sample_configuration(SoupParams(0.3, 2.0), window, 0.08, seed)
    res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
    assert res.sticks_touched == list(dict.fromkeys(x for x in labels if x >= 0))
    assert all(type(x) is int for x in res.sticks_touched + res.edge_labels)


# (outcome, sha256 of the path coordinates, sha256 of the edge labels as
# int64, number of edges) of walks on [-8, 8]^2 soups of the `estimate h1`
# size (u = 0.2, r_min = 0.1, alpha = 2; ~8k sticks), recorded when
# build_arrangement still assembled the whole arrangement rather than the part
# of it the walk can reach
GOLDEN_WALKS_H1 = {
    1: ("Right", "c09114fe54f4558c1b1212acb56fdcd5d36216bbcdea1da5fb7ebb91c4415125",
        "75366512de9897a441763db6a1c37d59ff7ff17a189f0480be763ab6544a0b01", 3389),
    2: ("Top", "5688a5114abf61de3d1ee557c3410bb240d48decc4a04072abd81ba563083613",
        "bb3e798542331b45be4f4f38e37dccd2a9936a46db4abfa17964b8312919a6b4", 1186),
    3: ("Right", "87ec5a6df8dfe4d767e42a3675a8f6b69d3c4065d2318653a074dc19d81902fe",
        "e59b229ac020d7d796349ffdafbb5363ecb684d56a93b5f72c74daed08b1581c", 1510),
    4: ("Top", "4fb77d66177db3ac042f66c49f8f34e3f97f17b2003bce73b0ad428b28d81236",
        "bdf8db2d1841e9cab0a33a8f7d22e2ba9d03ff50293d1999506c8d6d8819ebc8", 3924),
    5: ("Top", "c3310002d8965f962bd1be7713e6b33a4a31aa84ae46bfe6f1268b352931bf7b",
        "6e7923169007729be7c1e8be9c53b4e1dc61a7e0006e9b801622f2ac107310b7", 3899),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_WALKS_H1))
def test_golden_walk_h1_size(seed):
    box = Box(Point(-8, -8), Point(8, 8))
    window = DiskWindow(box.center(), box.diagonal() / 2.0)
    cfg = sample_configuration(SoupParams(0.2, 2.0), window, 0.1, seed)
    res = trace_exploration(build_arrangement(cfg, box))
    labels = np.asarray(res.edge_labels, dtype=np.int64)
    assert (
        res.outcome,
        hashlib.sha256(res.path.coords.tobytes()).hexdigest(),
        hashlib.sha256(labels.tobytes()).hexdigest(),
        len(labels),
    ) == GOLDEN_WALKS_H1[seed]


def test_walk_commutes_with_exact_homothety():
    # at alpha = 2 the law is scale invariant; scaling by 4 is exact in binary
    # floating point, and so is every tolerance REL_EPS * max(diagonal, 1)
    # once the diagonal is at least 1, so the walk must scale bit for bit, and
    # with it the circle crossings that count annulus traversals
    big = Box(Point(0, 0), Point(4, 4))
    annuli = [((0.5, 0.5), 0.1, 0.4), ((0.5, 0.5), 0.2, 0.45), ((0.25, 0.1), 0.05, 0.2)]
    counts = []
    for seed in range(20):
        cfg = sample_configuration(SoupParams(0.3, 2.0), UNIT_WINDOW, 0.08, seed)
        res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
        scaled = trace_exploration(build_arrangement(apply_homothety(cfg, 4.0), big))
        assert np.array_equal(scaled.path.coords, 4.0 * res.path.coords)
        assert scaled.outcome == res.outcome
        assert scaled.edge_labels == res.edge_labels
        for (cx, cy), inner, outer in annuli:
            n, _ = count_traversals(res.path, Annulus(Point(cx, cy), inner, outer))
            n4, _ = count_traversals(
                scaled.path, Annulus(Point(4 * cx, 4 * cy), 4 * inner, 4 * outer)
            )
            assert n4 == n
            counts.append(n)
    assert 0 < counts.count(0) < len(counts)


class TestTraceBasics:
    def test_empty_box_bottom_crossing(self):
        res = trace_exploration(build_arrangement(cfg_from([]), UNIT_BOX))
        assert res.outcome == "Right"
        assert res.path.length() == pytest.approx(1.0)
        assert tuple(res.path.coords[0]) == (0.0, 0.0)

    def test_single_stick_detour(self):
        # vertical stick rising from the bottom at x = 0.5 to height 0.4
        res = trace_exploration(
            build_arrangement(cfg_from([[0.5, 0.1, 0.3, math.pi / 2]]), UNIT_BOX)
        )
        assert res.outcome == "Right"
        assert res.path.length() == pytest.approx(1.0 + 2 * 0.4)
        assert res.sticks_touched == [0]

    def test_spanning_stick_gives_top(self):
        res = trace_exploration(
            build_arrangement(cfg_from([[0.5, 0.5, 0.6, math.pi / 2]]), UNIT_BOX)
        )
        assert res.outcome == "Top"
        assert tuple(res.path.coords[-1]) == pytest.approx((0.5, 1.0))

    def test_dart_log_unique(self):
        res = trace_exploration(
            build_arrangement(cfg_from([[0.5, 0.1, 0.3, math.pi / 2]]), UNIT_BOX)
        )
        assert len(res.dart_log) == len(set(res.dart_log))


def figure_configuration():
    """Seven chained sticks, two of which pierce the left side of the box."""
    deg = math.pi / 180
    rows = [
        (-1.1, -1.1, 1.0, 50 * deg),
        (-1.1, -0.5, 1.0, -10 * deg),
        (-1.7, -0.5, 0.7, 15 * deg),
        (-1.1, -0.1, 0.3, 90 * deg),
        (0.0, 0.2, 1.2, 5 * deg),
        (1.2, 0.2, 0.6, -80 * deg),
        (1.6, -0.2, 0.6, 3 * deg),
    ]
    box = Box(Point(-2, -1), Point(2, 1))
    window = DiskWindow(Point(0, 0), math.hypot(2, 1) + 1e-9)
    return cfg_from(rows, window=window), box


def xsect(cfg, i, j):
    p, _ = segment_intersection(
        stick_to_segment(cfg.sticks[i]), stick_to_segment(cfg.sticks[j])
    )
    return p


class TestChainedSceneRegression:
    """Walk of a hand-checked seven-stick scene: the walk climbs the cluster
    attached to the bottom, pierces the left side twice (turning onto the
    opposite flank each time), wraps three stick tips and exits right."""

    def test_full_waypoint_sequence(self):
        cfg, box = figure_configuration()
        res = trace_exploration(build_arrangement(cfg, box))
        assert res.outcome == "Right"

        b = xsect(cfg, 0, 1)
        c = xsect(cfg, 1, 2)
        g = xsect(cfg, 2, 3)
        h = xsect(cfg, 3, 4)
        i_pt = xsect(cfg, 4, 5)
        j_pt = xsect(cfg, 5, 6)
        s5 = stick_to_segment(cfg.sticks[4])
        expected = [
            (-2.0, -1.0),
            (None, -1.0),        # bottom crossing of stick 0
            (b.x, b.y),
            (c.x, c.y),
            (-2.0, None),        # left-side pierce of stick 2
            (c.x, c.y),
            (-2.0, None),        # left-side pierce of stick 1
            (c.x, c.y),
            (g.x, g.y),
            (h.x, h.y),
            (s5.a.x, s5.a.y),    # stick 4 west tip
            (h.x, h.y),
            (-1.1, 0.2),         # stick 3 top tip
            (h.x, h.y),
            (i_pt.x, i_pt.y),
            (None, None),        # stick 5 top tip
            (i_pt.x, i_pt.y),
            (s5.b.x, s5.b.y),    # stick 4 east tip
            (i_pt.x, i_pt.y),
            (j_pt.x, j_pt.y),
            (2.0, None),         # exit on the right side
        ]
        assert len(res.path.coords) == len(expected)
        for (x, y), (ex, ey) in zip(res.path.coords, expected):
            if ex is not None:
                assert x == pytest.approx(ex, abs=1e-9)
            if ey is not None:
                assert y == pytest.approx(ey, abs=1e-9)
        assert res.sticks_touched == [0, 1, 2, 3, 4, 5, 6]

    def test_crossings_limited_to_left_piercing_sticks(self):
        cfg, box = figure_configuration()
        res = trace_exploration(build_arrangement(cfg, box))
        crossing = [
            i
            for i, s in enumerate(cfg.sticks)
            if polyline_crosses_segment(res.path, stick_to_segment(s))
        ]
        assert crossing == [1, 2]  # exactly the sticks piercing the left side
        tail = last_left_subpath(res, box)
        assert not any(
            polyline_crosses_segment(tail, stick_to_segment(s)) for s in cfg.sticks
        )

    def test_last_left_touch(self):
        cfg, box = figure_configuration()
        res = trace_exploration(build_arrangement(cfg, box))
        tail = last_left_subpath(res, box)
        assert tail.coords[0][0] == pytest.approx(-2.0)
        # the later of the two pierce points lies on stick 1
        seg1 = stick_to_segment(cfg.sticks[1])
        y = tail.coords[0][1]
        t = (-2.0 - seg1.a.x) / (seg1.b.x - seg1.a.x)
        assert y == pytest.approx(seg1.a.y + t * (seg1.b.y - seg1.a.y), abs=1e-9)


class TestDichotomySmoke:
    @pytest.mark.parametrize(
        "half, gap",
        [(0.5, g) for g in (0.5e-9, 1.1e-9, 1.3e-9, 1.6e-9)]
        + [(8.0, g) for g in (0.5e-8, 1.44e-8, 2.08e-8, 2.4e-8)],
    )
    def test_agreement_at_tip_gap(self, half, gap):
        # stick A rises through the bottom side to (0.5, 0.5), B runs right
        # from `gap` beside A's tip to (0.8, 0.5), and C crosses B and the top
        # side; the [-8, 8]^2 scene is the unit one under z -> 16 z - (8, 8).
        # The walk and the clusters must join A and B at the same tolerance
        s, o = 2 * half, half - 0.5
        box = Box(Point(0.5 - half, 0.5 - half), Point(0.5 + half, 0.5 + half))
        window = DiskWindow(box.center(), box.diagonal() / 2.0)
        x0, x1, y = s * 0.5 - o + gap, s * 0.8 - o, s * 0.5 - o
        cfg = cfg_from(
            [
                [s * 0.5 - o, s * 0.2 - o, s * 0.3, math.pi / 2],
                [(x0 + x1) / 2, y, (x1 - x0) / 2, 0.0],
                [s * 0.7 - o, s * 0.75 - o, s * 0.35, math.pi / 2],
            ],
            window,
        )
        res = trace_exploration(build_arrangement(cfg, box))
        part = covered_components(cfg.stick_data, box)
        assert (res.outcome == "Top") == part.any_cluster_touching("bottom", "top")

    def test_agreement_with_cluster_oracle(self):
        mismatches = 0
        for i in range(60):
            cfg = sample_configuration(SoupParams(0.4, 2.0), UNIT_WINDOW, 0.05, 3000 + i)
            try:
                res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
            except DegeneracyError:
                continue
            part = covered_components(cfg.stick_data, UNIT_BOX)
            oracle_top = part.any_cluster_touching("bottom", "top")
            mismatches += (res.outcome == "Top") != oracle_top
        assert mismatches == 0

    def test_agreement_with_planted_near_tips(self):
        # three sticks per soup start 0 to 1.5 eps from another stick's tip,
        # 1e-6 to 2 rad off its direction; the walk joins two sticks exactly
        # where the narrow phase reports a hit, as the clusters do
        eps = 1e-9 * UNIT_BOX.diagonal()
        built = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            cfg = sample_configuration(SoupParams(0.4, 2.0), UNIT_WINDOW, 0.08, seed)
            cx, cy, r, v = cfg.stick_data[rng.integers(0, cfg.n_sticks, 3)].T
            d = rng.choice([0.0, 0.3, 0.6, 0.9, 1.5], 3) * eps
            th = rng.uniform(0, 2 * math.pi, 3)
            w = v + rng.choice([1e-6, 1e-3, 0.5, 2.0], 3) * rng.choice([-1, 1], 3)
            w = (w + math.pi / 2) % math.pi - math.pi / 2
            r2 = rng.uniform(0.05, 0.3, 3)
            x0 = cx + r * np.cos(v) + d * np.cos(th)
            y0 = cy + r * np.sin(v) + d * np.sin(th)
            planted = np.column_stack([x0 + r2 * np.cos(w), y0 + r2 * np.sin(w), r2, w])
            c = cfg_from(np.vstack([cfg.stick_data, planted]))
            try:
                res = trace_exploration(build_arrangement(c, UNIT_BOX))
            except DegeneracyError:
                continue
            part = covered_components(c.stick_data, UNIT_BOX)
            assert (res.outcome == "Top") == part.any_cluster_touching("bottom", "top"), seed
            built += 1
        assert built >= 140


class TestLastLeftSubpath:
    def test_empty_configuration_full_bottom(self):
        res = trace_exploration(build_arrangement(cfg_from([]), UNIT_BOX))
        tail = last_left_subpath(res, UNIT_BOX)
        assert np.allclose(tail.coords, res.path.coords)

    def test_no_return_gives_full_path(self):
        res = trace_exploration(
            build_arrangement(cfg_from([[0.5, 0.1, 0.3, math.pi / 2]]), UNIT_BOX)
        )
        tail = last_left_subpath(res, UNIT_BOX)
        assert np.allclose(tail.coords, res.path.coords)


class TestCountTraversals:
    ANN = Annulus(Point(0, 0), 1.0, 2.0)

    def test_diameter_polyline(self):
        p = Polyline([Point(-3, 0.01), Point(3, 0.01)])
        k, arms = count_traversals(p, self.ANN)
        assert k == 2
        assert sorted(a.direction for a in arms) == ["Entering", "Exiting"]

    @pytest.mark.parametrize("vertex", [(0.0, 0.0), (1.5, 0.0), (1.0, 0.0), (3.0, 0.0)])
    def test_one_vertex_path(self, vertex):
        assert count_traversals(Polyline([vertex]), self.ANN) == (0, [])
        assert count_traversals(Polyline([vertex]), self.ANN, [3]) == (0, [])

    def test_outside_zero(self):
        p = Polyline([Point(2.5, 2.5), Point(3, 3)])
        assert count_traversals(p, self.ANN)[0] == 0

    def test_radial_from_center(self):
        p = Polyline([Point(0, 0), Point(3, 0)])
        k, arms = count_traversals(p, self.ANN)
        assert k == 1
        assert arms[0].direction == "Exiting"

    def test_dip_without_reaching_inner(self):
        p = Polyline([Point(-3, 0), Point(-1.5, 0), Point(-3, 0.5)])
        assert count_traversals(p, self.ANN)[0] == 0

    def test_sticks_used_labels(self):
        p = Polyline([Point(-3, 0.01), Point(3, 0.01)])
        k, arms = count_traversals(p, self.ANN, edge_labels=[7])
        assert k == 2
        assert all(a.sticks_used == frozenset({7}) for a in arms)

    # (path, [(direction, sticks used)]) with edge labels [5, -1, 9]
    @pytest.mark.parametrize(
        "points, expected",
        [
            ([(1.5, 0), (3, 0)], []),                      # starts inside
            ([(-3, 0.01), (1.5, 0.01)], [("Entering", {5})]),  # ends inside
            ([(-3, 0), (-1, 0), (-3, 0.5)], []),           # vertex on the inner circle
            ([(-3, 0), (-2, 0), (3, 0)], [("Entering", set()), ("Exiting", set())]),
            ([(-3, 2), (3, 2)], []),                       # tangent to the outer circle
            ([(-3, 0.01), (-1.5, 0.01), (3, 0.01)],
             [("Entering", {5}), ("Exiting", set())]),
        ],
    )
    def test_traversal_rule(self, points, expected):
        labels = [5, -1, 9][: len(points) - 1]
        k, arms = count_traversals(Polyline(points), self.ANN, labels)
        assert k == len(expected)
        assert [(a.direction, set(a.sticks_used)) for a in arms] == expected


# sha256 of repr([(count, [(direction, sorted sticks used)])]) over the three
# `estimate h1 --mmax 3` annuli A(2, 4), A(1, 4), A(1/2, 4) for the walks of
# GOLDEN_WALKS_H1, and the counts; recorded when count_traversals still
# classified the pieces of the path one at a time
GOLDEN_TRAVERSALS_H1 = {
    1: ("9671f396c8ae1853f81b9001fd15aea7cb7050432e9fec1a43e457f1d3c47c28", [2, 2, 0]),
    2: ("2f416977930dda54acab0ce1ad1fc365814603b6f6d3816d4fb8198db66c93ea", [0, 0, 0]),
    3: ("2f416977930dda54acab0ce1ad1fc365814603b6f6d3816d4fb8198db66c93ea", [0, 0, 0]),
    4: ("2f416977930dda54acab0ce1ad1fc365814603b6f6d3816d4fb8198db66c93ea", [0, 0, 0]),
    5: ("b353e53975bda841d3269e6d1ec1d16a0f33208acb2815d61e63d69680d964b9", [4, 0, 0]),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_TRAVERSALS_H1))
def test_golden_traversals_h1_size(seed):
    box = Box(Point(-8, -8), Point(8, 8))
    window = DiskWindow(box.center(), box.diagonal() / 2.0)
    cfg = sample_configuration(SoupParams(0.2, 2.0), window, 0.1, seed)
    res = trace_exploration(build_arrangement(cfg, box))
    rows = []
    for inner in (2.0, 1.0, 0.5):
        k, arms = count_traversals(res.path, Annulus(Point(0, 0), inner, 4.0), res.edge_labels)
        rows.append((k, [(a.direction, sorted(a.sticks_used)) for a in arms]))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (digest, [k for k, _ in rows]) == GOLDEN_TRAVERSALS_H1[seed]


class TestPolylineCrossesSegment:
    SEG = Segment(Point(-1, 0), Point(1, 0))

    def test_transversal_x(self):
        assert polyline_crosses_segment(Polyline([Point(0, -1), Point(0, 1)]), self.SEG)

    @pytest.mark.parametrize("vertex", [(0.0, 0.0), (0.0, 1.0), (5.0, 0.0)])
    def test_one_vertex_path(self, vertex):
        assert polyline_crosses_segment(Polyline([vertex]), self.SEG) is False

    def test_v_touch_same_side(self):
        p = Polyline([Point(-0.5, 1), Point(0, 0), Point(0.5, 1)])
        assert not polyline_crosses_segment(p, self.SEG)

    def test_run_along_then_exit_same_side(self):
        p = Polyline([Point(-0.5, 1), Point(-0.2, 0), Point(0.2, 0), Point(0.5, 1)])
        assert not polyline_crosses_segment(p, self.SEG)

    def test_run_along_then_exit_other_side(self):
        p = Polyline([Point(-0.5, 1), Point(-0.2, 0), Point(0.2, 0), Point(0.5, -1)])
        assert polyline_crosses_segment(p, self.SEG)

    def test_pass_through_endpoint_not_crossing(self):
        p = Polyline([Point(0.9, 1), Point(1.1, -1)])  # through x ~ 1 = endpoint
        assert not polyline_crosses_segment(p, self.SEG)

    def test_run_beyond_endpoint_not_crossing(self):
        p = Polyline([Point(-0.5, 1), Point(0.5, 0), Point(1.5, 0), Point(1.5, -1)])
        assert not polyline_crosses_segment(p, self.SEG)


def koch_curve(level):
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    rot = np.array(
        [[math.cos(math.pi / 3), -math.sin(math.pi / 3)],
         [math.sin(math.pi / 3), math.cos(math.pi / 3)]]
    )
    for _ in range(level):
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            d = (b - a) / 3
            out += [a + d, a + d + rot @ d, a + 2 * d, b]
        pts = out
    return Polyline([Point(x, y) for x, y in pts])


class TestBoxDimension:
    def test_straight_segment(self):
        p = Polyline([Point(0, 0), Point(1, 0.3)])
        dim = box_dimension(p, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128])
        assert dim == pytest.approx(1.0, abs=0.05)

    def test_koch_curve(self):
        dim = box_dimension(koch_curve(5), [3.0 ** -k for k in range(1, 6)])
        assert dim == pytest.approx(math.log(4) / math.log(3), abs=0.1)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            box_dimension(Polyline([Point(0, 0)]), [0.1, 0.01])

    def test_single_scale_rejected(self):
        with pytest.raises(ValueError):
            box_dimension(Polyline([Point(0, 0), Point(1, 1)]), [0.1, 0.1])


class TestHitsAllBalls:
    PATH = Polyline([Point(0, 0), Point(1, 0), Point(1, 1)])

    def test_through_all_centers(self):
        assert hits_all_balls(self.PATH, [((0.5, 0), 0.01), ((1, 0.5), 0.01)])

    def test_one_disjoint_ball(self):
        assert not hits_all_balls(self.PATH, [((0.5, 0), 0.01), ((0, 1), 0.2)])

    def test_vacuous(self):
        assert hits_all_balls(self.PATH, [])

    def test_closed_ball_touch(self):
        assert hits_all_balls(self.PATH, [((0.5, 0.1), 0.1)])

    def test_one_vertex_path(self):
        p = Polyline([Point(0.5, 0.5)])
        assert hits_all_balls(p, [((0.5, 0.55), 0.1), ((0.45, 0.5), 0.1)])
        assert not hits_all_balls(p, [((0.5, 0.55), 0.1), ((0.5, 0.7), 0.1)])

    def test_point_centre(self):
        assert hits_all_balls(self.PATH, [(Point(1.05, 0.5), 0.1)])
        assert not hits_all_balls(self.PATH, [(Point(0.5, 0.5), 0.1)])
