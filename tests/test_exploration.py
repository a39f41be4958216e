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
    _snap,
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
    stick_to_segment,
    segment_intersection,
)
from sticksoup.soup import Configuration, DiskWindow, SoupParams, sample_configuration

PARAMS = SoupParams(1.0, 2.0, 0)
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
        arr = build_arrangement(cfg_from([[0.5, 0.5, 0.1, 0.4]]), UNIT_BOX)
        assert arr.n_vertices == 6
        assert arr.n_darts == 10  # 4 sides + 1 stick edge
        degrees = sorted(arr.degree(v) for v in range(arr.n_vertices))
        assert degrees == [1, 1, 2, 2, 2, 2]

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
            cfg = sample_configuration(SoupParams(u, 2.0, seed), window, r_min, seed)
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
            assert len(res.dart_log) == len(set(res.dart_log))
            built += 1
        assert built >= 18

    def test_hand_built_scenes(self):
        check_invariants(build_arrangement(cfg_from([]), UNIT_BOX))
        cfg, box = figure_configuration()
        check_invariants(build_arrangement(cfg, box))

    def test_chained_near_coincidence_degenerate(self):
        # three stick tips 0.7 eps apart on a line: the first and the last
        # are not within eps, so which vertex the middle one joins would
        # depend on the order the points are merged in
        eps = 1e-9 * UNIT_BOX.diagonal()
        rows = []
        for k, (dx, dy) in enumerate([(-0.3, -0.2), (0.0, 0.3), (0.3, -0.2)]):
            tip_x, tip_y = 0.5 + 0.7 * k * eps, 0.5
            r = math.hypot(dx, dy) / 2
            v = math.atan2(dy, dx)
            if v > math.pi / 2:
                v -= math.pi
            elif v <= -math.pi / 2:
                v += math.pi
            rows.append([tip_x + dx / 2, tip_y + dy / 2, r, v])
        with pytest.raises(DegeneracyError, match="chained"):
            build_arrangement(cfg_from(rows), UNIT_BOX)


def sequential_snap(xs, ys, eps):
    """Reference rule: each point in turn joins the first earlier vertex found
    within eps on a grid of cells of side eps, else founds a new vertex."""
    cells, vx, vy, vid = {}, [], [], []
    for x, y in zip(xs.tolist(), ys.tolist()):
        ix, iy = round(x / eps), round(y / eps)
        found = next(
            (
                v
                for nx in (ix - 1, ix, ix + 1)
                for ny in (iy - 1, iy, iy + 1)
                for v in cells.get((nx, ny), ())
                if (vx[v] - x) ** 2 + (vy[v] - y) ** 2 <= eps * eps
            ),
            None,
        )
        if found is None:
            found = len(vx)
            vx.append(x)
            vy.append(y)
            cells.setdefault((ix, iy), []).append(found)
        vid.append(found)
    return np.array(vid), np.array(vx), np.array(vy)


def test_snap_matches_sequential_rule():
    rng = np.random.default_rng(5)
    eps = 2e-9
    chains = 0
    for _ in range(300):
        base = rng.uniform(-1, 1, (int(rng.integers(1, 100)), 2))
        # exact and near copies; 0.9 eps copies of one point can be 1.8 eps
        # apart, which makes a chain
        i = rng.integers(0, len(base), 12)
        r = rng.choice([0.0, 0.3, 0.45, 0.9], 12) * eps
        th = rng.uniform(0, 2 * math.pi, 12)
        copies = base[i] + r[:, None] * np.column_stack([np.cos(th), np.sin(th)])
        pts = rng.permutation(np.vstack([base, copies]))
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        ref_vid, ref_x, ref_y = sequential_snap(x, y, eps)
        try:
            vid, founders = _snap(x, y, eps)
        except DegeneracyError:
            chains += 1
            continue
        assert np.array_equal(vid, ref_vid)
        assert np.array_equal(x[founders], ref_x) and np.array_equal(y[founders], ref_y)
    assert 0 < chains < 100


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
    cfg = sample_configuration(SoupParams(0.3, 2.0, seed), window, 0.08, seed)
    res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
    digest = hashlib.sha256(res.path.coords.tobytes()).hexdigest()
    assert (res.outcome, digest, res.edge_labels) == GOLDEN_WALKS[seed]


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
    def test_agreement_with_cluster_oracle(self):
        mismatches = 0
        for i in range(60):
            cfg = sample_configuration(SoupParams(0.4, 2.0, 0), UNIT_WINDOW, 0.05, 3000 + i)
            try:
                res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
            except DegeneracyError:
                continue
            part = covered_components(cfg.stick_data, UNIT_BOX)
            oracle_top = part.any_cluster_touching("bottom", "top")
            mismatches += (res.outcome == "Top") != oracle_top
        assert mismatches == 0


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


class TestPolylineCrossesSegment:
    SEG = Segment(Point(-1, 0), Point(1, 0))

    def test_transversal_x(self):
        assert polyline_crosses_segment(Polyline([Point(0, -1), Point(0, 1)]), self.SEG)

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


class TestRefinementDiagnostic:
    def test_sup_distance_of_coupled_refinements_reported(self, capsys):
        # diagnostic only: the walk of a coarser truncation of the same sample
        # is compared to the finer walk; no bound is asserted
        from sticksoup.exploration import polyline_sup_distance
        from sticksoup.soup import restrict_configuration

        fine = sample_configuration(SoupParams(0.3, 2.0, 0), UNIT_WINDOW, 0.02, 77)
        res_fine = trace_exploration(build_arrangement(fine, UNIT_BOX))
        dists = []
        for r in (0.05, 0.1):
            coarse = restrict_configuration(fine, r)
            res = trace_exploration(build_arrangement(coarse, UNIT_BOX))
            dists.append(polyline_sup_distance(res_fine.path, res.path))
        print(f"refinement sup-distances at r=(0.05, 0.1): {dists}")
        assert all(d >= 0 for d in dists)

    def test_identical_paths_have_zero_distance(self):
        from sticksoup.exploration import polyline_sup_distance

        p = Polyline([Point(0, 0), Point(1, 0), Point(1, 1)])
        assert polyline_sup_distance(p, p) == pytest.approx(0.0, abs=1e-12)


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
