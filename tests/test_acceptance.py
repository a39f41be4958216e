"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; the whole
module takes several minutes.  Criterion 11a (the gap-statistic tail slope)
is expected to fail: the required slope is unattainable at u = 1 because the
small-gap probabilities saturate near 1; see the dedicated comment there.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from sticksoup.estimators import (
    arm_decay_scan,
    coupled_arm_monotonicity,
    estimate_probability,
    h1_scan,
    invasion_domination_check,
    parker_cowan_check,
    property_void_scan,
    y_gap_samples,
)
from sticksoup.events import arm_event, double_circle_crossers, double_intersection_count
from sticksoup.exploration import (
    DegeneracyError,
    box_dimension,
    build_arrangement,
    count_traversals,
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
    batch_clip_to_box,
    batch_pair_intersections,
    candidate_pairs,
    segment_circle_intersections,
)
from sticksoup.seeds import derive_seed
from sticksoup.soup import (
    DiskWindow,
    SoupParams,
    radius_marginal_cdf,
    sample_configuration,
)

UNIT_BOX = Box(Point(0.0, 0.0), Point(1.0, 1.0))
UNIT_WINDOW = DiskWindow(Point(0.5, 0.5), math.sqrt(2.0) / 2.0)
ORIGIN = Point(0.0, 0.0)


def report(cid: str, passed: bool, detail: str) -> None:
    print(f"CRITERION {cid}: {'PASS' if passed else 'FAIL'} - {detail}", flush=True)
    assert passed, f"criterion {cid}: {detail}"


# ---------------------------------------------------------------------------
# 1. Parker-Cowan mean count


def test_c01_parker_cowan_mean_count():
    rep = parker_cowan_check(
        SoupParams(1.0, 2.0), DiskWindow(ORIGIN, 1.0), 0.5, 2.0, 10_000, 101
    )
    oracle = 3.75 * math.pi + 12.0
    ok = abs(rep.empirical_mean - rep.oracle) < 3.0 * rep.std_error
    report(
        "1",
        ok and rep.oracle == pytest.approx(oracle, abs=1e-9),
        f"band mean {rep.empirical_mean:.4f} vs oracle {rep.oracle:.4f} "
        f"(z = {rep.z_score:+.2f}, 10^4 trials)",
    )


# ---------------------------------------------------------------------------
# 2. Hit-count exactness + radius marginal


def test_c02_hit_count_and_radius_marginal():
    params = SoupParams(1.0, 2.0)
    window = DiskWindow(ORIGIN, 1.0)
    counts = np.empty(10_000)
    radii = []
    for i in range(10_000):
        cfg = sample_configuration(params, window, 1.0, derive_seed(202, i))
        counts[i] = cfg.n_sticks
        radii.append(cfg.stick_data[:, 2])
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    pooled = np.concatenate(radii)
    ks = stats.kstest(pooled, lambda x: radius_marginal_cdf(2.0, 1.0, 1.0, x))
    ok_mean = abs(mean - (math.pi + 8.0)) < 3.0 * se
    ok_ks = ks.pvalue > 0.01
    report(
        "2",
        ok_mean and ok_ks,
        f"mean count {mean:.4f} vs {math.pi + 8:.4f} (3se = {3 * se:.4f}); "
        f"KS over {len(pooled)} radii: stat {ks.statistic:.5f}, p = {ks.pvalue:.3f}",
    )


# ---------------------------------------------------------------------------
# 3. Double-intersection identity


def _band_double_crossers(u, lo, hi, trial_seed):
    """Exact count of band sticks (R in [lo, hi), hi <= 1) meeting the unit
    circle twice: such sticks have center distance rho with rho^2 inside
    [1 - R^2, 1 + R^2], so that PPP restriction is sampled directly."""
    lam = 4.0 * math.pi * u * math.log(hi / lo)
    rng = np.random.default_rng(np.uint64(trial_seed))
    n = rng.poisson(lam)
    r = lo * (hi / lo) ** rng.random(n)              # density ~ 1/R on [lo, hi)
    rho = np.sqrt(1.0 - r * r + 2.0 * r * r * rng.random(n))
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    v = rng.uniform(-math.pi / 2, math.pi / 2, n)
    data = np.column_stack([rho * np.cos(ang), rho * np.sin(ang), r, v])
    return int(np.count_nonzero(double_circle_crossers(data, 0.0, 0.0, 1.0)))


def test_c03_double_intersection_identity():
    params = SoupParams(1.0, 2.0)
    window = DiskWindow(ORIGIN, 1.0)
    r_min, r_mid = 1e-3, 0.25
    n = 10_000
    total = np.empty(n)
    for i in range(n):
        cfg = sample_configuration(params, window, r_mid, derive_seed(303, i, 0))
        total[i] = double_intersection_count(cfg, 1.0) + _band_double_crossers(
            1.0, r_min, r_mid, derive_seed(303, i, 1)
        )
    mean = total.mean()
    target = 2.0 * math.pi
    ok = abs(mean - target) <= 0.05 * target
    report(
        "3",
        ok,
        f"mean double crossings {mean:.4f} vs 2*pi = {target:.4f} "
        f"({abs(mean - target) / target * 100:.2f}% off, tol 5%, r_min = {r_min})",
    )


# ---------------------------------------------------------------------------
# 4. Scale invariance of arm probabilities


def test_c04_arm_scale_invariance():
    params = SoupParams(0.3, 2.0)
    small = estimate_probability(
        "ArmEventSpec",
        lambda c: arm_event(c, Annulus(ORIGIN, 1.0, 2.0)),
        params,
        DiskWindow(ORIGIN, 2.0),
        0.05,
        2000,
        404,
    )
    large = estimate_probability(
        "ArmEventSpec",
        lambda c: arm_event(c, Annulus(ORIGIN, 3.0, 6.0)),
        params,
        DiskWindow(ORIGIN, 6.0),
        0.15,
        2000,
        405,
    )
    ok = small.overlaps(large)
    report(
        "4",
        ok,
        f"P(arm D(1,2), r=0.05) = {small.estimate:.4f} {small.ci95} vs "
        f"P(arm D(3,6), r=0.15) = {large.estimate:.4f} {large.ci95}",
    )


# ---------------------------------------------------------------------------
# 5-7. Traced batches: dichotomy, topology, non-crossing


class _UF:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        p = self.p
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        self.p[self.find(a)] = self.find(b)


def _covered_top_bottom_oracle(cfg, box):
    """Independent union-find route: bottom side adjoined to the covered set,
    clipped sticks unioned on pairwise intersection, top side reachable?"""
    keep, clipped = batch_clip_to_box(cfg.segments(), box)
    n = len(clipped)
    if n == 0:
        return False
    tol = 1e-9 * max(1.0, box.diagonal())
    bottom = (np.abs(clipped[:, 1] - box.min.y) <= tol) | (
        np.abs(clipped[:, 3] - box.min.y) <= tol
    )
    top = (np.abs(clipped[:, 1] - box.max.y) <= tol) | (
        np.abs(clipped[:, 3] - box.max.y) <= tol
    )
    uf = _UF(n + 1)
    for i in np.flatnonzero(bottom):
        uf.union(int(i), n)
    I, J = candidate_pairs(clipped, tol)
    if len(I):
        hits, _, _, _ = batch_pair_intersections(clipped, I, J, tol)
        for i, j in zip(I[hits], J[hits]):
            uf.union(int(i), int(j))
    root = uf.find(n)
    return any(uf.find(int(i)) == root for i in np.flatnonzero(top))


def _clipped_segment(arr, s):
    """Stick s clipped to the arrangement's box, as a Segment."""
    x1, y1, x2, y2 = arr.clipped[arr.stick_ids == s][0]
    return Segment(Point(x1, y1), Point(x2, y2))


def _clockwise_contact_ok(res):
    """P1: contacts along each stick advance monotonically around its
    clipped boundary cycle (left flank out, right flank back)."""
    coords = res.path.coords
    for s in res.sticks_touched:
        seg = _clipped_segment(res.arrangement, s)
        e1 = np.array([seg.a.x, seg.a.y])
        d = np.array([seg.b.x - seg.a.x, seg.b.y - seg.a.y])
        L = float(np.hypot(*d))
        u = d / L
        intervals = []
        for i, lab in enumerate(res.edge_labels):
            if lab != s:
                continue
            pp = float((coords[i] - e1) @ u)
            pq = float((coords[i + 1] - e1) @ u)
            if pq >= pp:
                intervals.append((pp, pq))
            else:
                intervals.append((2 * L - pp, 2 * L - pq))
        if len(intervals) < 2:
            continue
        tol = 1e-7 * max(1.0, L)
        s0 = intervals[0][0]
        prev_end = -tol
        for a, b in intervals:
            ta = (a - s0) % (2 * L)
            tb = ta + (b - a)
            if ta < prev_end - tol:
                return False
            prev_end = tb
        if prev_end > 2 * L + tol:
            return False
    return True


def _p3_ok(res, ann):
    """P3: within the annulus no stick feeds three entering arms, and a stick
    feeding two must meet the inner circle twice."""
    _, arms = count_traversals(res.path, ann, res.edge_labels)
    used = Counter()
    for arm in arms:
        if arm.direction == "Entering":
            for s in arm.sticks_used:
                used[s] += 1
    for s, c in used.items():
        if c >= 3:
            return False
        if c == 2:
            seg = _clipped_segment(res.arrangement, s)
            if len(segment_circle_intersections(seg, ann.center, ann.inner)) != 2:
                return False
    return True


def _trace_batch(u, n_traces, salt):
    params = SoupParams(u, 2.0)
    ann = Annulus(Point(0.5, 0.5), 0.1, 0.4)
    summary = {
        "n": 0,
        "mismatches": 0,
        "tops": 0,
        "p1_fail": 0,
        "p3_fail": 0,
        "mult_fail": 0,
        "dart_fail": 0,
        "tail_crossings": 0,
        "degeneracies": 0,
    }
    i = 0
    while summary["n"] < n_traces:
        cfg = sample_configuration(params, UNIT_WINDOW, 0.05, derive_seed(salt, i))
        i += 1
        try:
            res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
        except DegeneracyError:
            summary["degeneracies"] += 1
            continue
        summary["n"] += 1
        summary["tops"] += res.outcome == "Top"
        oracle = _covered_top_bottom_oracle(cfg, UNIT_BOX)
        summary["mismatches"] += (res.outcome == "Top") != oracle
        summary["dart_fail"] += len(res.dart_log) != len(set(res.dart_log))
        visits = Counter(map(tuple, res.path.coords))
        summary["mult_fail"] += max(visits.values()) > 4
        summary["p1_fail"] += not _clockwise_contact_ok(res)
        summary["p3_fail"] += not _p3_ok(res, ann)
        tail = last_left_subpath(res, UNIT_BOX)
        if len(tail.coords) > 1:
            segs = cfg.segments()
            for x1, y1, x2, y2 in segs:
                if polyline_crosses_segment(
                    tail, Segment(Point(x1, y1), Point(x2, y2))
                ):
                    summary["tail_crossings"] += 1
                    break
    return summary


@pytest.fixture(scope="module")
def sparse_batch():
    return _trace_batch(0.2, 500, 505)


@pytest.fixture(scope="module")
def dense_batch():
    return _trace_batch(1.0, 500, 506)


def test_c05_exploration_dichotomy(sparse_batch, dense_batch):
    ok = sparse_batch["mismatches"] == 0 and dense_batch["mismatches"] == 0
    report(
        "5",
        ok,
        f"trace vs union-find oracle: {sparse_batch['mismatches']} mismatches "
        f"in {sparse_batch['n']} traces at u=0.2 ({sparse_batch['tops']} Top), "
        f"{dense_batch['mismatches']} in {dense_batch['n']} at u=1.0 "
        f"({dense_batch['tops']} Top)",
    )


def test_c06_topological_invariants(dense_batch):
    b = dense_batch
    ok = b["p1_fail"] == 0 and b["p3_fail"] == 0 and b["mult_fail"] == 0 \
        and b["dart_fail"] == 0
    report(
        "6",
        ok,
        f"over {b['n']} traces with annulus D((.5,.5); 0.1, 0.4): "
        f"P1 violations {b['p1_fail']}, P3 violations {b['p3_fail']}, "
        f"multiplicity>4 {b['mult_fail']}, dart reuse {b['dart_fail']}",
    )


def test_c07_suffix_crosses_no_stick(sparse_batch, dense_batch):
    total = sparse_batch["tail_crossings"] + dense_batch["tail_crossings"]
    report(
        "7",
        total == 0,
        f"last-left suffix crossings over {sparse_batch['n'] + dense_batch['n']} "
        f"traces: {total}",
    )


# ---------------------------------------------------------------------------
# 8. Coupled truncation monotonicity


def test_c08_coupled_monotonicity():
    rep = coupled_arm_monotonicity(
        SoupParams(0.3, 2.0),
        Annulus(ORIGIN, 1.0, 2.0),
        [0.05, 0.1, 0.2, 0.4],
        400,
        808,
    )
    report(
        "8",
        rep.violations == 0,
        f"arm indicator nonincreasing in r on coupled samples: "
        f"{rep.violations} violations over {rep.n_trials} trials; "
        f"estimates {['%.3f' % e for e in rep.estimates]}",
    )


# ---------------------------------------------------------------------------
# 9. Arm decay


def test_c09_arm_decay():
    rep = arm_decay_scan(SoupParams(0.1, 2.0), 0.1, 4, 2000, 909)
    est = rep.estimates
    decreasing = all(b < a for a, b in zip(est, est[1:]))
    ok = decreasing and rep.slope < 0 and rep.r_squared > 0.8
    report(
        "9",
        ok,
        f"P(arm D(1,2^m)) = {['%.4f' % e for e in est]}, strictly decreasing: "
        f"{decreasing}, slope {rep.slope:.3f} (eta_hat {rep.eta_hat:.3f}), "
        f"R^2 {rep.r_squared:.3f}",
    )


# ---------------------------------------------------------------------------
# 10. Annulus-traversal decay


def test_c10_h1_decay():
    params = SoupParams(0.1, 2.0)
    k1 = h1_scan(params, 0.15, 1, 3, 600, 1010)
    k3 = h1_scan(params, 0.15, 3, 3, 600, 1010)
    nested = all(a <= b for a, b in zip(k3.estimates, k1.estimates))
    ok = k1.slope < 0 and k1.r_squared > 0.8 and nested
    report(
        "10",
        ok,
        f"k=1 estimates {['%.4f' % e for e in k1.estimates]} slope {k1.slope:.3f} "
        f"R^2 {k1.r_squared:.3f}; k=3 {['%.4f' % e for e in k3.estimates]} "
        f"pointwise below: {nested}",
    )


# ---------------------------------------------------------------------------
# 11. Gap-statistic tail and invasion domination


def test_c11a_gap_tail_slope():
    # Faithful implementation of the stated check.  It cannot pass at u = 1:
    # P(gap >= n) = 1 - exp(-u * mu_n) with mu_n ~ 48 * 2^-n (numerical
    # quadrature of the two-circle hit measure), so the n = 3, 4 points
    # saturate near probability 1 and flatten the least-squares slope to
    # about -0.36, above the required -log(2) + 0.2 = -0.493.  The bound
    # P(gap >= n) <= c * u * 2^-n itself holds with room to spare.
    gaps = y_gap_samples(SoupParams(1.0, 2.0), 0, 0.125, 100_000, 1111)
    ns = np.arange(3, 9)
    tail = np.array([(gaps >= n).mean() for n in ns])
    slope = float(np.polyfit(ns, np.log(tail), 1)[0])
    threshold = -math.log(2.0) + 0.2
    report(
        "11a",
        slope <= threshold,
        f"tail P(gap>=n), n=3..8: {['%.4f' % p for p in tail]}; "
        f"LS slope {slope:.4f} vs required <= {threshold:.4f}",
    )


def test_c11b_invasion_domination():
    rep = invasion_domination_check(
        SoupParams(1.0, 2.0), 6, 0.5, 400, 1112, t_values=(2, 4, 8)
    )
    report(
        "11b",
        rep.dominated,
        f"sum of invasion gaps vs t * iid first gap at t={rep.t_values}: "
        f"means {['%.2f' % v for v in rep.mean_invasion_sums]} vs "
        f"{['%.2f' % v for v in rep.mean_iid_sums]} (paired diffs "
        f"{['%.2f' % v for v in rep.diff_means]})",
    )


# ---------------------------------------------------------------------------
# 12. Separated-ball decay of the interface suffix


def test_c12_property_void():
    balls = [((0.10, 0.35), 0.05), ((0.31, 0.35), 0.05), ((0.52, 0.35), 0.05),
             ((0.73, 0.35), 0.05), ((0.94, 0.35), 0.05)]
    rep = property_void_scan(SoupParams(0.2, 2.0), 0.05, balls, 600, 1212)
    est = rep.estimates
    nonincreasing = all(b <= a for a, b in zip(est, est[1:]))
    ok = nonincreasing and rep.q_hat < 1.0 and rep.r_squared > 0.7
    report(
        "12",
        ok,
        f"prefix hit probabilities {['%.4f' % e for e in est]}, "
        f"q_hat {rep.q_hat:.3f}, R^2 {rep.r_squared:.3f}",
    )


# ---------------------------------------------------------------------------
# 13. Box-dimension sanity


def _koch_polyline(level):
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    rot = np.array(
        [[math.cos(math.pi / 3), -math.sin(math.pi / 3)],
         [math.sin(math.pi / 3), math.cos(math.pi / 3)]]
    )
    for _ in range(level):
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            d = (b - a) / 3.0
            out += [a + d, a + d + rot @ d, a + 2 * d, b]
        pts = out
    return Polyline([Point(float(x), float(y)) for x, y in pts])


def test_c13_dimension_sanity():
    koch = box_dimension(_koch_polyline(5), [3.0 ** -k for k in range(1, 6)])
    koch_ok = abs(koch - math.log(4) / math.log(3)) <= 0.1
    params = SoupParams(0.3, 2.0)
    scales = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
    dims = []
    i = 0
    while len(dims) < 50:
        cfg = sample_configuration(params, UNIT_WINDOW, 0.01, derive_seed(1313, i))
        i += 1
        try:
            res = trace_exploration(build_arrangement(cfg, UNIT_BOX))
        except DegeneracyError:
            continue
        # dimension of the full traced interface (the suffix from the last
        # left-side touch can degenerate to a point and has no dimension)
        dims.append(box_dimension(res.path, scales))
    ok = all(1.0 < d < 2.0 for d in dims)
    report(
        "13",
        ok and koch_ok,
        f"interface dimensions over 50 traces in [{min(dims):.3f}, {max(dims):.3f}] "
        f"subset of (1,2); Koch oracle {koch:.3f} vs {math.log(4)/math.log(3):.3f}",
    )


# ---------------------------------------------------------------------------
# 14. Byte-for-byte determinism of every command


def test_c14_cli_determinism(tmp_path):
    from sticksoup.cli import run

    commands = {
        "sample": ["sample", "--u", "0.4", "--rmin", "0.1", "--window-radius", "1",
                   "--seed", "7"],
        "trace": ["trace", "--u", "0.3", "--rmin", "0.08", "--seed", "3",
                  "--box", "0", "0", "1", "1"],
        "est-arm": ["estimate", "arm", "--u", "0.3", "--rmin", "0.2", "--l1", "1",
                    "--l2", "2", "--window-radius", "2", "--trials", "80",
                    "--seed", "4"],
        "est-arm-scan": ["estimate", "arm", "--u", "0.15", "--rmin", "0.25",
                         "--scan-mmax", "2", "--trials", "60", "--seed", "4"],
        "est-h1": ["estimate", "h1", "--u", "0.2", "--rmin", "0.2", "--k", "1",
                   "--mmax", "2", "--trials", "40", "--seed", "5"],
        "est-lr1": ["estimate", "lr1", "--u", "0.5", "--l", "1", "--k", "1",
                    "--trials", "500", "--seed", "2"],
        "est-crossing": ["estimate", "crossing", "--u", "0.2", "--rmin", "0.1",
                         "--box", "0", "0", "1", "1", "--trials", "40", "--seed", "6"],
        "est-corr": ["estimate", "correlation", "--u", "0.5", "--rmin", "2",
                     "--l1", "1", "--l2", "8", "--trials", "100", "--seed", "6"],
        "est-void": ["estimate", "void", "--u", "0.2", "--rmin", "0.1",
                     "--balls", "0.2,0.5,0.1;0.7,0.5,0.1", "--trials", "60",
                     "--seed", "2"],
        "verify-pc": ["verify", "parker-cowan", "--u", "1", "--r", "0.5", "--t", "2",
                      "--trials", "300", "--seed", "1"],
        "verify-dc": ["verify", "double-circle", "--alpha", "2.5"],
        "verify-mh": ["verify", "mu-hit", "--alpha", "2", "--shape", "ball",
                      "--size", "1", "--range", "atleast", "--r", "1"],
        "invasion": ["invasion", "--u", "1", "--m", "5", "--rmin", "0.25",
                     "--trials", "4", "--seed", "4"],
        "inv-dom": ["invasion", "--u", "1", "--m", "5", "--rmin", "0.5",
                    "--trials", "30", "--seed", "4", "--domination"],
    }
    mismatched = []
    for name, argv in commands.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        assert run(argv + ["--out", str(a)]) == 0, name
        assert run(argv + ["--out", str(b)]) == 0, name
        if a.read_bytes() != b.read_bytes():
            mismatched.append(name)
    # render consumes the sampled file; compare twice from the same input
    src = tmp_path / "sample-a.out"
    r1 = tmp_path / "r1.svg"
    r2 = tmp_path / "r2.svg"
    for out in (r1, r2):
        assert run(["render", "--in", str(src), "--box", "-0.7", "-0.7", "0.7", "0.7",
                    "--trace", "--out", str(out)]) == 0
    if r1.read_bytes() != r2.read_bytes():
        mismatched.append("render")
    report(
        "14",
        not mismatched,
        f"{len(commands) + 1} commands rerun byte-for-byte; mismatches: "
        f"{mismatched or 'none'}",
    )
