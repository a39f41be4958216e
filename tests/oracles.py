"""Test oracles shared by several test modules: independent routes to
results that the package computes another way."""

import numpy as np

from sticksoup.geometry import batch_clip_to_box, batch_pair_intersections, candidate_pairs


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
