"""Per-stage CPU time of one `estimate arm` trial at the benchmark's size.

Samples seeded soups of the `arm` workload (u 0.15, alpha 2, r_min 0.05 on
D(16), about 49k sticks) and times them two ways:

- warm: per soup, the clip to A(1, 16), the flood's grid, the flood and the
  whole `arm_reach`, each timed ``--reps`` times in turn in this process;
  the median CPU time (process_time) is printed in ms, with the totals of
  clipped pieces and reached pieces;
- fresh workers: each run of ``--chunk`` soups is sampled and put through
  `arm_reach` once, in trial order, in a newly forked process, as the
  estimator's forked workers run their trials; the mean CPU time per soup
  of both steps and the minor page faults of `arm_reach` are printed.

Run it from the root of the source tree, pinned to one CPU:

    PYTHONPATH=src taskset -c 0 python3 tools/arm_stages.py --soups 20 --reps 8
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import statistics
import time

import numpy as np

from sticksoup.events import _cell_table, _clip_to_region, _flood, arm_reach
from sticksoup.geometry import Annulus, Point, region_tol
from sticksoup.seeds import derive_seed
from sticksoup.soup import DiskWindow, SoupParams, sample_configuration

ANNULUS = Annulus(Point(0.0, 0.0), 1.0, 16.0)
WINDOW = DiskWindow(Point(0.0, 0.0), 16.0)


def soup(seed: int, i: int):
    return sample_configuration(SoupParams(0.15, 2.0), WINDOW, 0.05, derive_seed(seed, i))


def fresh_worker(seed: int, soups: range) -> tuple[float, float, int]:
    """CPU seconds of sampling and of arm_reach, and the minor page faults of
    arm_reach, summed over ``soups`` run in trial order in this process."""
    sample_s = reach_s = 0.0
    faults = 0
    for i in soups:
        t = time.process_time()
        c = soup(seed, i)
        sample_s += time.process_time() - t
        f, t = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
        arm_reach(c, ANNULUS)
        reach_s += time.process_time() - t
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f
    return sample_s, reach_s, faults


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--soups", type=int, default=20)
    ap.add_argument("--reps", type=int, default=8)
    ap.add_argument("--chunk", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    eps = region_tol(ANNULUS)
    times = {"clip": [], "grid": [], "flood": [], "arm_reach": []}
    sticks = pieces_total = reached_total = 0
    for i in range(args.soups):
        c = soup(args.seed, i)
        segs = c.segments()
        pieces, _, touch = _clip_to_region(segs, ANNULUS)
        seeds = np.flatnonzero(touch["inner"])
        stages = {
            "clip": lambda: _clip_to_region(segs, ANNULUS),
            "grid": lambda: _cell_table(pieces, eps),
            "flood": lambda: _flood(pieces, seeds, eps),
            "arm_reach": lambda: arm_reach(c, ANNULUS),
        }
        for _ in range(args.reps):
            for name, call in stages.items():
                t = time.process_time()
                call()
                times[name].append(time.process_time() - t)
        sticks += c.n_sticks
        pieces_total += len(pieces)
        reached_total += int(_flood(pieces, seeds, eps).sum())
    print(f"soups {args.soups}, sticks {sticks}, pieces {pieces_total}, "
          f"reached {reached_total}")
    print("warm, median ms per soup")
    for name, ts in times.items():
        print(f"  {name:10s} {1e3 * statistics.median(ts):8.3f}")

    ctx = multiprocessing.get_context("fork")
    totals = np.zeros(3)
    for first in range(0, args.soups, args.chunk):
        chunk = range(first, min(first + args.chunk, args.soups))
        with ctx.Pool(1) as pool:
            totals += pool.apply(fresh_worker, (args.seed, chunk))
    sample_s, reach_s, faults = totals / args.soups
    print(f"fresh workers of {args.chunk} soups, mean per soup")
    print(f"  {'sample':10s} {1e3 * sample_s:8.3f} ms")
    print(f"  {'arm_reach':10s} {1e3 * reach_s:8.3f} ms, {faults:.0f} minor faults")


if __name__ == "__main__":
    main()
