"""sticksoup benchmark: trials per second, set-up time and memory per workload.

    python3 perfbench/run.py --workload arm --seed 1 --seconds 30 --trace 0

Run from the root of a sticksoup source tree; the program is imported from
``src/``.  The workload runs in a fresh worker process with BLAS/OpenMP
threads pinned to one, closed loop, one command at a time (see worker.py and
workloads.py).  Set-up time is the median over fresh processes that import
the CLI and build its parser.  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run.  Lines before it record the environment, each command's output
hash and every metric by name.  Exits 2 without a result when the source tree
is missing, 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1  # README.md names the held-out seed for confirming claims
SETUP_PROBES = 5
WORKER_GRACE_S = 120.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "trace.traced_trials_per_s": "trials/s",
    "trace.untraced_trials_per_s": "trials/s",
    "geometry.hit_ratio": "ratio",
    "estimators.trial_ms_p50": "ms",
    "estimators.trial_ms_p90": "ms",
}


def _unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def _env() -> dict:
    return dict(os.environ, **PINNED)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> str:
    return " ".join(f"{v:.2f}" for v in os.getloadavg())


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _probe_setup() -> float:
    """Seconds from spawning a fresh interpreter until the CLI is ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--probe"],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return ready


def _run_worker(args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=args.seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rate(passes: list[dict]) -> float:
    """Median over passes of estimator trials per second of command time."""
    return statistics.median(p["trials"] / p["wall"] for p in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["arm", "h1", "verify"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (args.seconds > 0):
        return _fail("--seconds must be positive", 2)
    if not (ROOT / "src" / "sticksoup" / "cli.py").is_file():
        return _fail(f"no sticksoup source tree under {ROOT / 'src'}", 2)

    load_start = _loadavg()
    try:
        record = _run_worker(args)
        setup = [] if args.trace else [_probe_setup() for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return _fail(str(exc), 1)
    load_end = _loadavg()

    passes = record["passes"]
    outcomes = [c for p in passes for c in p["commands"]]
    attempted = len(outcomes)
    failed = sum(c["failure"] is not None for c in outcomes)
    mismatches = record.get("count_mismatches", [])

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **record["versions"],
        "pinned": PINNED,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "program": record["program"],
    }
    traced = [p for p in passes if p["traced"]]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} traced_passes={len(traced)}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, argv in enumerate(record["argv"]):
        hashes = sorted({p["commands"][i]["sha256"] for p in passes})
        fails = [p["commands"][i]["failure"] for p in passes if p["commands"][i]["failure"]]
        print(f"command {i} sha256={','.join(hashes)} failed={len(fails)}/{len(passes)} "
              f"argv={' '.join(argv)}")
        for reason in sorted(set(fails)):
            print(f"  failure: {reason}")
    if record.get("missing_bindings"):
        print("trace: bindings not found: " + ", ".join(record["missing_bindings"]))
    for name in mismatches:
        print(f"count mismatch between traced passes: {name}")

    if args.trace:
        untraced = [p for p in passes if not p["traced"]]
        metrics = dict(record["layers"])
        metrics["trace.traced_trials_per_s"] = _rate(traced)
        metrics["trace.untraced_trials_per_s"] = _rate(untraced)
        print(f"trace overhead: traced {metrics['trace.traced_trials_per_s']:.4f} trials/s "
              f"vs untraced {metrics['trace.untraced_trials_per_s']:.4f} trials/s")
    else:
        metrics = {
            "trials_per_s": _rate(passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
    print(f"metric failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} commands)")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {_unit(name)}")

    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "setup_s": setup, "result": result, "record": record}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
