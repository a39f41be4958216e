"""Run one benchmark workload in this (fresh) process; print a JSON record.

    python3 perfbench/worker.py --workload arm --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --probe

The workload's command lines run one after another through
``sticksoup.cli.run``, in passes over the whole list, until the next pass
would end after ``--seconds``.  Every pass of a run uses the same command
lines.  With ``--trace 1`` pass 0, 3, 6, ... run untraced and the others
traced, with at least two traced passes, so trace overhead and count
determinism are measured on identical inputs.  ``--probe`` only imports the
CLI and builds its parser, for timing set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from sticksoup import cli

    return cli


def _run_command(cli, cmd) -> dict:
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(cmd.argv)
    except Exception as exc:  # FitError and friends escape cli.run
        code, failure = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text = out.getvalue()
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    if failure is None:
        try:
            failure = cmd.check(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            failure = f"unreadable report: {exc!r}"
    return {
        "wall": wall,
        "failure": failure,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = _import_cli()
    import numpy
    import scipy

    from tracer import Tracer, count_mismatches, layer_metrics
    from workloads import WORKLOADS

    commands = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    passes = []
    summaries = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 3 != 0
        pass_start = time.perf_counter()
        if traced:
            tracer.install()
            mark = tracer.mark()
        results = []
        try:
            for i, cmd in enumerate(commands):
                if traced:
                    tracer.command = len(passes) * len(commands) + i
                results.append(_run_command(cli, cmd))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            summaries.append(tracer.summary(mark))
        passes.append({
            "traced": traced,
            "wall": sum(r["wall"] for r in results),
            "trials": sum(c.trials for c in commands),
            "duration": time.perf_counter() - pass_start,
            "commands": results,
        })
        elapsed = time.perf_counter() - start
        longest = max(p["duration"] for p in passes)
        if len(summaries) >= (2 if trace else 0) and elapsed + longest > seconds:
            break

    record = {
        "argv": [cmd.argv for cmd in commands],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "program": str(Path(cli.__file__).resolve().parent),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(summaries)
        record["count_mismatches"] = count_mismatches(summaries)
        record["missing_bindings"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.probe:
        _import_cli().build_parser()
        print("ready", flush=True)
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
