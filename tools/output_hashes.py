"""sha256 of each benchmark workload's output, for byte-identity checks.

For every workload in ``perfbench/workloads.py`` and every seed given, runs
the workload's commands in order through ``sticksoup.cli.run`` and prints
one line ``<workload> <seed> <sha256>``, the hash taken over the commands'
stdout concatenated.  The program is imported from the ``src/`` of the tree
this script lives in, so running it in two trees and comparing the lines
checks that a change keeps every benchmark output byte for byte:

    python3 tools/output_hashes.py                 # seeds 1, 2 and 20261018
    python3 tools/output_hashes.py --seeds 1 --workloads verify

Exits 1 when a command fails (its exit code is not 0).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (1, 2, 20261018)


def workload_hash(cli, commands) -> str:
    digest = hashlib.sha256()
    for cmd in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(cmd.argv)
        if code != 0:
            raise SystemExit(f"output_hashes: {' '.join(cmd.argv)} exited {code}")
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from sticksoup import cli
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args()
    for name in args.workloads:
        for seed in args.seeds:
            print(name, seed, workload_hash(cli, WORKLOADS[name](seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
