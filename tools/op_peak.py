"""Time one benchmark operation and report the peak memory of its process.

    python3 tools/op_peak.py WORKLOAD OPERATION [--seed N] [--repeat N]

Runs the operation named OPERATION of ``perfbench/workloads.py`` in this
interpreter, through ``tools/output_digest.stdout_of`` (stdout and stderr
are dropped), ``--repeat`` times in a row (default 1). Each call is a fresh
process, so the peak belongs to that operation alone. Prints the best of
the wall times of the operation, which is the steadiest figure on a host
whose speed drifts, and the peak resident set size (``ru_maxrss``, in MB of
2^20 bytes as the benchmark reports it) after ``import msd.cli`` and at the
end. Exits 1 if a run exits non-zero or raises.

To compare with another checkout, copy this file into its ``tools``
directory and run it there.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from output_digest import stdout_of   # puts src/ and perfbench/ on sys.path
from workloads import WORKLOADS, operations


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("operation")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the operation this many times and report the best wall time")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    ops = {op.name: op for op in operations(args.workload, args.seed)}
    if args.operation not in ops:
        parser.error(f"operation must be one of {', '.join(ops)}")
    after_import = _peak_mb()
    walls = []
    code = 0
    for _ in range(args.repeat):
        start = time.perf_counter()
        try:
            code, _ = stdout_of(ops[args.operation])
        except Exception as exc:   # reported; the exit status says it failed
            print(f"{args.workload} {args.operation}: {exc!r}", file=sys.stderr)
            code = 1
        walls.append(time.perf_counter() - start)
        if code:
            break
    print(f"wall_s {min(walls):.3f}")
    print(f"rss_after_import_mb {after_import:.1f}")
    print(f"rss_peak_mb {_peak_mb():.1f}")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
