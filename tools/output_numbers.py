"""Compare the numbers in every benchmark output with another checkout's.

    python3 tools/output_numbers.py OTHER_CHECKOUT

Runs each operation of ``perfbench/workloads.py`` at seeds 1-3, in this
checkout and in OTHER_CHECKOUT, every run in its own subprocess through
that checkout's ``tools/output_digest.stdout_of``. Prints one line per
output: ``identical``, or how many of its numbers moved and the largest
relative change among them. Exits 1 if an operation fails on either side,
or if two outputs differ in anything but the values of their numbers.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The operation list is read from this checkout; building it imports msd.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, operations  # noqa: E402

SEEDS = (1, 2, 3)

# Run with a checkout's tools directory, a workload, a seed and an operation
# name; prints [exit code, stdout] of that operation as JSON.
_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from output_digest import stdout_of
from workloads import operations
seed = int(sys.argv[3])
op = next(op for op in operations(sys.argv[2], seed) if op.name == sys.argv[4])
json.dump(stdout_of(op), sys.stdout)
"""

# A number is not part of a word or of a quoted string.
_NUMBER = re.compile(r'(?<![\w."])-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?'
                     r'|NaN|Infinity|nan|inf)(?![\w."])')


def _output(checkout: Path, workload: str, seed: int, name: str) -> str | None:
    """Stdout of one operation, or None (reported on stderr) if it failed."""
    run = subprocess.run([sys.executable, "-c", _RUN, str(checkout / "tools"), workload,
                          str(seed), name], capture_output=True, text=True, cwd=checkout)
    if run.returncode:
        why = run.stderr.strip().splitlines()[-1:]
    else:
        code, text = json.loads(run.stdout)
        if code == 0:
            return text
        why = f"exit {code}"
    print(f"{checkout}: {workload} {name} {seed} failed: {why}", file=sys.stderr)
    return None


def compare(mine: str, theirs: str) -> str | None:
    """How the numbers of two outputs differ; None if anything else does."""
    if _NUMBER.sub("#", mine) != _NUMBER.sub("#", theirs):
        return None
    pairs = list(zip(_NUMBER.findall(mine), _NUMBER.findall(theirs)))
    moved = [(float(a), float(b)) for a, b in pairs if a != b]
    if not moved:
        return "identical"
    change = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in moved)
    change = math.inf if math.isnan(change) else change
    return f"{len(moved)} of {len(pairs)} numbers moved, largest relative change {change:.2g}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_numbers.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    failed = False
    for workload in WORKLOADS:
        for seed in SEEDS:
            for op in operations(workload, seed):
                texts = [_output(where, workload, seed, op.name) for where in (ROOT, other)]
                if None in texts:
                    verdict = "failed"
                else:
                    verdict = compare(*texts) or "differs in more than number values"
                failed |= verdict in ("failed", "differs in more than number values")
                print(f"{workload} {op.name} {seed}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
