"""Quick test of the benchmark itself, at tiny sizes.

For every workload it runs the operation list once and requires every
output check to pass, then scales one checked value of each output by
1.01 and requires the check to fail. It also runs one traced pass and
requires byte-identical stdout, every expected entry point reached, and
the original functions restored afterwards. Run from the checkout root:

    python3 perfbench/quicktest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import msd  # noqa: E402
import msd.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

SEED = 3


def corrupt(text: str, probe: tuple) -> str:
    """Scale the value at ``probe`` by 1.01: a JSON key path, or ("row", i)
    for the value column of row i of a moment CSV."""
    if probe[0] == "row":
        header, *rows = text.splitlines()
        i = probe[1] % len(rows)
        t, value, err = rows[i].split(",")
        rows[i] = f"{t},{float(value) * 1.01!r},{err}"
        return "\n".join([header, *rows]) + "\n"
    data = json.loads(text)
    node = data
    for key in probe[:-1]:
        node = node[key]
    node[probe[-1]] = node[probe[-1]] * 1.01
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def check_workload(name: str) -> list[str]:
    problems = []
    ops = operations(name, SEED, tiny=True)
    for op in ops:
        if op.prepare is not None:
            op.prepare()
    plain = worker.run_pass(ops)
    problems += plain.messages
    for op, text in zip(ops, plain.outputs):
        try:
            op.check(corrupt(text, op.probe), op.params)
        except checks.CheckError:
            continue
        except Exception as exc:
            problems.append(f"{name}/{op.name}: corrupted output raised {exc!r}")
            continue
        problems.append(f"{name}/{op.name}: corrupting {op.probe} went unnoticed")

    originals = {n: getattr(msd, n) for n in ("decoupling_check", "simulate_fundamental")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    problems += traced.messages
    changed = worker.mismatches(plain, traced, ops)
    if changed:
        problems.append(f"{name}: tracing changed stdout of {changed}")
    missing = tracer.missing(name)
    if missing:
        problems.append(f"{name}: traced pass never reached {missing}")
    if any(getattr(msd, n) is not f for n, f in originals.items()):
        problems.append(f"{name}: uninstall left a wrapper in place")
    print(f"{name}: {len(ops)} operations, {plain.wall:.2f} s plain, "
          f"{traced.wall:.2f} s traced, {tracer.spans} spans", file=sys.stderr)
    return problems


def main() -> int:
    problems = [p for name in WORKLOADS for p in check_workload(name)]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("quicktest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
