"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_CHECKOUT --workload W [--pairs N] [--seed S]

Runs the benchmark command of this checkout's ``BENCHMARK.json`` with
``--trace 0`` and its run length, once in PARENT_CHECKOUT and once in this
checkout per pair, N pairs in all. Odd pairs run the parent first, even
pairs this checkout first, so a host that drifts between runs drifts on
both sides alike. Prints one line per pair, then for each end-to-end
metric of ``BENCHMARK.json``: each side's median and quartiles, how many
pairs this checkout read better and worse (by the metric's ``better``),
and a verdict. Each pair line and the summary also give each side's
setup and pass times as measured, before ``setup_s`` and ``wall_s`` are
scaled by the calibration kernel's time, so a verdict can be told apart
from noise in that kernel. The bound is relative to the parent's median:

    within bound        the change's median is not worse by more than the bound
    worse beyond bound  it is
    unresolved          the parent's quartile spread exceeds the bound, so
                        the runs cannot tell either way

Exits 1 if a run fails, reports ``correct: false`` or fails an operation.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunError(RuntimeError):
    """One benchmark run did not give a usable result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, pair counts and verdict of one metric.

    ``metric`` is an ``end_to_end`` entry of ``BENCHMARK.json``; ``parent``
    and ``change`` hold the values of the same pairs, in pair order.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_q, c_q = quartiles(parent), quartiles(change)
    worse_by = sign * (c_q[1] - p_q[1]) / p_q[1]
    spread = (p_q[2] - p_q[0]) / p_q[1]
    if spread > metric["bound"]:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "worse beyond bound"
    else:
        verdict = "within bound"
    return {
        "name": metric["name"],
        "parent": p_q,
        "change": c_q,
        "better": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
        "worse": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
        "worse_by": worse_by,
        "spread": spread,
        "verdict": verdict,
    }


# The line perfbench/run.py writes to stderr with the medians behind setup_s
# and wall_s before calibration scales them.
_MEASURED = re.compile(r"^as measured: setup (\S+) s, pass (\S+) s;", re.MULTILINE)
UNSCALED = ("setup_unscaled_s", "pass_unscaled_s")


def measured(stderr: str) -> dict:
    """The unscaled setup and pass times of a run's ``as measured`` line."""
    found = _MEASURED.findall(stderr)
    if not found:
        raise RunError("no 'as measured' line on stderr")
    return dict(zip(UNSCALED, map(float, found[-1])))


def run_once(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    """Metric values of one ``--trace 0`` run in ``checkout``, and its
    unscaled times (:func:`measured`)."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunError(f"{checkout}: exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RunError(f"{checkout}: correct {result['correct']}, "
                       f"{result['failed']} of {result['attempted']} operations failed")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    return values | measured(proc.stderr)


def _fmt(values: tuple[float, ...]) -> str:
    return " ".join(f"{v:.5g}" for v in values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    try:
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], spec, args.workload, args.seed))
            print(f"pair {i} ({order[0]} first): " + "; ".join(
                f"{name} {runs['parent'][-1][name]:.5g} -> {runs['change'][-1][name]:.5g}"
                for name in [m["name"] for m in metrics] + list(UNSCALED)), flush=True)
    except RunError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    for m in metrics:
        row = summarize(m, [r[m["name"]] for r in runs["parent"]],
                        [r[m["name"]] for r in runs["change"]])
        print(f"{row['name']}: parent {_fmt(row['parent'])}, change {_fmt(row['change'])} "
              f"(q1 median q3); better in {row['better']}, worse in {row['worse']} "
              f"of {args.pairs}; worse by {row['worse_by']:+.1%}, parent spread "
              f"{row['spread']:.1%}, bound {m['bound']:.0%}: {row['verdict']}")
    for name in UNSCALED:
        print(f"{name}: parent median {statistics.median(r[name] for r in runs['parent']):.5g}, "
              f"change median {statistics.median(r[name] for r in runs['change']):.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
