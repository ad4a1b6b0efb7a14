"""Run the benchmark over several seeds and summarize each metric.

For every workload and seed it runs ``perfbench/run.py`` once, sequentially,
with ``run_seconds`` from BENCHMARK.json, and prints per metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. Raw results go
to ``perfbench/results/<label>.jsonl``. Run from the checkout root:

    python3 perfbench/steadiness.py --label set1 --seeds 1-10
    python3 perfbench/steadiness.py --label traced --seeds 1 --trace 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {(q3 - q1) / med:.3f}"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the results file")
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    failures = 0
    with open(out_dir / f"{args.label}.jsonl", "w", encoding="utf-8") as log:
        for workload in args.workloads.split(","):
            values: dict[str, list[float]] = {}
            shares = set()
            for seed in args.seeds:
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    failures += 1
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": workload, "seed": seed, **result,
                                      "elapsed_s": time.monotonic() - start,
                                      "stderr": proc.stderr.strip()}) + "\n")
                log.flush()
                shares.add((result["failed"] / result["attempted"], result["correct"]))
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            print(f"== {workload}: {len(args.seeds)} seeds, failed share and correct {sorted(shares)}")
            for name, vals in values.items():
                print(f"  {name:32s} {summarize(vals)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
