"""msd benchmark: one workload per call, result as one JSON line.

Run from the root of a source checkout (msd's sources under ``src/``):

    python3 perfbench/run.py --workload ode --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``, the
median over fresh interpreters of the time to import ``msd.cli``;
``wall_s``, the median time of one pass over the workload's operations;
and ``peak_rss_mb`` of the workload process. With ``--trace 1`` it
reports the per-layer metrics from a traced run instead. The workload
runs in its own process with at most two BLAS/OpenMP threads; every
operation's output is checked (see checks.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_STARTS = 5
IMPORTTIME_STARTS = 3
THREADS = "2"
# Every run must end within 180 s; keep margin for reporting.
DEADLINE_S = 170.0
IMPORT_CLI = "import msd.cli, os; os._exit(0)"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()} | {
    "cli.import_s": "s",
    "numerics.import_scipy_s": "s",
    "trace.spans": "count",
    "trace.kernel_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_seconds(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Times from a fresh interpreter's start until msd.cli is imported, and
    for each the median calibration kernel time of the two before and the
    two after it."""
    kernel = [calibrate.kernel_seconds() for _ in range(2)]
    times, around = [], []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        run_child([sys.executable, "-c", IMPORT_CLI], env, deadline)
        times.append(time.perf_counter() - start)
        kernel += [calibrate.kernel_seconds() for _ in range(2)]
        around.append(statistics.median(kernel[-4:]))
    return times, around


def parse_importtime(stderr: str) -> dict[str, float]:
    """cli.import_s and numerics.import_scipy_s from ``-X importtime`` lines."""
    cli = None
    scipy: list[tuple[int, float]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) * 1e-6
        depth = len(parts[2]) - len(parts[2].lstrip())
        name = parts[2].strip()
        if name == "msd.cli":
            cli = cumulative
        elif name == "scipy" or name.startswith("scipy."):
            scipy.append((depth, cumulative))
    if cli is None or not scipy:
        raise BenchError("import trace lacks msd.cli or scipy")
    top = min(d for d, _ in scipy)
    return {"cli.import_s": cli,
            "numerics.import_scipy_s": sum(c for d, c in scipy if d == top)}


def import_layers(env: dict, deadline: float) -> dict[str, float]:
    runs = [parse_importtime(run_child([sys.executable, "-X", "importtime", "-c",
                                        IMPORT_CLI], env, deadline).stderr)
            for _ in range(IMPORTTIME_STARTS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "msd" / "cli.py").is_file():
        raise BenchError(f"msd sources not found under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    if trace:
        extra = import_layers(env, deadline)
    else:
        setup, setup_kernel = setup_seconds(env, deadline)
    proc = run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                      "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(int(trace))], env, deadline)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for message in res["messages"]:
        sys.stderr.write(f"failed: {message}\n")
    if trace:
        values = res["layer"] | extra
        values["trace.kernel_s"] = statistics.median(res["kernel_seconds"])
        units = LAYER_UNITS
    else:
        values = {"setup_s": calibrate.scaled_median(setup, setup_kernel),
                  "wall_s": calibrate.scaled_median(res["pass_seconds"],
                                                    res["kernel_seconds"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        sys.stderr.write(
            f"as measured: setup {statistics.median(setup):.4f} s, "
            f"pass {statistics.median(res['pass_seconds']):.4f} s; kernel "
            f"{statistics.median(setup_kernel):.5f} s and "
            f"{statistics.median(res['kernel_seconds']):.5f} s\n")
        units = END_TO_END
    return {
        "correct": bool(res["deterministic"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="msd benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        sys.stderr.write(f"benchmark error: {err}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
