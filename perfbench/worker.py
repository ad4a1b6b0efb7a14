"""One workload in one fresh process: warm-up, timed passes, checks.

Started by run.py with msd's sources on PYTHONPATH. Prints one JSON line
with the pass times, the operation counts, peak memory and, when traced,
the per-layer metrics. Usage:

    python3 perfbench/worker.py --workload ode --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import msd.cli

import calibrate
import tracing
from workloads import WORKLOADS, Op, operations


@dataclass
class PassResult:
    wall: float = 0.0
    kernel: list[float] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    failed: int = 0
    messages: list[str] = field(default_factory=list)


def run_op(op: Op, tracer: tracing.Tracer | None) -> tuple[int, str, str, float]:
    """Run one operation; returns (exit code, stdout text, stderr text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    span = (tracer.span(f"cli.{op.command}") if tracer is not None and op.argv
            else contextlib.nullcontext())
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            if op.argv is not None:
                code = msd.cli.dispatch(list(op.argv))
            else:
                out.write(op.call())
                code = 0
    except Exception as exc:   # a crash is a failed operation, not a failed run
        code = 1
        err.write(f"{type(exc).__name__}: {exc}\n")
    elapsed = time.perf_counter() - start
    if tracer is not None and op.argv:
        tracer.counts["cli.output_bytes"] += len(out.getvalue().encode())
    return code, out.getvalue(), err.getvalue(), elapsed


def check_op(op: Op, code: int, text: str, err: str) -> str | None:
    """None when the operation succeeded, else why it failed."""
    if code != 0:
        return f"{op.name}: exit {code}: {err.strip()[-300:]}"
    try:
        op.check(text, op.params)
    except Exception as exc:
        return f"{op.name}: {type(exc).__name__}: {exc}"
    return None


def run_pass(ops: list[Op], tracer: tracing.Tracer | None = None,
             calibrated: bool = False) -> PassResult:
    """Run every operation once. When ``calibrated``, time the calibration
    kernel before each operation and after the last, outside their times."""
    result = PassResult()
    for op in ops:
        if calibrated:
            result.kernel.append(calibrate.kernel_seconds())
        code, text, err, elapsed = run_op(op, tracer)
        result.wall += elapsed
        result.outputs.append(text)
        problem = check_op(op, code, text, err)
        if problem is not None:
            result.failed += 1
            result.messages.append(problem)
    if calibrated:
        result.kernel.append(calibrate.kernel_seconds())
    return result


def mismatches(reference: PassResult, other: PassResult, ops: list[Op]) -> list[str]:
    return [op.name for op, a, b in zip(ops, reference.outputs, other.outputs) if a != b]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Warm-up at the quick test's sizes: imports and first-call costs are
    # paid here, untimed and uncounted, at a fraction of a full pass.
    warm_ops = operations(args.workload, args.seed, tiny=True)
    ops = operations(args.workload, args.seed)
    for op in warm_ops + ops:
        if op.prepare is not None:
            op.prepare()
    warm = run_pass(warm_ops)
    for message in warm.messages:
        sys.stderr.write(f"warm-up: {message}\n")

    passes, timed, kernel, traced, traced_kernel, layer = [], [], [], [], [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        plain = run_pass(ops, calibrated=True)
        passes.append(plain)
        timed.append(plain.wall)
        kernel.append(statistics.median(plain.kernel))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with_trace = run_pass(ops, tracer, calibrated=True)
            finally:
                tracer.uninstall()
            passes.append(with_trace)
            changed = mismatches(plain, with_trace, ops)
            if changed:
                sys.stderr.write(f"tracing changed the stdout bytes of: {changed}\n")
                return 3
            missing = tracer.missing(args.workload)
            if missing:
                sys.stderr.write(f"traced run never reached: {missing}\n")
                return 3
            traced.append(with_trace.wall)
            traced_kernel.append(statistics.median(with_trace.kernel))
            layer.append(tracer.metrics() | {"trace.spans": float(tracer.spans)})
    # Outputs are a pure function of argv and seed, so every pass must
    # print the same bytes as the first.
    drift = {name for p in passes[1:] for name in mismatches(passes[0], p, ops)}

    result = {
        "attempted": len(ops) * len(passes),
        "failed": sum(p.failed for p in passes),
        "messages": sorted({m for p in passes for m in p.messages})[:10],
        "deterministic": not drift,
        "pass_seconds": timed,
        "kernel_seconds": kernel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        metrics["trace.overhead_pct"] = 100.0 * (
            calibrate.scaled_median(traced, traced_kernel)
            / calibrate.scaled_median(timed, kernel) - 1.0)
        result["layer"] = metrics
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
