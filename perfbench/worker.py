"""One workload process: set up, run the cold operation, then the timed loop.

Started by run.py as a fresh interpreter (`python3 perfbench/worker.py ...`)
with the BLAS pools pinned and `src/` on PYTHONPATH.  `--spawned-at` is the
parent's time.monotonic() just before the spawn (CLOCK_MONOTONIC is shared by
all processes), so set-up is measured from before this interpreter started.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads


def make_workload(name: str, seed: int, scratch: str, eta_sign_flip: bool):
    if name == "validate":
        return workloads.Validate(seed, eta_sign_flip=eta_sign_flip)
    if name == "kernel_scale":
        return workloads.KernelScale(seed)
    if name == "cli_cold":
        return workloads.CliCold(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


def run_one(wl, i: int) -> workloads.Outcome:
    try:
        return wl.run_op(i)
    except Exception:  # an op that raises is a failed op; keep measuring
        traceback.print_exc(file=sys.stderr)
        return workloads.Outcome(True, False, 0.0, "raised")


def timed_loop(wl, first: int, seconds: float, tracer=None):
    """Run ops first, first+1, ... until `seconds` have elapsed, then on to the
    end of the workload's cycle, so that every run covers whole cycles."""
    durations, outcomes = [], []
    start = time.perf_counter()
    i = first
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        outcomes.append(run_one(wl, i))
        durations.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and i % wl.cycle == 0:
            return durations, outcomes, elapsed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def versions() -> dict:
    import platform

    import greenkit
    import numpy
    import scipy

    return {"greenkit": greenkit.__version__, "greenkit_file": os.path.relpath(greenkit.__file__),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "python": platform.python_version()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--probe", action="store_true", help="stop after the cold first op")
    ap.add_argument("--scratch", required=True, help="directory for CLI outputs and span dumps")
    ap.add_argument("--eta-sign-flip", action="store_true", help="negative control for validate")
    args = ap.parse_args()

    wl = make_workload(args.workload, args.seed, args.scratch, args.eta_sign_flip)
    first = run_one(wl, 0)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "digest": wl.digest()}
    if args.probe:
        print(json.dumps(result))
        return 0

    outcomes = [first]
    largest_kernel = getattr(wl, "largest_kernel_bytes", None)
    if args.trace:
        from tracer import Tracer

        # half the time untraced, half traced: the ratio is the tracing overhead
        _, plain, plain_s = timed_loop(wl, 1, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            _, traced, traced_s = timed_loop(wl, 1 + len(plain), args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        outcomes += plain + traced
        result["layers"] = layer_metrics(tracer, wl, len(traced))
        largest_kernel = tracer.counters.get("largest_kernel_bytes", largest_kernel)
        result["layers"]["trace.overhead_frac"] = (len(plain) / plain_s) / (len(traced) / traced_s) - 1.0
        spans = os.path.join(args.scratch, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans)
        result["spans_file"] = os.path.relpath(spans)
    else:
        durations, timed, elapsed = timed_loop(wl, 1, args.seconds)
        outcomes += timed
        result["op_p50_s"] = statistics.median(durations)
        result["op_samples"] = len(durations)
        result["ops_per_s"] = len(durations) / elapsed

    result["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli_cold")
    result["attempted"] = len(outcomes)
    result["failed"] = sum(o.failed for o in outcomes)
    result["wrong"] = sum(o.wrong for o in outcomes)
    result["check_margin"] = max(o.margin for o in outcomes)
    result["failures"] = sorted({o.detail for o in outcomes if o.failed})
    result["largest_kernel_bytes"] = largest_kernel
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, wl, n_ops: int) -> dict:
    """Per-op means over the traced ops; every name on every workload."""
    from tracer import NAMED_FUNCTIONS

    per_op = max(n_ops, 1)
    busy = tracer.self_times()
    counters = tracer.counters
    out = {}
    for layer in ("spectra", "grid", "firstorder", "secondorder", "freqdomain", "distlab"):
        out[f"{layer}.calls"] = counters.get(f"{layer}.calls", 0) / per_op
        out[f"{layer}.busy_s"] = busy.get(layer, 0.0) / per_op
    for group in NAMED_FUNCTIONS:
        out[f"{group}.busy_s"] = busy.get(group, 0.0) / per_op
    out["firstorder.kernel_entry.calls"] = counters.get("firstorder.kernel_entry.calls", 0) / per_op
    for key in ("firstorder.kernel_bytes", "firstorder.mode_sum_flops", "secondorder.kernel_bytes",
                "secondorder.mode_sum_flops", "freqdomain.omega_points"):
        out[key] = counters.get(key, 0) / per_op
    # criteria: inclusive span, so the eleven split a validate op
    criteria = tracer.inclusive_times("validation.criterion_")
    for number in range(1, 12):
        total = sum(v for g, v in criteria.items() if g.startswith(f"validation.criterion_{number}_"))
        out[f"validation.c{number:02d}_s"] = total / per_op
    out["validation.self_s"] = busy.get("validation", 0.0) / per_op
    # CLI children: io counts over the first full cycle, so they repeat exactly
    io_counts = getattr(wl, "io_counts", [])[: wl.cycle]
    n = max(len(io_counts), 1)
    out["io.files_written"] = sum(f for f, _ in io_counts) / n
    out["io.bytes_written"] = sum(b for _, b in io_counts) / n
    walls = getattr(wl, "walls", {})
    for sub in (*workloads.SUBCOMMANDS, "usage_error"):
        out[f"cli.{sub}.wall_s"] = statistics.median(walls[sub]) if walls.get(sub) else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
