"""greenkit benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 25 --trace 0

Run from the root of a greenkit checkout; the program is the source under
`src/`, put on PYTHONPATH.  Workloads: validate, kernel_scale, cli_cold (see
NOTES.md).  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics from a traced run.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Exits 2 without a result when the checkout has no greenkit source, and 1
when a workload process does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("validate", "kernel_scale", "cli_cold")
SETUP_SAMPLES = 3  # cold starts per run; setup_s is their median
IMPORT_PROBES = 3
BLAS_THREADS = 1  # of nproc; see NOTES.md
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "spectra.calls": "count", "spectra.busy_s": "s",
    "spectra.build_basis.busy_s": "s", "spectra.audit.busy_s": "s",
    "grid.calls": "count", "grid.busy_s": "s",
    "firstorder.calls": "count", "firstorder.busy_s": "s",
    "firstorder.auxiliary_kernel.busy_s": "s", "firstorder.propagate.busy_s": "s",
    "firstorder.composition_residual.busy_s": "s", "firstorder.kernel_entry.calls": "count",
    "firstorder.kernel_bytes": "B", "firstorder.mode_sum_flops": "flop",
    "secondorder.calls": "count", "secondorder.busy_s": "s",
    "secondorder.wave_auxiliary_kernel.busy_s": "s", "secondorder.field_from_source.busy_s": "s",
    "secondorder.kernel_bytes": "B", "secondorder.mode_sum_flops": "flop",
    "freqdomain.calls": "count", "freqdomain.busy_s": "s",
    "freqdomain.convolution_response.busy_s": "s", "freqdomain.inverse_transform_roundtrip.busy_s": "s",
    "freqdomain.omega_points": "count",
    "distlab.calls": "count", "distlab.busy_s": "s",
    "distlab.regularized_ft.busy_s": "s", "distlab.sokhotski_plemelj.busy_s": "s",
    "distlab.moment_report.busy_s": "s",
    **{f"validation.c{n:02d}_s": "s" for n in range(1, 12)},
    "validation.self_s": "s",
    "cli.import_s": "s", "cli.interp_s": "s",
    **{f"cli.{sub}.wall_s": "s" for sub in
       ("basis", "kernel", "propagate", "field", "freq", "distcheck", "validate", "usage_error")},
    "io.files_written": "count", "io.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}

# shape-derived counters: exact, identical on every run of the same code
COMPUTED = ("firstorder.kernel_bytes", "firstorder.mode_sum_flops", "secondorder.kernel_bytes",
            "secondorder.mode_sum_flops", "freqdomain.omega_points", "io.files_written", "io.bytes_written")


class BenchError(Exception):
    pass


def child_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(argv: list, env: dict, timeout: float) -> str:
    # own session, so a timeout also stops the CLI children of a worker
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} did not finish within {timeout:.0f} s") from exc
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}")
    return out


def worker(args, env: dict, scratch: str, deadline: float, *extra) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", scratch, *extra]
    out = run_child(argv + ["--spawned-at", repr(time.monotonic())], env, deadline - time.monotonic())
    return json.loads(out.strip().splitlines()[-1])


def import_probe(module: str, env: dict) -> float:
    t0 = time.perf_counter()
    run_child([sys.executable, "-c", f"import {module}"], env, 60)
    return time.perf_counter() - t0


def git_commit(root: str):
    """HEAD of the checkout, read from .git without leaving it (None if absent)."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def last_level_cache_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "greenkit", "__init__.py")):
        print("error: run from the root of a greenkit checkout (no src/greenkit here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = child_env(root, threads)
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)

    try:
        if args.trace:
            imports = {m: statistics.median(import_probe(m, env) for _ in range(IMPORT_PROBES))
                       for m in ("greenkit", "numpy")}
            res = worker(args, env, scratch, deadline)
            setups = [res["setup_s"]]
        else:
            probes = [worker(args, env, scratch, deadline, "--probe") for _ in range(SETUP_SAMPLES - 1)]
            res = worker(args, env, scratch, deadline)
            setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
            if any(p["digest"] != res["digest"] for p in probes):
                raise BenchError("the same seed generated different inputs")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(res["layers"])
        metrics["cli.import_s"] = imports["greenkit"]
        metrics["cli.interp_s"] = imports["numpy"]
        table = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setups), "op_p50_s": res["op_p50_s"],
                   "ops_per_s": res["ops_per_s"], "peak_rss_mb": res["peak_rss_mb"]}
        table = END_TO_END

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": res["digest"], **res["versions"], "git_commit": git_commit(root),
        "nproc": nproc, "blas_threads": threads, "largest_kernel_bytes": res["largest_kernel_bytes"],
        "last_level_cache_bytes": last_level_cache_bytes(), "setup_samples_s": setups,
        "spans_file": res.get("spans_file"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed, fail_frac {failed / attempted:.6g}, "
          f"{res['wrong']} wrong results, check_margin {res['check_margin']:.6g}")
    for detail in res["failures"]:
        print(f"  failed: {detail}")
    for name, unit in table.items():
        note = ""
        if name == "op_p50_s":
            note = f"  ({res['op_samples']} samples)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} cold starts)"
        elif name in COMPUTED:
            note = "  (computed)"
        print(f"  {name:44s} {metrics[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
