"""The benchmark's own tests: negative control, smoke runs, result-format checks.

    python3 perfbench/selfcheck.py

Run from the root of a greenkit checkout (about three minutes).  Exits 1 and
names every check that failed.

- Negative control: validate ops built with eta_sign_flip=True must all
  count as failed (criterion 8 fails), none as silently wrong.
- Smoke: each workload runs briefly with --trace 0 and --trace 1; the last
  line must carry every metric BENCHMARK.json names, with its unit, and the
  shape-derived counters must repeat exactly across two traced runs.
- A directory holding only BENCHMARK.json and perfbench/ must make run.py
  exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

ROOT = os.getcwd()
FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, seed: int = 1, seconds: float = 1, cwd: str = ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def negative_control() -> None:
    env = run.child_env(ROOT, 1)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", "validate",
                           "--seed", "1", "--seconds", "0", "--scratch", scratch,
                           "--spawned-at", repr(time.monotonic()), "--eta-sign-flip"],
                          env=env, capture_output=True, text=True, timeout=300)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(res["attempted"] >= 2 and res["failed"] == res["attempted"],
          f"eta_sign_flip: every validate op counted failed ({res['failed']}/{res['attempted']})")
    check(res["wrong"] == 0 and any("[8]" in f for f in res["failures"]),
          f"eta_sign_flip: failure is criterion 8, reported by the suite ({res['failures']})")


def smoke(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            res = last_json(proc)
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and res is not None, f"{label}: exit 0 with a result line")
            if res is None:
                print(proc.stderr[-2000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(res["correct"] is True and res["attempted"] >= 1, f"{label}: correct, ops attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == want, f"{label}: every {key} metric present with its unit")
            if trace:
                again = last_json(bench(workload, trace))
                same = all(again["metrics"][c]["value"] == res["metrics"][c]["value"] for c in run.COMPUTED)
                check(same, f"{label}: computed counters repeat exactly")


def bare_directory() -> None:
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("validate", 0, cwd=bare)
        check(proc.returncode != 0 and last_json(proc) is None,
              f"bare directory: exit {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads")
    negative_control()
    bare_directory()
    smoke(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
