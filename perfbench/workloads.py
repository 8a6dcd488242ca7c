"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Each workload object is built from a seed (that is the input generation and
counts as set-up), exposes a fixed `cycle` of operations and runs operation i
with `run_op(i)`.  Every operation returns an `Outcome` from the checks the
benchmark makes on greenkit's outputs; see NOTES.md for why each workload
exists and what each check pins.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# A criterion value "matches the seed commit" when it is within this much of
# the recorded one: relative noise on substantive values, plus an absolute
# floor for values that are themselves round-off (c1, c3, c6, c9 sit at
# 1e-16 .. 1e-12 and move with BLAS thread count and summation order).
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-12


@dataclass
class Outcome:
    """Verdict on one operation.

    failed: the operation did not deliver a verified result.
    wrong: greenkit reported success but a check found the output wrong.
    margin: worst measured/allowed over the checks with a non-zero bound.
    """

    failed: bool
    wrong: bool
    margin: float
    detail: str = ""


def judge(checks) -> Outcome:
    """checks: (name, value, bound); bound 0 means the value must be exactly 0."""
    bad = [name for name, value, bound in checks
           if not (value == 0 if bound == 0 else value <= bound)]
    margin = max((value / bound for _, value, bound in checks if bound > 0), default=0.0)
    return Outcome(bool(bad), bool(bad), float(margin), "; ".join(bad))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference_validate.json")) as fh:
        return {int(k): v for k, v in json.load(fh).items()}


def criterion_checks(rows, reference) -> list:
    """rows: (number, value, tolerance, passed) of criteria greenkit reported
    as passing; each must pass, keep its seed-commit value and its margin."""
    checks = []
    for number, value, tolerance, passed in rows:
        ref = reference[number]["value"]
        checks.append((f"c{number}.passed", 0.0 if passed else 1.0, 0))
        checks.append((f"c{number}.value", abs(value - ref), VALUE_RTOL * abs(ref) + VALUE_ATOL))
        if tolerance > 0:
            checks.append((f"c{number}.margin", value, tolerance))
    return checks


# ------------------------------------------------------------------ validate


class Validate:
    """Repeated in-process run_acceptance() passes; one op = all 11 criteria.

    The acceptance suite builds its own fixtures, so the only inputs are the
    run_acceptance arguments; the seed is recorded but selects nothing.
    """

    cycle = 1

    def __init__(self, seed: int, eta_sign_flip: bool = False):
        import greenkit

        self.gk = greenkit
        self.inputs = {"only": None, "eta_sign_flip": eta_sign_flip}
        self.reference = load_reference()

    def digest(self) -> str:
        return _digest(self.inputs)

    def run_op(self, i: int) -> Outcome:
        results = self.gk.run_acceptance(**self.inputs)
        rows = [(r.number, r.value, r.tolerance, r.passed) for r in results]
        checks = criterion_checks([row for row in rows if row[3]], self.reference)
        checks.append(("criterion_count", abs(len(results) - 11), 0))
        outcome = judge(checks)
        reported = [number for number, _, _, passed in rows if not passed]
        if reported:  # the suite itself flagged these: a failed op, not a silent error
            outcome.failed = True
            outcome.detail = "; ".join(filter(None, [f"criteria {reported} reported failing", outcome.detail]))
        return outcome


# -------------------------------------------------------------- kernel_scale

# (model, mode cutoff, time samples).  Sizes are fixed so every operation does
# the same work whatever the seed; the seed sets the physics and the states.
FIRST_ORDER_JOBS = (("well", 512, 21), ("free", 256, 41), ("oscillator", 192, 31), ("relativistic", 128, 31))
# (model, mode cutoff, time samples, source samples, evaluation times)
SECOND_ORDER_JOBS = (("helmholtz", 64, 21, 401, 401), ("relativistic", 64, 21, 201, 101))
NORM_RTOL = 1e-10  # propagate on a discretely complete single-branch basis
REFERENCE_RTOL = 1e-9  # relativistic propagate against an independent FFT evaluation
COMPOSITION_TOL = 1e-6
ROUNDS = 8  # distinct parameter sets; operation i uses round i % ROUNDS


def symmetric_window(t_max: float, half: int) -> np.ndarray:
    pos = t_max * np.arange(1, half + 1) / half
    return np.concatenate([-pos[::-1], [0.0], pos])


class KernelScale:
    """Large dense time-domain kernels; one op = one round of six jobs."""

    cycle = 1

    def __init__(self, seed: int):
        import greenkit

        self.gk = greenkit
        rng = np.random.default_rng(seed)
        self.rounds = [self._round(rng) for _ in range(ROUNDS)]

    @staticmethod
    def _round(rng) -> list:
        jobs = []
        for model, n, nt in FIRST_ORDER_JOBS:
            t_max = float(rng.uniform(0.5, 2.0))
            jobs.append({
                "order": 1, "model": model, "n": n, "nt": nt, "t_max": t_max,
                "size": float(rng.uniform(0.8, 1.5)) if model == "well" else float(rng.uniform(15.0, 40.0)),
                "param": float(rng.uniform(0.5, 2.0)),  # oscillator omega, relativistic mass
                "x0": float(rng.uniform(0.3, 0.7)), "sigma": float(rng.uniform(0.03, 0.1)),
                "taus": sorted(float(t) for t in rng.uniform(0.05, 1.0, 3) * t_max),
                "split": sorted(float(t) for t in rng.uniform(0.05, 0.5, 2) * t_max),
            })
        for model, n, nt, n_src, n_eval in SECOND_ORDER_JOBS:
            jobs.append({
                "order": 2, "model": model, "n": n, "nt": nt, "t_max": float(rng.uniform(1.0, 3.0)),
                "size": float(rng.uniform(4.0, 10.0)), "param": float(rng.uniform(0.5, 2.0)),
                "x0": float(rng.uniform(0.3, 0.7)), "sigma": float(rng.uniform(0.03, 0.1)),
                "n_src": n_src, "n_eval": n_eval, "drive": float(rng.uniform(0.5, 3.0)),
            })
        order = rng.permutation(len(jobs))
        return [jobs[k] for k in order]

    def digest(self) -> str:
        return _digest(self.rounds)

    @property
    def largest_kernel_bytes(self) -> int:
        """Bytes of the largest (nt, m, m) complex kernel an op builds."""
        def points(model, n):  # default grid: n points, or 2n + 1 on periodic boxes
            return n if model in ("well", "oscillator") else 2 * n + 1

        return max(16 * nt * points(model, n) ** 2 for model, n, nt, *_ in FIRST_ORDER_JOBS + SECOND_ORDER_JOBS)

    def run_op(self, i: int) -> Outcome:
        checks = []
        for job in self.rounds[i % ROUNDS]:
            run = self._first_order if job["order"] == 1 else self._second_order
            checks += [(f"{job['model']}{job['order']}.{name}", v, b) for name, v, b in run(job)]
        return judge(checks)

    def _basis(self, job):
        gk, model, n = self.gk, job["model"], job["n"]
        if model == "well":
            return gk.build_well_basis(job["size"], n)
        if model == "free":
            return gk.build_free_basis(job["size"], n)
        if model == "oscillator":
            return gk.build_oscillator_basis(gk.PhysicalConstants(omega=job["param"]), n_max=n, grid_kind="gauss")
        if model == "relativistic":
            return gk.build_relativistic_branches(gk.PhysicalConstants(mass=job["param"]), n, job["size"])
        if model == "helmholtz":
            return gk.build_helmholtz_basis(job["size"], n, gk.PhysicalConstants(c=job["param"]))
        raise ValueError(model)

    @staticmethod
    def _gaussian(grid, job) -> np.ndarray:
        x = grid.points
        lo, hi = x[0], x[-1]
        x0 = lo + job["x0"] * (hi - lo)
        return np.exp(-((x - x0) ** 2) / (2 * (job["sigma"] * (hi - lo)) ** 2))

    def _first_order(self, job) -> list:
        gk = self.gk
        basis = self._basis(job)
        window = gk.TimeWindow(symmetric_window(job["t_max"], job["nt"] // 2))
        t = window.samples
        aux = gk.auxiliary_kernel(basis, window)
        ret = gk.step_factor_kernel(aux, "retarded")
        checks = [("retarded_support", float(np.max(np.abs(ret.values[t < 0]))), 0)]
        psi0 = gk.SampledFunction(basis.grid, self._gaussian(basis.grid, job).astype(complex))
        n0 = psi0.norm2()
        for tau in job["taus"]:
            psi = gk.propagate(ret, psi0, tau)
            if basis.model == "relativistic":
                ref = _relativistic_reference(basis, psi0.values, tau)
                dev = float(np.max(np.abs(psi.values - ref)) / np.max(np.abs(ref)))
                checks.append(("propagate_vs_fft", dev, REFERENCE_RTOL))
            else:
                checks.append(("propagate_norm", abs(psi.norm2() - n0) / n0, NORM_RTOL))
        del ret
        adv = gk.step_factor_kernel(aux, "advanced")
        checks.append(("advanced_support", float(np.max(np.abs(adv.values[t > 0]))), 0))
        del adv
        res = gk.composition_residual(aux, *job["split"])
        if basis.model != "relativistic":  # the two-branch basis is not discretely complete
            checks.append(("composition", res, COMPOSITION_TOL))
        return checks

    def _second_order(self, job) -> list:
        gk = self.gk
        basis = self._basis(job)
        window = gk.TimeWindow(symmetric_window(job["t_max"], job["nt"] // 2))
        t = window.samples
        aux = gk.wave_auxiliary_kernel(basis, window)
        checks = [("g_at_zero", float(np.max(np.abs(aux.values[t == 0]))), 0)]
        ret = gk.wave_step_factor_kernel(aux, "retarded")
        checks.append(("retarded_support", float(np.max(np.abs(ret.values[t < 0]))), 0))
        adv = gk.wave_step_factor_kernel(aux, "advanced")
        checks.append(("advanced_support", float(np.max(np.abs(adv.values[t > 0]))), 0))
        del adv
        t_max = job["t_max"]
        profile = self._gaussian(basis.grid, job)
        src_t = np.linspace(0.0, t_max, job["n_src"])
        values = np.cos(job["drive"] * src_t)[:, None] * profile[None, :]
        eval_t = np.linspace(0.0, t_max, job["n_eval"])
        field = gk.field_from_source(ret, gk.SourceField(basis.grid, src_t, values), eval_t)
        checks.append(("field_finite", float(not np.all(np.isfinite(field))), 0))
        checks.append(("field_at_onset", float(np.max(np.abs(field[0]))), 0))
        future = gk.SourceField(basis.grid, 1.1 * t_max + src_t[:50], values[:50])
        ahead = gk.field_from_source(ret, future, eval_t[::10])
        checks.append(("future_source", float(np.max(np.abs(ahead))), 0))
        return checks


def _relativistic_reference(basis, psi0: np.ndarray, tau: float) -> np.ndarray:
    """Two-branch propagation by FFT: each momentum evolves with 2 cos(E_k tau)."""
    m = basis.grid.size
    length = basis.grid.points[1] * m  # periodic grid: points j * L / m
    cst = basis.constants
    k = 2 * np.pi * np.fft.fftfreq(m, d=1.0 / m) / length
    e_k = np.sqrt(cst.mass**2 * cst.c**4 + cst.c**2 * cst.hbar**2 * k**2)
    return np.fft.ifft(np.fft.fft(psi0) * 2 * np.cos(e_k * tau / cst.hbar))


# ------------------------------------------------------------------ cli_cold

SUBCOMMANDS = ("basis", "kernel", "propagate", "field", "freq", "distcheck", "validate")


@dataclass
class Invocation:
    label: str  # subcommand, or "usage_error"
    argv: list
    expect_exit: int
    params: dict


class CliCold:
    """A seeded sequence of small subcommands, each in a fresh child process.

    One op = one `python -m greenkit.cli ...` child writing into a fresh
    temporary directory inside the checkout, then the checks on its exit code
    and files.  The cycle holds every subcommand at least once plus the
    usage errors whose contract is exit 2.
    """

    def __init__(self, seed: int, scratch: str):
        rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.reference = load_reference()
        self.invocations = self._sequence(rng)
        self.cycle = len(self.invocations)
        self.io_counts: list = []  # (files, bytes) per op, in run order
        self.walls: dict = {}

    @staticmethod
    def _sequence(rng) -> list:
        def n():
            return int(rng.integers(8, 33))

        seq = []
        model = str(rng.choice(["well", "free", "helmholtz", "oscillator"]))
        nb = n()
        argv = ["basis", "--model", model, "--n", str(nb)] + (["--grid-kind", "gauss"] if model == "oscillator" else [])
        seq.append(Invocation("basis", argv, 0, {"model": model, "n": nb}))
        t1, nt = float(rng.choice([0.5, 1.0, 1.5, 2.0])), int(rng.choice([9, 17, 33]))
        model = str(rng.choice(["well", "free"]))
        seq.append(Invocation("kernel", ["kernel", "--model", model, "--n", str(n()), "--t0", str(-t1),
                                         "--t1", str(t1), "--nt", str(nt)], 0, {"order": "first"}))
        t1, nt = float(rng.choice([0.5, 1.0, 1.5, 2.0])), int(rng.choice([9, 17, 33]))
        seq.append(Invocation("kernel", ["kernel", "--order", "second", "--model", "helmholtz", "--n", str(n()),
                                         "--t0", str(-t1), "--t1", str(t1), "--nt", str(nt)], 0,
                              {"order": "second"}))
        model = str(rng.choice(["well", "free"]))
        seq.append(Invocation("propagate", ["propagate", "--model", model, "--n", str(n()),
                                            "--tau", f"{rng.uniform(0.1, 1.0):.6f}"], 0, {}))
        nf, ntf = n(), int(rng.integers(9, 42))
        seq.append(Invocation("field", ["field", "--model", "helmholtz", "--n", str(nf), "--nt", str(ntf),
                                        "--t1", f"{rng.uniform(0.5, 3.0):.6f}"], 0,
                              {"points": 2 * nf + 1, "nt": ntf}))
        nq, nw = n(), int(rng.integers(101, 402))
        i, j = int(rng.integers(0, nq)), int(rng.integers(0, nq))
        seq.append(Invocation("freq", ["freq", "--model", "well", "--n", str(nq), "--i", str(i), "--j", str(j),
                                       "--nw", str(nw)], 0, {"n": nq, "nw": nw, "eta": 0.05}))
        flavor = str(rng.choice(["arctan", "exponential", "linear"]))
        eta = float(rng.choice([1e-2, 2e-2, 5e-2]))
        seq.append(Invocation("distcheck", ["distcheck", "--flavor", flavor, "--eta", str(eta)], 0, {}))
        seq.append(Invocation("validate", ["validate", "--only", "kernel"], 0, {}))
        # usage errors: the CLI contract is exit 2.  The out-of-range freq
        # index stays in the sequence: greenkit 0.1.0 exits 1 there.
        nq = n()
        seq.append(Invocation("usage_error", ["freq", "--model", "well", "--n", str(nq),
                                              "--i", str(nq + int(rng.integers(0, 1000)))], 2, {}))
        seq.append(Invocation("usage_error", ["kernel", "--model", "nosuch"], 2, {}))
        seq.append(Invocation("usage_error", ["basis", "--n", "0"], 2, {}))
        seq.append(Invocation("usage_error", ["validate", "--only", "nosuch"], 2, {}))
        seq.append(Invocation("usage_error", ["propagate", "--tau", f"{-rng.uniform(0.1, 1.0):.6f}"], 2, {}))
        order = rng.permutation(len(seq))
        return [seq[k] for k in order]

    def digest(self) -> str:
        return _digest([(inv.argv, inv.expect_exit) for inv in self.invocations])

    def run_op(self, i: int) -> Outcome:
        inv = self.invocations[i % self.cycle]
        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "greenkit.cli", *inv.argv, "--out", out],
                                  capture_output=True, text=True, timeout=120)
            self.walls.setdefault(inv.label, []).append(time.perf_counter() - t0)
            files = [os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs]
            self.io_counts.append((len(files), sum(os.path.getsize(f) for f in files)))
            if proc.returncode != inv.expect_exit:
                # exit 0 where an error was due means bad input was accepted
                # silently; any other mismatch is an error reported wrongly
                return Outcome(True, inv.expect_exit != 0 and proc.returncode == 0, 0.0,
                               f"{' '.join(inv.argv)}: exit {proc.returncode}, contract {inv.expect_exit}")
            if inv.expect_exit != 0:
                return Outcome(False, False, 0.0)
            return judge(getattr(self, f"_check_{inv.label}")(inv, out))

    # Each checker returns (name, value, bound) over the files the child wrote.

    def _check_basis(self, inv, out):
        rep = _json(out, "basis.json")
        n_modes = 2 * inv.params["n"] + 1 if inv.params["model"] in ("free", "helmholtz") else inv.params["n"]
        n_csv = len([f for f in os.listdir(out) if f.startswith("mode_")])
        return [("n_modes", abs(rep["n_modes"] - n_modes), 0), ("mode_files", abs(n_csv - n_modes), 0),
                ("completeness", rep["completeness_residual"], 1e-10),
                ("orthonormality", rep["orthonormality_residual"], 1e-10)]

    def _check_kernel(self, inv, out):
        rep = _json(out, "kernel_report.json")
        checks = [("support", rep["support_violation"], 0)]
        if inv.params["order"] == "first":
            checks += [("initial_condition", rep["initial_condition_residual"], 1e-6),
                       ("composition", rep["composition_residual"], COMPOSITION_TOL)]
        else:
            zero = rep["zero_time_value"]
            checks.append(("g_at_zero", 1.0 if zero is None else zero, 0))
        return checks

    def _check_propagate(self, inv, out):
        rep = _json(out, "propagate_report.json")
        return [("norm", abs(rep["final_norm"] - rep["initial_norm"]) / rep["initial_norm"], NORM_RTOL)]

    def _check_field(self, inv, out):
        rows = np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1, ndmin=2)
        expected = inv.params["nt"] * inv.params["points"]
        onset = rows[rows[:, 0] == 0.0]
        return [("rows", abs(rows.shape[0] - expected), 0),
                ("finite", float(not np.all(np.isfinite(rows))), 0),
                ("field_at_onset", float(np.max(np.abs(onset[:, 2:]))) if onset.size else 1.0, 0)]

    def _check_freq(self, inv, out):
        poles = _json(out, "poles.json")
        rows = np.loadtxt(os.path.join(out, "response.csv"), delimiter=",", skiprows=1, ndmin=2)
        eta = inv.params["eta"]
        return [("rows", abs(rows.shape[0] - inv.params["nw"]), 0),
                ("pole_count", abs(len(poles["poles"]) - inv.params["n"]), 0),
                ("pole_half_plane", max(abs(p["position"][1] + eta) for p in poles["poles"]), 0)]

    def _check_distcheck(self, inv, out):
        reps = _json(out, "distcheck.json")
        return [(f"{r['flavor']}/{r['metric']}.pass", 0.0 if r["pass"] else 1.0, 0) for r in reps] + \
               [(f"{r['flavor']}/{r['metric']}", abs(r["value"] - (1.0 if r["metric"] == "moment_0" else 0.0)),
                 r["tolerance"]) for r in reps]

    def _check_validate(self, inv, out):
        payload = _json(out, "validation.json")
        rows = [(r["number"], r["value"], r["tolerance"], r["pass"]) for r in payload]
        return [("criteria", abs(len(rows) - 5), 0)] + criterion_checks(rows, self.reference)


def _json(out: str, name: str):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)
