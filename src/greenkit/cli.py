"""Command-line front end: build bases and kernels, run demos, validate.

Subcommands: basis | kernel | propagate | field | freq | distcheck | validate.
Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
All outputs are CSV/JSON written atomically with full-precision numbers, so a
rerun with the same flags is bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io
from .distlab import (
    RegularizedFamily,
    delta_ft_check,
    derivative_identity_residual,
    moment_report,
    regularized_ft,
)
from .firstorder import TimeWindow, _prefactor, _suppressed, auxiliary_kernel, composition_residual, propagate
from .firstorder import step_factor_kernel
from .freqdomain import response_from_density, spectral_density
from .grid import SampledFunction, _require_scale
from .secondorder import SourceField, field_from_source, wave_auxiliary_kernel, wave_step_factor_kernel
from .spectra import (
    PhysicalConstants,
    block_residual,
    build_free_basis,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_relativistic_branches,
    build_well_basis,
    completeness_residual,
    orthonormality_residual,
)
from .validation import run_acceptance


# each --model choice and its builder, called with the parsed args and constants
_BUILDERS = {
    "well": lambda args, cst: build_well_basis(args.a, args.n, cst, n_points=args.points),
    "free": lambda args, cst: build_free_basis(args.length, args.n, cst, n_points=args.points),
    "oscillator": lambda args, cst: build_oscillator_basis(cst, args.n, args.points, args.grid_kind),
    "relativistic": lambda args, cst: build_relativistic_branches(cst, args.kmax, args.length, n_points=args.points),
    "helmholtz": lambda args, cst: build_helmholtz_basis(args.length, args.n, cst, n_points=args.points),
}


def _build_basis(args):
    cst = PhysicalConstants(hbar=args.hbar, c=args.c, mass=args.mass, omega=args.omega_const)
    return _BUILDERS[args.model](args, cst)


def _linspace(start: float, stop: float, num: int, name: str) -> np.ndarray:
    """num samples from start to stop, with both bounds checked first: within
    [-1e150, 1e150], their span and its products stay normal floats."""
    if not (abs(start) <= 1e150 and abs(stop) <= 1e150):
        raise ValueError(f"{name} bounds must be finite, within [-1e150, 1e150]")
    return np.linspace(start, stop, num)


def _gaussian(basis, args) -> SampledFunction:
    """exp(-(x - x0)^2 / (2 sigma^2)) on the basis grid, x0 mid-grid by default;
    sigma is checked first, and a Gaussian of zero norm on the grid is rejected."""
    _require_scale(args.sigma, "sigma")  # so that 2 sigma^2 is a normal float
    x = basis.grid.points
    x0 = args.x0 if args.x0 is not None else float(x[len(x) // 2])
    with np.errstate(over="ignore"):  # an exponent past the float range gives exp(-inf) = 0
        g = SampledFunction(basis.grid, np.exp(-((x - x0) ** 2) / (2 * args.sigma**2)).astype(complex))
    if g.norm2() == 0:
        raise ValueError(f"the Gaussian at x0 = {x0:g} vanishes on the grid")
    return g


def cmd_basis(args) -> int:
    basis = _build_basis(args)
    out = args.out
    for n in range(basis.size):
        mode = basis.mode_rows(slice(n, n + 1))[0]
        columns = [basis.grid.points, mode.real, mode.imag]
        io.write_csv(os.path.join(out, f"mode_{n:04d}.csv"), ["x", "re", "im"], columns)
    io.write_json(
        os.path.join(out, "basis.json"),
        {
            "model": basis.model,
            "n_modes": basis.size,
            "n_points": basis.grid.size,
            "energies": [float(e) for e in basis.energies],
            "branches": None if basis.branches is None else [int(b) for b in basis.branches],
            "completeness_residual": completeness_residual(basis),
            "orthonormality_residual": orthonormality_residual(basis),
        },
    )
    print(f"wrote {basis.size} modes and basis.json to {out}")
    return 0


def cmd_kernel(args) -> int:
    if args.model is None:
        args.model = "helmholtz" if args.order == "second" else "well"
    window = TimeWindow(_linspace(args.t0, args.t1, args.nt, "time"))
    basis = _build_basis(args)
    if args.order == "second":
        aux = wave_auxiliary_kernel(basis, window)
    else:
        aux = auxiliary_kernel(basis, window, convention=args.convention)
    kern = aux if args.direction == "auxiliary" else step_factor_kernel(aux, args.direction)
    mid = basis.grid.size // 2
    t = kern.times
    # G(x_mid, x_mid; tau) as numpy row sums, not BLAS: no block, and no thread-count dependence
    diag = _prefactor(kern.convention) * (kern.amplitudes * basis.mode_products(mid, mid)).sum(axis=-1)
    io.write_csv(os.path.join(args.out, "kernel_diag.csv"), ["tau", "re", "im"], [t, diag.real, diag.imag])
    report = {
        "kind": kern.kind,
        "order": kern.order,
        "convention": kern.convention,
        "support_violation": float(np.max(np.abs(kern.amplitudes[_suppressed(kern.kind, t)]), initial=0.0)),
    }
    if args.order == "first":
        # K(0) is the completeness sum, times exactly -i under minus-i
        report["initial_condition_residual"] = completeness_residual(basis)
        if args.t1 > 0:
            split = min(args.t1, max(args.t1 / 3, args.t0 if args.t0 > 0 else args.t1 / 3))
            report["composition_residual"] = composition_residual(aux, split / 2, split / 2)
        if args.convention == "minus-i":
            ref = auxiliary_kernel(basis, window, convention="eq24")
            report["minus_i_factor_exact"] = all(np.array_equal(aux.at(tau), -1j * ref.at(tau)) for tau in t)
    else:
        report["zero_time_value"] = block_residual(basis, aux.amplitude(0.0)) if 0.0 in list(t) else None
    io.write_json(os.path.join(args.out, "kernel_report.json"), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_propagate(args) -> int:
    window = TimeWindow(_linspace(0.0, args.tau, 3, "time"))
    basis = _build_basis(args)
    kern = step_factor_kernel(auxiliary_kernel(basis, window), "retarded")
    x = basis.grid.points
    psi0 = _gaussian(basis, args)
    psi0 = psi0 * (1.0 / psi0.norm2())
    psi = propagate(kern, psi0, args.tau)
    io.write_csv(os.path.join(args.out, "state.csv"), ["x", "re", "im"], [x, psi.values.real, psi.values.imag])
    io.write_json(
        os.path.join(args.out, "propagate_report.json"),
        {"tau": args.tau, "initial_norm": psi0.norm2(), "final_norm": psi.norm2()},
    )
    print(f"propagated to tau={args.tau}; norm {psi.norm2():.12f}")
    return 0


def cmd_field(args) -> int:
    window = TimeWindow(_linspace(-args.t1, args.t1, 5, "time"))
    basis = _build_basis(args)
    kern = wave_step_factor_kernel(wave_auxiliary_kernel(basis, window), "retarded")
    times = np.linspace(0.0, args.t1, args.nt)  # the source's samples, and the field's
    x = basis.grid.points
    values = np.broadcast_to(_gaussian(basis, args).values, (times.size, x.size)).astype(complex)
    field = field_from_source(kern, SourceField(basis.grid, times, values), times)
    # one row per (t, x), x running fastest
    columns = [np.repeat(times, x.size), np.tile(x, times.size), field.real.ravel(), field.imag.ravel()]
    io.write_csv(os.path.join(args.out, "field.csv"), ["t", "x", "re", "im"], columns)
    print(f"wrote field.csv ({times.size} x {x.size} samples)")
    return 0


def cmd_freq(args) -> int:
    omega = _linspace(args.wmin, args.wmax, args.nw, "omega")
    basis = _build_basis(args)
    dens = spectral_density(basis, args.i, args.j, order=args.order)
    resp = response_from_density(dens, omega, args.eta, args.direction)
    columns = [omega, resp.values.real, resp.values.imag]
    io.write_csv(os.path.join(args.out, "response.csv"), ["omega", "re", "im"], columns)
    io.write_json(
        os.path.join(args.out, "poles.json"),
        {"eta": resp.eta, "direction": resp.direction, "poles": io.pole_payload(resp.poles)},
    )
    print(f"wrote response.csv and poles.json ({len(resp.poles)} poles)")
    return 0


def cmd_distcheck(args) -> int:
    flavors = [args.flavor] if args.flavor else ["arctan", "exponential", "linear"]
    eta = args.eta
    k = np.concatenate([-np.geomspace(0.1, 10.0, 7), np.geomspace(0.1, 10.0, 7)])
    reports = []
    for flavor in flavors:
        # built first, so a bad eta is rejected before it sizes the derivative grid
        step, delta = RegularizedFamily("step", flavor, eta), RegularizedFamily("delta", flavor, eta)
        xg = np.linspace(-40 * eta, 40 * eta, 2001)
        # (metric, value, tolerance, target): the check passes when |value - target| < tolerance
        for metric, value, tol, target in (
            ("derivative_identity", derivative_identity_residual(flavor, eta, xg)["analytic_residual"], 1e-12, 0),
            ("step_ft_deviation", regularized_ft(step, k)["max_deviation"], 1.05 * eta, 0),
            ("delta_ft_deviation", delta_ft_check(delta, np.linspace(0.0, 1.0 / (10 * eta), 9))["max_deviation"], 0.2, 0),
            ("moment_0", moment_report(delta, orders=(0, 1, 2))[0], 1e-6, 1),
        ):
            reports.append({"flavor": flavor, "eta": eta, "metric": metric, "value": value,
                            "tolerance": tol, "pass": abs(value - target) < tol})
    io.write_json(os.path.join(args.out, "distcheck.json"), reports)
    ok = all(r["pass"] for r in reports)
    for r in reports:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['flavor']}/{r['metric']}: {r['value']:.6e}")
    return 0 if ok else 1


def cmd_validate(args) -> int:
    results = run_acceptance(only=args.only, eta_sign_flip=args.inject_eta_sign_flip)
    payload = [
        {"number": r.number, "tag": r.tag, "name": r.name, "value": r.value,
         "tolerance": r.tolerance, "pass": r.passed, "detail": r.detail}
        for r in results
    ]
    io.write_json(os.path.join(args.out, "validation.json"), payload)
    for r in results:
        print(r.line())
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {failed}", file=sys.stderr)
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


def _add_common(p):
    p.add_argument("--out", default="out", help="output directory")


def _add_model(p, default_model="well"):
    p.add_argument("--model", default=default_model,
                   help=f"basis model (default: {default_model or 'well, or helmholtz with --order second'})",
                   choices=list(_BUILDERS))
    p.add_argument("--a", type=float, default=1.0, help="well width")
    p.add_argument("--length", "--L", dest="length", type=float, default=10.0, help="box length")
    p.add_argument("--n", type=int, default=16, help="mode cutoff")
    p.add_argument("--kmax", type=int, default=8, help="relativistic momentum cutoff")
    p.add_argument("--points", type=int, default=None, help="grid points (default: complete grid)")
    p.add_argument("--grid-kind", default="uniform", choices=["uniform", "gauss"])
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--mass", "--m", dest="mass", type=float, default=1.0)
    p.add_argument("--omega-const", type=float, default=1.0, help="oscillator angular frequency")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="greenkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="build a basis and export modes + residuals")
    _add_model(p)
    _add_common(p)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("kernel", help="assemble a kernel and export its report")
    _add_model(p, default_model=None)
    _add_common(p)
    p.add_argument("--order", default="first", choices=["first", "second"])
    p.add_argument("--direction", default="retarded", choices=["auxiliary", "retarded", "advanced"])
    p.add_argument("--convention", default="eq24", choices=["eq24", "minus-i"])
    p.add_argument("--t0", type=float, default=-1.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--nt", type=int, default=21)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("propagate", help="evolve a Gaussian state with the retarded kernel")
    _add_model(p)
    _add_common(p)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--sigma", type=float, default=0.1)
    p.set_defaults(fn=cmd_propagate)

    p = sub.add_parser("field", help="drive a wave kernel with a switch-on source")
    _add_model(p, default_model="helmholtz")
    _add_common(p)
    p.add_argument("--t1", type=float, default=2.0)
    p.add_argument("--nt", type=int, default=41)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--sigma", type=float, default=0.2)
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("freq", help="frequency response of one kernel entry")
    _add_model(p)
    _add_common(p)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--order", default="first", choices=["first", "second"])
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--direction", default="retarded", choices=["retarded", "advanced"])
    p.add_argument("--wmin", type=float, default=-10.0)
    p.add_argument("--wmax", type=float, default=10.0)
    p.add_argument("--nw", type=int, default=401)
    p.set_defaults(fn=cmd_freq)

    p = sub.add_parser("distcheck", help="regularized step/delta family checks")
    _add_common(p)
    p.add_argument("--flavor", default=None, choices=["arctan", "exponential", "linear"])
    p.add_argument("--eta", type=float, default=1e-2)
    p.set_defaults(fn=cmd_distcheck)

    p = sub.add_parser("validate", help="run the acceptance suite")
    _add_common(p)
    p.add_argument("--only", default=None, help="criterion number or tag filter")
    p.add_argument("--inject-eta-sign-flip", action="store_true",
                   help="negative control: build the retarded response with the wrong regulator sign")
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except (ValueError, FloatingPointError) as exc:  # a failed check, or in-range arguments overflowing together
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
