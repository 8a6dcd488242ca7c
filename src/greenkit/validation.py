"""Acceptance suite: the package's quantitative claims as runnable criteria.

Each criterion builds its own fixtures, measures one number (or an exact
boolean), and reports value, tolerance, and pass/fail.  run_acceptance
executes all of them (optionally filtered by tag or number) and is what both
the test suite and the command-line `validate` subcommand call.  The
eta_sign_flip flag is a deliberate negative control: it builds the "retarded"
response with the wrong regulator sign, which must make the pole-audit
criterion fail.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distlab import (
    RegularizedFamily,
    derivative_identity_residual,
    moment_report,
    regularized_ft,
    sokhotski_plemelj,
)
from .firstorder import (
    TimeWindow,
    auxiliary_kernel,
    composition_residual,
    free_kernel_closed_form,
    kernel_entry,
    oscillator_kernel_closed_form,
    pde_jump_residual,
    step_factor_kernel,
)
from .freqdomain import (
    convolution_response,
    feynman_combination,
    inverse_transform_roundtrip,
    momentum_response_relativistic,
    response_from_density,
    spectral_density,
)
from .grid import Grid1D, SampledFunction
from .secondorder import (
    em_point_charge_field,
    point_charge_potential,
    wave_auxiliary_kernel,
    wave_step_factor_kernel,
)
from .spectra import (
    PhysicalConstants,
    build_free_basis,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_well_basis,
    delta_residual,
    mode_blocks,
)

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    tag: str
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] criterion {self.number:2d} ({self.name}): "
            f"value {self.value:.3e} vs tolerance {self.tolerance:.3e}"
            + (f" -- {self.detail}" if self.detail else "")
        )


CRITERIA = []  # in run order; perfbench/tracer.py swaps the entries for timed wrappers


def _over(check):
    v, t = check
    return v / t if t > 0 else (np.inf if v != 0 else 0.0)


def _criterion(number, tag, name):
    """Register a measurement as acceptance criterion `number` under `tag`.

    The measurement returns (checks, detail), checks a list of (value,
    tolerance) where exact checks use tolerance 0.  The criterion's result
    reports the check nearest to (or furthest past) its tolerance.
    """

    def register(measure):
        @functools.wraps(measure)
        def criterion(*args) -> CriterionResult:
            checks, detail = measure(*args)
            passed = all(v <= t if t > 0 else v == 0 for v, t in checks)
            value, tolerance = max(checks, key=_over)
            return CriterionResult(number, tag, name, float(value), float(tolerance), passed, detail)

        criterion.number, criterion.tag = number, tag
        CRITERIA.append(criterion)
        return criterion

    return register


# ----------------------------------------------------------------- criteria


@_criterion(1, "kernel", "initial condition")
def criterion_1_initial_condition():
    """K(0) equals the grid delta on discretely complete grids."""
    window = TimeWindow(np.array([0.0]))
    checks = []
    for name, basis, tol in (
        ("well", build_well_basis(1.0, 32), 1e-6),
        ("free", build_free_basis(40.0, 32), 1e-8),
        ("oscillator", build_oscillator_basis(n_max=96, grid_kind="gauss"), 1e-3),
    ):
        checks.append((delta_residual(auxiliary_kernel(basis, window).values[0], basis.grid.weights), tol))
    detail = "normalized residual per basis: " + ", ".join(f"{v:.2e}" for v, _ in checks)
    return checks, detail


@_criterion(2, "kernel", "support law")
def criterion_2_support():
    """Retarded kernels vanish exactly for tau < 0, advanced for tau > 0."""
    basis = build_well_basis(1.0, 12)
    window = TimeWindow(np.linspace(-1.0, 1.0, 21))
    aux = auxiliary_kernel(basis, window)
    ret = step_factor_kernel(aux, "retarded")
    adv = step_factor_kernel(aux, "advanced")
    h_basis = build_helmholtz_basis(2 * np.pi, 8)
    wave = wave_step_factor_kernel(wave_auxiliary_kernel(h_basis, window), "retarded")
    t = window.samples
    worst = max(
        float(np.max(np.abs(ret.values[t < 0]), initial=0.0)),
        float(np.max(np.abs(adv.values[t > 0]), initial=0.0)),
        float(np.max(np.abs(wave.values[t < 0]), initial=0.0)),
    )
    return [(worst, 0.0)], "exact zero off the causal side"


@_criterion(3, "kernel", "semigroup composition")
def criterion_3_semigroup():
    """K(tau1 + tau2) = K(tau1) composed with K(tau2) on complete grids."""
    rng = np.random.default_rng(7)
    window = TimeWindow(np.linspace(0.0, 2.0, 5))
    checks = []
    for basis in (
        build_well_basis(1.0, 16),
        build_free_basis(10.0, 16),
        build_oscillator_basis(n_max=48, grid_kind="gauss"),
    ):
        kern = auxiliary_kernel(basis, window)
        worst = 0.0
        for _ in range(5):
            t1, t2 = rng.uniform(0.05, 0.95, 2)
            worst = max(worst, composition_residual(kern, float(t1), float(t2)))
        checks.append((worst, 1e-6))
    detail = "max residual per basis: " + ", ".join(f"{v:.2e}" for v, _ in checks)
    return checks, detail


@_criterion(4, "kernel", "closed-form equivalence")
def criterion_4_closed_forms():
    """Damped spectral sums match the analytic oscillator/free kernels."""
    # oscillator vs its closed form at complex time tau - i*eps
    osc = build_oscillator_basis(n_max=96, grid_kind="gauss")
    eps = 0.2
    x = osc.grid.points
    mids = [i for i in range(osc.grid.size) if abs(x[i]) < 2.0]
    pairs = [(mids[0], mids[-1]), (mids[len(mids) // 2], mids[len(mids) // 2]), (mids[1], mids[len(mids) // 3])]
    taus = [0.4, 0.7, 1.1, 1.6, 2.2, 2.6, 3.5, 4.2]
    worst_osc, n_triples = 0.0, 0
    for tau in taus:
        if abs(np.sin(osc.constants.omega * tau)) <= 0.1:
            continue
        tc = tau - 1j * eps
        for i, j in pairs:
            spectral = kernel_entry(osc, i, j, tc)
            closed = oscillator_kernel_closed_form(x[i], x[j], tc, osc.constants)
            worst_osc = max(worst_osc, abs(spectral - closed) / abs(closed))
            n_triples += 1
    if n_triples < 20:
        raise RuntimeError(f"only {n_triples} oscillator sample triples")
    # free particle vs the Gaussian kernel, images/truncation damped
    free = build_free_basis(40.0, 512)
    tc = 0.5 - 4e-3j
    jmid = free.grid.index_of(20.0)
    worst_free = 0.0
    for i in range(jmid - 10, jmid + 11):
        dx = free.grid.points[i] - free.grid.points[jmid]
        spectral = kernel_entry(free, i, jmid, tc)
        closed = free_kernel_closed_form(dx, tc, free.constants)
        worst_free = max(worst_free, abs(spectral - closed) / abs(closed))
    checks = [(worst_osc, 1e-4), (worst_free, 1e-3)]
    detail = f"oscillator {worst_osc:.2e} over {n_triples} triples, free {worst_free:.2e}"
    return checks, detail


@_criterion(5, "secondorder", "second-order initial conditions")
def criterion_5_second_order_ic():
    """Wave kernel: G(0) = 0 exactly; dG/dtau(0+) = c^2 * grid delta."""
    basis = build_helmholtz_basis(2 * np.pi, 16)
    c = basis.constants.c
    dtau = 1e-3
    kern = wave_auxiliary_kernel(basis, TimeWindow(np.array([0.0, dtau])))
    zero_dev = float(np.max(np.abs(kern.values[0])))
    w = basis.grid.weights
    deriv = kern.values[1] / dtau
    residual = float(np.max(np.abs(deriv - c**2 * np.diag(1.0 / w))))
    # budget: completeness defect plus the cubic Taylor term of sin(w c t)/w
    s, h = mode_blocks(basis, np.stack([np.ones(basis.size), basis.energies]))
    comp = float(np.max(np.abs(s - np.diag(1.0 / w)))) * c**2
    m2 = float(np.max(np.abs(h))) * c**4 / 6
    bound = comp + 10 * dtau**2 * m2
    checks = [(zero_dev, 0.0), (residual, bound)]
    detail = f"G(0) exact, derivative residual {residual:.2e} vs budget {bound:.2e}"
    return checks, detail


@_criterion(6, "secondorder", "EM causality")
def criterion_6_em_causality():
    """Switch-on point charge: Coulomb value behind the front, zero ahead."""
    q, eps0, c, r = 2.0, 1.0, 1.0, 0.5
    static = q / (4 * np.pi * eps0 * r)
    after = max(abs(point_charge_potential(q, eps0, r, t, c) - static) for t in (0.6, 1.0, 2.0))
    before = max(abs(point_charge_potential(q, eps0, r, t, c)) for t in (-1.0, 0.1, 0.49))
    width = 0.01
    t_grid = np.array([0.2, 0.4, 0.7, 1.0, 1.5])
    conv = em_point_charge_field(q, eps0, c, r, t_grid, pulse_width=width)
    closed = np.array([point_charge_potential(q, eps0, r, t, c) for t in t_grid])
    conv_dev = float(np.max(np.abs(conv - closed)) / static)
    checks = [(after / static, 1e-12), (before, 0.0), (conv_dev, 1e-3)]
    detail = f"closed form {after / static:.1e}, zero before front exact, convolution {conv_dev:.2e}"
    return checks, detail


@_criterion(7, "freq", "frequency-domain equivalence")
def criterion_7_freq_equivalence():
    """Convolution route equals the pole form of the frequency response."""
    basis = build_well_basis(1.0, 16)
    eta = 0.05
    omega = np.linspace(0.0, 60.0, 31)
    worst = 0.0
    for i, j in ((7, 7), (3, 9)):
        dens = spectral_density(basis, i, j, order="first")
        ref = response_from_density(dens, omega, eta, "retarded")
        conv = convolution_response(dens, omega, eta, "retarded")
        worst = max(worst, float(np.max(np.abs(conv.values - ref.values)) / np.max(np.abs(ref.values))))
    return [(worst, 1e-3)], f"peak-relative deviation {worst:.2e} (well N=16, eta=0.05)"


@_criterion(8, "freq", "pole half-plane audit")
def criterion_8_pole_audit(flip=False):
    """Pole half-plane census plus inverse-transform support confinement."""
    eta, k = 0.05, 1.0
    # wide window: the response decays only like 2/omega, so truncating at W
    # leaves an oscillatory tail ~ (2/pi)/(W |tau|) on the suppressed side;
    # W = 4000 with |tau| >= 0.25 keeps that below the budget, and spacing
    # 0.025 pushes the periodic alias image (period 2 pi / d omega) far
    # enough out that its e^{-eta tau} damping makes it negligible
    span = 4000.0
    omega = np.linspace(-span, span, 320001)
    built_dir = "advanced" if flip else "retarded"
    ret = momentum_response_relativistic(k, omega, eta, built_dir)
    adv = momentum_response_relativistic(k, np.linspace(-5, 5, 11), eta, "advanced")
    ret_dev = float(np.max(np.abs(np.array([p.imag for p, _ in ret.poles]) + eta)))
    adv_dev = float(np.max(np.abs(np.array([p.imag for p, _ in adv.poles]) - eta)))
    fey = feynman_combination(k, np.linspace(-5, 5, 11), eta)
    ims = np.array([p.imag for p, _ in fey.poles])
    census_dev = 0.0 if (np.sum(ims < 0) == 1 and np.sum(ims > 0) == 1) else 1.0
    tau = np.concatenate([np.arange(-4.0, 0.0, 0.25), np.arange(0.25, 4.25, 0.25)])
    rt = inverse_transform_roundtrip(ret, tau)
    leak_neg = float(np.max(np.abs(rt["transform"][tau < 0])) / rt["peak"])
    checks = [(ret_dev, 0.0), (adv_dev, 0.0), (census_dev, 0.0), (leak_neg, 1e-3)]
    detail = f"tau<0 leakage {leak_neg:.2e} of peak" + (" [eta sign flipped]" if flip else "")
    return checks, detail


@_criterion(9, "freq", "partial-fraction identity")
def criterion_9_partial_fraction():
    """Branch sum equals 2(omega + i eta)/((omega + i eta)^2 - omega0^2)."""
    eta, k = 0.05, 1.0
    w0 = np.sqrt(2.0)
    omega = np.linspace(-10.0, 10.0, 2001)
    ret = momentum_response_relativistic(k, omega, eta, "retarded")
    z = omega + 1j * eta
    combined = 2 * z / (z**2 - w0**2)
    dev = float(np.max(np.abs(ret.values - combined)))
    return [(dev, 1e-10)], f"max deviation {dev:.2e}"


@_criterion(10, "distlab", "appendix suite")
def criterion_10_appendix():
    """Distribution lab: derivative pairing, step transform, S-P, moments."""
    # (a) analytic derivative of each step flavor is its paired delta
    xg = np.linspace(-2.0, 2.0, 2001)
    a_worst = max(
        derivative_identity_residual(flavor, 0.1, xg)["analytic_residual"]
        for flavor in ("arctan", "exponential", "linear")
    )
    # (b) regularized step transforms vs i/(k + i eta).  The arctan flavor is
    # the tightest: its deviation is |1 - e^{-z}| / |k + i eta| with
    # z = eta (|k| + i eta), and |1 - e^{-z}| = |z int_0^1 e^{-tz} dt| < |z|
    # = eta |k + i eta| whenever Re z > 0, so it stays below eta for every
    # k != 0.  The ratio to eta is |1 - e^{-z}| / |z| ~ 1 - eta |k| / 2,
    # 0.99995 at |k| = 0.1: the 1e-3 tolerance (= eta) is a strict bound,
    # not a lucky margin.
    kk = np.concatenate([-np.geomspace(0.1, 10.0, 13), np.geomspace(0.1, 10.0, 13)])
    b_worst = max(
        regularized_ft(RegularizedFamily("step", flavor, 1e-3), kk)["max_deviation"]
        for flavor in ("arctan", "exponential", "linear")
    )
    # (c) Sokhotski-Plemelj on a Gaussian: Im part -> -pi.  The finite-eta
    # offset is 2*sqrt(pi)*eta, so eta = 1e-4 sits well inside the 1e-3 budget
    g = Grid1D.uniform(-20.0, 20.0, 1600001)
    f = SampledFunction(g, np.exp(-g.points**2))
    sp = sokhotski_plemelj(f, 1e-4)
    c_dev = abs(sp.full_integral.imag + np.pi)
    # (d) delta moments
    d_checks = []
    for flavor in ("arctan", "exponential", "linear"):
        m = moment_report(RegularizedFamily("delta", flavor, 0.3), orders=(0,))
        d_checks.append(abs(m[0] - 1.0))
    m2 = moment_report(RegularizedFamily("delta", "linear", 0.3), orders=(2,))[0]
    d_worst = max(max(d_checks), abs(m2 - 0.3**2 / 12))
    checks = [(a_worst, 1e-12), (b_worst, 1e-3), (c_dev, 1e-3), (d_worst, 1e-6)]
    detail = f"derivative {a_worst:.1e}, step FT {b_worst:.2e}, S-P {c_dev:.2e}, moments {d_worst:.2e}"
    return checks, detail


@_criterion(11, "kernel", "convention flag")
def criterion_11_convention():
    """minus-i kernels are exactly -i times the default, and only the default
    convention closes the discrete equation across tau = 0."""
    basis = build_well_basis(1.0, 8)
    window = TimeWindow(np.linspace(0.0, 1.0, 5))
    a = auxiliary_kernel(basis, window, convention="eq24")
    b = auxiliary_kernel(basis, window, convention="minus-i")
    factor_dev = 0.0 if np.array_equal(b.values, -1j * a.values) else float(np.max(np.abs(b.values + 1j * a.values)))
    dtau = 1e-3
    res_default = pde_jump_residual(basis, "eq24", dtau)
    res_minus = pde_jump_residual(basis, "minus-i", dtau)
    ratio = res_minus / res_default if res_default > 0 else np.inf
    checks = [(factor_dev, 0.0), (10.0 / ratio if np.isfinite(ratio) else 0.0, 1.0)]
    detail = f"residuals: default {res_default:.2e}, minus-i {res_minus:.2e} (ratio {ratio:.1f}x)"
    return checks, detail


def run_acceptance(only: str | None = None, eta_sign_flip: bool = False) -> list:
    """Run the acceptance criteria, optionally filtered by tag or number.

    eta_sign_flip reaches only the pole audit (criterion 8), the one
    criterion the negative control is built to fail.
    """
    results = []
    for fn in CRITERIA:
        if only is not None and only not in (str(fn.number), fn.tag):
            continue
        results.append(fn(eta_sign_flip) if fn.number == 8 else fn())
    if not results:
        raise ValueError(f"no criteria match filter {only!r}")
    return results
