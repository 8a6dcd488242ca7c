"""Second-order kernels, EM closed forms and the source convolution."""

import warnings

import numpy as np
import pytest

from basis_modes import all_modes
from greenkit import (
    Kernel,
    PhysicalConstants,
    SourceField,
    TimeWindow,
    build_free_basis,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_relativistic_branches,
    build_well_basis,
    em_kernel_closed_form,
    em_point_charge_field,
    field_from_source,
    point_charge_potential,
    theta,
    wave_auxiliary_kernel,
    wave_pde_residual,
    wave_step_factor_kernel,
)
from greenkit.spectra import mode_sum

L = 2 * np.pi


def test_wave_kernel_vanishes_at_zero_and_is_odd():
    basis = build_helmholtz_basis(L, 8)
    window = TimeWindow(np.array([-0.7, 0.0, 0.7]))
    kern = wave_auxiliary_kernel(basis, window)
    assert np.all(kern.at(0.0) == 0)
    assert np.allclose(kern.at(-0.7), -kern.at(0.7), atol=1e-13)


def test_wave_kernel_derivative_is_scaled_grid_delta():
    basis = build_helmholtz_basis(L, 8)
    dt = 1e-4
    kern = wave_auxiliary_kernel(basis, TimeWindow(np.array([-dt, dt])))
    deriv = (kern.at(dt) - kern.at(-dt)) / (2 * dt)
    c2 = basis.constants.c**2
    target = c2 * np.diag(1.0 / basis.grid.weights)
    # centered difference is O(dt^2); normalize by the delta height
    err = np.max(np.abs(deriv - target)) * np.min(basis.grid.weights) / c2
    assert err < 1e-6


def test_wave_step_factor_support():
    basis = build_helmholtz_basis(L, 4)
    window = TimeWindow(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    aux = wave_auxiliary_kernel(basis, window)
    ret = wave_step_factor_kernel(aux, "retarded")
    assert np.all(ret.values[window.samples < 0] == 0)
    with pytest.raises(ValueError, match="direction"):
        wave_step_factor_kernel(aux, "sideways")


@pytest.mark.parametrize("build", [lambda: build_well_basis(1.0, 8), lambda: build_free_basis(L, 4),
                                   lambda: build_oscillator_basis(n_max=8, grid_kind="gauss")],
                         ids=["well", "free", "oscillator"])
def test_wave_kernel_takes_every_basis_with_non_negative_eigenvalues(build):
    """The wave law is defined on any basis whose eigenvalues are >= 0: it is
    odd, zero at tau = 0, and c sum_n phi_n sin(sqrt(E_n) c tau) / sqrt(E_n) phi_n*."""
    basis = build()
    kern = wave_auxiliary_kernel(basis, TimeWindow(np.array([-0.5, 0.0, 0.5])))
    assert np.all(kern.at(0.0) == 0)
    assert np.allclose(kern.at(-0.5), -kern.at(0.5), rtol=0, atol=1e-13)
    root = np.sqrt(basis.energies)
    amps = np.where(root == 0, 0.5, np.sin(0.5 * root) / np.where(root == 0, 1.0, root))
    ref = mode_sum(all_modes(basis), amps)
    assert np.max(np.abs(kern.at(0.5) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kg_kernel_uses_two_branch_basis():
    basis = build_relativistic_branches(PhysicalConstants(), 4, 10.0)
    kern = wave_auxiliary_kernel(basis, TimeWindow(np.array([0.0, 0.5])))
    assert np.all(kern.at(0.0) == 0)
    # one copy per momentum: sum_k e^{ik dx} sin(E_k tau) / (E_k L), E_k^2 = k^2 + 1
    k = 2 * np.pi * np.arange(-4, 5) / 10.0
    e_k = np.sqrt(k**2 + 1.0)
    dx = basis.grid.points[:, None, None] - basis.grid.points[None, :, None]
    ref = np.sum(np.exp(1j * k * dx) * np.sin(0.5 * e_k) / e_k, axis=-1) / 10.0
    assert np.allclose(kern.at(0.5), ref, rtol=0, atol=1e-13)


def test_em_closed_form_pulse():
    p = em_kernel_closed_form(2.0, 4.0, "retarded")
    assert np.isclose(p.amplitude, 1.0 / (8 * np.pi))
    assert p.arrival == 0.5
    assert em_kernel_closed_form(2.0, 4.0, "advanced").arrival == -0.5
    with pytest.raises(ValueError, match="separation"):
        em_kernel_closed_form(0.0, 1.0)


def test_pulse_sampling_integrates_to_amplitude():
    p = em_kernel_closed_form(1.0, 1.0, "retarded", width=0.02)
    tau = np.linspace(0.0, 2.0, 4001)
    assert np.isclose(np.trapezoid(p.sample(tau), tau), p.amplitude, rtol=1e-8)
    for width in (0.0, 1e-200, np.nan, np.inf):
        with pytest.raises(ValueError, match="width"):
            em_kernel_closed_form(1.0, 1.0, "retarded", width=width).sample(tau)


def test_point_charge_potential_front():
    q, eps0, r, c = 2.0, 1.0, 0.5, 1.0
    coulomb = q / (4 * np.pi * eps0 * r)
    assert point_charge_potential(q, eps0, r, 0.2, c) == 0.0
    assert point_charge_potential(q, eps0, r, 0.5, c) == coulomb / 2
    assert point_charge_potential(q, eps0, r, 1.0, c) == coulomb
    with pytest.raises(ValueError, match="singular"):
        point_charge_potential(q, eps0, 0.0, 1.0, c)


def test_em_switch_on_field_matches_potential():
    q, eps0, c, r = 2.0, 1.0, 1.0, 0.5
    t_grid = np.array([0.2, 0.4, 0.5, 0.7, 1.0, 1.5])
    exact = np.array([point_charge_potential(q, eps0, r, t, c) for t in t_grid])
    sifted = em_point_charge_field(q, eps0, c, r, t_grid)
    assert np.array_equal(sifted, exact)
    sampled = em_point_charge_field(q, eps0, c, r, t_grid, pulse_width=0.01)
    # the nascent-Gaussian route is compared away from the front, where the
    # smeared pulse only reproduces the half value up to its own width
    off_front = t_grid != r / c
    assert np.max(np.abs(sampled - exact)[off_front]) < 1e-3 * np.max(exact)
    assert abs(sampled[~off_front][0] - exact[~off_front][0]) < 1e-2 * np.max(exact)


def test_future_source_yields_exact_zero():
    basis = build_helmholtz_basis(L, 6)
    window = TimeWindow(np.linspace(-2.0, 2.0, 5))
    ret = wave_step_factor_kernel(wave_auxiliary_kernel(basis, window), "retarded")
    src_times = np.linspace(1.0, 2.0, 5)
    vals = np.ones((5, basis.grid.size), dtype=complex)
    src = SourceField(basis.grid, src_times, vals)
    field = field_from_source(ret, src, np.array([0.0, 0.5]))
    assert np.all(field == 0)


def reference_field(basis, c, source, eval_times):
    """The per-evaluation-time loop field_from_source used before its causal
    contraction, kept as the reference."""
    if basis.model == "relativistic":  # one copy per momentum, E = E_k^2
        keep = basis.branches > 0
        modes, root_e = all_modes(basis)[keep], basis.energies[keep]
    else:
        modes, root_e = all_modes(basis), np.sqrt(basis.energies)
    root_e = root_e[:, None]
    ts = source.times
    if ts.size > 1:
        wt = np.empty_like(ts)
        dt = np.diff(ts)
        wt[0] = dt[0] / 2
        wt[-1] = dt[-1] / 2
        wt[1:-1] = (dt[:-1] + dt[1:]) / 2
    else:
        wt = np.array([1.0])
    out = np.zeros((eval_times.size, basis.grid.size), dtype=complex)
    w = basis.grid.weights
    s_modes = np.conj(modes) @ (w[:, None] * source.values.T)
    zero = root_e == 0
    for i, t in enumerate(eval_times):
        tau = t - ts
        amp = np.where(zero, c * tau, c * np.sin(root_e * c * tau) / np.where(zero, 1.0, root_e))
        coeff = np.sum(amp * theta(tau)[None, :] * s_modes * wt[None, :], axis=1)
        out[i] = coeff @ modes
    return out


def _source(basis, times, seed, zero_mode_only=False):
    rng = np.random.default_rng(seed)
    shape = (times.size, basis.grid.size)
    if zero_mode_only:  # a uniform density excites the k = 0 mode alone
        vals = np.broadcast_to(rng.normal(size=(times.size, 1)), shape)
    else:
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SourceField(basis.grid, times, vals)


@pytest.mark.parametrize("case", ["non-uniform", "single-sample", "zero-mode", "relativistic"])
def test_field_from_source_matches_the_loop(case):
    rng = np.random.default_rng(11)
    if case == "relativistic":
        basis = build_relativistic_branches(PhysicalConstants(mass=0.8), 6, 9.0)
    else:
        basis = build_helmholtz_basis(7.0, 6, PhysicalConstants(c=1.7))
    if case == "single-sample":
        times = np.array([0.37])
    else:
        times = np.sort(rng.uniform(0.37, 2.5, 23))
        times[0] = 0.37
    eval_times = np.concatenate([[0.1, 0.37], np.sort(rng.uniform(0.0, 2.8, 17))])
    src = _source(basis, times, 5, zero_mode_only=case == "zero-mode")
    ret = wave_step_factor_kernel(wave_auxiliary_kernel(basis, TimeWindow(np.linspace(-3.0, 3.0, 7))), "retarded")
    field = field_from_source(ret, src, eval_times)
    ref = reference_field(basis, basis.constants.c, src, eval_times)
    assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))
    # before and at the source's first time the field is exactly zero
    assert np.all(field[eval_times <= times[0]] == 0)
    future = SourceField(basis.grid, times + 3.0, src.values)
    assert np.all(field_from_source(ret, future, eval_times) == 0)


@pytest.mark.parametrize("model", ["helmholtz", "relativistic"])
def test_field_from_source_is_the_dense_application_of_at(model):
    """Every lag t - t' is a stored sample, so the field is the trapezoid sum
    of weights * G^R(t - t') f(t') with G^R read off the kernel's at()."""
    if model == "relativistic":
        basis = build_relativistic_branches(PhysicalConstants(mass=0.8), 4, 9.0)
    else:
        basis = build_helmholtz_basis(7.0, 6, PhysicalConstants(c=1.7))
    dt = 0.25
    ret = wave_step_factor_kernel(wave_auxiliary_kernel(basis, TimeWindow(dt * np.arange(-8, 9))), "retarded")
    src = _source(basis, dt * np.arange(5), 7)
    eval_times = dt * np.arange(9)
    wt = np.full(5, dt)
    wt[[0, -1]] = dt / 2
    w = basis.grid.weights
    dense = np.array([sum(wk * ret.at(t - tp) @ (w * f) for wk, tp, f in zip(wt, src.times, src.values))
                      for t in eval_times])
    field = field_from_source(ret, src, eval_times)
    assert np.max(np.abs(field - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_field_from_source_requires_retarded_kernel():
    basis = build_helmholtz_basis(L, 4)
    window = TimeWindow(np.linspace(-1.0, 1.0, 5))
    aux = wave_auxiliary_kernel(basis, window)
    src = SourceField(basis.grid, np.array([0.0, 0.5]), np.ones((2, basis.grid.size), dtype=complex))
    with pytest.raises(ValueError, match="retarded"):
        field_from_source(aux, src, np.array([1.0]))


def test_field_from_source_rejects_a_kernel_without_wave_speed():
    # a first-order kernel has no wave speed, whatever its basis
    basis = build_helmholtz_basis(L, 4)
    kern = Kernel(basis, np.array([0.0, 1.0]), kind="retarded")
    src = SourceField(basis.grid, np.array([0.0, 0.5]), np.ones((2, basis.grid.size), dtype=complex))
    with pytest.raises(ValueError, match="second-order"):
        field_from_source(kern, src, np.array([1.0]))


@pytest.mark.parametrize("c", [0.0, -1.0, np.nan])
def test_kernel_rejects_bad_wave_speed(c):
    # a kernel's wave speed is its basis constants' c, checked where it is set
    with pytest.raises(ValueError, match="c must be positive and finite"):
        wave_auxiliary_kernel(build_helmholtz_basis(L, 4, PhysicalConstants(c=c)), TimeWindow(np.array([0.0])))


def test_field_from_source_rejects_lags_past_the_window():
    basis = build_helmholtz_basis(L, 4)
    window = TimeWindow(np.linspace(-1.0, 1.0, 5))
    ret = wave_step_factor_kernel(wave_auxiliary_kernel(basis, window), "retarded")
    src = SourceField(basis.grid, np.array([0.0, 0.5]), np.ones((2, basis.grid.size), dtype=complex))
    # largest lag t - t' on the window end, and within Kernel.at's slack of it
    assert np.all(np.isfinite(field_from_source(ret, src, np.array([0.25, 1.0]))))
    field_from_source(ret, src, np.array([1.0 + 1e-12]))
    with pytest.raises(ValueError, match="window"):
        field_from_source(ret, src, np.array([0.5, 1.0 + 1e-6]))


def test_field_from_source_checks_its_evaluation_times():
    """Finite and 1-D; empty and unsorted times still work, row by row."""
    basis = build_helmholtz_basis(L, 4)
    ret = wave_step_factor_kernel(wave_auxiliary_kernel(basis, TimeWindow(np.linspace(-2.0, 2.0, 5))), "retarded")
    src = SourceField(basis.grid, np.array([0.0, 0.5]), np.ones((2, basis.grid.size), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([-np.inf, 1.0], [np.nan]):
            with pytest.raises(ValueError, match="evaluation times must be finite"):
                field_from_source(ret, src, bad)
        with pytest.raises(ValueError, match="evaluation times must be a 1-D array"):
            field_from_source(ret, src, np.ones((2, 2)))
    assert field_from_source(ret, src, []).shape == (0, basis.grid.size)
    times = np.array([1.5, 0.2, 0.9])
    order = np.argsort(times)
    assert np.array_equal(field_from_source(ret, src, times)[order], field_from_source(ret, src, times[order]))


def test_sampled_em_field_spans_the_latest_time():
    """The nascent-Gaussian route samples its source past the latest time
    asked for, not past the last one listed: t = 2.0 behind the front reads
    the static value when it comes first."""
    static = 1.0 / (4 * np.pi * 0.5)
    field = em_point_charge_field(1.0, 1.0, 1.0, 0.5, [2.0, 1.0], pulse_width=0.01)
    assert np.max(np.abs(field - static)) < 1e-3 * static
    ordered = em_point_charge_field(1.0, 1.0, 1.0, 0.5, [1.0, 2.0], pulse_width=0.01)
    assert np.array_equal(field, ordered[::-1])


def test_em_field_of_no_times_is_empty():
    """Both routes, the sifted one and the nascent-Gaussian one, map no
    times to no values."""
    for width in (0.0, 0.01):
        assert em_point_charge_field(1.0, 1.0, 1.0, 0.5, [], pulse_width=width).shape == (0,)


@pytest.mark.parametrize("width", [0.0, 0.01])
@pytest.mark.parametrize("t_grid", [1.0, [[0.6, 1.0]]], ids=["scalar", "2-D"])
def test_em_field_needs_a_1d_time_grid(width, t_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_grid must be a 1-D array"):
            em_point_charge_field(1.0, 1.0, 1.0, 0.5, t_grid, pulse_width=width)


@pytest.mark.parametrize("eps0", [0.0, -1.0, np.nan])
def test_point_charge_permittivity_is_a_scale(eps0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="permittivity eps0 must be positive"):
            point_charge_potential(1.0, eps0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="permittivity eps0 must be positive"):
            em_point_charge_field(1.0, eps0, 1.0, 0.5, [1.0])


def test_point_charge_refuses_a_nan_charge():
    with pytest.raises(ValueError, match="charge q must be finite"):
        point_charge_potential(np.nan, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="charge q must be finite"):
        em_point_charge_field(np.nan, 1.0, 1.0, 0.5, [1.0])


def test_source_field_validation():
    basis = build_helmholtz_basis(L, 4)
    with pytest.raises(ValueError, match="increasing"):
        SourceField(basis.grid, np.array([1.0, 0.0]), np.ones((2, basis.grid.size)))
    with pytest.raises(ValueError, match="times x grid"):
        SourceField(basis.grid, np.array([0.0, 1.0]), np.ones((2, 3)))


@pytest.mark.parametrize("times", [np.array([]), np.array(0.5), np.zeros((1, 1))], ids=["empty", "0-d", "2-d"])
def test_source_field_rejects_times_that_are_not_a_1d_sequence(times):
    basis = build_helmholtz_basis(L, 4)
    with pytest.raises(ValueError, match="at least one time sample"):
        SourceField(basis.grid, times, np.ones((np.size(times), basis.grid.size)))


@pytest.mark.parametrize("times", [np.array([np.nan]), np.array([0.0, np.inf])], ids=["nan", "inf"])
def test_source_field_rejects_non_finite_times(times):
    basis = build_helmholtz_basis(L, 4)
    with pytest.raises(ValueError, match="time samples must be finite"):
        SourceField(basis.grid, times, np.ones((times.size, basis.grid.size)))


def test_wave_residual_converges_second_order():
    basis = build_helmholtz_basis(L, 8)
    r_coarse = wave_pde_residual(basis, np.arange(0.0, 0.05, 2e-3))
    r_fine = wave_pde_residual(basis, np.arange(0.0, 0.05, 1e-3))
    assert r_fine < r_coarse
    assert r_coarse / r_fine > 3.0
