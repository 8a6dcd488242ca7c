"""Second-order kernels, EM closed forms and the source convolution."""

import numpy as np
import pytest

from greenkit import (
    PhysicalConstants,
    SourceField,
    TimeWindow,
    build_helmholtz_basis,
    build_relativistic_branches,
    build_well_basis,
    em_kernel_closed_form,
    em_point_charge_field,
    field_from_source,
    point_charge_potential,
    wave_auxiliary_kernel,
    wave_pde_residual,
    wave_step_factor_kernel,
)

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


def test_wave_kernel_rejects_first_order_models():
    basis = build_well_basis(1.0, 4)
    with pytest.raises(ValueError, match="second-order"):
        wave_auxiliary_kernel(basis, TimeWindow(np.array([0.0, 1.0])))


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
    zero_width = em_kernel_closed_form(1.0, 1.0, "retarded")
    with pytest.raises(ValueError, match="width"):
        zero_width.sample(tau)


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


def test_field_from_source_requires_retarded_kernel():
    basis = build_helmholtz_basis(L, 4)
    window = TimeWindow(np.linspace(-1.0, 1.0, 5))
    aux = wave_auxiliary_kernel(basis, window)
    src = SourceField(basis.grid, np.array([0.0, 0.5]), np.ones((2, basis.grid.size), dtype=complex))
    with pytest.raises(ValueError, match="retarded"):
        field_from_source(aux, src, np.array([1.0]))


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


def test_source_field_validation():
    basis = build_helmholtz_basis(L, 4)
    with pytest.raises(ValueError, match="increasing"):
        SourceField(basis.grid, np.array([1.0, 0.0]), np.ones((2, basis.grid.size)))
    with pytest.raises(ValueError, match="times x grid"):
        SourceField(basis.grid, np.array([0.0, 1.0]), np.ones((2, 3)))


def test_wave_residual_converges_second_order():
    basis = build_helmholtz_basis(L, 8)
    r_coarse = wave_pde_residual(basis, np.arange(0.0, 0.05, 2e-3))
    r_fine = wave_pde_residual(basis, np.arange(0.0, 0.05, 1e-3))
    assert r_fine < r_coarse
    assert r_coarse / r_fine > 3.0
