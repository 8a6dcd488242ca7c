"""First-order kernels: phase sums, step factors, closed-form oracles."""

import numpy as np
import pytest

from greenkit import (
    Kernel,
    SampledFunction,
    TimeWindow,
    auxiliary_kernel,
    build_free_basis,
    build_oscillator_basis,
    build_well_basis,
    composition_residual,
    free_kernel_closed_form,
    kernel_entry,
    oscillator_kernel_closed_form,
    pde_jump_residual,
    propagate,
    step_factor_kernel,
    theta,
)


def test_theta_half_at_zero():
    assert theta(0.0) == 0.5
    assert np.array_equal(theta(np.array([-1.0, 0.0, 2.0])), [0.0, 0.5, 1.0])


def test_time_window_validation():
    with pytest.raises(ValueError, match="increasing"):
        TimeWindow(np.array([0.0, 1.0, 0.5]))
    w = TimeWindow.linear(-1.0, 1.0, 5, zero_plus=True)
    pos = w.samples[w.samples > 0]
    assert pos[0] <= 1e-6 * 2.0


def test_auxiliary_kernel_at_zero_is_grid_delta():
    basis = build_well_basis(1.0, 12)
    kern = auxiliary_kernel(basis, TimeWindow(np.array([0.0])))
    target = np.diag(1.0 / basis.grid.weights)
    assert np.max(np.abs(kern.values[0] - target)) * np.min(basis.grid.weights) < 1e-12


def test_retarded_kernel_support_and_half_value():
    basis = build_well_basis(1.0, 6)
    window = TimeWindow(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    aux = auxiliary_kernel(basis, window)
    ret = step_factor_kernel(aux, "retarded")
    adv = step_factor_kernel(aux, "advanced")
    assert np.all(ret.values[window.samples < 0] == 0)
    assert np.all(adv.values[window.samples > 0] == 0)
    assert np.allclose(ret.at(0.0), aux.at(0.0) / 2)
    assert np.allclose(adv.at(0.0), -aux.at(0.0) / 2)
    assert np.allclose(ret.at(0.5) - adv.at(0.5), aux.at(0.5))


def test_kernel_constructor_enforces_support_law():
    basis = build_well_basis(1.0, 4)
    times = np.array([-1.0, 1.0])
    amps = np.ones((2, basis.size), dtype=complex)  # nonzero at tau < 0
    with pytest.raises(ValueError, match="vanish"):
        Kernel(basis, times, amps, kind="retarded")
    with pytest.raises(ValueError, match="vanish"):
        Kernel(basis, times, amps, kind="advanced")
    amps[0] = 0
    assert np.all(Kernel(basis, times, amps, kind="retarded").values[0] == 0)


def test_kernel_entry_matches_block_and_damps_at_complex_tau():
    basis = build_well_basis(1.0, 8)
    aux = auxiliary_kernel(basis, TimeWindow(np.array([0.7])))
    assert np.isclose(kernel_entry(basis, 2, 5, 0.7), aux.values[0, 2, 5])
    plain = abs(kernel_entry(basis, 2, 2, 0.7))
    damped = abs(kernel_entry(basis, 2, 2, 0.7 - 0.5j))
    assert damped < plain


@pytest.mark.parametrize("i, j", [(-1, 0), (0, 8), (8, 8)])
def test_kernel_entry_rejects_indices_off_the_grid(i, j):
    basis = build_well_basis(1.0, 8)
    with pytest.raises(ValueError, match="grid index"):
        kernel_entry(basis, i, j, 0.7)


def test_propagate_preserves_norm_and_checks_inputs():
    basis = build_well_basis(1.0, 16)
    window = TimeWindow(np.linspace(0.0, 1.0, 3))
    ret = step_factor_kernel(auxiliary_kernel(basis, window), "retarded")
    x = basis.grid.points
    psi0 = SampledFunction(basis.grid, np.sin(np.pi * x).astype(complex))
    psi0 = psi0 * (1.0 / psi0.norm2())
    psi = propagate(ret, psi0, 0.6)
    assert np.isclose(psi.norm2(), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="past"):
        propagate(ret, psi0, -0.1)
    adv = step_factor_kernel(auxiliary_kernel(basis, window), "advanced")
    with pytest.raises(ValueError, match="retarded"):
        propagate(adv, psi0, 0.5)


def test_composition_residual_vanishes_on_complete_grid():
    basis = build_well_basis(1.0, 16)
    window = TimeWindow(np.linspace(0.0, 1.0, 3))
    kern = auxiliary_kernel(basis, window)
    assert composition_residual(kern, 0.3, 0.4) < 1e-10
    with pytest.raises(ValueError, match="non-negative"):
        composition_residual(kern, -0.1, 0.2)


def test_free_closed_form_matches_damped_spectral_sum():
    basis = build_free_basis(40.0, 512)
    tau = 0.5 - 4e-3j
    mid = basis.grid.size // 2
    for off in (0, 3, 11):
        spectral = kernel_entry(basis, mid + off, mid, tau)
        dx = basis.grid.points[mid + off] - basis.grid.points[mid]
        closed = free_kernel_closed_form(dx, tau)
        assert abs(spectral - closed) / abs(closed) < 1e-4


def test_free_closed_form_singular_at_zero():
    with pytest.raises(ValueError, match="singular"):
        free_kernel_closed_form(0.1, 0.0)


def test_oscillator_closed_form_matches_damped_spectral_sum():
    basis = build_oscillator_basis(n_max=96, grid_kind="gauss")
    idx = [i for i, xv in enumerate(basis.grid.points) if abs(xv) < 1.5]
    i, j = idx[0], idx[len(idx) // 2]
    x, xp = basis.grid.points[i], basis.grid.points[j]
    for tau in (0.7, 1.6, 2.6):
        tc = tau - 0.2j
        spectral = kernel_entry(basis, i, j, tc)
        closed = oscillator_kernel_closed_form(x, xp, tc)
        assert abs(spectral - closed) / abs(closed) < 1e-4


def test_oscillator_closed_form_rejects_caustics():
    with pytest.raises(ValueError, match="caustic"):
        oscillator_kernel_closed_form(0.1, 0.2, np.pi)


def test_minus_i_convention_is_exact_global_factor():
    basis = build_well_basis(1.0, 8)
    window = TimeWindow(np.linspace(-0.5, 0.5, 5))
    ref = auxiliary_kernel(basis, window, convention="eq24")
    alt = auxiliary_kernel(basis, window, convention="minus-i")
    assert np.array_equal(alt.values, -1j * ref.values)


def test_jump_residual_separates_conventions():
    basis = build_well_basis(1.0, 8)
    r_default = pde_jump_residual(basis, "eq24", 1e-3)
    r_minus_i = pde_jump_residual(basis, "minus-i", 1e-3)
    assert r_minus_i > 10 * r_default
