"""Second-order kernels, EM closed forms and the source convolution."""

import numpy as np
import pytest

from greenkit import (
    Kernel,
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
    theta,
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


def reference_field(basis, c, source, eval_times):
    """The per-evaluation-time loop field_from_source used before its causal
    contraction, kept as the reference."""
    if basis.model == "relativistic":  # one copy per momentum, E = E_k^2
        keep = basis.branches > 0
        modes, root_e = basis.mode_values[keep], basis.energies[keep]
    else:
        modes, root_e = basis.mode_values, np.sqrt(basis.energies)
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


def test_field_uses_the_kernel_wave_speed():
    basis = build_helmholtz_basis(L, 6)  # c = 1
    window = TimeWindow(np.linspace(-2.0, 2.0, 5))
    src = _source(basis, np.linspace(0.0, 1.0, 11), 3)
    eval_times = np.linspace(0.0, 2.0, 9)

    def field(b, constants=None):
        ret = wave_step_factor_kernel(wave_auxiliary_kernel(b, window, constants), "retarded")
        return field_from_source(ret, src, eval_times)

    slow, fast = field(basis), field(basis, PhysicalConstants(c=3.0))
    assert not np.allclose(slow, fast)
    ref = field(build_helmholtz_basis(L, 6, PhysicalConstants(c=3.0)))
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_field_from_source_requires_retarded_kernel():
    basis = build_helmholtz_basis(L, 4)
    window = TimeWindow(np.linspace(-1.0, 1.0, 5))
    aux = wave_auxiliary_kernel(basis, window)
    src = SourceField(basis.grid, np.array([0.0, 0.5]), np.ones((2, basis.grid.size), dtype=complex))
    with pytest.raises(ValueError, match="retarded"):
        field_from_source(aux, src, np.array([1.0]))


def test_field_from_source_rejects_a_kernel_without_wave_speed():
    # a kernel built without a wave speed is first order, whatever its basis
    basis = build_helmholtz_basis(L, 4)
    t = np.array([0.0, 1.0])
    kern = Kernel(basis, t, np.ones((2, basis.size)), kind="retarded")
    assert kern.order == "first"
    src = SourceField(basis.grid, np.array([0.0, 0.5]), np.ones((2, basis.grid.size), dtype=complex))
    with pytest.raises(ValueError, match="second-order"):
        field_from_source(kern, src, np.array([1.0]))


@pytest.mark.parametrize("c", [0.0, -1.0, np.nan])
def test_kernel_rejects_bad_wave_speed(c):
    basis = build_helmholtz_basis(L, 4)
    with pytest.raises(ValueError, match="wave speed"):
        Kernel(basis, np.array([0.0]), np.ones((1, basis.size)), wave_speed=c)


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
