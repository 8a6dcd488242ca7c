"""First-order kernels: phase sums, step factors, closed-form oracles."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from basis_modes import all_modes
from greenkit import (
    EigenSystem,
    Kernel,
    PhysicalConstants,
    SampledFunction,
    SourceField,
    TimeWindow,
    auxiliary_kernel,
    build_free_basis,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_relativistic_branches,
    build_well_basis,
    composition_residual,
    convolution_response,
    em_kernel_closed_form,
    field_from_source,
    free_kernel_closed_form,
    kernel_entry,
    momentum_response_relativistic,
    oscillator_kernel_closed_form,
    pde_jump_residual,
    propagate,
    response_from_density,
    spectral_density,
    step_factor_kernel,
    theta,
    wave_auxiliary_kernel,
    wave_step_factor_kernel,
)
from greenkit.firstorder import _suppressed
from greenkit.spectra import _first_columns, mode_sum


def test_theta_half_at_zero():
    assert theta(0.0) == 0.5
    assert np.array_equal(theta(np.array([-1.0, 0.0, 2.0])), [0.0, 0.5, 1.0])


def _direction_calls():
    window = TimeWindow(np.array([-1.0, 0.0, 1.0]))
    basis = build_well_basis(1.0, 4)
    aux = auxiliary_kernel(basis, window)
    wave = wave_auxiliary_kernel(build_helmholtz_basis(2 * np.pi, 4), window)
    dens = spectral_density(basis, 0, 0)
    omega = np.linspace(-1.0, 1.0, 5)
    return {
        "step_factor_kernel": lambda d: step_factor_kernel(aux, d),
        "wave_step_factor_kernel": lambda d: wave_step_factor_kernel(wave, d),
        "response_from_density": lambda d: response_from_density(dens, omega, 0.1, d),
        "convolution_response": lambda d: convolution_response(dens, omega, 0.1, d),
        "momentum_response_relativistic": lambda d: momentum_response_relativistic(1.0, omega, 0.1, d),
        "em_kernel_closed_form": lambda d: em_kernel_closed_form(1.0, 1.0, d),
    }


@pytest.mark.parametrize("name", list(_direction_calls()))
def test_unknown_direction_is_rejected_everywhere(name):
    """Every retarded/advanced switch goes through the one sign table."""
    with pytest.raises(ValueError, match="direction"):
        _direction_calls()[name]("sideways")


def _convention_calls():
    basis = build_well_basis(1.0, 4)
    window = TimeWindow(np.array([0.0, 1.0]))
    return {
        "auxiliary_kernel": lambda c: auxiliary_kernel(basis, window, convention=c),
        "kernel_entry": lambda c: kernel_entry(basis, 0, 1, 0.5, convention=c),
        "pde_jump_residual": lambda c: pde_jump_residual(basis, c, 1e-3),
    }


@pytest.mark.parametrize("convention", ["minus_i", "bogus"])
@pytest.mark.parametrize("name", list(_convention_calls()))
def test_unknown_convention_is_rejected_everywhere(name, convention):
    """Every eq24/minus-i switch goes through the one prefactor; a typo
    must not quietly compute the eq24 value."""
    with pytest.raises(ValueError, match="unknown convention"):
        _convention_calls()[name](convention)


@pytest.mark.parametrize("tau", [np.nan, 0.25, -1.0, np.inf])
def test_at_rejects_a_time_that_is_not_a_sample(tau):
    kern = auxiliary_kernel(build_well_basis(1.0, 4), TimeWindow(np.linspace(0.0, 1.0, 3)))
    with pytest.raises(ValueError, match="not a stored time sample"):
        kern.at(tau)


def test_window_ends_share_one_slack():
    """at, propagate, composition_residual and field_from_source (its
    largest lag) accept a time past the window end by 1e-12 and refuse
    one past it by 1e-6."""
    window = TimeWindow(np.linspace(-1.0, 1.0, 5))
    aux = auxiliary_kernel(build_well_basis(1.0, 4), window)
    ret = step_factor_kernel(aux, "retarded")
    psi = SampledFunction(aux.basis.grid, np.ones(4, dtype=complex))
    wave = wave_step_factor_kernel(wave_auxiliary_kernel(build_helmholtz_basis(2 * np.pi, 2), window), "retarded")
    source = SourceField(wave.basis.grid, [0.0, 0.5], np.ones((2, 5)))
    calls = {
        "at": lambda end: aux.at(end),
        "propagate": lambda end: propagate(ret, psi, end),
        "composition_residual": lambda end: composition_residual(aux, 0.5, end - 0.5),
        "field_from_source": lambda end: field_from_source(wave, source, [0.0, end]),
    }
    for call in calls.values():
        call(1 + 1e-12)
        with pytest.raises(ValueError, match="window|stored time sample"):
            call(1 + 1e-6)


def _admission_calls(basis, order):
    """Every entry point that builds a kernel's law on a basis, at one order."""
    window = TimeWindow(np.array([0.0, 0.5]))
    if order == "second":
        return [lambda: wave_auxiliary_kernel(basis, window), lambda: Kernel(basis, window.samples, order="second")]
    return [lambda: auxiliary_kernel(basis, window), lambda: Kernel(basis, window.samples),
            lambda: kernel_entry(basis, 0, 1, 0.5), lambda: pde_jump_residual(basis, "eq24", 1e-3)]


def _hand_built(energies):
    free = build_free_basis(10.0, 2)
    return EigenSystem(free.grid, energies, all_modes(free)[: len(energies)], free.constants, "free")


ADMISSION_BASES = {
    "free": lambda: build_free_basis(10.0, 4),
    "well": lambda: build_well_basis(1.0, 4),
    "oscillator": lambda: build_oscillator_basis(n_max=6, grid_kind="gauss"),
    "relativistic": lambda: build_relativistic_branches(PhysicalConstants(), 2, 10.0),
    "helmholtz": lambda: build_helmholtz_basis(10.0, 4),
    "relativistic hbar=2": lambda: build_relativistic_branches(PhysicalConstants(hbar=2.0), 2, 10.0),
    "negative eigenvalue": lambda: _hand_built([-1.0, 0.0, 1.0]),
    "empty": lambda: _hand_built([]),
}
# the bases each order's law is not defined on, with the reason it raises
REFUSED = {
    "first": {"empty": "empty basis"},
    "second": {"empty": "empty basis", "negative eigenvalue": "non-negative eigenvalues",
               "relativistic hbar=2": "hbar = c = 1"},
}


@pytest.mark.parametrize("order", ["first", "second"])
@pytest.mark.parametrize("model", list(ADMISSION_BASES))
def test_every_entry_point_admits_the_bases_of_the_law(model, order):
    """The factory, a Kernel built directly and, at first order, kernel_entry
    and pde_jump_residual all take a basis or all refuse it at construction,
    by the one rule in Kernel.__post_init__."""
    basis = ADMISSION_BASES[model]()
    for call in _admission_calls(basis, order):
        if model in REFUSED[order]:
            with pytest.raises(ValueError, match=REFUSED[order][model]):
                call()
        else:
            call()


def _range_escapes():
    """Each call asks the law for an amplitude or a phase past the float
    range, at a tau that the window and the samples accept."""
    well = build_well_basis(1.0, 4)
    far = Kernel(well, [0.0, 1e308])
    fast = build_well_basis(1.0, 4, PhysicalConstants(c=1e50))
    wave = Kernel(well, [-1.0, 0.0, 1.0], kind="retarded", order="second")
    return {
        "at": (lambda: far.at(1e308), "tau"),
        "kernel_entry": (lambda: kernel_entry(well, 0, 1, 1e308), "tau"),
        "composition_residual": (lambda: composition_residual(far, 5e307, 5e307), "tau"),
        "second-order at": (lambda: Kernel(fast, [0.0, 1e300], order="second").at(1e300), "tau"),
        "pde_jump_residual": (lambda: pde_jump_residual(well, "eq24", 1e-320), "dtau"),
        "kernel_entry at complex tau": (lambda: kernel_entry(well, 0, 1, 1000j), "tau"),
        "field_from_source": (
            lambda: field_from_source(wave, SourceField(well.grid, [0.0, 1e308], np.ones((2, 4))), [0.0]), "tau"),
    }


@pytest.mark.parametrize("name", list(_range_escapes()))
def test_the_law_refuses_a_tau_past_its_range(name):
    """Every amplitude and phase the law returns is finite: a tau past that
    range raises a ValueError naming tau (or dtau) before numpy warns."""
    call, names = _range_escapes()[name]
    with pytest.raises(ValueError, match=rf"\b{names}\b"):
        call()


def test_time_window_validation():
    with pytest.raises(ValueError, match="increasing"):
        TimeWindow(np.array([0.0, 1.0, 0.5]))


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


@pytest.mark.parametrize("order", ["first", "second"])
def test_hand_built_kernel_vanishes_off_its_causal_side(order):
    """The constructor checks no amplitudes: the law alone zeroes the wrong side."""
    basis = build_well_basis(1.0, 4)
    times = np.array([-1.0, -0.25, 0.0, 1.0])
    for kind, wrong in (("retarded", times < 0), ("advanced", times > 0)):
        kern = Kernel(basis, times, kind=kind, order=order)
        assert np.all(kern.amplitudes[wrong] == 0)
        assert np.all(kern.values[wrong] == 0)
        assert np.any(kern.values[~wrong] != 0)
    assert np.all(Kernel(basis, times, kind="retarded", order=order).amplitude([-0.5 - 0.1j, -3.0]) == 0)


def test_amplitude_is_the_law():
    """amplitude(tau) = s theta(s tau) e^{-i E tau / hbar}, for any shape of
    real or complex tau, and the stored amplitudes are its samples."""
    basis = build_oscillator_basis(PhysicalConstants(hbar=0.7), n_max=6, grid_kind="gauss")
    times = np.array([-0.5, 0.0, 0.3, 1.1])
    tau = np.array([[0.3, -0.2 + 0.1j, 0.0], [1.1 - 0.4j, 2.0, -1.5]])
    phase = np.exp(-1j * basis.energies * tau[..., None] / 0.7)
    for kind, step in (("auxiliary", 1.0), ("retarded", theta(tau.real)), ("advanced", -theta(-tau.real))):
        kern = Kernel(basis, times, kind=kind)
        assert kern.amplitude(tau).shape == (2, 3, basis.size)
        assert np.allclose(kern.amplitude(tau), np.asarray(step)[..., None] * phase, rtol=1e-14, atol=0)
        assert np.array_equal(kern.amplitudes, kern.amplitude(times))


@pytest.mark.parametrize(
    "field, value, match",
    [("kind", "causal", "unknown kernel kind"), ("order", "third", "unknown order 'third'")],
)
def test_kernel_rejects_unknown_fields(field, value, match):
    with pytest.raises(ValueError, match=match):
        Kernel(build_well_basis(1.0, 4), np.array([0.0]), **{field: value})


@pytest.mark.parametrize(
    "times, match",
    [
        (np.array([0.5, 0.1]), "increasing"),
        (np.array([np.nan, 1.0]), "finite"),
        (np.array([[0.0, 1.0]]), "at least one time sample"),
        (np.array([]), "at least one time sample"),
        (np.array([np.nan]), "finite"),
        (np.array([0.0, np.inf]), "finite"),
    ],
)
def test_kernel_checks_its_times(times, match):
    basis = build_well_basis(1.0, 4)
    with pytest.raises(ValueError, match=match):
        Kernel(basis, times)


def test_suppressed_side_is_one_rule():
    """Retarded vanishes at tau < 0, advanced at tau > 0, and the auxiliary
    kernel or a feynman response nowhere; tau = 0 is never suppressed."""
    tau = np.array([-1.0, -0.0, 0.0, 2.0])
    assert _suppressed("retarded", tau).tolist() == [True, False, False, False]
    assert _suppressed("advanced", tau).tolist() == [False, False, False, True]
    for direction in ("auxiliary", "feynman"):
        assert not _suppressed(direction, tau).any()


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


DENSE_KERNELS = {  # auxiliary kernels of both orders
    "well": lambda w: auxiliary_kernel(build_well_basis(1.0, 8), w),
    "free": lambda w: auxiliary_kernel(build_free_basis(10.0, 8), w),
    "oscillator": lambda w: auxiliary_kernel(build_oscillator_basis(n_max=10, grid_kind="gauss"), w),
    "relativistic": lambda w: auxiliary_kernel(build_relativistic_branches(PhysicalConstants(), 4, 10.0), w),
    "helmholtz": lambda w: wave_auxiliary_kernel(build_helmholtz_basis(10.0, 8, PhysicalConstants(c=1.7)), w),
}


@pytest.mark.parametrize("case", DENSE_KERNELS)
def test_propagate_is_the_dense_application_of_at(case):
    aux = DENSE_KERNELS[case](TimeWindow(np.linspace(0.0, 1.0, 5)))
    ret = Kernel(aux.basis, aux.times, kind="retarded", order=aux.order)
    grid = ret.basis.grid
    rng = np.random.default_rng(4)
    psi0 = SampledFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    for tau in ret.times:
        dense = ret.at(tau) @ (grid.weights * psi0.values)
        got = propagate(ret, psi0, tau).values
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("case", DENSE_KERNELS)
def test_composition_residual_is_the_dense_composition_of_at(case):
    """The residual of the kernel given, kind and order included; tau = 0
    carries the retarded half value, so that residual is O(1)."""
    aux = DENSE_KERNELS[case](TimeWindow(np.linspace(0.0, 1.0, 5)))
    w = aux.basis.grid.weights
    for kern in (aux, Kernel(aux.basis, aux.times, kind="retarded", order=aux.order)):
        for tau1, tau2 in ((0.25, 0.5), (0.0, 0.75), (0.5, 0.5)):
            lhs = kern.at(tau1 + tau2)
            dense = np.max(np.abs(lhs - kern.at(tau1) @ (w[:, None] * kern.at(tau2))))
            got = composition_residual(kern, tau1, tau2)
            assert abs(got - dense) <= 1e-12 * np.max(np.abs(lhs))
    minus_i = Kernel(aux.basis, aux.times, convention="minus-i", order=aux.order)
    assert composition_residual(minus_i, 0.25, 0.5) == composition_residual(aux, 0.25, 0.5)


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


FIRST_ORDER_BASES = {
    "free": lambda: build_free_basis(10.0, 8),
    "well": lambda: build_well_basis(1.0, 8),
    "oscillator": lambda: build_oscillator_basis(n_max=12, grid_kind="gauss"),
    "relativistic": lambda: build_relativistic_branches(PhysicalConstants(), 4, 10.0),
}


def test_minus_i_convention_is_exact_global_factor():
    window = TimeWindow(np.linspace(-0.5, 0.5, 5))
    for build in FIRST_ORDER_BASES.values():
        basis = build()
        ref = auxiliary_kernel(basis, window, convention="eq24")
        alt = auxiliary_kernel(basis, window, convention="minus-i")
        assert np.array_equal(alt.values, -1j * ref.values)
        assert np.array_equal(alt.at(0.25), -1j * ref.at(0.25))


@pytest.mark.parametrize("model", [*FIRST_ORDER_BASES, "helmholtz"])
def test_kernel_blocks_are_read_only(model):
    window = TimeWindow(np.linspace(-0.5, 0.5, 5))
    if model == "helmholtz":
        kernels = [wave_auxiliary_kernel(build_helmholtz_basis(10.0, 8), window)]
    else:
        basis = FIRST_ORDER_BASES[model]()
        kernels = [auxiliary_kernel(basis, window, convention=c) for c in ("eq24", "minus-i")]
    for kern in kernels:
        for blocks in (kern.values, kern.at(0.25)):
            with pytest.raises(ValueError, match="read-only"):
                blocks[0, 0] = 1.0


def _copied_circulant_blocks(basis, amplitudes):
    """The circulant builder mode_blocks used before its blocks became views:
    each block copied out of sliding windows over the wrapped generating row,
    the first column, which matches the dense product with the modes."""
    m = basis.grid.size
    modes = all_modes(basis)
    out = np.zeros((amplitudes.shape[0], m, m), dtype=complex)
    live = np.flatnonzero(np.any(amplitudes != 0, axis=1))
    gen = _first_columns(basis, amplitudes[live])[:, 0]
    dense = (amplitudes[live] * np.conj(modes[:, 0])) @ modes
    assert np.max(np.abs(gen - dense)) <= 1e-13 * np.max(np.abs(dense))
    wrapped = np.concatenate([gen[:, ::-1], gen[:, :0:-1]], axis=1)
    for k, w in zip(live, wrapped):
        out[k] = sliding_window_view(w, m)[::-1]
    return out


def _owner(array):
    """The array that owns the memory a view reads."""
    while not (isinstance(array, np.ndarray) and array.flags.owndata):
        array = array.base
    return array


@pytest.mark.parametrize("model", ["free", "relativistic", "helmholtz"])
def test_periodic_values_are_an_exact_zero_copy_view(model):
    window = TimeWindow(np.linspace(-1.0, 1.0, 9))
    if model == "helmholtz":
        kernels = [wave_step_factor_kernel(wave_auxiliary_kernel(build_helmholtz_basis(10.0, 8), window), "retarded")]
    else:
        aux = auxiliary_kernel(FIRST_ORDER_BASES[model](), window, convention="minus-i")
        kernels = [step_factor_kernel(auxiliary_kernel(aux.basis, window), "retarded"), aux]
    for kern in kernels:
        ref = _copied_circulant_blocks(kern.basis, kern.amplitudes)
        if kern.convention == "minus-i":
            ref *= -1j
        nt, m = kern.times.size, kern.basis.grid.size
        assert np.array_equal(kern.values, ref)
        assert kern.values.nbytes == ref.nbytes
        assert _owner(kern.values).nbytes == nt * (2 * m - 1) * 16


def _dense_composition_residual(kernel, tau1, tau2):
    """The dense residual composition_residual formed before its structured
    paths: three mode sums and their O(m^3) product."""
    basis = kernel.basis
    taus = np.array([tau1 + tau2, tau1, tau2])
    phases = np.exp(-1j * basis.energies * taus[:, None] / basis.constants.hbar)
    lhs, k1, k2 = mode_sum(all_modes(basis), phases)
    residual = float(np.max(np.abs(lhs - k1 @ (basis.grid.weights[:, None] * k2))))
    return residual, float(np.max(np.abs(lhs)))


COMPOSITION_CASES = {  # basis, complete (residual at round-off) or not (O(1))
    "free": (lambda: build_free_basis(10.0, 16), True),
    "free-finer-grid": (lambda: build_free_basis(10.0, 8, n_points=24), True),
    "free-aliased": (lambda: build_free_basis(10.0, 8, n_points=12), False),
    "relativistic": (lambda: build_relativistic_branches(PhysicalConstants(), 6, 10.0), False),
    "helmholtz": (lambda: build_helmholtz_basis(10.0, 8), True),
    "well": (lambda: build_well_basis(1.0, 16), True),
    "well-finer-grid": (lambda: build_well_basis(1.0, 8, n_points=20), True),
    "well-aliased": (lambda: build_well_basis(1.0, 20, n_points=8), False),
    "oscillator": (lambda: build_oscillator_basis(n_max=24, grid_kind="gauss"), True),
}


@pytest.mark.parametrize("case", COMPOSITION_CASES)
def test_structured_composition_matches_dense_product(case):
    build, complete = COMPOSITION_CASES[case]
    basis = build()
    window = TimeWindow(np.linspace(0.0, 2.0, 5))
    kern = Kernel(basis, window.samples)  # the first-order law, on the Helmholtz basis too
    rng = np.random.default_rng(3)
    for tau1, tau2 in rng.uniform(0.05, 0.95, (3, 2)):
        got = composition_residual(kern, tau1, tau2)
        ref, scale = _dense_composition_residual(kern, tau1, tau2)
        if basis.model == "oscillator":  # dense: every column, against the dense product
            assert ref < 1e-10
            assert abs(got - ref) <= 1e-13 * scale
        elif complete:
            assert ref < 1e-10
            # both are round-off of m-term sums of entries up to `scale`
            assert abs(got - ref) <= 32 * basis.grid.size * np.finfo(float).eps * scale
        else:
            assert ref > 0.1
            assert abs(got - ref) <= 1e-12 * ref


def test_jump_residual_separates_conventions():
    basis = build_well_basis(1.0, 8)
    r_default = pde_jump_residual(basis, "eq24", 1e-3)
    r_minus_i = pde_jump_residual(basis, "minus-i", 1e-3)
    assert r_minus_i > 10 * r_default
