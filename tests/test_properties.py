"""Property tests over random sizes and constants (at most 24 modes)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greenkit import (
    PhysicalConstants,
    SampledFunction,
    TimeWindow,
    auxiliary_kernel,
    build_free_basis,
    build_helmholtz_basis,
    build_relativistic_branches,
    build_well_basis,
    composition_residual,
    project_state,
    reconstruct,
    step_factor_kernel,
    wave_auxiliary_kernel,
    wave_step_factor_kernel,
)
from greenkit.spectra import mode_sum

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

seeds = st.integers(0, 2**32 - 1)
positive = st.floats(0.3, 3.0)
constants = st.builds(PhysicalConstants, hbar=positive, c=positive, mass=positive)


@st.composite
def complete_bases(draw):
    """Well and free bases on their discretely complete grids."""
    cst = draw(constants)
    if draw(st.booleans()):
        return build_well_basis(draw(st.floats(0.5, 3.0)), draw(st.integers(1, 24)), cst)
    return build_free_basis(draw(st.floats(1.0, 20.0)), draw(st.integers(1, 11)), cst)


@st.composite
def wave_bases(draw):
    if draw(st.booleans()):
        cst = PhysicalConstants(mass=draw(positive))  # Klein-Gordon needs hbar = c = 1
        return build_relativistic_branches(cst, draw(st.integers(1, 6)), draw(st.floats(1.0, 20.0)))
    cst = PhysicalConstants(c=draw(positive))
    return build_helmholtz_basis(draw(st.floats(1.0, 20.0)), draw(st.integers(1, 11)), cst)


def reference_mode_sum(modes, amplitudes):
    """sum_n a_n phi_n(x_i) phi_n*(x_j), one mode at a time."""
    out = np.zeros((modes.shape[1], modes.shape[1]), dtype=complex)
    for phi, a in zip(modes, amplitudes):
        out += a * np.outer(phi, np.conj(phi))
    return out


def window(t_max, n):
    return TimeWindow(np.linspace(-t_max, t_max, 2 * n + 1))


@PROPERTY
@given(seed=seeds, n=st.integers(1, 24), m=st.integers(1, 24), k=st.integers(1, 4))
def test_mode_sum_matches_per_mode_loop(seed, n, m, k):
    rng = np.random.default_rng(seed)
    modes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    amps = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    blocks = mode_sum(modes, amps)
    assert blocks.shape == (k, m, m)
    for a, block in zip(amps, blocks):
        ref = reference_mode_sum(modes, a)
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(mode_sum(modes, a), block)


@PROPERTY
@given(basis=complete_bases(), t_max=st.floats(0.1, 3.0), n=st.integers(1, 4))
def test_first_order_support_is_exact(basis, t_max, n):
    aux = auxiliary_kernel(basis, window(t_max, n))
    t = aux.times
    assert np.all(step_factor_kernel(aux, "retarded").values[t < 0] == 0)
    assert np.all(step_factor_kernel(aux, "advanced").values[t > 0] == 0)


@PROPERTY
@given(basis=wave_bases(), t_max=st.floats(0.1, 3.0), n=st.integers(1, 4))
def test_wave_support_is_exact(basis, t_max, n):
    aux = wave_auxiliary_kernel(basis, window(t_max, n))
    t = aux.times
    assert np.all(aux.values[t == 0] == 0)
    assert np.all(wave_step_factor_kernel(aux, "retarded").values[t < 0] == 0)
    assert np.all(wave_step_factor_kernel(aux, "advanced").values[t > 0] == 0)


@PROPERTY
@given(basis=complete_bases(), t_max=st.floats(0.1, 3.0), split=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)))
def test_semigroup_on_complete_grids(basis, t_max, split):
    kern = auxiliary_kernel(basis, TimeWindow(np.array([0.0, t_max])))
    assert composition_residual(kern, split[0] * t_max, split[1] * t_max) < 1e-6


@PROPERTY
@given(basis=complete_bases(), t_max=st.floats(0.1, 3.0), n=st.integers(1, 4))
def test_minus_i_factor_is_exact(basis, t_max, n):
    w = window(t_max, n)
    eq24 = auxiliary_kernel(basis, w)
    minus_i = auxiliary_kernel(basis, w, convention="minus-i")
    assert np.array_equal(minus_i.values, -1j * eq24.values)


@PROPERTY
@given(basis=complete_bases(), seed=seeds)
def test_projection_round_trip(basis, seed):
    rng = np.random.default_rng(seed)
    m = basis.grid.size
    psi = SampledFunction(basis.grid, rng.normal(size=m) + 1j * rng.normal(size=m))
    back = reconstruct(project_state(basis, psi))
    assert np.max(np.abs(back.values - psi.values)) <= 1e-10 * np.max(np.abs(psi.values))
