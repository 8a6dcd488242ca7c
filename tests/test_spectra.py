"""Eigenbasis builders: orthonormality, completeness, projections."""

import numpy as np
import pytest

from greenkit import (
    EigenSystem,
    PhysicalConstants,
    SampledFunction,
    TimeWindow,
    auxiliary_kernel,
    build_free_basis,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_relativistic_branches,
    build_well_basis,
    completeness_residual,
    composition_residual,
    orthonormality_residual,
    project_state,
    reconstruct,
    step_factor_kernel,
)
from greenkit.spectra import (
    _gauss_hermite,
    _plane_wave_system,
    _plane_waves,
    column_max_norm,
    delta_residual,
    mode_blocks,
    mode_sum,
)


def test_constants_positivity():
    with pytest.raises(ValueError, match="hbar"):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError, match="mass"):
        PhysicalConstants(mass=-1.0)
    with pytest.raises(ValueError, match="^c must be positive and finite"):
        PhysicalConstants(c=np.inf)


def test_well_basis_is_discretely_orthonormal_and_complete():
    basis = build_well_basis(1.0, 16)
    assert orthonormality_residual(basis) < 1e-12
    assert completeness_residual(basis) < 1e-12


def test_well_energies():
    cst = PhysicalConstants(hbar=2.0, mass=0.5)
    basis = build_well_basis(3.0, 4, cst)
    n = np.arange(1, 5)
    expect = np.pi**2 * cst.hbar**2 * n**2 / (2 * cst.mass * 3.0**2)
    assert np.allclose(basis.energies, expect)


def test_free_basis_complete_on_default_grid():
    basis = build_free_basis(10.0, 8)
    assert basis.size == 17
    assert basis.grid.size == 17
    assert orthonormality_residual(basis) < 1e-12
    assert completeness_residual(basis) < 1e-12
    k1 = 2 * np.pi / 10.0
    assert np.isclose(sorted(basis.energies)[1], k1**2 / 2)


@pytest.mark.parametrize(
    "length, n_max, n_points",
    [(40.0, 512, None), (7.3, 6, 40), (7.3, 20, 13)],  # default, finer, aliased grid
)
def test_plane_waves_match_the_exponential(length, n_max, n_points):
    grid, j, k = _plane_waves(length, n_max, n_points)
    assert np.array_equal(k, 2 * np.pi * j / length)
    # with E = j, each row's wave index is its energy
    basis = _plane_wave_system(grid, j, j.astype(float), PhysicalConstants(), "free")
    assert np.array_equal(np.sort(basis.energies), j)
    assert np.array_equal(basis.waves, basis.energies)
    modes = basis.mode_values
    phase = np.outer(2 * np.pi * basis.energies / length, grid.points)
    direct = np.exp(1j * phase) / np.sqrt(length)
    # the direct form's own phase round-off grows with |k x|
    assert np.max(np.abs(modes - direct)) <= 64 * np.finfo(float).eps * np.max(np.abs(phase))


def test_large_free_basis_is_complete_to_round_off():
    basis = build_free_basis(40.0, 512)
    assert completeness_residual(basis) <= 1e-14
    assert orthonormality_residual(basis) <= 1e-14


def test_large_well_basis_is_exact_to_round_off():
    """Every sine is read off one table at an exact integer index, so the
    residuals stay at round-off instead of growing with n."""
    basis = build_well_basis(1.0, 1024)
    assert np.array_equal(basis.waves, np.arange(1, 1025))
    eps = np.finfo(float).eps
    assert completeness_residual(basis) <= 32 * eps
    assert orthonormality_residual(basis) <= 32 * eps


def test_mislabelled_basis_takes_the_dense_path():
    """Orthonormal modes with no plane-wave structure, labelled "free": only
    the builders' waves select the circulant algebra, so a hand-built basis
    gets the dense mode sums, whatever its model label."""
    free = build_free_basis(10.0, 4)
    m = free.grid.size
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    basis = EigenSystem(free.grid, free.energies, q.T / np.sqrt(free.grid.weights), free.constants, "free")
    assert basis.waves is None
    assert orthonormality_residual(basis) <= 1e-14
    a = rng.normal(size=m) + 1j * rng.normal(size=m)
    assert np.max(np.abs(mode_blocks(basis, a) - mode_sum(basis.mode_values, a))) <= 1e-12
    dense = mode_sum(basis.mode_values, np.ones(m))
    assert completeness_residual(basis) == delta_residual(dense, basis.grid.weights)
    kern = auxiliary_kernel(basis, TimeWindow(np.linspace(0.0, 1.0, 5)))
    assert composition_residual(kern, 0.25, 0.25) <= 1e-14
    with pytest.raises(ValueError, match="without waves"):
        column_max_norm(basis, dense[:, 0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_free_basis(10.0, 8),
        lambda: build_free_basis(10.0, 8, n_points=24),
        lambda: build_free_basis(10.0, 8, n_points=12),
        lambda: build_relativistic_branches(PhysicalConstants(), 6, 10.0),
        lambda: build_helmholtz_basis(10.0, 8),
    ],
)
def test_periodic_completeness_residual_reads_the_generating_column(build):
    basis = build()
    dense = np.array(mode_blocks(basis, np.ones(basis.size)))
    assert completeness_residual(basis) == delta_residual(dense, basis.grid.weights)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_well_basis(1.0, 9),
        lambda: build_well_basis(1.0, 30, n_points=7),
        lambda: build_well_basis(1.0, 6, n_points=11),
        lambda: build_well_basis(1.0, 512),
        lambda: build_well_basis(1.0, 512, n_points=300),
        lambda: build_well_basis(1.0, 512, n_points=700),
    ],
)
def test_well_completeness_residual_matches_the_dense_block(build):
    basis = build()
    dense = mode_sum(basis.mode_values, np.ones(basis.size))
    # the residual is normalized to the delta's scale 1/w
    err = abs(completeness_residual(basis) - delta_residual(dense, basis.grid.weights))
    assert err <= basis.grid.size * np.finfo(float).eps


@pytest.mark.parametrize("n_points", [None, 300, 700])
def test_large_well_blocks_match_mode_sum(n_points):
    """512 sine modes on the complete, an aliased and a finer grid; the
    property tests stop at 24 modes."""
    basis = build_well_basis(1.0, 512, n_points=n_points)
    rng = np.random.default_rng(0)
    for amps in (
        rng.normal(size=(2, basis.size)) + 1j * rng.normal(size=(2, basis.size)),
        auxiliary_kernel(basis, TimeWindow(np.linspace(0.0, 1.0, 3))).amplitudes,
    ):
        for a, block in zip(amps, mode_blocks(basis, amps)):
            ref = mode_sum(basis.mode_values, a)
            assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))


def _complex_path(modes, a):
    """The complex-mode mode_sum of one block: phi^T a times conj(phi)."""
    return (modes.T * a) @ np.conj(modes)


@pytest.mark.parametrize("amplitude", ["real", "complex"])
@pytest.mark.parametrize("n, m", [(5, 9), (7, 7), (9, 4)])
def test_real_modes_take_the_real_gemm(n, m, amplitude):
    """Real modes, stored complex as the builders store them: each block is
    one real GEMM, within round-off of the complex product, for real and
    complex amplitudes, and a 1-D result is its 2-D row exactly."""
    rng = np.random.default_rng(n * m)
    modes = rng.normal(size=(n, m)).astype(complex)
    amps = rng.normal(size=(3, n))
    if amplitude == "complex":
        amps = amps + 1j * rng.normal(size=(3, n))
    phi = modes.real
    blocks = mode_sum(modes, amps)
    assert blocks.shape == (3, m, m)
    for a, block in zip(amps, blocks):
        ref = _complex_path(modes, a)
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
        real_gemm = phi.T @ (a.astype(complex)[:, None] * phi).view(float)
        assert np.array_equal(block, real_gemm.view(complex))
        assert np.array_equal(mode_sum(modes, a), block)
        assert np.array_equal(mode_sum(phi, a), block)  # float modes too


def test_complex_modes_keep_the_complex_gemm():
    rng = np.random.default_rng(3)
    modes = rng.normal(size=(6, 8)).astype(complex)
    modes[2, 5] += 1e-3j  # one complex entry is enough
    amps = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    for a, block in zip(amps, mode_sum(modes, amps)):
        assert np.array_equal(block, _complex_path(modes, a))
    basis = build_free_basis(10.0, 3)
    a = np.ones(basis.size)
    assert np.array_equal(mode_sum(basis.mode_values, a), _complex_path(basis.mode_values, a))


@pytest.mark.parametrize("convention", ["eq24", "minus-i"])
@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_well_kernel_blocks_vanish_off_the_causal_side(direction, convention):
    """Only the live blocks are built: the wrong side is exact zeros, the
    causal side (with the half value at tau = 0) is the dense mode sum, and
    every block is read-only."""
    basis = build_well_basis(1.0, 24)
    t = np.linspace(-1.0, 1.0, 9)
    kern = step_factor_kernel(auxiliary_kernel(basis, TimeWindow(t), convention), direction)
    s = 1 if direction == "retarded" else -1
    values = kern.values
    assert not values[s * t < 0].any()
    factor = -1j if convention == "minus-i" else 1
    for block, a in zip(values[s * t >= 0], kern.amplitudes[s * t >= 0]):
        ref = factor * mode_sum(basis.mode_values, a)
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0, 0] = 1


def test_oscillator_gauss_rule_is_cached_per_size():
    """The Gauss-Hermite rule does not depend on omega: bases of one size
    share the cached, read-only rule, and each scales it by its own alpha."""
    slow = build_oscillator_basis(PhysicalConstants(omega=0.5), n_max=12, grid_kind="gauss")
    fast = build_oscillator_basis(PhysicalConstants(omega=2.0), n_max=12, grid_kind="gauss")
    nodes, weights = _gauss_hermite(12)
    assert _gauss_hermite(12) is _gauss_hermite(12)
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert not np.array_equal(slow.grid.points, fast.grid.points)
    for basis in (slow, fast):
        alpha = np.sqrt(basis.constants.omega)  # mass = hbar = 1
        assert np.array_equal(basis.grid.points, nodes / alpha)
        assert orthonormality_residual(basis) < 1e-12
        assert completeness_residual(basis) < 1e-10


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_well_basis(1.0, 2),
        lambda: build_well_basis(1.0, 9),
        lambda: build_well_basis(1.0, 6, n_points=11),
        lambda: build_well_basis(1.0, 30, n_points=7),
        lambda: build_free_basis(10.0, 5),
        lambda: build_relativistic_branches(PhysicalConstants(), 4, 10.0, n_points=6),
    ],
)
def test_column_max_norm_is_the_block_max(build):
    basis = build()
    rng = np.random.default_rng(5)
    for a in rng.normal(size=(4, basis.size)) + 1j * rng.normal(size=(4, basis.size)):
        block = mode_sum(basis.mode_values, a)
        expect = np.max(np.abs(block))
        assert abs(column_max_norm(basis, block[:, 0]) - expect) <= 1e-13 * expect


def test_column_max_norm_needs_a_block_algebra():
    with pytest.raises(ValueError, match="oscillator"):
        column_max_norm(build_oscillator_basis(n_max=4, grid_kind="gauss"), np.ones(4))


def test_oscillator_gauss_grid_complete():
    basis = build_oscillator_basis(n_max=32, grid_kind="gauss")
    assert orthonormality_residual(basis) < 1e-12
    assert completeness_residual(basis) < 1e-10
    assert np.allclose(basis.energies, np.arange(32) + 0.5)


def test_oscillator_uniform_grid_orthonormal():
    basis = build_oscillator_basis(n_max=12, grid_kind="uniform")
    assert orthonormality_residual(basis) < 1e-9


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_well_basis(1.0, 1),
        lambda: build_oscillator_basis(n_max=1, grid_kind="gauss"),
    ],
    ids=["well", "oscillator-gauss"],
)
def test_one_mode_bases_are_orthonormal_and_complete(build):
    """One sine on one interior point, one Gauss-Hermite node: both are
    exact one-point rules for their single mode."""
    basis = build()
    assert basis.size == basis.grid.size == 1
    assert orthonormality_residual(basis) <= 1e-15
    assert completeness_residual(basis) <= 1e-15


def test_one_mode_oscillator_fits_its_uniform_grid():
    basis = build_oscillator_basis(n_max=1)  # mode 0 is below 1e-10 at both ends
    assert orthonormality_residual(basis) < 1e-12


def test_oscillator_gauss_grid_needs_enough_nodes():
    with pytest.raises(ValueError, match="at least"):
        build_oscillator_basis(n_max=16, n_points=8, grid_kind="gauss")


def test_helmholtz_retains_zero_mode():
    basis = build_helmholtz_basis(2 * np.pi, 4)
    assert np.min(basis.energies) == 0.0
    assert np.allclose(sorted(basis.energies)[:3], [0.0, 1.0, 1.0])


def test_relativistic_branches_pair_energies():
    cst = PhysicalConstants()
    basis = build_relativistic_branches(cst, 4, 10.0)
    assert basis.branches is not None
    assert np.sum(basis.branches > 0) == np.sum(basis.branches < 0) == 9
    pos = np.sort(basis.energies[basis.branches > 0])
    neg = np.sort(-basis.energies[basis.branches < 0])
    assert np.allclose(pos, neg)
    assert np.min(pos) >= cst.mass * cst.c**2
    # orthonormality is a per-branch statement for the doubled spectrum
    assert orthonormality_residual(basis) < 1e-12


def test_project_reconstruct_roundtrip():
    basis = build_well_basis(1.0, 12)
    rng = np.random.default_rng(11)
    c_in = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = SampledFunction(basis.grid, c_in @ basis.mode_values)
    c_out = project_state(basis, psi)
    assert np.allclose(c_out.values, c_in, atol=1e-12)
    back = reconstruct(c_out)
    assert np.allclose(back.values, psi.values, atol=1e-12)


def test_project_requires_matching_grid():
    basis = build_well_basis(1.0, 4)
    other = build_well_basis(2.0, 4)
    psi = SampledFunction(other.grid, np.ones(other.grid.size))
    with pytest.raises(ValueError, match="grid"):
        project_state(basis, psi)


@pytest.mark.parametrize("array", ["mode_values", "waves"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: build_free_basis(10.0, 4),
        lambda: build_well_basis(1.0, 6),
        lambda: build_relativistic_branches(PhysicalConstants(), 3, 10.0),
    ],
    ids=["free", "well", "relativistic"],
)
def test_builder_structure_is_read_only(build, array):
    """The modes and the wave indices that mark their structure cannot be
    rewritten after the build, so mode_blocks cannot drift from mode_sum."""
    basis = build()
    with pytest.raises(ValueError, match="read-only"):
        getattr(basis, array)[:] = 0


def _with_energies(e):
    """A hand-built copy of a well basis with its last energy replaced."""
    basis = build_well_basis(1.0, 4)
    return EigenSystem(basis.grid, [*basis.energies[:-1], e], basis.mode_values, basis.constants, "well")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: build_well_basis(-1.0, 4), "width"),
        (lambda: build_well_basis(1.0, 0), "cutoff"),
        (lambda: build_free_basis(0.0, 4), "length"),
        (lambda: build_well_basis(1e-300, 4), r"well width .* within \[1e-150, 1e150\]"),
        (lambda: build_well_basis(1e300, 4), "well width"),
        (lambda: build_free_basis(1e-300, 4), r"box length .* within \[1e-150, 1e150\]"),
        (lambda: build_relativistic_branches(PhysicalConstants(), 4, 1e300), "box length"),
        (lambda: build_relativistic_branches(PhysicalConstants(), 0, 10.0), "cutoff"),
        (lambda: _with_energies(np.nan), "finite"),
        (lambda: _with_energies(np.inf), "finite"),
    ],
)
def test_builder_validation(call, match):
    with pytest.raises(ValueError, match=match):
        call()
