"""Eigenbasis builders: orthonormality, completeness, projections."""

import numpy as np
import pytest

from greenkit import (
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
    orthonormality_residual,
    project_state,
    reconstruct,
)
from greenkit.spectra import _plane_waves, column_max_norm, delta_residual, mode_blocks, mode_sum


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
    grid, k, modes = _plane_waves(length, n_max, n_points)
    phase = np.outer(k, grid.points)
    direct = np.exp(1j * phase) / np.sqrt(length)
    # the direct form's own phase round-off grows with |k x|
    assert np.max(np.abs(modes - direct)) <= 64 * np.finfo(float).eps * np.max(np.abs(phase))


def test_large_free_basis_is_complete_to_round_off():
    basis = build_free_basis(40.0, 512)
    assert completeness_residual(basis) <= 1e-14
    assert orthonormality_residual(basis) <= 1e-14


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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: build_well_basis(-1.0, 4), "width"),
        (lambda: build_well_basis(1.0, 0), "cutoff"),
        (lambda: build_free_basis(0.0, 4), "length"),
        (lambda: build_relativistic_branches(PhysicalConstants(), 0, 10.0), "cutoff"),
    ],
)
def test_builder_validation(call, match):
    with pytest.raises(ValueError, match=match):
        call()
