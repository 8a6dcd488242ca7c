"""Eigenbasis builders: orthonormality, completeness, projections."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from basis_modes import all_modes
from greenkit import (
    Coefficients,
    EigenSystem,
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
    completeness_residual,
    composition_residual,
    field_from_source,
    kernel_entry,
    orthonormality_residual,
    pde_jump_residual,
    project_state,
    propagate,
    reconstruct,
    spectral_density,
    step_factor_kernel,
    wave_auxiliary_kernel,
    wave_pde_residual,
    wave_step_factor_kernel,
)
from greenkit.spectra import (
    _column_blocks,
    _expand,
    _first_columns,
    _gauss_hermite,
    _ModeTable,
    _plane_wave_system,
    _plane_waves,
    _project,
    block_residual,
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
    modes = all_modes(basis)
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
    assert np.max(np.abs(mode_blocks(basis, a) - mode_sum(all_modes(basis), a))) <= 1e-12
    dense = mode_sum(all_modes(basis), np.ones(m))
    assert completeness_residual(basis) == delta_residual(dense, 1.0 / basis.grid.weights) * np.min(basis.grid.weights)
    kern = auxiliary_kernel(basis, TimeWindow(np.linspace(0.0, 1.0, 5)))
    assert composition_residual(kern, 0.25, 0.25) <= 1e-14


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
    assert completeness_residual(basis) == delta_residual(dense, 1.0 / basis.grid.weights) * np.min(basis.grid.weights)


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
    dense = mode_sum(all_modes(basis), np.ones(basis.size))
    # the residual is normalized to the delta's scale 1/w
    err = abs(completeness_residual(basis) - delta_residual(dense, 1.0 / basis.grid.weights) * np.min(basis.grid.weights))
    assert err <= basis.grid.size * np.finfo(float).eps


@pytest.mark.parametrize("n_points", [None, 300, 700])
def test_large_well_blocks_match_mode_sum(n_points):
    """512 sine modes on the complete, an aliased and a finer grid; the
    property tests stop at 24 modes."""
    basis = build_well_basis(1.0, 512, n_points=n_points)
    modes = all_modes(basis)
    rng = np.random.default_rng(0)
    for amps in (
        rng.normal(size=(2, basis.size)) + 1j * rng.normal(size=(2, basis.size)),
        auxiliary_kernel(basis, TimeWindow(np.linspace(0.0, 1.0, 3))).amplitudes,
    ):
        for a, block in zip(amps, mode_blocks(basis, amps)):
            ref = mode_sum(modes, a)
            assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))


def _complex_path(modes, a):
    """The complex-mode mode_sum of one block in _dense's operand order into
    a block: phi^T times the factor a conj(phi)."""
    return modes.T @ (np.conj(modes) * a[:, None])


@pytest.mark.parametrize("amplitude", ["real", "complex"])
@pytest.mark.parametrize("n, m", [(5, 9), (7, 7), (9, 4)])
def test_real_modes_take_the_real_gemm(n, m, amplitude):
    """float64 modes, as the oscillator builder stores them: each block is
    one real GEMM, within round-off of the complex product, for real and
    complex amplitudes, and a 1-D result is its 2-D row exactly.  The same
    modes stored complex take the complex product: the dtype decides, in
    _dense alone."""
    rng = np.random.default_rng(n * m)
    phi = rng.normal(size=(n, m))
    amps = rng.normal(size=(3, n))
    if amplitude == "complex":
        amps = amps + 1j * rng.normal(size=(3, n))
    blocks = mode_sum(phi, amps)
    assert blocks.shape == (3, m, m)
    for a, block in zip(amps, blocks):
        ref = _complex_path(phi.astype(complex), a)
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
        real_gemm = phi.T @ (a.astype(complex)[:, None] * phi).view(float)
        assert np.array_equal(block, real_gemm.view(complex))
        assert np.array_equal(mode_sum(phi, a), block)
        assert np.array_equal(mode_sum(phi.astype(complex), a), ref)


def test_real_mode_sum_forms_one_factor_per_block():
    """On the oscillator's float64 modes mode_sum holds its blocks and one
    complex (n, m) factor a phi at a time, plus numpy's fixed cast buffer
    (about 0.26 MB): no copy of the modes, whose real parts a complex store
    had to copy out first (8 n m bytes, here 0.82 MB)."""
    basis = build_oscillator_basis(n_max=128, n_points=801)
    n, m = basis.modes.shape
    amps = np.exp(-1j * np.outer([0.3, 0.7], basis.energies))
    tracemalloc.start()
    try:
        blocks = mode_sum(basis.modes, amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < blocks.nbytes + 16 * n * m + 4 * n * m


def test_complex_mode_sum_forms_one_factor_for_all_blocks():
    """On complex modes mode_sum holds its blocks and one complex (n, m)
    factor a conj(phi), reused by every block: no conjugated copy of the
    modes and no per-block (m, n) temporary, 16 n m bytes each."""
    rng = np.random.default_rng(8)
    n, m = 96, 400
    modes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    amps = np.exp(-1j * np.outer([0.3, 0.7, 1.1], np.arange(n)))
    tracemalloc.start()
    try:
        blocks = mode_sum(modes, amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < blocks.nbytes + 1.5 * 16 * n * m


def test_complex_modes_keep_the_complex_gemm():
    rng = np.random.default_rng(3)
    modes = rng.normal(size=(6, 8)).astype(complex)
    modes[2, 5] += 1e-3j
    amps = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    for a, block in zip(amps, mode_sum(modes, amps)):
        assert np.array_equal(block, _complex_path(modes, a))
    basis = build_free_basis(10.0, 3)
    a = np.ones(basis.size)
    assert np.array_equal(mode_sum(all_modes(basis), a), _complex_path(all_modes(basis), a))


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
        ref = factor * mode_sum(all_modes(basis), a)
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0, 0] = 1


def test_dense_blocks_are_built_without_a_second_copy():
    """Dense blocks are mode_sum's own zeroed array, scaled in place: the
    n = 192 Gauss-oscillator kernel's build peaks below 1.2 times its size."""
    basis = build_oscillator_basis(n_max=192, grid_kind="gauss")
    kern = auxiliary_kernel(basis, TimeWindow(np.linspace(-1.0, 1.0, 31)))
    kern.amplitudes  # built first: only the blocks are measured
    tracemalloc.start()
    try:
        values = kern.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * values.nbytes


@pytest.mark.parametrize("direction", ["auxiliary", "retarded"])
def test_dense_blocks_are_one_mode_sum_per_live_row(direction):
    """Each live dense block is the one-block mode_sum of its amplitudes,
    bit for bit, the rest exact zeros; minus-i is exactly -i times eq24."""
    basis = build_oscillator_basis(n_max=24, grid_kind="gauss")
    window = TimeWindow(np.linspace(-1.0, 1.0, 7))
    kernels = [auxiliary_kernel(basis, window, c) for c in ("eq24", "minus-i")]
    if direction != "auxiliary":
        kernels = [step_factor_kernel(k, direction) for k in kernels]
    eq24, minus_i = kernels
    for block, a in zip(eq24.values, eq24.amplitudes):
        assert np.array_equal(block, mode_sum(all_modes(basis), a) if a.any() else np.zeros_like(block))
    assert np.array_equal(minus_i.values, -1j * eq24.values)


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
        lambda: build_oscillator_basis(n_max=4, grid_kind="gauss"),
        lambda: build_oscillator_basis(n_max=6, n_points=9, grid_kind="gauss"),
    ],
)
def test_column_max_norm_is_the_block_max(build):
    """From a builder's first column, or from every column of a dense block."""
    basis = build()
    rng = np.random.default_rng(5)
    for a in rng.normal(size=(4, basis.size)) + 1j * rng.normal(size=(4, basis.size)):
        block = mode_sum(all_modes(basis), a)
        columns = block.T if basis.waves is None else block[:, :1].T
        expect = np.max(np.abs(block))
        assert abs(column_max_norm(basis, columns) - expect) <= 1e-13 * expect


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


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("mass", [1e6, 1e8, 1e12])
def test_oscillator_uniform_grid_fits_any_mass(mass, n_max):
    """phi_n carries a factor sqrt(alpha): the edge bound reads phi_n / sqrt(alpha),
    so a grid as wide in xi = alpha x as the default one is accepted."""
    basis = build_oscillator_basis(PhysicalConstants(mass=mass), n_max=n_max)
    assert orthonormality_residual(basis) <= 1e-13


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
    psi = SampledFunction(basis.grid, c_in @ all_modes(basis))
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


def test_dense_projection_conjugates_the_small_side():
    """A dense basis projects with conj(modes @ conj(weighted).T): the bits of
    weighted @ conj(modes).T on complex modes, and that product to round-off
    on real ones, without a copy of the (n, m) modes, which on the n = 192
    uniform oscillator is 3.8 MB."""
    rng = np.random.default_rng(5)
    osc = build_oscillator_basis(n_max=192)
    hand_modes = rng.standard_normal((3, osc.grid.size)) * (1 - 2j)
    hand = EigenSystem(osc.grid, np.arange(3.0), hand_modes, PhysicalConstants(), "hand")
    for basis in (osc, hand, build_oscillator_basis(n_max=12, grid_kind="gauss")):
        m = basis.grid.size
        rows = rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m))
        want = (basis.grid.weights * rows) @ np.conj(basis.modes).T
        tracemalloc.start()
        try:
            got = _project(basis, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if basis is hand:
            assert np.array_equal(got, want)
        else:
            _assert_close(got, want)
        if basis is osc:
            assert peak < basis.modes.nbytes / 4


@pytest.mark.parametrize("grid_kind", ["uniform", "gauss"])
def test_real_modes_take_real_dense_products(grid_kind):
    """Expansion and projection on the oscillator's float64 modes match the
    same modes stored complex, and on the uniform grid (m = 2459) peak under
    a quarter of the modes."""
    osc = build_oscillator_basis(n_max=192, grid_kind=grid_kind)
    twin = EigenSystem(osc.grid, osc.energies, osc.modes.astype(complex), osc.constants, "oscillator")
    assert osc.modes.dtype == np.float64 and twin.modes.dtype == complex
    rng = np.random.default_rng(8)
    n, m = osc.modes.shape
    for call, size in ((_expand, n), (_project, m)):
        for shape in ((size,), (8, size)):
            rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            tracemalloc.start()
            try:
                got = call(osc, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert grid_kind == "gauss" or peak < osc.modes.nbytes / 4
            _assert_close(got, call(twin, rows))


def test_builders_store_real_modes_as_float64():
    """The dtype says whether modes are real: the oscillator's and the
    well's sine table are float64, plane-wave tables complex, and a
    hand-built basis keeps float64 and makes any other dtype complex."""
    assert build_oscillator_basis(n_max=8).modes.dtype == np.float64
    assert build_oscillator_basis(n_max=8, grid_kind="gauss").modes.dtype == np.float64
    assert build_well_basis(1.0, 6).modes.table.dtype == np.float64
    assert build_free_basis(10.0, 3).modes.table.dtype == complex
    free = build_free_basis(10.0, 1)
    for modes, dtype in ((np.eye(3), np.float64), (np.eye(3, dtype=int), complex), (np.eye(3, dtype=np.float32), complex)):
        assert EigenSystem(free.grid, free.energies, modes, free.constants, "hand").modes.dtype == dtype


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
def test_modes_must_be_finite(bad):
    """A non-finite mode value is refused, on a dense basis and in a table:
    a NaN would read as orthonormal, since max(0.0, nan) keeps 0.0."""
    well = build_well_basis(1.0, 4)
    modes = all_modes(well).real.astype(type(bad))
    modes[1, 2] = bad
    with pytest.raises(ValueError, match="modes must be finite"):
        EigenSystem(well.grid, well.energies, modes, well.constants, "well")
    table = well.modes.table.real.astype(type(bad))
    table[3] = bad
    with pytest.raises(ValueError, match="modes must be finite"):
        dataclasses.replace(well, modes=dataclasses.replace(well.modes, table=table))


READ_ONLY = {
    "table": lambda basis: basis.modes.table,
    "rows": lambda basis: basis.mode_rows(slice(None)),
    "waves": lambda basis: basis.waves,
}


@pytest.mark.parametrize("array", READ_ONLY)
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
    """The table, its gathered rows and the wave indices that mark their
    structure cannot be rewritten after the build, so mode_blocks cannot
    drift from mode_sum."""
    basis = build()
    with pytest.raises(ValueError, match="read-only"):
        READ_ONLY[array](basis)[:] = 0


def _with_energies(e):
    """A hand-built copy of a well basis with its last energy replaced."""
    basis = build_well_basis(1.0, 4)
    return EigenSystem(basis.grid, [*basis.energies[:-1], e], all_modes(basis), basis.constants, "well")


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


@pytest.mark.parametrize("tags", [[1, 0, 1, -1], [2, -1, 1, -1], [1, -1, 1, -2]])
def test_branch_tags_are_plus_or_minus_one(tags):
    basis = build_well_basis(1.0, 4)
    with pytest.raises(ValueError, match=r"one branch tag per mode, \+1 or -1"):
        EigenSystem(basis.grid, basis.energies, all_modes(basis), basis.constants, "well", tags)


def test_one_branch_basis_checks_its_one_gram_matrix():
    """One tag on every mode counts every pair, as no tags do, on the same
    dense modes."""
    basis = build_well_basis(1.0, 4)
    plain, one = (EigenSystem(basis.grid, basis.energies, all_modes(basis), basis.constants, "well", tags)
                  for tags in (None, [1, 1, 1, 1]))
    assert orthonormality_residual(one) == orthonormality_residual(plain)


OTHER_LABEL = {
    # a relativistic label without branches is an ordinary basis
    "relativistic-label-no-branches": (lambda: build_well_basis(1.0, 4), "relativistic"),
    # branches under any other label are the Klein-Gordon case
    "branches-other-label": (lambda: build_relativistic_branches(PhysicalConstants(), 3, 5.0), "helmholtz"),
}


@pytest.mark.parametrize("case", OTHER_LABEL)
def test_second_order_modes_follow_structure_not_label(case):
    build, label = OTHER_LABEL[case]
    basis = build()
    twin, odd = (EigenSystem(basis.grid, basis.energies, all_modes(basis), basis.constants, model, basis.branches)
                 for model in (basis.model, label))
    window = TimeWindow(np.array([-0.4, 0.0, 0.7]))
    assert np.array_equal(wave_auxiliary_kernel(odd, window).values, wave_auxiliary_kernel(twin, window).values)
    got, ref = (spectral_density(b, 0, 2, order="second") for b in (odd, twin))
    assert np.array_equal(got.omegas, ref.omegas) and np.array_equal(got.weights, ref.weights)


STRUCTURED_BASES = {
    "well-2": lambda: build_well_basis(1.0, 2),
    "well-9": lambda: build_well_basis(1.0, 9),
    "well-finer-grid": lambda: build_well_basis(1.0, 6, n_points=11),
    "well-aliased": lambda: build_well_basis(1.0, 30, n_points=7),
    "free": lambda: build_free_basis(10.0, 5),
    "relativistic-shared-bins": lambda: build_relativistic_branches(PhysicalConstants(), 4, 10.0, n_points=6),
    "relativistic": lambda: build_relativistic_branches(PhysicalConstants(), 6, 10.0),
    "helmholtz": lambda: build_helmholtz_basis(10.0, 8),
}


def _dense_twin(basis):
    """A hand-built copy of a builder's basis: no waves, so every product
    with its modes is the dense one."""
    return EigenSystem(basis.grid, basis.energies, all_modes(basis), basis.constants, basis.model, basis.branches)


def _assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", [*STRUCTURED_BASES, "relativistic-twelve-blocks"])
def test_orthonormality_is_the_dense_gram(case):
    """The Gram taken a block of projections at a time against one dense
    Gram of the gathered modes, within each branch: both are round-off, or
    1 on an aliased grid.  The m = 601 relativistic basis has 1,202 modes,
    so its Gram takes twelve blocks of 109 rows."""
    build = STRUCTURED_BASES.get(case, lambda: build_relativistic_branches(PhysicalConstants(), 300, 10.0))
    basis = build()
    got = orthonormality_residual(basis)
    modes, w = all_modes(basis), basis.grid.weights
    gram = (modes * w) @ modes.conj().T - np.eye(basis.size)
    tags = np.ones(basis.size) if basis.branches is None else basis.branches
    gram[tags[:, None] != tags] = 0
    assert abs(got - np.max(np.abs(gram))) <= 1e-13


def test_orthonormality_holds_row_blocks_only():
    """At m = 1024 the well's Gram is read 64 rows at a time, under the
    16.8 MB of its mode matrix."""
    basis = build_well_basis(1.0, 1024)
    tracemalloc.start()
    try:
        value = orthonormality_residual(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value <= 1e-14
    assert peak < 1024 * 1024 * 16


@pytest.mark.parametrize("case", STRUCTURED_BASES)
def test_transforms_match_the_dense_products(case):
    """Each FFT or DST-I against the GEMM with the gathered modes it replaces."""
    basis = STRUCTURED_BASES[case]()
    twin = _dense_twin(basis)
    assert twin.waves is None
    modes, w = all_modes(basis), basis.grid.weights
    n, m = basis.size, basis.grid.size
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    _assert_close(_first_columns(basis, rows)[:, 0], (rows * np.conj(modes[:, 0])) @ modes)
    psi = SampledFunction(basis.grid, rng.normal(size=m) + 1j * rng.normal(size=m))
    _assert_close(project_state(basis, psi).values, np.conj(modes) @ (w * psi.values))
    _assert_close(reconstruct(Coefficients(rows[0], basis)).values, rows[0] @ modes)

    window = TimeWindow(np.linspace(0.0, 1.0, 5))
    aux = auxiliary_kernel(basis, window)
    ret = step_factor_kernel(aux, "retarded")
    twin_ret = step_factor_kernel(auxiliary_kernel(twin, window), "retarded")
    _assert_close(propagate(ret, psi, 0.6).values, propagate(twin_ret, psi, 0.6).values)
    # composition: the residual's first column, here from three dense blocks
    lhs, k1, k2 = mode_sum(modes, aux.amplitude(np.array([0.7, 0.3, 0.4])))
    column = lhs[:, 0] - k1 @ (w * k2[:, 0])
    assert abs(composition_residual(aux, 0.3, 0.4) - column_max_norm(basis, column[None])) <= 1e-13 * np.max(np.abs(lhs))

    source = SourceField(basis.grid, np.linspace(0.0, 0.5, 4), rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m)))
    eval_times = np.linspace(0.0, 1.0, 6)
    fields = [
        field_from_source(wave_step_factor_kernel(wave_auxiliary_kernel(b, window), "retarded"), source, eval_times)
        for b in (basis, twin)
    ]
    _assert_close(*fields)


RESIDUAL_BASES = {**STRUCTURED_BASES, "oscillator-gauss": lambda: build_oscillator_basis(n_max=12, grid_kind="gauss")}


@pytest.mark.parametrize("delta", [0, 1, 0.5j])
@pytest.mark.parametrize("case", RESIDUAL_BASES)
def test_block_residual_is_the_dense_residual(case, delta):
    """The column route on builder-made bases and the dense route on the
    oscillator against the blocks' max distance from delta times the grid delta."""
    basis = RESIDUAL_BASES[case]()
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(3, basis.size)) + 1j * rng.normal(size=(3, basis.size))
    shift = delta * np.diag(1.0 / basis.grid.weights)
    ref = max(np.max(np.abs(block - shift)) for block in mode_sum(all_modes(basis), rows))
    assert abs(block_residual(basis, rows, delta) - ref) <= 1e-13 * ref


BIG_RESIDUALS = {
    "wave-pde-helmholtz-1025": lambda: wave_pde_residual(build_helmholtz_basis(10.0, 512), np.linspace(0.0, 0.5, 26)),
    "pde-jump-free-1025": lambda: pde_jump_residual(build_free_basis(10.0, 512), "eq24", 1e-3),
    "pde-jump-well-1024": lambda: pde_jump_residual(build_well_basis(1.0, 1024), "eq24", 1e-3),
}


@pytest.mark.parametrize("case", BIG_RESIDUALS)
def test_block_residuals_form_no_block(case):
    """On builder-made bases with m near 1024 a residual holds columns and
    row chunks only, where one (m, m) block would take 16.8 MB."""
    tracemalloc.start()
    try:
        value = BIG_RESIDUALS[case]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 8e6


def _refuse_gathers(monkeypatch):
    """From here on, gathering rows of a builder's table fails the test."""
    def refuse(table, part):
        raise AssertionError(f"gathered the table rows {part}")
    monkeypatch.setattr(_ModeTable, "gather", refuse)


def test_replace_keeps_the_table_and_gathers_nothing(monkeypatch):
    _refuse_gathers(monkeypatch)
    basis = build_free_basis(10.0, 4)
    twin = dataclasses.replace(basis, model="free")
    assert np.array_equal(twin.waves, basis.waves)
    assert twin.modes is basis.modes
    assert completeness_residual(twin) == completeness_residual(basis)


def test_bases_compare_by_identity_and_gather_nothing(monkeypatch):
    _refuse_gathers(monkeypatch)
    a, b = build_well_basis(1.0, 6), build_well_basis(1.0, 6)
    assert a == a and a != b


def test_builder_modes_are_the_exact_table_gather():
    """mode_rows gathers the exact table read at (waves * offsets)
    mod len(table), in the table's dtype: float64 on the well."""
    well = build_well_basis(1.0, 6, n_points=11)
    sines = np.sqrt(2.0) * np.sin(np.pi * np.arange(24) / 12)
    assert well.modes.table.dtype == np.float64
    assert np.array_equal(all_modes(well), sines[np.outer(np.arange(1, 7), np.arange(1, 12)) % 24])
    assert all_modes(well).dtype == well.modes_at(0).dtype == np.float64
    free = build_free_basis(10.0, 5, n_points=7)
    roots = np.exp(2j * np.pi * np.arange(7) / 7) / np.sqrt(10.0)
    assert np.array_equal(all_modes(free), roots[np.outer(free.waves, np.arange(7)) % 7])


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_free_basis(10.0, 5, n_points=7),
        lambda: build_well_basis(1.0, 6, n_points=11),
        lambda: build_oscillator_basis(n_max=8, grid_kind="gauss"),
    ],
    ids=["free", "well", "oscillator"],
)
def test_mode_products_are_the_entry_weights(build, monkeypatch):
    """mode_products(i, j) is phi_n(x_i) phi_n*(x_j) of the gathered modes,
    complex on real modes too, gathers nothing, and refuses an index off
    the grid."""
    basis, dense = build(), all_modes(build())
    _refuse_gathers(monkeypatch)
    m = basis.grid.size
    for i, j in ((0, 0), (1, m - 1), (m // 2, 2)):
        assert np.array_equal(basis.mode_products(i, j), dense[:, i] * np.conj(dense[:, j]))
        assert basis.mode_products(i, j).dtype == complex
    for i, j in ((-1, 0), (0, m)):
        with pytest.raises(ValueError, match="grid index"):
            basis.mode_products(i, j)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_free_basis(10.0, 6),
        lambda: build_well_basis(1.0, 9, n_points=13),
        lambda: build_relativistic_branches(PhysicalConstants(), 4, 10.0),
        lambda: build_helmholtz_basis(10.0, 6),
    ],
    ids=["free", "well", "relativistic", "helmholtz"],
)
def test_hot_paths_never_gather_the_modes(build, monkeypatch):
    """Transforms and table columns serve every hot path.  The Gram of
    orthonormality_residual is the one reader of gathered rows, a block at
    a time (test_orthonormality_holds_row_blocks_only)."""
    basis = build()
    _refuse_gathers(monkeypatch)
    m = basis.grid.size
    window = TimeWindow(np.linspace(-1.0, 1.0, 5))
    aux = auxiliary_kernel(basis, window)
    ret = step_factor_kernel(aux, "retarded")
    psi = SampledFunction(basis.grid, np.ones(m))
    aux.values, ret.at(0.5), completeness_residual(basis)
    composition_residual(aux, 0.25, 0.5)
    reconstruct(project_state(basis, psi)), propagate(ret, psi, 0.5)
    kernel_entry(basis, 0, 1, 0.5 - 0.1j), spectral_density(basis, 0, 1)
    wave = wave_step_factor_kernel(wave_auxiliary_kernel(basis, window), "retarded")
    wave.values, field_from_source(wave, SourceField(basis.grid, [0.0, 0.5], np.ones((2, m))), [0.5, 1.0])


def test_closed_form_check_never_gathers_the_modes(monkeypatch):
    """Criterion 4's free half reads 21 kernel entries on the m = 1025 basis:
    two table columns each, where the gathered modes would take 16.8 MB and
    their index 8.4 MB."""
    _refuse_gathers(monkeypatch)
    tracemalloc.start()
    try:
        free = build_free_basis(40.0, 512)
        jmid = free.grid.index_of(20.0)
        for i in range(jmid - 10, jmid + 11):
            kernel_entry(free, i, jmid, 0.5 - 4e-3j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_well_column_max_norm_holds_row_chunks_only():
    """At m = 1024 the max over row chunks equals the whole block's max and
    holds under a quarter of the block's 16.8 MB."""
    basis = build_well_basis(1.0, 1024)
    rng = np.random.default_rng(9)
    amps = np.concatenate([rng.normal(size=(2, basis.size)) + 1j * rng.normal(size=(2, basis.size)),
                           np.ones((1, basis.size))])
    for columns in _first_columns(basis, amps):
        block = _column_blocks(basis, columns[None])[0]
        tracemalloc.start()
        try:
            got = column_max_norm(basis, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == float(np.max(np.abs(block)))
        assert peak < block.nbytes / 4
