"""Model eigen-systems and projections onto them.

Builders produce truncated orthonormal bases for the standard solvable models
(periodic free particle, square well, harmonic oscillator, relativistic
two-branch plane waves, Helmholtz box).  Every basis carries its grid, so
orthonormality and completeness are finite-matrix statements that the tests
and the acceptance suite check directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .grid import Grid1D, SampledFunction, _float_or_complex, _require_finite, _require_scale

__all__ = [
    "PhysicalConstants",
    "EigenSystem",
    "Coefficients",
    "build_free_basis",
    "build_well_basis",
    "build_oscillator_basis",
    "build_relativistic_branches",
    "build_helmholtz_basis",
    "completeness_residual",
    "orthonormality_residual",
    "project_state",
    "reconstruct",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Each within [1e-50, 1e50], so that hbar^2, c^4 and m^2 c^4 are normal floats."""

    hbar: float = 1.0
    c: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "mass", "omega"):
            if not 1e-50 <= getattr(self, name) <= 1e50:
                raise ValueError(f"{name} must be positive and finite, within [1e-50, 1e50]")


@dataclass(frozen=True, eq=False)
class _ModeTable:
    """A builder's modes: mode n at grid point l is
    table[(waves[n] * offsets[l]) mod len(table)], each of amplitude scale.

    Plane waves e^{2 pi i j x / L} / sqrt(L) on x_l = l L / m: the m-th roots
    of unity over sqrt(L), offsets l, scale 1 / sqrt(L).  Well sines
    sqrt(2/a) sin(n pi x / a) on x_l = (l + 1) a / (m + 1):
    sqrt(2/a) sin(pi k / (m + 1)) for k < 2 (m + 1), offsets l + 1, scale
    sqrt(2/a).  Every entry comes from an argument below 2 pi, not one per
    (mode, point) pair at up to 2 pi max|waves|.  table and waves are made
    read-only, so no write can break the structure they mark.
    """

    table: np.ndarray
    offsets: np.ndarray
    waves: np.ndarray
    scale: float

    def __post_init__(self):
        self.table.flags.writeable = self.waves.flags.writeable = False

    def at(self, point: int) -> np.ndarray:
        return self.table[self.waves * self.offsets[point] % self.table.size]

    def gather(self, part: slice) -> np.ndarray:
        index = np.outer(self.waves[part], self.offsets)
        index %= self.table.size
        modes = self.table[index]
        modes.flags.writeable = False
        return modes


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Truncated spectrum {E_n} with grid-sampled modes.

    modes has one row per retained mode, every value finite: a builder's
    _ModeTable, or an (n, m) array under grid._float_or_complex's dtype rule,
    so its dtype says whether the modes are real.  branches is +-1 per mode
    for the relativistic two-branch spectrum, None otherwise; the plane
    waves repeat across branches, so orthonormality only holds within one.

    waves, a table's only, is each mode's integer wave index: j for plane
    waves on a periodic grid, whose mode sums are circulant, n for the
    well's sines, whose mode sums are Toeplitz minus Hankel.  Such a block
    is fixed by its first column, and the products with the modes are
    transforms (_expand, _project).  A basis without waves, whatever its
    model label, is dense: all its columns fix a block, and its products are
    GEMMs (_dense).  No other module reads this structure.  Bases compare
    by identity, so == gathers nothing.
    """

    grid: Grid1D
    energies: np.ndarray
    modes: np.ndarray | _ModeTable = field(repr=False)
    constants: PhysicalConstants
    model: str
    branches: np.ndarray | None = None

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", en)
        _require_finite(en, "energies")
        if self.waves is None:
            object.__setattr__(self, "modes", _float_or_complex(self.modes))
        _require_finite(self.modes if self.waves is None else self.modes.table, "modes")
        shape = self.modes.shape if self.waves is None else (self.waves.size, self.modes.offsets.size)
        if shape != (en.size, self.grid.size):
            raise ValueError("mode count must equal energy count, sampled on the grid")
        if self.branches is not None:
            br = np.asarray(self.branches, dtype=int)
            object.__setattr__(self, "branches", br)
            if br.shape != en.shape or not np.all(np.abs(br) == 1):
                raise ValueError("one branch tag per mode, +1 or -1")

    @property
    def waves(self) -> np.ndarray | None:
        return self.modes.waves if isinstance(self.modes, _ModeTable) else None

    @property
    def size(self) -> int:
        return self.energies.size

    def mode_rows(self, part: slice) -> np.ndarray:
        """The modes in part, one row each: a view of an array, or those rows
        gathered off a builder's table."""
        return self.modes[part] if self.waves is None else self.modes.gather(part)

    def modes_at(self, point: int) -> np.ndarray:
        """(n,) values phi_n(x_point), read off the table on a builder's basis: no row gathered."""
        return self.modes[:, point] if self.waves is None else self.modes.at(point)

    def mode_products(self, i: int, j: int) -> np.ndarray:
        """(n,) weights phi_n(x_i) phi_n*(x_j) of the mode sum's (i, j) entry,
        formed in complex, so real modes keep the signed zeros of complex ones.
        Raises ValueError unless 0 <= i, j < grid.size: no silent wrap."""
        for k in (i, j):
            if not 0 <= k < self.grid.size:
                raise ValueError(f"grid index {k} outside 0..{self.grid.size - 1}")
        return self.modes_at(i).astype(complex) * np.conj(self.modes_at(j).astype(complex))


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Expansion coefficients of a state in an eigenbasis."""

    values: np.ndarray
    basis: EigenSystem

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.basis.size,):
            raise ValueError("one coefficient per retained mode")
        _require_finite(vals, "coefficients")


def _require_cutoff(n_max: int) -> None:
    """Raise ValueError unless a builder keeps at least one mode."""
    if n_max < 1:
        raise ValueError("mode cutoff must be >= 1")


def _plane_waves(length: float, n_max: int, n_points: int | None) -> tuple:
    """(grid, j, k) on the periodic box: the integer wave indices |j| <= n_max
    and their k = 2 pi j / L, with the builders' shared checks."""
    _require_scale(length, "box length")
    _require_cutoff(n_max)
    m = n_points if n_points is not None else 2 * n_max + 1
    j = np.arange(-n_max, n_max + 1)
    return Grid1D.periodic(length, m), j, 2 * np.pi * j / length


def _plane_wave_system(grid, j, energies, constants, model, branches=None) -> EigenSystem:
    """Plane-wave basis read off a _ModeTable, one wave per index in j,
    ordered by (|E|, E)."""
    order = np.lexsort((energies, np.abs(energies)))
    m, root_l = grid.size, np.sqrt(grid.period)
    roots = np.exp(2j * np.pi * np.arange(m) / m) / root_l
    if branches is not None:
        branches = branches[order]
    modes = _ModeTable(roots, np.arange(m), j[order], 1 / root_l)
    return EigenSystem(grid, energies[order], modes, constants, model, branches)


def _relativistic_energy(k, constants: PhysicalConstants):
    """E_k = sqrt(m^2 c^4 + c^2 hbar^2 k^2), the positive-branch energy."""
    return np.sqrt(constants.mass**2 * constants.c**4 + constants.c**2 * constants.hbar**2 * k**2)


def build_free_basis(
    length: float,
    n_max: int,
    constants: PhysicalConstants = PhysicalConstants(),
    n_points: int | None = None,
) -> EigenSystem:
    """Periodic plane waves e^{ikx}/sqrt(L), k = 2*pi*j/L for |j| <= n_max.

    Kinetic energies hbar^2 k^2 / 2m.  The default grid has 2*n_max+1 points,
    making the retained set discretely complete (Fourier-complete grid).
    """
    grid, j, k = _plane_waves(length, n_max, n_points)
    energies = constants.hbar**2 * k**2 / (2 * constants.mass)
    return _plane_wave_system(grid, j, energies, constants, "free")


def build_well_basis(
    width: float,
    n_max: int,
    constants: PhysicalConstants = PhysicalConstants(),
    n_points: int | None = None,
) -> EigenSystem:
    """Square-well modes sqrt(2/a) sin(n*pi*x/a), E_n = pi^2 hbar^2 n^2 / (2 m a^2).

    The default grid keeps n_max interior points, on which the retained sine
    set is exactly orthonormal and complete (discrete sine transform).
    """
    _require_scale(width, "well width")
    _require_cutoff(n_max)
    m = n_points if n_points is not None else n_max
    grid = Grid1D.open_interval(0.0, width, m)
    n = np.arange(1, n_max + 1)
    scale = np.sqrt(2.0 / width)
    table = scale * np.sin(np.pi * np.arange(2 * (m + 1)) / (m + 1))
    energies = np.pi**2 * constants.hbar**2 * n**2 / (2 * constants.mass * width**2)
    return EigenSystem(grid, energies, _ModeTable(table, np.arange(1, m + 1), n, scale), constants, "well")


def hermite_modes(x: np.ndarray, n_max: int, alpha: float) -> np.ndarray:
    """First n_max oscillator eigenfunctions on points x.

    Normalized three-term recurrence; avoids the factorial overflow of the
    textbook N_n H_n form past n ~ 85.
    """
    xi = alpha * x
    phi = np.zeros((n_max, x.size))
    phi[0] = np.sqrt(alpha) * np.pi**-0.25 * np.exp(-(xi**2) / 2)
    if n_max > 1:
        phi[1] = np.sqrt(2.0) * xi * phi[0]
    for n in range(1, n_max - 1):
        phi[n + 1] = np.sqrt(2.0 / (n + 1)) * xi * phi[n] - np.sqrt(n / (n + 1)) * phi[n - 1]
    return phi


@lru_cache(maxsize=16)
def _gauss_hermite(m: int) -> tuple:
    """Read-only (nodes, weights) of the m-point Gauss-Hermite rule; the rule
    does not depend on omega, so bases of one size share it."""
    rule = np.polynomial.hermite.hermgauss(m)
    for a in rule:
        a.flags.writeable = False
    return rule


def build_oscillator_basis(
    constants: PhysicalConstants = PhysicalConstants(),
    n_max: int = 32,
    n_points: int | None = None,
    grid_kind: str = "uniform",
) -> EigenSystem:
    """Harmonic-oscillator eigenfunctions, E_n = (n + 1/2) hbar omega.

    grid_kind "uniform" samples a symmetric trapezoid grid wide enough that
    the last retained mode, over sqrt(alpha), is below 1e-10 at the ends.  grid_kind
    "gauss" uses the n_max-point Gauss-Hermite rule, on which the truncated
    basis is discretely orthonormal *and* complete -- the grid to use for
    initial-condition (completeness) checks.
    """
    _require_cutoff(n_max)
    alpha = np.sqrt(constants.mass * constants.omega / constants.hbar)
    if grid_kind == "gauss":
        m = n_points if n_points is not None else n_max
        if m < n_max:
            raise ValueError("Gauss grid needs at least n_max nodes")
        nodes, lam = _gauss_hermite(m)
        grid = Grid1D(nodes / alpha, lam * np.exp(nodes**2) / alpha, kind="open-interval")
    elif grid_kind == "uniform":
        # classical turning point of the last mode plus a decay buffer; one mode
        # takes the two-mode width (mode 0 is still 1.1e-10 at sqrt(3) + 5)
        half = (np.sqrt(2 * max(n_max, 2) + 1) + 5.0) / alpha
        m = n_points if n_points is not None else max(64, int(np.ceil(16 * half * alpha * np.sqrt(2 * n_max) / np.pi)) | 1)
        grid = Grid1D.uniform(-half, half, m)
    else:
        raise ValueError(f"unknown grid_kind {grid_kind!r}")
    modes = hermite_modes(grid.points, n_max, alpha)
    if grid_kind == "uniform":
        # phi_n carries a factor sqrt(alpha), so bound phi_n / sqrt(alpha), a function of xi = alpha x
        edge = max(abs(modes[-1, 0]), abs(modes[-1, -1])) / np.sqrt(alpha)
        if edge > 1e-10:
            raise ValueError(
                f"grid too narrow: mode {n_max - 1} is {edge:.2e} at the boundary (needs < 1e-10)"
            )
    energies = (np.arange(n_max) + 0.5) * constants.hbar * constants.omega
    return EigenSystem(grid, energies, modes, constants, "oscillator")


def build_relativistic_branches(
    constants: PhysicalConstants,
    k_cutoff: int,
    length: float,
    n_points: int | None = None,
) -> EigenSystem:
    """Two-branch relativistic spectrum +-sqrt(m^2 c^4 + c^2 hbar^2 k^2).

    Plane waves on a periodic box; every momentum appears twice, tagged +1
    and -1.  Spatial modes repeat across branches by construction.
    """
    grid, j, k = _plane_waves(length, k_cutoff, n_points)
    e_k = _relativistic_energy(k, constants)
    energies = np.concatenate([e_k, -e_k])
    branches = np.repeat([1, -1], j.size)
    return _plane_wave_system(grid, np.concatenate([j, j]), energies, constants, "relativistic", branches)


def build_helmholtz_basis(
    length: float,
    n_max: int,
    constants: PhysicalConstants = PhysicalConstants(),
    n_points: int | None = None,
) -> EigenSystem:
    """Plane-wave eigenfunctions of -d^2/dx^2 on a periodic box, E = k^2.

    These are H-eigenvalues of the wave operator, not energies; the zero mode
    (k = 0) is retained and handled as a limit by the wave kernels.
    """
    grid, j, k = _plane_waves(length, n_max, n_points)
    energies = k**2
    return _plane_wave_system(grid, j, energies, constants, "helmholtz")


# entries per chunk of Gram rows or of well block rows (column_max_norm), 1 MB of complex
_CHUNK = 1 << 16


def orthonormality_residual(basis: EigenSystem) -> float:
    """max |<phi_m, phi_n> - delta_mn| over retained pairs.

    Taken _CHUNK // m Gram rows at a time, each block the projection
    (_project) of its modes, so no table is gathered; pairs across branches
    share spatial modes, are not expected to be orthogonal, and are skipped.
    """
    tags = np.ones(basis.size, dtype=int) if basis.branches is None else basis.branches
    step = max(1, _CHUNK // basis.grid.size)
    worst = 0.0
    for r in range(0, basis.size, step):
        gram = _project(basis, basis.mode_rows(slice(r, r + step)))
        gram[:, r:r + step] -= np.eye(gram.shape[0])
        gram[tags[r:r + step, None] != tags] = 0
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst


def mode_sum(modes: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Dense spectral sum S_ij = sum_n phi_n(x_i) a_n phi_n*(x_j).

    modes is (n, m), one grid-sampled mode per row.  Amplitudes of shape (n,)
    give one (m, m) block; shape (k, n) gives k blocks, (k, m, m).  Each block
    is S = phi^T (a conj(phi)), one _dense product written in place, its
    factor a conj(phi) formed in one (n, m) buffer that every block reuses:
    no copy of the modes and no (k, m, n) temporary is ever held.  Rows of
    all-zero amplitudes run none and stay exact zeros.
    """
    rows = np.atleast_2d(amplitudes).astype(complex, copy=False)
    m = modes.shape[1]
    out = np.zeros((rows.shape[0], m, m), dtype=complex)
    factor = np.empty(modes.shape, dtype=complex)
    for k in np.flatnonzero(np.any(rows != 0, axis=1)):
        np.conjugate(modes, out=factor)
        factor *= rows[k][:, None]
        _dense(modes.T, factor, out=out[k])
    return out if np.ndim(amplitudes) == 2 else out[0]


def _dense(left: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """left @ z, left the modes or their transpose, z complex (1-D or 2-D).
    float64 modes take one real GEMM on z's interleaved float view (into out's
    if given): half the flops, with no copy or complex cast of the modes as in
    numpy's mixed product.  Complex: (z^T left^T)^T, the bit-pinned operand
    order, which numpy takes as left @ z into a C-ordered out."""
    if left.dtype != np.float64:
        return np.matmul(z.T, left.T, out=None if out is None else out.T).T
    flat = np.ascontiguousarray(np.reshape(z, (z.shape[0], -1)), dtype=complex)
    product = np.matmul(left, flat.view(float), out=None if out is None else out.view(float))
    return product.view(complex).reshape(left.shape[0], *z.shape[1:])


def _scatter(rows: np.ndarray, waves: np.ndarray, size: int) -> np.ndarray:
    """(..., size) bins of the (..., n) rows: bin b sums rows[..., n] over
    every n with waves[n] = b mod size, so waves that share a bin (the two
    relativistic branches of one j, or waves an aliased grid folds together)
    add up.  One bincount each for the real and the imaginary parts."""
    rows = np.asarray(rows, dtype=complex)
    flat = rows.reshape(-1, rows.shape[-1])
    index = (np.arange(flat.shape[0])[:, None] * size + waves % size).ravel()
    out = np.empty(flat.shape[0] * size, dtype=complex)
    out.real = np.bincount(index, flat.real.ravel(), out.size)
    out.imag = np.bincount(index, flat.imag.ravel(), out.size)
    return out.reshape(rows.shape[:-1] + (size,))


def _sine_sums(x: np.ndarray) -> np.ndarray:
    """S[p] = sum_k x[k] sin(2 pi k p / N) along the last axis, of length N,
    from one FFT F of x: S[p] = (i / 2) (F[p] - F[-p])."""
    f = np.fft.fft(x)
    return 0.5j * (f - f[..., -np.arange(x.shape[-1])])


def _expand(basis: EigenSystem, coefficients: np.ndarray) -> np.ndarray:
    """(..., m) sums sum_n coefficients[..., n] phi_n(x_l) on the grid.

    On bases with waves each row is one transform of its binned coefficients
    (_scatter): plane waves take one inverse FFT over the bins waves mod m.
    The well's sines are sin(2 pi n (l + 1) / N) with N = 2 (m + 1), so they
    take the sine sums (a DST-I) over the bins waves mod N, which also
    covers grids with m != n.  A basis without waves takes the product with
    its modes (_dense).
    """
    if basis.waves is None:
        return _dense(basis.modes.T, coefficients.T).T
    m, scale = basis.grid.size, basis.modes.scale
    if basis.grid.kind == "periodic":
        return scale * np.fft.ifft(_scatter(coefficients, basis.waves, m), norm="forward")
    return scale * _sine_sums(_scatter(coefficients, basis.waves, 2 * (m + 1)))[..., 1:m + 1]


def _project(basis: EigenSystem, values: np.ndarray) -> np.ndarray:
    """(..., n) projections <phi_n, values[...]> under the grid weights.

    On bases with waves one transform per row, read at each mode's bin: an
    FFT on plane waves, and on the well the sine sums of the values placed
    at k = l + 1 of a zero row of length 2 (m + 1).  A basis without waves
    takes the product with conj(modes) as conj(modes @ conj(weighted)^T)
    (_dense), which conjugates the small side in place, not the modes.
    """
    weighted = basis.grid.weights * values
    if basis.waves is None:
        return np.conj(_dense(basis.modes, np.conjugate(weighted, out=weighted).T)).T
    m, scale = basis.grid.size, basis.modes.scale
    if basis.grid.kind == "periodic":
        return scale * np.fft.fft(weighted)[..., basis.waves % m]
    padded = np.zeros(weighted.shape[:-1] + (2 * (m + 1),), dtype=complex)
    padded[..., 1:m + 1] = weighted
    return scale * _sine_sums(padded)[..., basis.waves % padded.shape[-1]]


def _first_columns(basis: EigenSystem, rows: np.ndarray) -> np.ndarray:
    """(..., c, m) columns that fix the mode sum S of each (..., n) amplitude
    row a: entry [j, i] is S_ij, so column j meets row j at its entry j.  A
    builder's S is fixed by its first column (c = 1), one _expand of the rows
    a_n phi_n*(x_0); a dense S by all its columns (c = m), mode_sum's blocks
    transposed, a view.  Rows of all-zero amplitudes give exact zero columns."""
    if basis.waves is None:
        return np.swapaxes(mode_sum(basis.modes, rows), -1, -2)
    return _expand(basis, rows * np.conj(basis.modes_at(0)))[..., None, :]


def _well_generators(columns: np.ndarray) -> np.ndarray:
    """(k, 2m + 1) g of the well blocks g[|i - j|] - g[i + j + 2] from their
    (k, m) first columns (see _column_blocks)."""
    k, m = columns.shape
    g = np.zeros((k, 2 * m + 1), dtype=complex)
    for p in (0, 1):
        g[:, p:m:2] = np.cumsum(columns[:, p::2][:, ::-1], axis=1)[:, ::-1]
    g[:, m + 2:] = g[:, m:1:-1]
    return g


def _well_rows(g: np.ndarray, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """The rows `rows` of the well block g[|i - j|] - g[i + j + 2] of one g."""
    m = g.size // 2
    toeplitz = np.concatenate([g[m - 1:0:-1], g[:m]])  # g[|p - (m - 1)|]
    return np.subtract(sliding_window_view(toeplitz, m)[::-1][rows], sliding_window_view(g[2:], m)[rows], out=out)


def _column_blocks(basis: EigenSystem, columns: np.ndarray) -> np.ndarray:
    """Read-only (k, m, m) blocks of the basis algebra from their (k, c, m)
    columns (_first_columns; EigenSystem says what structure the builders'
    waves mark).  A dense basis's blocks are its columns transposed, a view;
    a builder's are fixed by their first columns c.

    Periodic plane waves give the circulant block[i, j] = c[(i - j) mod m].
    Row i of a block is the window of the reversed, wrapped column that
    starts at m - 1 - i, so block[i, j] = wrapped[k, m - 1 - i + j]: a
    zero-copy view with strides (row, -item, +item) over the (k, 2m - 1)
    wrapped columns, which are the only memory the blocks hold.

    The well's sine modes give the Toeplitz minus Hankel
    block[i, j] = g[|i - j|] - g[i + j + 2] with
    g[d] = (1/a) sum_n a_n cos(n pi d / (m + 1)), so c[i] = g[i] - g[i + 2]
    fixes g up to one constant per index parity, and those constants cancel
    in the block because |i - j| and i + j + 2 share a parity: g comes from a
    reverse cumulative sum over each parity with g[m] = g[m + 1] = 0, and is
    extended by the mirror g[d] = g[2m + 2 - d] (_well_generators).  Only the
    live blocks, those whose column is not all zero, are written: the rest
    stay the untouched pages of np.zeros, such as the wrong side of a
    retarded or advanced kernel.
    """
    if basis.waves is None:
        blocks = np.swapaxes(columns, 1, 2)
        blocks.flags.writeable = False
        return blocks
    columns = columns[:, 0]
    k, m = columns.shape
    if basis.grid.kind == "periodic":
        wrapped = np.concatenate([columns[:, ::-1], columns[:, :0:-1]], axis=1)
        row, item = wrapped.strides
        return as_strided(wrapped[:, m - 1:], (k, m, m), (row, -item, item), writeable=False)
    live = np.flatnonzero(np.any(columns != 0, axis=1))
    out = np.zeros((k, m, m), dtype=complex)
    for i, g in zip(live, _well_generators(columns[live])):
        _well_rows(g, slice(None), out=out[i])
    out.flags.writeable = False
    return out


def mode_blocks(basis: EigenSystem, amplitudes: np.ndarray, factor: complex = 1) -> np.ndarray:
    """factor * mode_sum over the basis modes, one amplitude per basis mode,
    returned read-only: the columns that fix each block (_first_columns),
    scaled in place, so every entry is exactly factor times its unscaled
    value, then the blocks they fix (_column_blocks), in O(m^2) per builder
    block instead of O(m^2 n), and a dense basis's mode_sum array itself.
    Rows of all-zero amplitudes give exact zero blocks."""
    rows = np.atleast_2d(amplitudes)
    columns = _first_columns(basis, rows)
    if factor != 1:
        np.multiply(factor, columns, out=columns)
    out = _column_blocks(basis, columns)
    return out if np.ndim(amplitudes) == 2 else out[0]


def column_max_norm(basis: EigenSystem, columns: np.ndarray) -> float:
    """max_ij |B_ij| of the block B of the basis algebra that its (c, m)
    columns fix (_first_columns), in O(m^2) time from them alone.  A dense
    basis's columns are B, and a periodic B is circulant, so either way the
    max is the columns'.  On the well B's rows are built by _well_rows, the
    code that builds every mode_blocks block, a chunk of rows at a time, so
    the memory is O(m) per chunk row instead of B's m^2."""
    if basis.waves is None or basis.grid.kind == "periodic":
        return float(np.max(np.abs(columns)))
    m = columns.shape[-1]
    g = _well_generators(columns[:1])[0]
    step = max(1, _CHUNK // m)
    return max(float(np.max(np.abs(_well_rows(g, slice(r, r + step))))) for r in range(0, m, step))


def _minus_diagonal(columns: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """columns less shift_j where column j meets row j (entry [j, j] of (c, m)
    columns or of a block), in place: the one home of a block minus delta / w."""
    j = np.arange(columns.shape[-2])
    columns[..., j, j] -= shift[j]
    return columns


def delta_residual(block: np.ndarray, shift: np.ndarray) -> float:
    """max_ij |B_ij - delta_ij shift_j|, the dense distance of a block from a
    diagonal: with shift = delta / w, from delta times the grid delta."""
    return float(np.max(np.abs(_minus_diagonal(np.array(block, dtype=complex), shift))))


def block_residual(basis: EigenSystem, amplitudes: np.ndarray, delta: complex = 0) -> float:
    """max over the (k, n) amplitude rows a of max_ij |S(a) - delta diag(1/w)|,
    S(a) the mode sum: the residual of every check whose source is delta
    times the grid delta, from the columns that fix S(a) (_first_columns),
    one row's at a time, less delta / w_j where column j meets row j.  On a
    builder's basis the weights are uniform, so the difference lies in the
    basis algebra and its first column fixes it (column_max_norm)."""
    shift = delta / basis.grid.weights
    rows = np.atleast_2d(amplitudes)
    return max(column_max_norm(basis, _minus_diagonal(_first_columns(basis, a), shift)) for a in rows)


def composition_norm(basis: EigenSystem, amplitudes: np.ndarray) -> float:
    """max-norm of S(a) - S(b) o S(c) for the amplitude rows (a, b, c), o the
    quadrature-weighted spatial contraction, from the columns that fix each
    block (_first_columns): S(a)'s minus sum_n phi_n b_n <phi_n, S(c) column>.
    On a builder's basis that is one column and a few transforms (circulant,
    or Toeplitz minus Hankel: a sine mode past m aliases onto +- a retained
    one, and the weights are uniform); a dense basis forms S(a) and S(c) and
    two O(m^2 n) products with its modes, not S(b) or an (m, m) @ (m, m) one."""
    lhs, k2 = _first_columns(basis, amplitudes[[0, 2]])
    return column_max_norm(basis, lhs - _expand(basis, amplitudes[1] * _project(basis, k2)))


def completeness_residual(basis: EigenSystem) -> float:
    """Normalized distance of sum_n phi_n(x_i) phi_n*(x_j) from the grid delta
    (block_residual at delta = 1, times min w): 0 for a discretely complete
    set, approaching 1 for a badly truncated one."""
    return block_residual(basis, np.ones(basis.size), 1) * float(np.min(basis.grid.weights))


def project_state(basis: EigenSystem, psi0: SampledFunction) -> Coefficients:
    """c_n = <phi_n, psi0> under the grid measure (_project)."""
    if psi0.grid != basis.grid:
        raise ValueError("state must live on the basis grid")
    return Coefficients(_project(basis, psi0.values), basis)


def reconstruct(coeffs: Coefficients) -> SampledFunction:
    """sum_n c_n phi_n back on the grid (_expand)."""
    return SampledFunction(coeffs.basis.grid, _expand(coeffs.basis, coeffs.values))
