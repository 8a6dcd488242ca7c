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

from .grid import Grid1D, SampledFunction

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


@dataclass(frozen=True)
class EigenSystem:
    """Truncated spectrum {E_n} with grid-sampled modes.

    mode_values has one row per retained mode.  branches is +-1 per mode for
    the relativistic two-branch spectrum, None otherwise.  For the two-branch
    case the spatial plane waves repeat across branches, so orthonormality
    only holds within a branch.

    waves, set only by the builders (_table_system), is each mode's integer
    wave index: j for plane waves on a periodic grid, whose mode sums are
    circulant, n for the well's sines, whose mode sums are Toeplitz minus
    Hankel.  mode_blocks rebuilds such blocks from their first columns.  A
    basis without waves, whatever its model label, takes the dense path.
    """

    grid: Grid1D
    energies: np.ndarray
    mode_values: np.ndarray = field(repr=False)
    constants: PhysicalConstants
    model: str
    branches: np.ndarray | None = None
    waves: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        mv = np.asarray(self.mode_values, dtype=complex)
        object.__setattr__(self, "energies", en)
        object.__setattr__(self, "mode_values", mv)
        if not np.all(np.isfinite(en)):
            raise ValueError("energies must be finite")
        if mv.shape != (en.size, self.grid.size):
            raise ValueError("mode count must equal energy count, sampled on the grid")
        if self.branches is not None:
            br = np.asarray(self.branches, dtype=int)
            object.__setattr__(self, "branches", br)
            if br.shape != en.shape:
                raise ValueError("one branch tag per mode")

    @property
    def size(self) -> int:
        return self.energies.size

    def check_point_indices(self, *indices: int) -> None:
        """Raise ValueError unless 0 <= index < grid.size for every index;
        a negative index would otherwise wrap silently to the far end."""
        for k in indices:
            if not 0 <= k < self.grid.size:
                raise ValueError(f"grid index {k} outside 0..{self.grid.size - 1}")


@dataclass(frozen=True)
class Coefficients:
    """Expansion coefficients of a state in an eigenbasis."""

    values: np.ndarray
    basis: EigenSystem

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.basis.size,):
            raise ValueError("one coefficient per retained mode")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")


def _require_extent(value: float, name: str) -> None:
    """Raise ValueError unless 1e-150 <= value <= 1e150, so that its square
    (and k^2 or E_n built from it) is a normal float."""
    if not 1e-150 <= value <= 1e150:
        raise ValueError(f"{name} must be positive and finite, within [1e-150, 1e150]")


def _plane_waves(length: float, n_max: int, n_points: int | None) -> tuple:
    """(grid, j, k) on the periodic box: the integer wave indices |j| <= n_max
    and their k = 2 pi j / L, with the builders' shared checks."""
    _require_extent(length, "box length")
    if n_max < 1:
        raise ValueError("mode cutoff must be >= 1")
    m = n_points if n_points is not None else 2 * n_max + 1
    j = np.arange(-n_max, n_max + 1)
    return Grid1D.periodic(length, m), j, 2 * np.pi * j / length


def _table_system(grid, table, offsets, waves, energies, constants, model, branches=None) -> EigenSystem:
    """Basis whose mode n is table[(waves[n] * offsets) mod len(table)],
    marked with its wave index for the structured block paths.

    Plane waves e^{2 pi i j x / L} / sqrt(L) on x_l = l L / m: the m-th roots
    of unity over sqrt(L), offsets l.  Well sines sqrt(2/a) sin(n pi x / a) on
    x_l = (l + 1) a / (m + 1): sqrt(2/a) sin(pi k / (m + 1)) for
    k < 2 (m + 1), offsets l + 1.  Every entry comes from an argument below
    2 pi, not one per (mode, point) pair at up to 2 pi max|waves|.
    """
    index = np.outer(waves, offsets)
    index %= table.size
    basis = EigenSystem(grid, energies, table[index], constants, model, branches=branches)
    # both fresh here; read-only, so no write can break the structure waves marks
    basis.mode_values.flags.writeable = False
    waves.flags.writeable = False
    object.__setattr__(basis, "waves", waves)
    return basis


def _plane_wave_system(grid, j, energies, constants, model, branches=None) -> EigenSystem:
    """Plane-wave _table_system, one wave per index in j, ordered by (|E|, E)."""
    order = np.lexsort((energies, np.abs(energies)))
    m = grid.size
    roots = np.exp(2j * np.pi * np.arange(m) / m) / np.sqrt(grid.period)
    if branches is not None:
        branches = branches[order]
    return _table_system(grid, roots, np.arange(m), j[order], energies[order], constants, model, branches)


def _relativistic_energy(k, constants: PhysicalConstants):
    """E_k = sqrt(m^2 c^4 + c^2 hbar^2 k^2), the positive-branch energy."""
    return np.sqrt(constants.mass**2 * constants.c**4 + constants.c**2 * constants.hbar**2 * k**2)


def _wave_modes(basis: EigenSystem) -> tuple:
    """(mode indices, sqrt(E_n), c) of the second-order law, which the wave
    kernels and the second-order density share; rejects negative eigenvalues.

    The relativistic two-branch basis is the Klein-Gordon case: it repeats
    each momentum at +-E_k, so only the positive branch is kept, with
    E = E_k^2.  Any other basis keeps every mode.
    """
    if basis.model == "relativistic":
        if not (basis.constants.hbar == 1.0 and basis.constants.c == 1.0):
            raise ValueError("Klein-Gordon kernel assumes hbar = c = 1 units")
        index = np.flatnonzero(basis.branches > 0)
        e = basis.energies[index] ** 2
    else:
        index = np.arange(basis.size)
        e = basis.energies
    if np.any(e < 0):
        raise ValueError("second-order modes need non-negative eigenvalues")
    return index, np.sqrt(e), basis.constants.c


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
    _require_extent(width, "well width")
    if n_max < 1:
        raise ValueError("mode cutoff must be >= 1")
    m = n_points if n_points is not None else n_max
    grid = Grid1D.open_interval(0.0, width, m)
    n = np.arange(1, n_max + 1)
    table = np.sqrt(2.0 / width) * np.sin(np.pi * np.arange(2 * (m + 1)) / (m + 1))
    energies = np.pi**2 * constants.hbar**2 * n**2 / (2 * constants.mass * width**2)
    return _table_system(grid, table, np.arange(1, m + 1), n, energies, constants, "well")


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
    the last retained mode has decayed below 1e-10 at the ends.  grid_kind
    "gauss" uses the n_max-point Gauss-Hermite rule, on which the truncated
    basis is discretely orthonormal *and* complete -- the grid to use for
    initial-condition (completeness) checks.
    """
    if n_max < 1:
        raise ValueError("mode cutoff must be >= 1")
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
    modes = hermite_modes(grid.points, n_max, alpha).astype(complex)
    if grid_kind == "uniform":
        edge = max(abs(modes[-1, 0]), abs(modes[-1, -1]))
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


def orthonormality_residual(basis: EigenSystem) -> float:
    """max |<phi_m, phi_n> - delta_mn| over retained pairs.

    For the two-branch relativistic basis the Gram matrix is taken within
    each branch; cross-branch pairs share spatial modes and are not expected
    to be orthogonal.
    """
    w = basis.grid.weights

    def gram_dev(mv):
        g = (mv * w) @ mv.conj().T
        return float(np.max(np.abs(g - np.eye(mv.shape[0]))))

    if basis.branches is None:
        return gram_dev(basis.mode_values)
    return max(
        gram_dev(basis.mode_values[basis.branches == s]) for s in (+1, -1)
    )


def mode_sum(modes: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Dense spectral sum S_ij = sum_n phi_n(x_i) a_n phi_n*(x_j).

    modes is (n, m), one grid-sampled mode per row.  Amplitudes of shape (n,)
    give one (m, m) block; shape (k, n) gives k blocks, (k, m, m).  Each block
    is written in place by one GEMM, so no (k, m, n) temporary is ever held;
    rows of all-zero amplitudes run none and stay exact zeros.

    Real modes (the oscillator's, or any hand-built real set) take one real
    GEMM per block: S = phi^T (a phi), where the complex (n, m) factor a phi,
    seen as floats, is its interleaved (n, 2m) real and imaginary parts, and
    the (m, 2m) real product is the block's own float view.  That is half
    the flops of the complex GEMM.  Complex modes take phi^T a times conj(phi).
    """
    rows = np.atleast_2d(amplitudes)
    m = modes.shape[1]
    out = np.zeros((rows.shape[0], m, m), dtype=complex)
    live = np.flatnonzero(np.any(rows != 0, axis=1))
    if np.any(modes.imag):
        conj = np.conj(modes)
        for k in live:
            np.matmul(modes.T * rows[k], conj, out=out[k])
    else:
        phi = np.ascontiguousarray(modes.real)
        # complex amplitudes, so that a phi has the (n, 2m) float view
        rows = rows.astype(complex, copy=False)
        for k in live:
            np.matmul(phi.T, (rows[k][:, None] * phi).view(float), out=out[k].view(float))
    return out if np.ndim(amplitudes) == 2 else out[0]


def _first_columns(basis: EigenSystem, rows: np.ndarray) -> np.ndarray:
    """(k, m) first columns c[i] = sum_n phi_n(x_i) a_n phi_n*(x_0) of the mode
    sums, one (k, n) x (n, m) product; rows of all-zero amplitudes give exact
    zero columns."""
    live = np.flatnonzero(np.any(rows != 0, axis=1))
    columns = np.zeros((rows.shape[0], basis.grid.size), dtype=complex)
    columns[live] = (rows[live] * np.conj(basis.mode_values[:, 0])) @ basis.mode_values
    return columns


def _column_blocks(basis: EigenSystem, columns: np.ndarray) -> np.ndarray:
    """Read-only (k, m, m) blocks of the basis algebra from their (k, m) first
    columns c (see EigenSystem for the structure the builders' waves mark).

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
    extended by the mirror g[d] = g[2m + 2 - d].  Only the live blocks, those
    whose column is not all zero, are written: the rest stay the untouched
    pages of np.zeros, such as the wrong side of a retarded or advanced kernel.
    """
    k, m = columns.shape
    if basis.grid.kind == "periodic":
        wrapped = np.concatenate([columns[:, ::-1], columns[:, :0:-1]], axis=1)
        row, item = wrapped.strides
        return as_strided(wrapped[:, m - 1:], (k, m, m), (row, -item, item), writeable=False)
    live = np.flatnonzero(np.any(columns != 0, axis=1))
    g = np.zeros((live.size, 2 * m + 1), dtype=complex)
    for p in (0, 1):
        g[:, p:m:2] = np.cumsum(columns[live, p::2][:, ::-1], axis=1)[:, ::-1]
    g[:, m + 2:] = g[:, m:1:-1]
    out = np.zeros((k, m, m), dtype=complex)
    toeplitz = np.concatenate([g[:, m - 1:0:-1], g[:, :m]], axis=1)  # g[|p - (m - 1)|]
    for i, t, h in zip(live, toeplitz, g[:, 2:]):
        np.subtract(sliding_window_view(t, m)[::-1], sliding_window_view(h, m), out=out[i])
    out.flags.writeable = False
    return out


def mode_blocks(basis: EigenSystem, amplitudes: np.ndarray, factor: complex = 1) -> np.ndarray:
    """factor * mode_sum over basis.mode_values, one amplitude per basis mode,
    built from the basis structure, returned read-only.

    On bases with waves every block is rebuilt from its first column
    c[i] = block[i, 0], one (k, n) x (n, m) product for all k blocks, in
    O(m^2) per block instead of O(m^2 n): a zero-copy circulant view on
    periodic bases, Toeplitz minus Hankel on the well (_column_blocks).
    Bases without waves use mode_sum, scaled in place.  factor scales the
    columns (or the dense blocks), so every entry is exactly factor times its
    unscaled value.  Rows of all-zero amplitudes give exact zero blocks.
    """
    rows = np.atleast_2d(amplitudes)
    if basis.waves is not None:
        columns = _first_columns(basis, rows)
        out = _column_blocks(basis, columns if factor == 1 else factor * columns)
    else:
        out = mode_sum(basis.mode_values, rows)
        if factor != 1:
            out *= factor
        out.flags.writeable = False
    return out if np.ndim(amplitudes) == 2 else out[0]


def column_max_norm(basis: EigenSystem, column: np.ndarray) -> float:
    """max_ij |B_ij| of the block B of the basis algebra whose first column
    is `column`, in O(m^2) from that column alone.

    On periodic bases B is circulant, so its entries are the column's and
    the max takes O(m).  On the well B is rebuilt by _column_blocks, the
    same code that builds every mode_blocks block.  A basis without waves
    has no such algebra and raises ValueError.
    """
    if basis.waves is None:
        raise ValueError(f"{basis.model!r} basis without waves has no structured block algebra")
    if basis.grid.kind == "periodic":
        return float(np.max(np.abs(column)))
    return float(np.max(np.abs(_column_blocks(basis, column[None])[0])))


def delta_residual(block: np.ndarray, weights: np.ndarray) -> float:
    """max_ij |B_ij - delta_ij / w_j| * min(w): the distance of a block from
    the grid delta, 0 for an exact delta and about 1 for a poor one."""
    return float(np.max(np.abs(block - np.diag(1.0 / weights))) * np.min(weights))


def completeness_residual(basis: EigenSystem) -> float:
    """Normalized distance of sum_n phi_n(x_i) phi_n*(x_j) from the grid delta.

    0 for a discretely complete set, approaching 1 for a badly truncated one.
    On bases with waves the weights are uniform, so the delta lies in
    the basis algebra and the block minus the delta is fixed by its first
    column (column_max_norm).
    """
    w = basis.grid.weights
    if basis.waves is None:
        return delta_residual(mode_blocks(basis, np.ones(basis.size)), w)
    column = _first_columns(basis, np.ones((1, basis.size)))[0]
    return column_max_norm(basis, column - (np.arange(w.size) == 0) / w[0]) * float(np.min(w))


def project_state(basis: EigenSystem, psi0: SampledFunction) -> Coefficients:
    """c_n = <phi_n, psi0> under the grid measure."""
    if psi0.grid != basis.grid:
        raise ValueError("state must live on the basis grid")
    c = np.conj(basis.mode_values) @ (basis.grid.weights * psi0.values)
    return Coefficients(c, basis)


def reconstruct(coeffs: Coefficients) -> SampledFunction:
    """sum_n c_n phi_n back on the grid."""
    vals = coeffs.values @ coeffs.basis.mode_values
    return SampledFunction(coeffs.basis.grid, vals)
