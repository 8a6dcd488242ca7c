"""Model eigen-systems and projections onto them.

Builders produce truncated orthonormal bases for the standard solvable models
(periodic free particle, square well, harmonic oscillator, relativistic
two-branch plane waves, Helmholtz box).  Every basis carries its grid, so
orthonormality and completeness are finite-matrix statements that the tests
and the acceptance suite check directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    hbar: float = 1.0
    c: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    epsilon0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "mass", "omega", "epsilon0"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class EigenSystem:
    """Truncated spectrum {E_n} with grid-sampled modes.

    mode_values has one row per retained mode.  branches is +-1 per mode for
    the relativistic two-branch spectrum, None otherwise.  For the two-branch
    case the spatial plane waves repeat across branches, so orthonormality
    only holds within a branch.

    The model name promises a structure that mode_blocks relies on.  "free",
    "relativistic" and "helmholtz" promise plane waves e^{ikx} with k a
    multiple of 2 pi / L on the periodic grid of period L, so every mode sum
    is circulant.  "well" promises the sine modes sqrt(2/a) sin(n pi x / a),
    n = 1, 2, ... in row order, on the open-interval grid of (0, a), so every
    mode sum is Toeplitz minus Hankel.  Either way a block is fixed by its
    first column, and mode_blocks rebuilds every block from that column.  Any
    other model ("oscillator") has no such grid algebra and stays dense: its
    mode sums are full (m, m) blocks and composition_residual forms their
    O(m^3) product.
    """

    grid: Grid1D
    energies: np.ndarray
    mode_values: np.ndarray = field(repr=False)
    constants: PhysicalConstants
    model: str
    branches: np.ndarray | None = None

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        mv = np.asarray(self.mode_values, dtype=complex)
        object.__setattr__(self, "energies", en)
        object.__setattr__(self, "mode_values", mv)
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

    def mode(self, n: int) -> SampledFunction:
        return SampledFunction(self.grid, self.mode_values[n])

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


def _sort_by_abs_energy(energies, modes, branches=None):
    order = np.lexsort((energies, np.abs(energies)))
    if branches is None:
        return energies[order], modes[order], None
    return energies[order], modes[order], branches[order]


def _plane_waves(length: float, n_max: int, n_points: int | None) -> tuple:
    """(grid, k, e^{ikx}/sqrt(L)) on the periodic box, k = 2 pi j / L for
    |j| <= n_max, one wave per row, with the builders' shared checks.

    On the m-point grid x_l = l L / m the phase k x_l is 2 pi j l / m, so
    each wave is read off the m-th roots of unity at the exact integer index
    (j l) mod m: m exponentials of arguments below 2 pi, instead of one per
    (mode, point) pair at arguments up to 2 pi n_max.
    """
    if not length > 0:
        raise ValueError("box length must be positive")
    if n_max < 1:
        raise ValueError("mode cutoff must be >= 1")
    m = n_points if n_points is not None else 2 * n_max + 1
    grid = Grid1D.periodic(length, m)
    j = np.arange(-n_max, n_max + 1)
    roots = np.exp(2j * np.pi * np.arange(m) / m) / np.sqrt(length)
    return grid, 2 * np.pi * j / length, roots[np.outer(j, np.arange(m)) % m]


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
    grid, k, modes = _plane_waves(length, n_max, n_points)
    energies = constants.hbar**2 * k**2 / (2 * constants.mass)
    energies, modes, _ = _sort_by_abs_energy(energies, modes)
    return EigenSystem(grid, energies, modes, constants, "free")


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
    if not width > 0:
        raise ValueError("well width must be positive")
    if n_max < 1:
        raise ValueError("mode cutoff must be >= 1")
    m = n_points if n_points is not None else n_max
    grid = Grid1D.open_interval(0.0, width, m)
    n = np.arange(1, n_max + 1)
    modes = np.sqrt(2.0 / width) * np.sin(np.outer(n * np.pi / width, grid.points))
    modes = modes.astype(complex)
    energies = np.pi**2 * constants.hbar**2 * n**2 / (2 * constants.mass * width**2)
    return EigenSystem(grid, energies, modes, constants, "well")


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


def build_oscillator_basis(
    constants: PhysicalConstants = PhysicalConstants(),
    n_max: int = 32,
    n_points: int | None = None,
    extent: float | None = None,
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
        nodes, lam = np.polynomial.hermite.hermgauss(m)
        grid = Grid1D(nodes / alpha, lam * np.exp(nodes**2) / alpha, kind="open-interval")
    elif grid_kind == "uniform":
        # classical turning point of the last mode plus a decay buffer
        half = (np.sqrt(2 * n_max + 1) + 5.0) / alpha if extent is None else extent
        m = n_points if n_points is not None else max(64, int(np.ceil(16 * half * alpha * np.sqrt(2 * n_max) / np.pi)) | 1)
        grid = Grid1D.uniform(-half, half, m)
    else:
        raise ValueError(f"unknown grid_kind {grid_kind!r}")
    modes = hermite_modes(grid.points, n_max, alpha).astype(complex)
    if grid_kind == "uniform":
        edge = max(abs(modes[-1, 0]), abs(modes[-1, -1]))
        if edge > 1e-10:
            raise ValueError(
                f"grid too narrow: mode {n_max - 1} is {edge:.2e} at the boundary "
                "(needs < 1e-10); widen the extent"
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
    grid, k, waves = _plane_waves(length, k_cutoff, n_points)
    e_k = _relativistic_energy(k, constants)
    energies = np.concatenate([e_k, -e_k])
    modes = np.concatenate([waves, waves])
    branches = np.repeat([1, -1], k.size)
    energies, modes, branches = _sort_by_abs_energy(energies, modes, branches)
    return EigenSystem(grid, energies, modes, constants, "relativistic", branches=branches)


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
    grid, k, modes = _plane_waves(length, n_max, n_points)
    energies = k**2
    energies, modes, _ = _sort_by_abs_energy(energies, modes)
    return EigenSystem(grid, energies, modes, constants, "helmholtz")


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
    is written in place, so no (k, m, n) temporary is ever held.
    """
    rows = np.atleast_2d(amplitudes)
    conj = np.conj(modes)
    out = np.empty((rows.shape[0], modes.shape[1], modes.shape[1]), dtype=complex)
    for k, a in enumerate(rows):
        np.matmul(modes.T * a, conj, out=out[k])
    return out if np.ndim(amplitudes) == 2 else out[0]


PERIODIC_MODELS = ("free", "relativistic", "helmholtz")
STRUCTURED_MODELS = PERIODIC_MODELS + ("well",)


def _first_columns(basis: EigenSystem, rows: np.ndarray, index=slice(None)) -> np.ndarray:
    """(k, m) first columns c[i] = sum_n phi_n(x_i) a_n phi_n*(x_0) of the mode
    sums over basis.mode_values[index], one (k, n) x (n, m) product; rows of
    all-zero amplitudes give exact zero columns."""
    live = np.flatnonzero(np.any(rows != 0, axis=1))
    modes = basis.mode_values[index]
    columns = np.zeros((rows.shape[0], basis.grid.size), dtype=complex)
    columns[live] = (rows[live] * np.conj(modes[:, 0])) @ modes
    return columns


def _column_blocks(basis: EigenSystem, columns: np.ndarray) -> np.ndarray:
    """Read-only (k, m, m) blocks of the basis algebra from their (k, m) first
    columns c (see EigenSystem for the structure each model promises).

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
    extended by the mirror g[d] = g[2m + 2 - d].
    """
    k, m = columns.shape
    if basis.model in PERIODIC_MODELS:
        wrapped = np.concatenate([columns[:, ::-1], columns[:, :0:-1]], axis=1)
        row, item = wrapped.strides
        return as_strided(wrapped[:, m - 1:], (k, m, m), (row, -item, item), writeable=False)
    g = np.zeros((k, 2 * m + 1), dtype=complex)
    for p in (0, 1):
        g[:, p:m:2] = np.cumsum(columns[:, p::2][:, ::-1], axis=1)[:, ::-1]
    g[:, m + 2:] = g[:, m:1:-1]
    out = np.empty((k, m, m), dtype=complex)
    toeplitz = np.concatenate([g[:, m - 1:0:-1], g[:, :m]], axis=1)  # g[|p - (m - 1)|]
    for o, t, h in zip(out, toeplitz, g[:, 2:]):
        np.subtract(sliding_window_view(t, m)[::-1], sliding_window_view(h, m), out=o)
    out.flags.writeable = False
    return out


def mode_blocks(basis: EigenSystem, amplitudes: np.ndarray, index=slice(None), factor: complex = 1) -> np.ndarray:
    """factor * mode_sum over basis.mode_values[index], built from the basis
    structure, returned read-only.

    On periodic and well bases every block is rebuilt from its first column
    c[i] = block[i, 0], one (k, n) x (n, m) product for all k blocks, in
    O(m^2) per block instead of O(m^2 n): a zero-copy circulant view on
    periodic bases, Toeplitz minus Hankel on the well (_column_blocks).
    Other models use mode_sum.  factor scales the columns (or the dense
    blocks), so every entry is exactly factor times its unscaled value.  Rows
    of all-zero amplitudes give exact zero blocks.
    """
    rows = np.atleast_2d(amplitudes)
    if basis.model in STRUCTURED_MODELS:
        columns = _first_columns(basis, rows, index)
        out = _column_blocks(basis, columns if factor == 1 else factor * columns)
    else:
        live = np.flatnonzero(np.any(rows != 0, axis=1))
        out = np.zeros((rows.shape[0], basis.grid.size, basis.grid.size), dtype=complex)
        out[live] = mode_sum(basis.mode_values[index], rows[live])
        if factor != 1:
            out *= factor
        out.flags.writeable = False
    return out if np.ndim(amplitudes) == 2 else out[0]


def column_max_norm(basis: EigenSystem, column: np.ndarray) -> float:
    """max_ij |B_ij| of the block B of the basis algebra whose first column
    is `column`, in O(m^2) from that column alone.

    On periodic bases B is circulant, so its entries are the column's and
    the max takes O(m).  On the well B is rebuilt by _column_blocks, the
    same code that builds every mode_blocks block.  The oscillator has no
    such algebra and raises ValueError.
    """
    if basis.model not in STRUCTURED_MODELS:
        raise ValueError(f"model {basis.model!r} has no structured block algebra")
    if basis.model in PERIODIC_MODELS:
        return float(np.max(np.abs(column)))
    return float(np.max(np.abs(_column_blocks(basis, column[None])[0])))


def delta_residual(block: np.ndarray, weights: np.ndarray) -> float:
    """max_ij |B_ij - delta_ij / w_j| * min(w): the distance of a block from
    the grid delta, 0 for an exact delta and about 1 for a poor one."""
    return float(np.max(np.abs(block - np.diag(1.0 / weights))) * np.min(weights))


def completeness_residual(basis: EigenSystem) -> float:
    """Normalized distance of sum_n phi_n(x_i) phi_n*(x_j) from the grid delta.

    0 for a discretely complete set, approaching 1 for a badly truncated one.
    On periodic and well bases the weights are uniform, so the delta lies in
    the basis algebra and the block minus the delta is fixed by its first
    column (column_max_norm).
    """
    w = basis.grid.weights
    if basis.model not in STRUCTURED_MODELS:
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
