"""1-D grids, quadrature weights and complex sampled functions.

Everything downstream (eigenbases, kernels, frequency responses) lives on a
Grid1D.  Grids are immutable; quadrature is a plain weighted sum, which keeps
every later identity (orthonormality, completeness, kernel initial conditions)
checkable as exact finite linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "SampledFunction",
    "discrete_delta",
    "quad",
    "inner",
]

_UNIFORM_RTOL = 1e-12


def _require_points(n: int, kind: str) -> None:
    """Raise ValueError for n < 2, or n < 1 on an open interval; factories
    call it before dividing by n."""
    if n < 2 - (kind == "open-interval"):
        raise ValueError("need at least one grid point" if kind == "open-interval" else "need at least two grid points")


def _require_scale(value: float, name: str) -> None:
    """Raise ValueError unless 1e-150 <= value <= 1e150: a positive scale
    (a length, a width, eta) whose square is a normal float."""
    if not 1e-150 <= value <= 1e150:
        raise ValueError(f"{name} must be positive and finite, within [1e-150, 1e150]")


@dataclass(frozen=True)
class Grid1D:
    """Ordered sample points with positive quadrature weights.

    kind:
        "uniform"       closed interval, trapezoidal weights (endpoints halved)
        "open-interval" endpoints excluded; weights need not be uniform, which
                        also hosts Gauss-type quadrature nodes
        "periodic"      fundamental cell [x0, x0+L), all weights equal

    spacing, set at construction rather than passed in, is the mean point
    spacing (exact for the uniform and periodic kinds), taken from the one
    np.diff that validates the points; a one-point open-interval grid takes
    its point's cell, the weight.
    """

    points: np.ndarray
    weights: np.ndarray
    kind: str = "uniform"
    period: float | None = None
    spacing: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if pts.ndim != 1 or wts.ndim != 1:
            raise ValueError("points and weights must be 1-D")
        if pts.size != wts.size:
            raise ValueError("weight count must equal point count")
        _require_points(pts.size, self.kind)
        dx = np.diff(pts)
        if not np.all(dx > 0):
            raise ValueError("points must be strictly increasing")
        if not np.all(wts > 0):
            raise ValueError("weights must be strictly positive")
        if self.kind not in ("uniform", "open-interval", "periodic"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        h = dx.mean() if dx.size else wts[0]
        if self.kind in ("uniform", "periodic"):
            # successive differences jitter at the ulp of the coordinates,
            # not of the spacing, so scale the tolerance by both
            tol = _UNIFORM_RTOL * abs(h) + 8 * np.finfo(float).eps * max(abs(pts[0]), abs(pts[-1]))
            # rounding of dx - h is monotone in dx, so this is max|dx - h|
            if max(dx.max() - h, h - dx.min()) > tol:
                raise ValueError(f"{self.kind} grid must be evenly spaced")
        if self.kind == "periodic" and self.period is None:
            raise ValueError("periodic grid needs its period")
        object.__setattr__(self, "spacing", float(h))

    @property
    def size(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Grid1D":
        """Closed interval [a, b] with trapezoidal weights."""
        if not -np.inf < a < b < np.inf:
            raise ValueError("need finite b > a")
        _require_points(n, "uniform")
        pts = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        return cls(pts, w, kind="uniform")

    @classmethod
    def open_interval(cls, a: float, b: float, n: int) -> "Grid1D":
        """Interior points of (a, b), full weight each.

        Equivalent to the trapezoid rule on [a, b] for functions vanishing at
        both endpoints (the square-well eigenfunctions).
        """
        if not -np.inf < a < b < np.inf:
            raise ValueError("need finite b > a")
        _require_points(n, "open-interval")
        h = (b - a) / (n + 1)
        pts = a + h * np.arange(1, n + 1)
        return cls(pts, np.full(n, h), kind="open-interval")

    @classmethod
    def periodic(cls, length: float, n: int) -> "Grid1D":
        if not 0 < length < np.inf:
            raise ValueError("period must be positive and finite")
        _require_points(n, "periodic")
        h = length / n
        pts = h * np.arange(n)
        return cls(pts, np.full(n, h), kind="periodic", period=length)

    def index_of(self, x: float) -> int:
        """Index of the grid point nearest to x."""
        return int(np.argmin(np.abs(self.points - x)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.kind, self.points.size, float(self.points[0]), float(self.points[-1])))


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples of a function on a Grid1D."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.grid.size:
            raise ValueError("value count must equal grid point count")
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")

    def __mul__(self, scalar: complex) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def norm2(self) -> float:
        """L2 norm under the grid measure."""
        return float(np.sqrt(np.sum(self.grid.weights * np.abs(self.values) ** 2)))


def discrete_delta(grid: Grid1D, center: int) -> SampledFunction:
    """Grid delta: 1/weight at one point, zero elsewhere.

    Its quadrature integral is exactly 1, so kernel initial-condition checks
    stay exact at the discrete level.
    """
    if not 0 <= center < grid.size:
        raise ValueError("center index out of range")
    vals = np.zeros(grid.size, dtype=complex)
    vals[center] = 1.0 / grid.weights[center]
    return SampledFunction(grid, vals)


def quad(f: SampledFunction) -> complex:
    """Quadrature integral sum_i w_i f_i."""
    return complex(np.sum(f.grid.weights * f.values))


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """Weighted inner product <f, g> = sum_i w_i conj(f_i) g_i."""
    _require_same_grid(f, g)
    return complex(np.sum(f.grid.weights * np.conj(f.values) * g.values))


def _require_same_grid(f: SampledFunction, g: SampledFunction):
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("sampled functions live on different grids")
