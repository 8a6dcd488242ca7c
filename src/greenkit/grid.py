"""1-D grids, quadrature weights and sampled functions.

Everything downstream (eigenbases, kernels, frequency responses) lives on a
Grid1D.  Grids are immutable; quadrature is a plain weighted sum, which keeps
every later identity (orthonormality, completeness, kernel initial conditions)
checkable as exact finite linear algebra.
"""

from __future__ import annotations

import bisect
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid1D",
    "SampledFunction",
    "discrete_delta",
    "quad",
    "inner",
]

_UNIFORM_RTOL = 1e-12

# points per slice of the block readers (Grid1D._blocks,
# SampledFunction._blocks, and the omega slices of the inverse transform): a
# slice's x and w (256 kB) and a caller's block buffer stay in a core's L2 cache
_BLOCK = 1 << 14


def _require_points(n: int, kind: str) -> None:
    """Raise ValueError for n < 2, or n < 1 on an open interval; factories
    call it before dividing by n."""
    if n < 2 - (kind == "open-interval"):
        raise ValueError("need at least one grid point" if kind == "open-interval" else "need at least two grid points")


def _require_interval(a: float, b: float) -> None:
    """Raise ValueError unless a < b, both finite: the interval a factory spans."""
    if not -np.inf < a < b < np.inf:
        raise ValueError("need finite b > a")


def _require_finite(values, name: str) -> None:
    """Raise ValueError unless every entry of values is finite.  It reads only
    the least and largest entry, which a NaN or an infinity reaches (of a complex
    array's float view, copied only if not contiguous): no boolean array."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a).view(a.real.dtype)
    if not (np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0))):
        raise ValueError(f"{name} must be finite")


def _require_scale(value: float, name: str) -> None:
    """Raise ValueError unless 1e-150 <= value <= 1e150: a positive scale
    (a length, a width, eta) whose square is a normal float."""
    if not 1e-150 <= value <= 1e150:
        raise ValueError(f"{name} must be positive and finite, within [1e-150, 1e150]")


class Grid1D:
    """Ordered sample points with positive quadrature weights.

    kind:
        "uniform"       closed interval, trapezoidal weights (endpoints halved)
        "open-interval" endpoints excluded; weights need not be uniform, which
                        also hosts Gauss-type quadrature nodes
        "periodic"      fundamental cell [x0, x0+L), all weights equal

    Grid1D(points, weights, kind, period) stores its arrays.  Grid1D.uniform
    stores only its rule and builds points and weights, read-only, on first
    read; _blocks reads either kind in slices without building them.
    spacing, set at construction rather than passed in, is the mean point
    spacing (x_last - x_first) / (size - 1), the step of a uniform or
    periodic grid; a one-point open-interval grid takes its point's cell, the
    weight.  Grids are immutable.  == compares kinds and arrays block by
    block, so a rule grid equals a stored grid with the same arrays, and two
    rule grids compare by their rules.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray, kind: str = "uniform", period: float | None = None):
        pts = np.asarray(points, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if pts.ndim != 1 or wts.ndim != 1:
            raise ValueError("points and weights must be 1-D")
        if pts.size != wts.size:
            raise ValueError("weight count must equal point count")
        self._settle(kind, period, pts.size, None, points=pts, weights=wts)

    def _settle(self, kind: str, period: float | None, size: int, rule: tuple | None, **arrays) -> None:
        """Set the fields, then check the points and weights in one pass over
        the blocks, so no array of the grid's length is formed."""
        vars(self).update(kind=kind, period=period, size=size, _rule=rule, **arrays)
        _require_points(size, kind)
        # the least and largest step, each block's first step taken from the
        # previous block's last point, and the least weight; np.minimum and
        # np.maximum carry a NaN through, so that it fails the checks below
        dx_min, dx_max, w_min = np.inf, -np.inf, np.inf
        prev = np.empty(0)
        for _, x, w in self._blocks():
            dx = np.diff(x, prepend=prev)
            dx_min = np.minimum(dx_min, dx.min(initial=np.inf))
            dx_max = np.maximum(dx_max, dx.max(initial=-np.inf))
            w_min = np.minimum(w_min, w.min())
            prev = x[-1:]
        if not dx_min > 0:
            raise ValueError("points must be strictly increasing")
        if not w_min > 0:
            raise ValueError("weights must be strictly positive")
        if kind not in ("uniform", "open-interval", "periodic"):
            raise ValueError(f"unknown grid kind {kind!r}")
        x0, x1 = self._point(0), self._point(size - 1)
        h = (x1 - x0) / (size - 1) if size > 1 else float(w_min)
        if kind in ("uniform", "periodic"):
            # successive differences jitter at the ulp of the coordinates,
            # not of the spacing, so scale the tolerance by both
            tol = _UNIFORM_RTOL * abs(h) + 8 * np.finfo(float).eps * max(abs(x0), abs(x1))
            # rounding of dx - h is monotone in dx, so this is max|dx - h|
            if max(dx_max - h, h - dx_min) > tol:
                raise ValueError(f"{kind} grid must be evenly spaced")
        if kind == "periodic" and period is None:
            raise ValueError("periodic grid needs its period")
        vars(self)["spacing"] = h

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _blocks(self, start: int = 0, stop: int | None = None, size: int = _BLOCK):
        """(s, x, w) over the points start..stop - 1, in slices of at most
        size points, s the index of x[0].

        A stored grid yields views of its arrays.  A rule grid generates each
        slice as np.linspace(a, b, n) and its trapezoid weights hold it, bit
        for bit: x_k = k h + a with h = (b - a) / (n - 1), the last point b,
        every weight h and the two end weights h / 2.
        """
        stop = self.size if stop is None else stop
        for s in range(start, stop, size):
            e = min(s + size, stop)
            if self._rule is None:
                yield s, self.points[s:e], self.weights[s:e]
                continue
            a, b, h = self._rule
            x = np.arange(s, e, dtype=float)
            x *= h
            x += a
            w = np.full(e - s, h)
            if s == 0:
                w[0] = h / 2
            if e == self.size:
                x[-1] = b
                w[-1] = h / 2
            yield s, x, w

    def _point(self, k: int) -> float:
        """Point k, read without building a rule grid's arrays."""
        return float(next(self._blocks(k, k + 1))[1][0])

    @cached_property
    def points(self) -> np.ndarray:
        return _read_only(next(self._blocks(size=self.size))[1])

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(next(self._blocks(size=self.size))[2])

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Grid1D":
        """Closed interval [a, b] with trapezoidal weights, kept as its rule.

        The grid holds a, b and n, not an array of length n.  Its points are
        np.linspace(a, b, n) and its weights the trapezoid weights, bit for
        bit, built on first read (see _blocks); a and b are taken as floats.
        """
        _require_interval(a, b)
        _require_points(n, "uniform")
        a, b = float(a), float(b)
        grid = cls.__new__(cls)
        grid._settle("uniform", None, n, (a, b, (b - a) / (n - 1)))
        return grid

    @classmethod
    def open_interval(cls, a: float, b: float, n: int) -> "Grid1D":
        """Interior points of (a, b), full weight each.

        Equivalent to the trapezoid rule on [a, b] for functions vanishing at
        both endpoints (the square-well eigenfunctions).
        """
        _require_interval(a, b)
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
        """Index of the grid point nearest to x, the left one on a tie (as
        argmin |points - x| picks), an end index for x outside the grid; a
        binary search over _point reads, so a rule grid builds no points."""
        _require_finite(x, "grid coordinate")
        i = bisect.bisect_left(range(self.size), x, key=self._point)  # x[i - 1] < x <= x[i]
        if i in (0, self.size):
            return min(i, self.size - 1)
        return i - 1 if x - self._point(i - 1) <= self._point(i) - x else i

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        if self.kind != other.kind or self.size != other.size:
            return False
        if self._rule is not None and other._rule is not None:
            return self._rule == other._rule
        return all(
            np.array_equal(x, y) and np.array_equal(w, v)
            for (_, x, w), (_, y, v) in zip(self._blocks(), other._blocks())
        )

    def __hash__(self):
        return hash((self.kind, self.size, self._point(0), self._point(self.size - 1)))

    def __repr__(self) -> str:
        if self._rule is not None:
            a, b, _ = self._rule
            return f"Grid1D.uniform({a!r}, {b!r}, {self.size})"
        return f"Grid1D(points={self.points!r}, weights={self.weights!r}, kind={self.kind!r}, period={self.period!r})"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Samples of a function on a Grid1D: float64 samples stay float64, and
    samples of any other dtype become complex.

    SampledFunction(grid, values) stores its samples.  SampledFunction.of(grid,
    rule) keeps the rule instead and forms values, read-only, on first read;
    _blocks reads either kind in slices beside the grid's x and w, so a rule
    on a rule grid holds no array of the grid's length.  Sampled functions
    compare by identity.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    _rule = None

    def __post_init__(self):
        object.__setattr__(self, "values", _samples(self.values, self.grid.size))

    @classmethod
    def of(cls, grid: Grid1D, rule) -> "SampledFunction":
        """The samples rule(x) on the grid's points, kept as the rule.

        rule maps a float64 array of points to one sample per point.  It is
        called on each slice that is read, so its samples are checked (count,
        dtype rule, finiteness) when they are read, not here.
        """
        f = cls.__new__(cls)
        vars(f).update(grid=grid, _rule=rule)
        return f

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a rule's values,
        # formed on first read from one slice over the whole grid
        if name != "values":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vals = _read_only(next(self._blocks(size=self.grid.size))[3])
        vars(self)["values"] = vals
        return vals

    def _blocks(self, start: int = 0, stop: int | None = None, size: int = _BLOCK):
        """(s, x, w, f) over the points start..stop - 1 in slices of at most
        size points, as Grid1D._blocks gives (s, x, w), with f the samples
        there: views of stored (or already formed) values, or the rule's
        samples at x."""
        stored = vars(self).get("values")
        for s, x, w in self.grid._blocks(start, stop, size):
            yield s, x, w, _samples(self._rule(x), x.size) if stored is None else stored[s:s + x.size]

    def __mul__(self, scalar: complex) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def norm2(self) -> float:
        """L2 norm under the grid measure."""
        return float(np.sqrt(np.sum(self.grid.weights * np.abs(self.values) ** 2)))


def _samples(values, size: int) -> np.ndarray:
    """values as samples of size points, float64 kept and any other dtype
    made complex; raises ValueError unless they are 1-D, size long and finite."""
    vals = np.asarray(values)
    if vals.dtype != np.float64:
        vals = np.asarray(vals, dtype=complex)
    if vals.ndim != 1 or vals.size != size:
        raise ValueError("value count must equal grid point count")
    _require_finite(vals, "samples")
    return vals


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
