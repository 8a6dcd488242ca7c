"""1-D grids, quadrature weights and sampled functions.

Everything downstream (eigenbases, kernels, frequency responses) lives on a
Grid1D.  Grids are immutable; quadrature is a plain weighted sum, which keeps
every later identity (orthonormality, completeness, kernel initial conditions)
checkable as exact finite linear algebra.
"""

from __future__ import annotations

import bisect
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "SampledFunction",
    "discrete_delta",
    "quad",
    "inner",
]

_UNIFORM_RTOL = 1e-12

# points per slice of _slices when a caller names no size: a slice's x and w
# (256 kB) and a caller's block buffer stay in a core's L2 cache
_BLOCK = 1 << 14


def _slices(read, n: int, size: int = _BLOCK):
    """(s, read(slice(s, s + size))) for s = 0, size, 2 size, ... below n: the
    one loop over an axis of n entries, read being a type's _slice."""
    for s in range(0, n, size):
        yield s, read(slice(s, s + size))


class _FormedOnRead:
    """Base of the types that may keep an array as a rule: Grid1D,
    SampledFunction and freqdomain.FreqResponse.  Each has one reader,
    _slice(part), the only place that chooses between stored arrays and the
    rule: it returns a tuple of arrays over the slice part of its axis, views
    of stored arrays or the rule evaluated there.  _formed maps each field
    that a rule can stand for to its place in that tuple."""

    _formed: dict = {}

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a field kept as a
        # rule, formed read-only on first read as one slice over the whole axis
        if name not in self._formed:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        arr = self._slice(slice(None))[self._formed[name]]
        arr.flags.writeable = False
        vars(self)[name] = arr
        return arr


def _require_points(n: int, kind: str) -> None:
    """Raise ValueError for n < 2, or n < 1 on an open interval; factories
    call it before dividing by n."""
    if n < 2 - (kind == "open-interval"):
        raise ValueError("need at least one grid point" if kind == "open-interval" else "need at least two grid points")


def _require_interval(a: float, b: float) -> None:
    """Raise ValueError unless a < b with a, b and b - a finite: a factory's interval."""
    if not (a < b and float(b) - float(a) < np.inf):
        raise ValueError(f"need finite b > a with a finite span b - a, not the range {a:g} to {b:g}")


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


class Grid1D(_FormedOnRead):
    """Ordered sample points with positive quadrature weights.

    kind:
        "uniform"       closed interval, trapezoidal weights (endpoints halved)
        "open-interval" endpoints excluded; weights need not be uniform, which
                        also hosts Gauss-type quadrature nodes
        "periodic"      fundamental cell [x0, x0+L), all weights equal

    Grid1D(points, weights, kind, period) stores its arrays.  Grid1D.uniform
    stores only its rule and forms points and weights, read-only, on first
    read; _slice reads either kind a slice at a time without forming them.
    The checks walk the slices, unless the rule proves them (see _check).
    spacing, set at construction rather than passed in, is the mean point
    spacing (x_last - x_first) / (size - 1), the step of a uniform or
    periodic grid; a one-point open-interval grid takes its point's cell, the
    weight.  Grids are immutable.  == compares kinds and arrays slice by
    slice, so a rule grid equals a stored grid with the same arrays.
    """

    _rule = None
    _formed = {"points": 0, "weights": 1}

    def __init__(self, points: np.ndarray, weights: np.ndarray, kind: str = "uniform", period: float | None = None):
        pts = np.asarray(points, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if pts.ndim != 1 or wts.ndim != 1:
            raise ValueError("points and weights must be 1-D")
        if pts.size != wts.size:
            raise ValueError("weight count must equal point count")
        _require_finite([pts, wts], "grid points and weights")
        vars(self).update(kind=kind, period=period, size=pts.size, points=pts, weights=wts)
        self._check()

    def _check(self) -> None:
        """Check the points and weights in one pass over the slices, so that no
        array of the grid's length is formed, and set the spacing.  A rule grid
        whose step h is a normal float above 8 eps M, M = max(|a|, |b|), passes
        unread: each point is within 2 eps M of a + k h, so every step is within
        4 eps M of h, positive and inside the walk's tolerance."""
        size, kind = self.size, self.kind
        _require_points(size, kind)
        if self._rule is not None:
            a, b, h = self._rule
            if np.finfo(float).tiny <= h < np.inf and h > 8 * np.finfo(float).eps * max(abs(a), abs(b)):
                vars(self)["spacing"] = h
                return
        x0, x1 = (float(self._slice(slice(k, k + 1))[0][0]) for k in (0, size - 1))
        if not abs(x1 - x0) < np.inf:
            raise ValueError(f"the span x_last - x_first of the points must be finite, not {x1:g} - {x0:g}")
        # the least and largest step, each slice's first step taken from the
        # previous slice's last point, and the least weight; inside a finite
        # span a step overflows only where the points also descend
        dx_min, dx_max, w_min = np.inf, -np.inf, np.inf
        prev = np.empty(0)
        with np.errstate(over="ignore"):
            for _, (x, w) in _slices(self._slice, size):
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
        h = (x1 - x0) / (size - 1) if size > 1 else float(w_min)
        if kind in ("uniform", "periodic"):
            # successive differences jitter at the ulp of the coordinates,
            # not of the spacing, so scale the tolerance by both
            tol = _UNIFORM_RTOL * abs(h) + 8 * np.finfo(float).eps * max(abs(x0), abs(x1))
            # rounding of dx - h is monotone in dx, so this is max|dx - h|
            if max(dx_max - h, h - dx_min) > tol:
                raise ValueError(f"{kind} grid must be evenly spaced")
        if kind == "periodic" and self.period is None:
            raise ValueError("periodic grid needs its period")
        vars(self)["spacing"] = h

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _slice(self, part: slice) -> tuple:
        """(x, w) over the points in part, a slice of step 1.

        A stored grid gives views of its arrays.  A rule grid generates the
        slice as np.linspace(a, b, n) and its trapezoid weights hold it, bit
        for bit: x_k = k h + a with h = (b - a) / (n - 1), the last point b,
        every weight h and the two end weights h / 2.
        """
        if self._rule is None:
            return self.points[part], self.weights[part]
        a, b, h = self._rule
        k = range(self.size)[part]
        x = np.arange(k.start, k.stop, dtype=float)
        x *= h
        x += a
        w = np.full(len(k), h)
        if k.start == 0:
            w[0] = h / 2
        if k.stop == self.size:
            x[-1] = b
            w[-1] = h / 2
        return x, w

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Grid1D":
        """Closed interval [a, b] with trapezoidal weights, kept as its rule.

        The grid holds a, b and n, not an array of length n.  Its points are
        np.linspace(a, b, n) and its weights the trapezoid weights, bit for
        bit, formed on first read (see _slice); a and b are taken as floats.
        """
        _require_interval(a, b)
        _require_points(n, "uniform")
        a, b = float(a), float(b)
        grid = cls.__new__(cls)
        vars(grid).update(kind="uniform", period=None, size=n, _rule=(a, b, (b - a) / (n - 1)))
        grid._check()
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
        binary search over one-point slices, so a rule grid builds no points."""
        _require_finite(x, "grid coordinate")
        i = bisect.bisect_left(range(self.size), x, key=lambda k: self._slice(slice(k, k + 1))[0][0])
        if i in (0, self.size):  # else x[i - 1] < x <= x[i]
            return min(i, self.size - 1)
        lo, hi = self._slice(slice(i - 1, i + 1))[0]
        return i - 1 if x - lo <= hi - x else i

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        return (self.kind, self.size) == (other.kind, other.size) and all(
            np.array_equal(x, y) and np.array_equal(w, v)
            for (_, (x, w)), (_, (y, v)) in zip(_slices(self._slice, self.size), _slices(other._slice, other.size))
        )

    def __hash__(self):
        return hash((self.kind, self.size, *self._slice(slice(0, 1))[0], *self._slice(slice(-1, None))[0]))

    def __repr__(self) -> str:
        if self._rule is not None:
            a, b, _ = self._rule
            return f"Grid1D.uniform({a!r}, {b!r}, {self.size})"
        return f"Grid1D(points={self.points!r}, weights={self.weights!r}, kind={self.kind!r}, period={self.period!r})"


@dataclass(frozen=True, eq=False)
class SampledFunction(_FormedOnRead):
    """Samples of a function on a Grid1D, float64 or complex (_float_or_complex).

    SampledFunction(grid, values) stores its samples.  SampledFunction.of(grid,
    rule) keeps the rule instead and forms values, read-only, on first read;
    _slice reads either kind beside the grid's x and w, so a rule on a rule
    grid holds no array of the grid's length.  Sampled functions compare by
    identity.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    _rule = None
    _formed = {"values": 2}

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

    def _slice(self, part: slice) -> tuple:
        """(x, w, f) over the points in part, x and w as Grid1D._slice gives
        them and f the samples there: a view of stored (or already formed)
        values, or the rule's samples at x."""
        x, w = self.grid._slice(part)
        stored = vars(self).get("values")
        return x, w, _samples(self._rule(x), x.size) if stored is None else stored[part]

    def __mul__(self, scalar: complex) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def norm2(self) -> float:
        """L2 norm under the grid measure, summed a slice at a time."""
        slices = _slices(self._slice, self.grid.size)
        return float(np.sqrt(np.sum([np.sum(w * np.abs(f) ** 2) for _, (_, w, f) in slices])))


def _float_or_complex(values) -> np.ndarray:
    """values as an array, float64 kept and any other dtype made complex."""
    vals = np.asarray(values)
    return vals if vals.dtype == np.float64 else np.asarray(vals, dtype=complex)


def _samples(values, size: int) -> np.ndarray:
    """values as samples of size points (_float_or_complex), 1-D, size long and finite."""
    vals = _float_or_complex(values)
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
    vals[center] = 1.0 / grid._slice(slice(center, center + 1))[1][0]
    return SampledFunction(grid, vals)


def quad(f: SampledFunction) -> complex:
    """Quadrature integral sum_i w_i f_i, summed a slice at a time."""
    return complex(np.sum([np.sum(w * v) for _, (_, w, v) in _slices(f._slice, f.grid.size)]))


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """Weighted inner product <f, g> = sum_i w_i conj(f_i) g_i, summed a slice at a time."""
    _require_same_grid(f, g)
    n = f.grid.size
    pairs = zip(_slices(f._slice, n), _slices(g._slice, n))
    return complex(np.sum([np.sum(w * np.conj(u) * v) for (_, (_, w, u)), (_, (_, _, v)) in pairs]))


def _require_same_grid(f: SampledFunction, g: SampledFunction):
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("sampled functions live on different grids")
