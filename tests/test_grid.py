"""Grid construction, quadrature and sampled-function algebra."""

import numpy as np
import pytest

from greenkit import Grid1D, SampledFunction, discrete_delta, inner, quad
from greenkit.grid import _UNIFORM_RTOL


def test_uniform_weights_sum_to_interval_length():
    g = Grid1D.uniform(-1.0, 3.0, 41)
    assert g.size == 41
    assert g.weights[0] == g.weights[-1] == g.weights[1] / 2
    assert np.isclose(g.weights.sum(), 4.0)


def test_open_interval_excludes_endpoints():
    g = Grid1D.open_interval(0.0, 1.0, 9)
    assert g.points[0] > 0.0 and g.points[-1] < 1.0
    assert np.allclose(g.weights, 0.1)
    assert np.isclose(g.weights.sum(), 0.9)


def test_periodic_weights_and_period():
    g = Grid1D.periodic(2.0, 8)
    assert g.period == 2.0
    assert np.allclose(g.weights, 0.25)
    assert g.points[-1] < 2.0  # fundamental cell is half-open


def test_periodic_requires_period():
    pts = np.arange(4.0)
    with pytest.raises(ValueError, match="period"):
        Grid1D(pts, np.ones(4), kind="periodic")


@pytest.mark.parametrize(
    "points, weights, match",
    [
        (np.array([0.0, 1.0, 0.5]), np.ones(3), "increasing"),
        (np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 1.0]), "positive"),
        (np.array([0.0, 1.0, 2.0]), np.ones(2), "count"),
        (np.array([0.0]), np.ones(1), "two grid points"),
    ],
)
def test_grid_validation_errors(points, weights, match):
    with pytest.raises(ValueError, match=match):
        Grid1D(points, weights)


@pytest.mark.parametrize("n", [-1, 0, 1])
@pytest.mark.parametrize(
    "make, least",
    [
        (lambda n: Grid1D.uniform(0.0, 1.0, n), "two grid points"),
        (lambda n: Grid1D.open_interval(0.0, 1.0, n), "one grid point"),
        (lambda n: Grid1D.periodic(1.0, n), "two grid points"),
    ],
    ids=["uniform", "open-interval", "periodic"],
)
def test_factories_check_the_size_before_dividing(make, least, n):
    if least == "one grid point" and n == 1:  # one interior point is a valid open interval
        assert make(n).size == 1
        return
    with pytest.raises(ValueError, match=f"need at least {least}"):
        make(n)


def test_one_point_open_interval_grid():
    g = Grid1D.open_interval(0.0, 1.0, 1)
    assert np.array_equal(g.points, [0.5]) and np.array_equal(g.weights, [0.5])
    assert g.spacing == 0.5  # the point's cell
    assert Grid1D(np.array([0.0]), np.ones(1), kind="open-interval").size == 1
    for kind in ("uniform", "periodic"):
        with pytest.raises(ValueError, match="two grid points"):
            Grid1D(np.array([0.0]), np.ones(1), kind=kind, period=1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        Grid1D(np.arange(3.0), np.ones(3), kind="chebyshev")


def test_uniform_kind_rejects_uneven_spacing():
    pts = np.array([0.0, 1.0, 2.5])
    with pytest.raises(ValueError, match="evenly spaced"):
        Grid1D(pts, np.ones(3), kind="uniform")


@pytest.mark.parametrize("end", [0, -1])
@pytest.mark.parametrize("factor, accepted", [(0.95, True), (1.05, False)])
def test_uniformity_tolerance_edge(end, factor, accepted):
    # k/64 is exact, so the spacings and their mean are exact.  Moving the
    # first point right by delta shrinks dx[0] (the min side); moving the
    # last one right grows dx[-1] (the max side).  Either way max|dx - h| is
    # delta * 63/64, up to the rounding of the moved point (under 1 %)
    pts = np.arange(65) / 64
    tol = _UNIFORM_RTOL / 64 + 8 * np.finfo(float).eps
    pts[end] += factor * tol * 64 / 63
    if accepted:
        assert Grid1D(pts, np.full(65, 1 / 64)).size == 65
    else:
        with pytest.raises(ValueError, match="evenly spaced"):
            Grid1D(pts, np.full(65, 1 / 64))


def test_large_linspace_passes_uniformity_check():
    # successive differences of a wide linspace jitter at the coordinate ulp
    g = Grid1D.uniform(-20.0, 20.0, 400001)
    assert g.size == 400001


def test_spacing_property():
    g = Grid1D.uniform(0.0, 1.0, 11)
    assert np.isclose(g.spacing, 0.1)
    assert g.spacing == float(np.diff(g.points).mean())
    assert "spacing" in vars(g)  # computed once, then kept


def test_index_of():
    g = Grid1D.uniform(0.0, 1.0, 11)
    assert g.index_of(0.32) == 3
    assert g.index_of(-5.0) == 0


def test_discrete_delta_integrates_to_one_exactly():
    g = Grid1D.open_interval(0.0, 1.0, 7)
    d = discrete_delta(g, 3)
    assert quad(d) == 1.0 + 0.0j


def test_discrete_delta_range_check():
    g = Grid1D.uniform(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="range"):
        discrete_delta(g, 5)


def test_inner_product_conjugates_first_argument():
    g = Grid1D.uniform(-1.0, 1.0, 101)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.normal(size=101) + 1j * rng.normal(size=101))
    h = SampledFunction(g, rng.normal(size=101) + 1j * rng.normal(size=101))
    assert np.isclose(inner(f, h), np.conj(inner(h, f)))
    assert np.isclose(inner(f, f).imag, 0.0)
    assert np.isclose(np.sqrt(inner(f, f).real), f.norm2())


def test_sampled_function_arithmetic():
    g = Grid1D.uniform(0.0, 1.0, 5)
    f = SampledFunction(g, np.ones(5))
    assert np.allclose((f * 2j).values, 2j)
    assert np.allclose((2j * f).values, 2j)


def test_sampled_function_grid_mismatch():
    f = SampledFunction(Grid1D.uniform(0.0, 1.0, 5), np.ones(5))
    h = SampledFunction(Grid1D.uniform(0.0, 2.0, 5), np.ones(5))
    with pytest.raises(ValueError, match="different grids"):
        inner(f, h)


def test_sampled_function_rejects_nonfinite():
    g = Grid1D.uniform(0.0, 1.0, 5)
    for bad in (np.nan, np.inf, complex(np.nan, 0.0), complex(1.0, np.inf)):
        vals = np.ones(5, dtype=type(bad))
        vals[2] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            SampledFunction(g, vals)
