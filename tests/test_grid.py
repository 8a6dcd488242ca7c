"""Grid construction, quadrature and sampled-function algebra."""

import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenkit import (
    Coefficients,
    EigenSystem,
    FreqResponse,
    Grid1D,
    Kernel,
    PhysicalConstants,
    RegularizedFamily,
    SampledFunction,
    SourceField,
    TimeWindow,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_well_basis,
    delta_ft_check,
    derivative_identity_residual,
    discrete_delta,
    em_kernel_closed_form,
    em_point_charge_field,
    field_from_source,
    free_kernel_closed_form,
    inner,
    inverse_transform_roundtrip,
    kernel_entry,
    momentum_response_relativistic,
    oscillator_kernel_closed_form,
    point_charge_potential,
    quad,
    regularized_ft,
    response_from_density,
    sokhotski_plemelj,
    spectral_density,
    step_factor_kernel,
    wave_pde_residual,
    wave_step_factor_kernel,
)
from greenkit.distlab import _SP_BLOCK
from greenkit.freqdomain import SpectralDensity
from greenkit.grid import _BLOCK, _UNIFORM_RTOL, _slices
from greenkit.spectra import _ModeTable
from greenkit.validation import _gaussian


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


@pytest.mark.parametrize(
    "points, weights, kind, match",
    [
        ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0], "uniform", "grid points and weights must be finite"),
        ([0.0, 1.0], [np.nan, 1.0], "open-interval", "grid points and weights must be finite"),
        ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0], "open-interval", "grid points and weights must be finite"),
        ([-np.inf, 0.0], [1.0, 1.0], "open-interval", "grid points and weights must be finite"),
        ([np.inf], [1.0], "open-interval", "grid points and weights must be finite"),
    ],
)
def test_grid_refuses_non_finite_points_and_weights(points, weights, kind, match):
    """An infinite step or weight is not a quadrature rule, though it is
    increasing and positive."""
    with pytest.raises(ValueError, match=match):
        Grid1D(np.array(points), np.array(weights), kind=kind)


@pytest.mark.parametrize("factory", [Grid1D.uniform, Grid1D.open_interval])
@pytest.mark.parametrize("a, b", [(-1e308, 1e308), (np.float64(-1.5e308), np.float64(0.5e308))])
def test_a_span_past_the_float_range_is_refused(factory, a, b):
    """b - a overflows: the range is refused, and named, before numpy warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"finite span b - a, not the range {a:g} to {b:g}")):
            factory(a, b, 5)


@pytest.mark.parametrize(
    "points, kind, match",
    [
        ([-1e308, 1e308], "open-interval", "span x_last - x_first of the points must be finite, not 1e+308 - -1e+308"),
        ([-1e308, 0.0, 1e308], "uniform", "span x_last - x_first of the points must be finite, not 1e+308 - -1e+308"),
        ([1e308, -1e308], "open-interval", "span x_last - x_first of the points must be finite, not -1e+308 - 1e+308"),
        ([0.0, 1e308, -1e308, 1.0], "open-interval", "points must be strictly increasing"),
    ],
    ids=["two-points", "uniform", "descending", "step-overflows"],
)
def test_stored_points_whose_span_overflows_are_refused(points, kind, match):
    """Finite points whose span x_last - x_first overflows are refused, and
    the span named, before numpy warns, not taken as a grid of spacing inf;
    a step that overflows inside a finite span is a descent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(match)):
            Grid1D(np.array(points), np.ones(len(points)), kind=kind)


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
    assert g.index_of(5.0) == 10


@pytest.mark.parametrize(
    "grid",
    [Grid1D.uniform(-1.0, 1.0, 101), Grid1D.periodic(40.0, 1025), Grid1D.open_interval(0.0, 1.0, 7),
     Grid1D(np.array([-2.0, -0.5, 0.25, 3.0]), np.ones(4), kind="open-interval")],
    ids=["uniform", "periodic", "open-interval", "uneven"],
)
def test_index_of_is_argmin_of_the_distance(grid):
    """The nearer bracketing point, the left one on a tie (midpoints), the
    end index outside the grid: what argmin |points - x| picks.  Far outside,
    where every |x_k - x| rounds to one value and argmin falls back to 0,
    the end index is still the nearer end."""
    x = grid.points
    rng = np.random.default_rng(3)
    probes = np.concatenate([x, (x[:-1] + x[1:]) / 2, rng.uniform(x[0] - 1, x[-1] + 1, 200)])
    assert [grid.index_of(p) for p in probes] == [int(np.argmin(np.abs(x - p))) for p in probes]
    assert (grid.index_of(-1e300), grid.index_of(1e300)) == (0, grid.size - 1)


def test_index_of_builds_no_points_on_a_rule_grid():
    g = Grid1D.uniform(-1.0, 1.0, 1_000_001)
    assert g.index_of(0.3) == 650_000
    assert g.index_of(-0.3) == 350_000
    assert "points" not in vars(g) and "weights" not in vars(g)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_index_of_refuses_a_non_finite_coordinate(x):
    with pytest.raises(ValueError, match="grid coordinate must be finite"):
        Grid1D.uniform(0.0, 1.0, 11).index_of(x)


def test_repr_shows_a_rule_or_the_arrays():
    assert repr(Grid1D.uniform(-1, 2.5, 8)) == "Grid1D.uniform(-1.0, 2.5, 8)"
    stored = "Grid1D(points=array([0., 1.]), weights=array([1., 1.]), kind='periodic', period=2.0)"
    assert repr(Grid1D.periodic(2.0, 2)) == stored


def test_discrete_delta_integrates_to_one_exactly():
    g = Grid1D.open_interval(0.0, 1.0, 7)
    d = discrete_delta(g, 3)
    assert quad(d) == 1.0 + 0.0j
    rule = Grid1D.uniform(-1.0, 1.0, 2 * _BLOCK + 1)
    assert quad(discrete_delta(rule, _BLOCK + 2)) == 1.0 + 0.0j
    assert "weights" not in vars(rule)  # one weight read, none formed


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


def _criterion_10_fill(grid):
    """exp(-x^2) as criterion 10 filled it before its samples became a rule:
    block by block into one array, in place."""
    gauss = np.empty(grid.size)
    for s, (x, _) in _slices(grid._slice, grid.size):
        seg = gauss[s:s + x.size]
        np.exp(np.negative(np.square(x, out=seg), out=seg), out=seg)
    return gauss


@pytest.mark.parametrize("n", [5, _BLOCK + 1, 2 * _BLOCK + 3])
def test_rule_samples_are_the_criterion_10_fill_bit_for_bit(n):
    grid = Grid1D.uniform(-20.0, 20.0, n)
    want = _criterion_10_fill(grid)
    f = SampledFunction.of(grid, _gaussian)
    sliced = [v for _, (*_, v) in _slices(f._slice, n, _SP_BLOCK)]
    assert "values" not in vars(f) and "points" not in vars(grid)
    assert all(v.dtype == np.float64 for v in sliced)
    assert np.concatenate(sliced).tobytes() == want.tobytes()
    assert f.values.tobytes() == want.tobytes()
    assert f.values.dtype == np.float64 and not f.values.flags.writeable
    assert "points" not in vars(grid)
    # once formed, the reader yields slices of the formed values
    assert all(v.base is f.values for _, (*_, v) in _slices(f._slice, n, _SP_BLOCK))


def test_rule_samples_follow_the_dtype_rule():
    grid = Grid1D.uniform(-1.0, 1.0, 9)
    f = SampledFunction.of(grid, lambda x: x.astype(np.float32))
    assert f.values.dtype == complex
    assert np.array_equal(f.values, grid.points)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_a_non_finite_rule_sample_raises_when_read(bad):
    grid = Grid1D.uniform(-1.0, 1.0, 2 * _BLOCK + 1)
    f = SampledFunction.of(grid, lambda x: np.where(x > 0.5, bad, x))
    first = next(_slices(f._slice, grid.size))  # x <= 0.5 throughout the first slice
    assert first[0] == 0
    with pytest.raises(ValueError, match="samples must be finite"):
        list(_slices(f._slice, grid.size))
    with pytest.raises(ValueError, match="samples must be finite"):
        f.values


def test_a_rule_gives_one_sample_per_point():
    f = SampledFunction.of(Grid1D.uniform(-1.0, 1.0, 9), lambda x: x[:-1])
    with pytest.raises(ValueError, match="value count must equal grid point count"):
        f.values


def test_quad_inner_norm2_read_a_rule_a_slice_at_a_time():
    """On criterion 10's 1.6M-point axis, a rule on a rule grid: each sum
    holds a slice or two, not the 12.8 MB of points, weights or samples, and
    forms none of them."""
    grid = Grid1D.uniform(-20.0, 20.0, 1600001)
    f = SampledFunction.of(grid, _gaussian)
    sums = {}
    for name, call in (("quad", lambda: quad(f)), ("norm2", f.norm2), ("inner", lambda: inner(f, f))):
        tracemalloc.start()
        try:
            sums[name] = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, name
    assert not {"points", "weights"} & set(vars(grid)) and "values" not in vars(f)
    assert abs(sums["quad"] - np.sqrt(np.pi)) < 1e-12
    assert abs(sums["inner"] - np.sqrt(np.pi / 2)) < 1e-12 and abs(sums["norm2"] ** 2 - sums["inner"]) < 1e-12


def test_one_slice_sums_are_the_whole_array_sums_bit_for_bit():
    """A grid of at most _BLOCK points is one slice, so its sums are the
    whole-array formulas, bit for bit."""
    rng = np.random.default_rng(5)
    grid = Grid1D.uniform(-3.0, 3.0, 513)
    f, g = (SampledFunction(grid, rng.normal(size=513) + 1j * rng.normal(size=513)) for _ in range(2))
    w = grid.weights
    assert quad(f) == complex(np.sum(w * f.values))
    assert inner(f, g) == complex(np.sum(w * np.conj(f.values) * g.values))
    assert f.norm2() == float(np.sqrt(np.sum(w * np.abs(f.values) ** 2)))


def _refusals():
    """(call, error, message) for refusals no other test reaches.  Grid1D's
    == leaves a non-grid to the other operand: its entry's error is None and
    its message the NotImplemented it returns."""
    basis = build_well_basis(1.0, 4)
    helmholtz = build_helmholtz_basis(2 * np.pi, 4)
    grid = Grid1D.uniform(-1.0, 1.0, 101)
    wave = Kernel(helmholtz, [-1.0, 0.0, 1.0], kind="retarded", order="second")
    return {
        "derivative grid": (
            lambda: derivative_identity_residual("arctan", 0.1, np.linspace(0.0, 0.01, 4)),
            ValueError, "need an increasing grid with at least five points",
        ),
        "zero function": (
            lambda: sokhotski_plemelj(SampledFunction(grid, np.zeros(101)), 0.1), ValueError, "zero function"
        ),
        "delta_ft_check family": (
            lambda: delta_ft_check(RegularizedFamily("step", "arctan", 0.1), [0.5]),
            ValueError, "delta_ft_check takes a delta family",
        ),
        "step factor": (
            lambda: step_factor_kernel(Kernel(basis, [0.0, 1.0], kind="retarded"), "retarded"),
            ValueError, "step factor applies to auxiliary kernels only",
        ),
        "density": (lambda: SpectralDensity([1.0, 2.0], [1.0]), ValueError, "omegas and weights must align"),
        "response": (
            lambda: FreqResponse(np.linspace(0.0, 1.0, 5), np.ones(4), ((1 - 0.1j, 1.0),)),
            ValueError, "one value per omega sample",
        ),
        "density order": (lambda: spectral_density(basis, 0, 0, order="third"), ValueError, "unknown order 'third'"),
        "grid arrays": (lambda: Grid1D(np.ones((2, 2)), np.ones(4)), ValueError, "points and weights must be 1-D"),
        "period": (lambda: Grid1D.periodic(0.0, 4), ValueError, "period must be positive and finite"),
        "wave step factor": (
            lambda: wave_step_factor_kernel(Kernel(basis, [0.0, 1.0]), "retarded"),
            ValueError, "needs a second-order auxiliary kernel",
        ),
        "source grid": (
            lambda: field_from_source(wave, SourceField(grid, [0.0], np.ones((1, 101))), [0.5]),
            ValueError, "source must live on the kernel grid",
        ),
        "wave residual": (
            lambda: wave_pde_residual(helmholtz, [0.0, 1.0]), ValueError, "need at least three time samples"
        ),
        "modes": (
            lambda: EigenSystem(basis.grid, np.ones(3), np.ones((3, 2)), PhysicalConstants(), "well"),
            ValueError, "mode count must equal energy count, sampled on the grid",
        ),
        "coefficients": (lambda: Coefficients(np.ones(3), basis), ValueError, "one coefficient per retained mode"),
        "grid kind": (
            lambda: build_oscillator_basis(n_max=2, grid_kind="chebyshev"), ValueError, "unknown grid_kind 'chebyshev'"
        ),
        "hook, Grid1D": (lambda: grid.spline, AttributeError, "'Grid1D' object has no attribute 'spline'"),
        "hook, FreqResponse": (
            lambda: FreqResponse([0.0, 1.0], None, ((1 - 0.1j, 1.0),)).spline,
            AttributeError, "'FreqResponse' object has no attribute 'spline'",
        ),
        "grid ==": (lambda: grid.__eq__(3), None, NotImplemented),
    }


@pytest.mark.parametrize("entry", sorted(_refusals()))
def test_each_refusal_names_its_rule(entry):
    call, error, message = _refusals()[entry]
    if error is None:
        assert call() is message
        return
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _number_entries():
    """Every entry that takes a number outside a checked type, each called
    with one bad number in place of a good one."""
    basis = build_well_basis(1.0, 8)
    resp = momentum_response_relativistic(1.0, np.linspace(-200.0, 200.0, 801), 0.5, "retarded")
    wave = Kernel(basis, [-2.0, 0.0, 2.0], kind="retarded", order="second")
    source = SourceField(basis.grid, [0.0, 0.5], np.ones((2, basis.grid.size)))
    return {
        "kernel_entry": lambda bad: kernel_entry(basis, 1, 1, bad),
        "inverse_transform_roundtrip": lambda bad: inverse_transform_roundtrip(resp, [bad, 1.0]),
        "point_charge_potential": lambda bad: point_charge_potential(1.0, 1.0, 0.5, bad, 1.0),
        "em_point_charge_field": lambda bad: em_point_charge_field(1.0, 1.0, 1.0, 0.5, [bad, 1.0]),
        "point_charge_potential q": lambda bad: point_charge_potential(bad, 1.0, 0.5, 1.0, 1.0),
        "em_point_charge_field q": lambda bad: em_point_charge_field(bad, 1.0, 1.0, 0.5, [1.0]),
        "field_from_source": lambda bad: field_from_source(wave, source, [bad, 1.0]),
        "em_kernel_closed_form": lambda bad: em_kernel_closed_form(1.0, bad),
        "regularized_ft": lambda bad: regularized_ft(RegularizedFamily("step", "arctan", 0.1), [bad]),
        "delta_ft_check": lambda bad: delta_ft_check(RegularizedFamily("delta", "arctan", 0.1), [0.5, bad]),
        "free_kernel_closed_form": lambda bad: free_kernel_closed_form(bad, 0.5),
        "oscillator_kernel_closed_form": lambda bad: oscillator_kernel_closed_form(0.1, 0.2, bad),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(_number_entries()))
def test_every_number_entry_refuses_non_finite_input(entry, bad):
    """A NaN or an infinity fails at the boundary with a ValueError, before
    numpy warns, divides by zero or returns a finite value that is wrong."""
    call = _number_entries()[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be"):
            call(bad)


def test_em_wave_speed_is_a_scale():
    with pytest.raises(ValueError, match="wave speed must be positive"):
        em_kernel_closed_form(1.0, 0.0)


def _trapezoid(a, b, n):
    h = (b - a) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


@pytest.mark.parametrize(
    "a, b, n, has_zero",
    [
        (0.0, 1.0, 2, True),
        (-1.0, 3.0, _BLOCK + 1, True),  # h = 2^-12, so x_4096 = 0 exactly
        (-1.0, 3.0, _BLOCK - 1, False),
        (-0.3, 7.1, _SP_BLOCK - 1, False),
        (-1.0, 1.0, _SP_BLOCK + 1, True),
        (-20.0, 20.0, 3 * _BLOCK + 8, False),
    ],
)
def test_rule_grid_is_linspace_bit_for_bit(a, b, n, has_zero):
    g = Grid1D.uniform(a, b, n)
    assert "points" not in vars(g) and "weights" not in vars(g)  # kept as its rule
    assert g.points.tobytes() == np.linspace(a, b, n).tobytes()
    assert g.weights.tobytes() == _trapezoid(a, b, n).tobytes()
    assert bool(np.any(g.points == 0.0)) == has_zero
    assert not g.points.flags.writeable and not g.weights.flags.writeable
    assert g.spacing == (b - a) / (n - 1)
    # every slice the reader makes is the same slice of the built arrays
    for start, stop in ((0, n), (1, n), (0, n - 1), (n - 1, n), (0, 1), (-1, None)):
        x, w = g._slice(slice(start, stop))
        assert x.tobytes() == g.points[start:stop].tobytes() and w.tobytes() == g.weights[start:stop].tobytes()
    for size in (_BLOCK, 7, _SP_BLOCK):
        pieces = list(_slices(g._slice, n, size))
        assert [s for s, _ in pieces] == list(range(0, n, size))
        assert np.concatenate([x for _, (x, _) in pieces]).tobytes() == g.points.tobytes()
        assert np.concatenate([w for _, (_, w) in pieces]).tobytes() == g.weights.tobytes()


@pytest.mark.parametrize(
    "args, match",
    [
        ((1.0, 0.0, 5), "need finite b > a"),
        ((0.0, np.inf, 5), "need finite b > a"),
        ((0.0, 1.0, 1), "need at least two grid points"),
        # the spacing 4/99 is below the ulp of 1e16, so points repeat
        ((1e16, 1e16 + 4, 100), "points must be strictly increasing"),
    ],
)
def test_rule_grid_rejects_bad_input(args, match):
    with pytest.raises(ValueError, match=match):
        Grid1D.uniform(*args)


def test_rule_grid_equals_the_stored_grid_of_its_arrays():
    a, b, n = -2.0, 5.0, 2 * _BLOCK + 3
    rule, twin = Grid1D.uniform(a, b, n), Grid1D.uniform(a, b, n)
    stored = Grid1D(np.linspace(a, b, n), _trapezoid(a, b, n))
    assert rule == twin and rule == stored and stored == rule
    assert hash(rule) == hash(twin) == hash(stored)
    assert "points" not in vars(rule) and "weights" not in vars(rule)  # == and hash build nothing
    other = stored.weights.copy()
    other[n // 2] *= 1 + 1e-15
    assert rule != Grid1D(stored.points, other)
    assert rule != Grid1D.uniform(a, b, n + 1) and rule != Grid1D.uniform(a, np.nextafter(b, 9.0), n)
    assert rule != Grid1D(stored.points, stored.weights, kind="open-interval")


def _verdict(make):
    """A grid's spacing, or the message it is refused with."""
    try:
        return make().spacing
    except ValueError as err:
        return str(err)


@st.composite
def _steps_near_the_ulp(draw):
    """(a, b, n) whose step is within a factor of 4 of 8 eps max(|a|, |b|)."""
    a = draw(st.sampled_from([-1.0, 1.0])) * 10 ** draw(st.floats(-3.0, 17.0))
    n = draw(st.integers(2, 200))
    h = 2 ** draw(st.floats(-2.0, 2.0)) * 8 * np.finfo(float).eps * abs(a)
    return a, a + (n - 1) * h, n


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_steps_near_the_ulp())
@example((1e16, 1e16 + 4, 100))  # a step below the ulp of the ends: points repeat
@example((0.0, 3 * 5e-324, 3))  # a subnormal step above 8 eps M, unevenly rounded
def test_a_rule_grid_gets_its_stored_twins_verdict(args):
    """Whether the rule decides the checks or the slices are walked, a rule
    grid is accepted or refused as the stored grid of its arrays is, with the
    same message, and takes the same spacing."""
    a, b, n = args
    rule = _verdict(lambda: Grid1D.uniform(a, b, n))
    assert rule == _verdict(lambda: Grid1D(np.linspace(a, b, n), _trapezoid(a, b, n)))
    h = (b - a) / (n - 1)
    if h >= np.finfo(float).tiny and h > 8 * np.finfo(float).eps * max(abs(a), abs(b)):
        assert rule == h  # the rule's grids are accepted


def test_a_rule_proves_criterion_10s_grid_unread(monkeypatch):
    reads = []
    read = Grid1D._slice
    monkeypatch.setattr(Grid1D, "_slice", lambda self, part: reads.append(part) or read(self, part))
    g = Grid1D.uniform(-20.0, 20.0, 1_600_001)
    assert reads == [] and "points" not in vars(g) and "weights" not in vars(g)
    assert g.spacing == 40.0 / 1_600_000
    # a step below the ulp of the ends is walked, and refused
    with pytest.raises(ValueError, match="strictly increasing"):
        Grid1D.uniform(1e16, 1e16 + 4, 100)
    assert reads


def test_grids_are_immutable():
    for g in (Grid1D.uniform(0.0, 1.0, 5), Grid1D.periodic(1.0, 4)):
        with pytest.raises(FrozenInstanceError):
            g.kind = "open-interval"
        with pytest.raises(FrozenInstanceError):
            del g.spacing


def _value_types():
    grid = Grid1D.uniform(-1.0, 1.0, 5)
    basis = build_well_basis(1.0, 4)
    return {
        "TimeWindow": lambda: TimeWindow(np.array([0.0, 1.0])),
        "SourceField": lambda: SourceField(grid, np.array([0.0, 1.0]), np.ones((2, 5))),
        "Kernel": lambda: Kernel(basis, np.array([0.0, 0.5])),
        "SampledFunction": lambda: SampledFunction(grid, np.ones(5)),
        "SampledFunction.of": lambda: SampledFunction.of(grid, np.cos),
        "Coefficients": lambda: Coefficients(np.ones(4), basis),
        "SpectralDensity": lambda: SpectralDensity(np.array([1.0, 2.0]), np.array([1.0, -1.0])),
        "FreqResponse": lambda: response_from_density(
            SpectralDensity(np.array([1.0]), np.array([1.0])), np.linspace(0.0, 2.0, 5), 0.1, "retarded"
        ),
        "_ModeTable": lambda: _ModeTable(np.ones(4), np.arange(4), np.arange(2), 1.0),
    }


@pytest.mark.parametrize("name", sorted(_value_types()))
def test_array_holding_types_compare_by_identity(name):
    make = _value_types()[name]
    x, twin = make(), make()
    assert x == x
    assert (x == twin) is False  # equal content, another object: no elementwise array truth value
    assert hash(x) == hash(x)
