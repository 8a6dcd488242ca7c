"""Regularized step/delta families: derivatives, splits, transforms, moments."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import exp1

import greenkit
from greenkit import (
    Grid1D,
    RegularizedFamily,
    SampledFunction,
    delta_ft_check,
    derivative_identity_residual,
    family_eval,
    moment_report,
    regularized_ft,
    sokhotski_plemelj,
)
from greenkit.distlab import _SP_BLOCK
from greenkit.grid import _slices
from greenkit.validation import criterion_10_appendix

FLAVORS = ("arctan", "exponential", "linear")
C10_K = np.concatenate([-np.geomspace(0.1, 10.0, 13), np.geomspace(0.1, 10.0, 13)])
DISTCHECK_K = np.concatenate([-np.geomspace(0.1, 10.0, 7), np.geomspace(0.1, 10.0, 7)])


# Quadrature references: the scipy evaluation the closed forms replaced, kept
# to test them against (one Python float at a time, so slow but independent).


def _complex_quad(func, lo, hi, k, oscillatory, points=None, **kw):
    """int func(x) e^{i k x} dx via cos/sin-weighted quadrature."""
    kw.setdefault("limit", 800)
    if oscillatory and k != 0:
        epsabs = kw.get("epsabs", 1.49e-8)
        re = quad(func, lo, hi, weight="cos", wvar=k, limit=kw["limit"], epsabs=epsabs)[0]
        im = quad(func, lo, hi, weight="sin", wvar=k, limit=kw["limit"], epsabs=epsabs)[0]
    else:
        if points is not None:
            points = [p for p in points if lo < p < hi]
            kw["points"] = points or None
        re = quad(lambda x: func(x) * math.cos(k * x), lo, hi, **kw)[0]
        im = quad(lambda x: func(x) * math.sin(k * x), lo, hi, **kw)[0]
    return re + 1j * im


def _lorentzian_half_ft(eta, s, continued=False):
    """int_0^inf e^{-s x} (eta/pi) / (eta^2 + x^2) dx by partial fractions.

    Uses int_0^inf e^{-s x}/(x + a) dx = e^{s a} E1(s a); the anti-damped
    half-line (Re s < 0) takes the analytic continuation, whose i*eta pole
    term crosses E1's branch cut, hence the -2*pi*i sheet correction.
    """
    a, b = -1j * s * eta, 1j * s * eta
    e1b = exp1(b) - (2j * np.pi if continued else 0.0)
    return complex((np.exp(a) * exp1(a) - np.exp(b) * e1b) / (2j * np.pi))


def _quad_delta_ft(flavor, eta, etap, k):
    """D(k) = int e^{(ik - eta') x} delta_eta(x) dx for one k by quadrature
    (box, exponential) or the E1 form (Lorentzian)."""
    if k < 0:
        return np.conj(_quad_delta_ft(flavor, eta, etap, -k))
    fam = RegularizedFamily("delta", flavor, eta)

    def damped(x):
        return family_eval(fam, x) * math.exp(-etap * x)

    kw = {"limit": 800, "epsabs": 1e-11, "epsrel": 1e-11}
    hints = [eta / 10, eta, 10 * eta, 100 * eta]
    if flavor == "linear":
        return _complex_quad(damped, -eta / 2, eta / 2, k, oscillatory=k * eta > 20,
                             points=[-eta / 2, eta / 2], **kw)
    if flavor == "arctan":
        return _lorentzian_half_ft(eta, etap - 1j * k) + _lorentzian_half_ft(eta, 1j * k - etap, continued=True)
    x_pos = 70 * eta
    x_neg = 70.0 / (1.0 / eta - etap)
    up = _complex_quad(damped, 0.0, x_pos, k, oscillatory=abs(k) * x_pos > 20, points=hints, **kw)
    down = np.conj(_complex_quad(lambda x: damped(-x), 0.0, x_neg, k, oscillatory=abs(k) * x_neg > 20,
                                 points=hints, **kw))
    return complex(up + down)


def _quad_moments(family, orders):
    """Quadrature moments on a truncated domain; a moment that keeps growing
    when the domain doubles is reported as math.inf."""
    eta = family.eta
    half = {"arctan": 1e7 * eta, "exponential": 60 * eta, "linear": eta / 2}[family.flavor]

    def moment(n, h):
        if family.flavor == "linear":
            pts = [-eta / 2, eta / 2]
        else:
            pts = [p for s in (-1, 1) for p in (s * eta, s * 10 * eta, s * 100 * eta) if abs(p) < h]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(lambda x: x**n * family_eval(family, x), -h, h, points=sorted(pts), limit=800)[0]

    out = []
    for n in orders:
        m1, m2 = moment(n, half), moment(n, 2 * half)
        scale = max(abs(m1), eta ** max(n, 1) * 1e-12, 1e-300)
        grows = abs(m2) > 1.5 * scale and abs(m2 - m1) > 0.25 * abs(m2)
        out.append(math.inf if grows else float(m2))
    return out


def test_family_validation():
    with pytest.raises(ValueError, match="kind"):
        RegularizedFamily("ramp", "arctan", 0.1)
    with pytest.raises(ValueError, match="flavor"):
        RegularizedFamily("step", "gaussian", 0.1)
    for eta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            RegularizedFamily("step", "arctan", eta)
        # the families are checked before the grid is compared with eta
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            derivative_identity_residual("exponential", eta, np.linspace(-1.0, 1.0, 101))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_step_families_interpolate_the_jump(flavor):
    fam = RegularizedFamily("step", flavor, 0.01)
    assert family_eval(fam, 0.0) == 0.5
    # arctan tails decay only like eta / (pi x); the others are exponential/compact
    tail = 0.01 if flavor == "arctan" else 1e-4
    assert family_eval(fam, -1.0) < tail
    assert family_eval(fam, 1.0) > 1 - tail
    x = np.linspace(-1.0, 1.0, 101)
    vals = family_eval(fam, x)
    assert np.all(np.diff(vals) >= 0)


def test_box_delta_takes_half_value_on_edges():
    fam = RegularizedFamily("delta", "linear", 0.2)
    assert family_eval(fam, 0.1) == 2.5
    assert family_eval(fam, 0.0) == 5.0
    assert family_eval(fam, 0.11) == 0.0


@pytest.mark.parametrize("flavor", FLAVORS)
def test_derivative_identity(flavor):
    eta = 0.05
    x = np.linspace(-1.0, 1.0, 4001)
    rep = derivative_identity_residual(flavor, eta, x)
    # the step's own derivative, taken without the delta's formulas, meets
    # the delta at round-off (the piecewise-linear ramp's slope exactly)
    if flavor == "linear":
        assert rep["analytic_residual"] == 0.0
    else:
        assert 0.0 < rep["analytic_residual"] < 1e-12
    assert rep["fd_residual"] < 1e-2 / eta
    assert 0.9 * eta < rep["correction_term"] <= eta


@pytest.mark.parametrize("flavor", FLAVORS)
def test_derivative_identity_catches_a_wrong_delta(flavor, monkeypatch):
    # a delta one part in 1e9 too wide is no longer the step's derivative
    right = greenkit.distlab._delta_value
    monkeypatch.setattr(greenkit.distlab, "_delta_value", lambda fl, eta, x: right(fl, eta * (1 + 1e-9), x))
    rep = derivative_identity_residual(flavor, 0.1, np.linspace(-2.0, 2.0, 2001))
    assert rep["analytic_residual"] > 1e-12
    # and criterion 10 fails on its derivative check
    (c10,) = greenkit.run_acceptance(only="10")
    assert not c10.passed
    assert c10.tolerance == 1e-12 and c10.value > 1e-12


def test_derivative_identity_needs_resolving_grid():
    with pytest.raises(ValueError, match="spacing"):
        derivative_identity_residual("arctan", 1e-3, np.linspace(-1.0, 1.0, 101))


def test_sokhotski_plemelj_split():
    eta = 1e-3
    grid = Grid1D.uniform(-20.0, 20.0, 400001)
    f = SampledFunction(grid, np.exp(-grid.points**2))
    res = sokhotski_plemelj(f, eta)
    assert np.isclose(res.delta_part, -1j * np.pi)
    # Gaussian is even: the principal part vanishes
    assert abs(res.principal) < 1e-6
    # residual is the finite-eta offset, proportional to eta
    assert res.residual < 5 * np.sqrt(np.pi) * eta


def _principal_loop(f, eta):
    """Per-element reference for the principal part: boolean masks over the
    full grid, excluding the index window around the origin and x = 0."""
    x, w, v = f.grid.points, f.grid.weights, f.values
    i0 = int(np.argmin(np.abs(x)))
    n1 = max(5, int(np.ceil(eta / (10 * f.grid.spacing))))

    def pv(n_excl):
        keep = np.abs(np.arange(x.size) - i0) >= n_excl
        keep &= x != 0.0
        return complex(np.sum(w[keep] * v[keep] / x[keep]))

    return (4 * pv(n1) - pv(2 * n1)) / 3


def _block_straddling_grid():
    h, i0, size = 2.0**-11, _SP_BLOCK - 2, 2 * _SP_BLOCK + 777
    return Grid1D.uniform(-i0 * h, (size - 1 - i0) * h, size)


@pytest.mark.parametrize(
    "grid, center, eta, has_zero",
    [
        (Grid1D.uniform(-16.0, 16.0, 2**16 + 1), 0.3, 1e-3, True),  # spacing 2^-11
        (Grid1D.uniform(-16.0, 16.0, 2**16), 0.3, 1e-3, False),
        # the exclusion window runs past the left end of the grid
        (Grid1D.uniform(-0.01, 19.99, 2001), 5.0, 1.0, True),
        # a complex center makes f complex, e^{1/4} e^{-4(x-0.3)^2} e^{2i(x-0.3)},
        # so a sign or conjugation slip between the real and imaginary parts shows
        (Grid1D.uniform(-16.0, 16.0, 2**16 + 1), 0.3 + 0.25j, 1e-3, True),
        # 2 blocks and 777 points, the origin two points before the first
        # block boundary, so both exclusion windows straddle that boundary
        (_block_straddling_grid(), 0.3, 1e-3, True),
        # the exclusion window runs past the right end of the grid
        (Grid1D.uniform(-19.99, 0.01, 2001), -5.0, 1.0, False),
        # shorter than one block
        (Grid1D.uniform(-4.0, 4.0, 4097), 0.3, 1e-2, True),
        # complex samples whose imaginary part is exactly 0: the complex path
        # must agree with the real one on the same values
        (Grid1D.uniform(-16.0, 16.0, 2**16 + 1), 0.3 + 0j, 1e-3, True),
    ],
)
def test_principal_part_matches_masked_loop(grid, center, eta, has_zero):
    assert bool(np.any(grid.points == 0.0)) == has_zero
    f = SampledFunction(grid, np.exp(-4 * (grid.points - center) ** 2))
    res = sokhotski_plemelj(f, eta)
    ref = _principal_loop(f, eta)
    assert abs(res.principal - ref) <= 1e-12 * abs(ref)
    x, w, v = grid.points, grid.weights, f.values
    direct = np.sum(w * v / (x + 1j * eta))
    assert abs(res.full_integral - direct) <= 1e-12 * abs(direct)
    if v.dtype == complex and not v.imag.any():
        # the real path takes one dot per block, the complex one a dot over
        # (Re, Im) pairs: the same terms summed in another order, so they
        # agree to the round-off of the principal part's cancelling sum
        # (1.4e-14 relative here), not bit for bit
        real = sokhotski_plemelj(SampledFunction(grid, v.real.copy()), eta)
        assert real.delta_part == res.delta_part
        for got, want in ((real.principal, res.principal), (real.full_integral, res.full_integral)):
            assert abs(got - want) <= 1e-13 * abs(want)


def test_sokhotski_plemelj_holds_no_grid_length_temporary():
    grid = Grid1D.uniform(-20.0, 20.0, 400001)
    f = SampledFunction(grid, np.exp(-grid.points**2))
    tracemalloc.start()
    try:
        sokhotski_plemelj(f, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.points.nbytes / 8


def test_sokhotski_plemelj_never_builds_a_rule_grid():
    grid = Grid1D.uniform(-20.0, 20.0, 1600001)
    gauss = np.empty(grid.size)
    for s, (x, _) in _slices(grid._slice, grid.size):
        gauss[s:s + x.size] = np.exp(-x * x)
    res = sokhotski_plemelj(SampledFunction(grid, gauss), 1e-4)
    assert abs(res.full_integral.imag + np.pi) < 1e-3  # criterion 10's check
    assert "points" not in vars(grid) and "weights" not in vars(grid)


@pytest.mark.parametrize(
    "rule",
    [
        pytest.param(lambda x: np.exp(-x * x), id="real"),
        pytest.param(lambda x: np.exp(-4 * (x - 0.3 - 0.25j) ** 2), id="complex"),
    ],
)
def test_sokhotski_plemelj_reads_a_rule_as_its_samples(rule):
    """The same samples, stored or kept as their rule, give the same result
    bit for bit: the reader's blocks are the same either way."""
    grid = Grid1D.uniform(-16.0, 16.0, 2 * _SP_BLOCK + 777)
    stored = SampledFunction(grid, rule(grid.points))
    kept = SampledFunction.of(Grid1D.uniform(-16.0, 16.0, grid.size), rule)
    assert sokhotski_plemelj(kept, 1e-3) == sokhotski_plemelj(stored, 1e-3)
    assert "values" not in vars(kept) and "points" not in vars(kept.grid)


def test_criterion_10_peaks_at_its_fixture():
    # criterion 10's Gaussian on 1.6M points, the grid and the samples both
    # kept as rules: the criterion holds blocks, not an eighth of the 12.8 MB
    # its real samples would take
    size = 1600001
    fixture = size * 8
    tracemalloc.start()
    try:
        assert criterion_10_appendix().passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fixture / 8


def test_import_greenkit_defers_scipy():
    src = os.path.dirname(os.path.dirname(greenkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, greenkit; greenkit.run_acceptance(only='distlab'); "
        "loaded = [m for m in sys.modules if m.startswith('scipy')]; assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_sokhotski_plemelj_input_checks():
    grid = Grid1D.uniform(-1.0, 1.0, 1001)
    f = SampledFunction(grid, np.exp(-grid.points**2))
    with pytest.raises(ValueError, match="decayed"):
        sokhotski_plemelj(f, 1e-3)
    off_grid = Grid1D.uniform(1.0, 2.0, 101)
    g = SampledFunction(off_grid, np.exp(-((off_grid.points - 1.5) ** 2) * 200))
    with pytest.raises(ValueError, match="straddle"):
        sokhotski_plemelj(g, 1e-3)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_step_transform_deviation_is_order_eta(flavor):
    eta = 1e-2
    fam = RegularizedFamily("step", flavor, eta)
    k = np.array([-2.0, -0.5, 0.5, 2.0])
    rep = regularized_ft(fam, k)
    assert rep["max_deviation"] < 1.05 * eta


def test_step_transform_rejects_zero_k_and_delta_kind():
    fam = RegularizedFamily("step", "arctan", 1e-2)
    with pytest.raises(ValueError, match="k = 0"):
        regularized_ft(fam, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="step family"):
        regularized_ft(RegularizedFamily("delta", "arctan", 1e-2), np.array([1.0]))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_delta_transform_near_unity(flavor):
    eta = 1e-2
    fam = RegularizedFamily("delta", flavor, eta)
    rep = delta_ft_check(fam, np.linspace(-8.0, 8.0, 9))
    assert np.all(np.abs(rep["k"]) <= 1.0 / (10 * eta))
    assert rep["max_deviation"] < 0.1


def test_delta_transform_requires_in_range_k():
    fam = RegularizedFamily("delta", "arctan", 1e-2)
    with pytest.raises(ValueError, match="no k samples"):
        delta_ft_check(fam, np.array([1e4]))


def test_exponential_damping_must_stay_below_decay_rate():
    # the damping is eta itself, so eta >= 1 reaches the guard eta < 1/eta;
    # k = 0.05 sits inside delta_ft_check's |k| <= 1/(10 eta)
    for eta in (1.0, 2.0):
        with pytest.raises(ValueError, match="decay rate"):
            delta_ft_check(RegularizedFamily("delta", "exponential", eta), np.array([0.05]))
        with pytest.raises(ValueError, match="decay rate"):
            regularized_ft(RegularizedFamily("step", "exponential", eta), np.array([0.05]))


def _transform_cases():
    cases = [(1e-3, C10_K)]  # criterion 10's step grid
    for eta in (1e-3, 0.05, 0.3):  # distcheck's step and delta grids
        cases += [(eta, DISTCHECK_K), (eta, np.linspace(0.0, 1.0 / (10 * eta), 9))]
    return cases


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("eta, k", _transform_cases())
def test_closed_form_transforms_match_quadrature(flavor, eta, k):
    ref = np.array([_quad_delta_ft(flavor, eta, eta, kk) for kk in k])
    # the E1 form overflows to nan once eta |k| approaches 700; these grids stay below
    assert np.all(np.isfinite(ref))
    if np.all(np.abs(k) <= 1 / (10 * eta)):
        got = delta_ft_check(RegularizedFamily("delta", flavor, eta), k)["transform"]
        assert np.max(np.abs(got - ref)) <= 1e-14
    if np.all(k != 0):
        step = regularized_ft(RegularizedFamily("step", flavor, eta), k)["transform"]
        assert np.max(np.abs(step - 1j / (k + 1j * eta) * ref)) <= 1e-14


def test_lorentzian_transform_is_finite_where_e1_overflows():
    eta = 1.0
    k = np.array([705.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = regularized_ft(RegularizedFamily("step", "arctan", eta), k)["transform"]
    assert np.all(np.isfinite(vals))
    expected = 1j * np.exp(-eta * (k + 1j * eta)) / (k + 1j * eta)
    assert np.allclose(vals, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("eta", np.geomspace(1e-4, 1.0, 5))
def test_arctan_step_deviation_is_below_eta(eta):
    # criterion 10(b): the deviation is |1 - e^{-z}| / |k + i eta| with
    # z = eta (|k| + i eta), which is below |z| / |k + i eta| = eta
    k = np.concatenate([-np.geomspace(0.1, 100.0, 16), np.geomspace(0.1, 100.0, 16)])
    rep = regularized_ft(RegularizedFamily("step", "arctan", eta), k)
    dev = np.abs(rep["transform"] - rep["reference"])
    z = eta * (np.abs(k) + 1j * eta)
    assert np.allclose(dev, np.abs(np.expm1(-z)) / np.abs(k + 1j * eta), rtol=1e-9, atol=0)
    assert np.all(dev < eta)


def test_moments_linear_and_exponential():
    eta = 0.3
    m_lin = moment_report(RegularizedFamily("delta", "linear", eta))
    assert abs(m_lin[0] - 1.0) < 1e-9
    assert abs(m_lin[1]) < 1e-12
    assert np.isclose(m_lin[2], eta**2 / 12)
    m_exp = moment_report(RegularizedFamily("delta", "exponential", eta))
    assert abs(m_exp[0] - 1.0) < 1e-9
    assert np.isclose(m_exp[2], 2 * eta**2)
    assert np.isclose(m_exp[4], 24 * eta**4)


def test_moments_flag_divergent_lorentzian_orders():
    m = moment_report(RegularizedFamily("delta", "arctan", 0.3))
    assert abs(m[0] - 1.0) < 1e-6
    assert abs(m[1]) < 1e-6
    assert m[2] == math.inf
    assert m[4] == math.inf


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("eta", [0.05, 0.3])
def test_closed_form_moments_match_quadrature(flavor, eta):
    family = RegularizedFamily("delta", flavor, eta)
    got = moment_report(family, orders=range(5))
    ref = _quad_moments(family, range(5))
    for g, r in zip(got, ref):
        if r == math.inf:
            assert g == math.inf
        else:
            assert abs(g - r) <= 1e-12


def test_moments_require_delta_family():
    with pytest.raises(ValueError, match="delta"):
        moment_report(RegularizedFamily("step", "linear", 0.1))
