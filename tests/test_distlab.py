"""Regularized step/delta families: derivatives, splits, transforms, moments."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

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

FLAVORS = ("arctan", "exponential", "linear")


def test_family_validation():
    with pytest.raises(ValueError, match="kind"):
        RegularizedFamily("ramp", "arctan", 0.1)
    with pytest.raises(ValueError, match="flavor"):
        RegularizedFamily("step", "gaussian", 0.1)
    with pytest.raises(ValueError, match="eta"):
        RegularizedFamily("step", "arctan", 0.0)
    with pytest.raises(ValueError, match="straddle"):
        RegularizedFamily("step", "arctan", 0.1, domain=(1.0, 2.0))


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
    assert rep["analytic_residual"] == 0.0
    assert rep["fd_residual"] < 1e-2 / eta
    assert 0.9 * eta < rep["correction_term"] <= eta


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


@pytest.mark.parametrize(
    "grid, center, eta, has_zero",
    [
        (Grid1D.uniform(-16.0, 16.0, 2**16 + 1), 0.3, 1e-3, True),  # spacing 2^-11
        (Grid1D.uniform(-16.0, 16.0, 2**16), 0.3, 1e-3, False),
        # the exclusion window runs past the left end of the grid
        (Grid1D.uniform(-0.01, 19.99, 2001), 5.0, 1.0, True),
    ],
)
def test_principal_part_matches_masked_loop(grid, center, eta, has_zero):
    assert bool(np.any(grid.points == 0.0)) == has_zero
    f = SampledFunction(grid, np.exp(-4 * (grid.points - center) ** 2))
    res = sokhotski_plemelj(f, eta)
    ref = _principal_loop(f, eta)
    assert abs(res.principal - ref) <= 1e-12 * abs(ref)


def test_import_greenkit_defers_scipy():
    src = os.path.dirname(os.path.dirname(greenkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import greenkit, sys; assert 'scipy.integrate' not in sys.modules"
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
    assert np.isfinite(rep["boundary_term"])


def test_step_transform_rejects_zero_k_and_delta_kind():
    fam = RegularizedFamily("step", "arctan", 1e-2)
    with pytest.raises(ValueError, match="k = 0"):
        regularized_ft(fam, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="step family"):
        regularized_ft(RegularizedFamily("delta", "arctan", 1e-2), np.array([1.0]))


def test_step_transform_domain_span_check():
    fam = RegularizedFamily("step", "arctan", 1e-2, domain=(-1.0, 1.0))
    with pytest.raises(ValueError, match="span"):
        regularized_ft(fam, np.array([0.1]))


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
    fam = RegularizedFamily("delta", "exponential", 0.1)
    with pytest.raises(ValueError, match="decay rate"):
        delta_ft_check(fam, np.array([0.5]), eta_damp=20.0)


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


def test_moments_require_delta_family():
    with pytest.raises(ValueError, match="delta"):
        moment_report(RegularizedFamily("step", "linear", 0.1))
