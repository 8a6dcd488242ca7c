"""Frequency responses: pole placement, convolution route, inverse transform."""

import numpy as np
import pytest

from greenkit import (
    FreqResponse,
    build_helmholtz_basis,
    build_well_basis,
    convolution_response,
    feynman_combination,
    inverse_transform_roundtrip,
    momentum_response_relativistic,
    response_from_density,
    spectral_density,
)


# Per-element reference implementations: one trapezoid integral per
# (omega, line) pair on its own deduplicated node set, and one complex
# exponential sum per tau.  The vectorised code must agree with them to
# floating-point noise.


def _convolution_loop(density, omega, eta, direction, broadening=None):
    eta_b = eta / 10 if broadening is None else broadening
    sgn = 1 if direction == "retarded" else -1
    eta_k = eta - eta_b

    def j_integral(v):
        nodes = [
            np.linspace(-40 * eta_b, 40 * eta_b, 3201),
            np.linspace(-60 * eta, 60 * eta, 1601),
            np.geomspace(40 * eta_b, 60 * max(abs(v), eta) + 60 * eta, 800),
        ]
        nodes.append(-nodes[-1])
        if abs(v) > 40 * eta_b:
            nodes.append(v + np.linspace(-40 * eta_k, 40 * eta_k, 1601))
        u = np.unique(np.concatenate(nodes))
        lor = (eta_b / np.pi) / (eta_b**2 + u**2)
        return complex(np.trapezoid(lor / (v - u + 1j * sgn * eta_k), u))

    vals = np.zeros(omega.size, dtype=complex)
    for om_l, w_l in zip(density.omegas, density.weights):
        for idx, om in enumerate(omega):
            vals[idx] += w_l * j_integral(om - om_l)
    return vals


def _transform_loop(response, tau):
    om = response.omega
    weighted = np.gradient(om) * response.values / (2 * np.pi)
    return np.array([np.sum(np.exp(-1j * om * t) * weighted) for t in tau])


def test_first_order_density_one_line_per_mode():
    basis = build_well_basis(1.0, 1, n_points=3)
    dens = spectral_density(basis, 0, 0, order="first")
    assert dens.omegas.size == 1
    assert np.all(dens.signs == 1)


def test_second_order_density_mirrored_pairs():
    basis = build_well_basis(1.0, 1, n_points=3)
    dens = spectral_density(basis, 0, 0, order="second")
    assert dens.omegas.size == 2
    assert np.isclose(dens.omegas[0], -dens.omegas[1])
    assert np.isclose(dens.weights[0], -dens.weights[1])
    assert set(dens.signs) == {1, -1}


def test_second_order_density_rejects_zero_modes():
    basis = build_helmholtz_basis(2 * np.pi, 4)  # retains k = 0
    with pytest.raises(ValueError, match="positive"):
        spectral_density(basis, 0, 0, order="second")


def test_response_pole_placement_is_exact():
    basis = build_well_basis(1.0, 6)
    dens = spectral_density(basis, 2, 2)
    omega = np.linspace(0.0, 50.0, 11)
    ret = response_from_density(dens, omega, 0.05, "retarded")
    adv = response_from_density(dens, omega, 0.05, "advanced")
    assert all(p.imag == -0.05 for p, _ in ret.poles)
    assert all(p.imag == +0.05 for p, _ in adv.poles)
    # real line weights make the two directions complex conjugates
    assert np.allclose(adv.values, np.conj(ret.values))
    manual = sum(r / (omega - p) for p, r in ret.poles)
    assert np.allclose(ret.values, manual)


def test_freq_response_validates_pole_half_planes():
    omega = np.linspace(-1.0, 1.0, 5)
    vals = np.zeros(5, dtype=complex)
    with pytest.raises(ValueError, match="Im = -eta"):
        FreqResponse(omega, vals, 0.1, "retarded", ((1.0 + 0.1j, 1.0),))
    with pytest.raises(ValueError, match="both half-planes"):
        FreqResponse(omega, vals, 0.1, "feynman", ((1.0 - 0.1j, 1.0), (2.0 - 0.1j, 1.0)))


def test_convolution_route_matches_pole_form():
    basis = build_well_basis(1.0, 4)
    dens = spectral_density(basis, 1, 1)
    omega = np.linspace(0.0, 30.0, 7)
    eta = 0.05
    conv = convolution_response(dens, omega, eta, "retarded")
    ref = response_from_density(dens, omega, eta, "retarded")
    peak = np.max(np.abs(ref.values))
    assert np.max(np.abs(conv.values - ref.values)) / peak < 1e-5


@pytest.mark.parametrize("direction, broadening", [("retarded", None), ("advanced", 0.02)])
def test_convolution_matches_per_element_loop(direction, broadening):
    basis = build_well_basis(1.0, 3)
    dens = spectral_density(basis, 0, 1)
    eta = 0.05
    # omega sitting on a line or within 40 eta_b of one: no pole cluster
    near = dens.omegas[:2] + np.array([0.0, 0.1 * eta])
    omega = np.concatenate([np.linspace(0.0, 60.0, 5), near])
    conv = convolution_response(dens, omega, eta, direction, broadening=broadening)
    loop = _convolution_loop(dens, omega, eta, direction, broadening)
    assert np.max(np.abs(conv.values - loop)) <= 1e-12 * np.max(np.abs(loop))


def test_convolution_broadening_budget_is_validated():
    basis = build_well_basis(1.0, 2)
    dens = spectral_density(basis, 0, 0)
    with pytest.raises(ValueError, match="broadening"):
        convolution_response(dens, np.array([1.0]), 0.05, "retarded", broadening=0.05)


def test_relativistic_response_equals_combined_rational_form():
    omega = np.linspace(-10.0, 10.0, 201)
    eta, k = 0.05, 1.0
    ret = momentum_response_relativistic(k, omega, eta, "retarded")
    w0 = np.sqrt(1.0 + k**2)
    z = omega + 1j * eta
    combined = 2 * z / (z**2 - w0**2)
    assert np.max(np.abs(ret.values - combined)) < 1e-12
    with pytest.raises(ValueError, match="feynman"):
        momentum_response_relativistic(k, omega, eta, "feynman")


def test_feynman_combination_pole_census():
    fey = feynman_combination(1.0, np.linspace(-5.0, 5.0, 11), 0.05)
    ims = sorted(p.imag for p, _ in fey.poles)
    assert ims == [-0.05, 0.05]
    res = sorted(p.real for p, _ in fey.poles)
    assert res[0] < 0 < res[1]


def test_inverse_transform_confines_retarded_support():
    eta = 0.5
    omega = np.linspace(-200.0, 200.0, 8001)
    ret = momentum_response_relativistic(1.0, omega, eta, "retarded")
    tau = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    rt = inverse_transform_roundtrip(ret, tau)
    assert rt["leakage"] < 1e-2
    assert rt["mismatch"] < 1e-2
    assert np.all(rt["reference"][tau < 0] == 0)


@pytest.mark.parametrize("direction", ["advanced", "feynman"])
def test_inverse_transform_reference_follows_each_pole(direction):
    # each pole adds -i s r e^{-i p tau} on s tau > 0, s = +1 below the axis
    # and -1 above; an advanced response is suppressed for tau > 0, a feynman
    # one nowhere
    eta = 0.5
    omega = np.linspace(-200.0, 200.0, 8001)
    if direction == "feynman":
        resp = feynman_combination(1.0, omega, eta)
    else:
        resp = momentum_response_relativistic(1.0, omega, eta, direction)
    tau = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    rt = inverse_transform_roundtrip(resp, tau)
    assert rt["mismatch"] < 1e-2
    if direction == "feynman":
        assert rt["leakage"] == 0.0
        assert np.all(rt["reference"] != 0)
    else:
        assert rt["leakage"] < 1e-2
        assert np.all(rt["reference"][tau > 0] == 0)


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_inverse_transform_matches_per_tau_loop(direction):
    eta = 0.5
    # non-uniform grid, densest near the poles at +-sqrt(2)
    omega = 200.0 * np.sinh(np.linspace(-4.0, 4.0, 6001)) / np.sinh(4.0)
    resp = momentum_response_relativistic(1.0, omega, eta, direction)
    # tau = 0, a +-0.5 pair, and unpaired values on either side
    tau = np.array([0.0, 0.5, -0.5, 1.25, -2.0, 3.0])
    rt = inverse_transform_roundtrip(resp, tau)
    loop = _transform_loop(resp, tau)
    assert np.max(np.abs(rt["transform"] - loop)) <= 1e-12 * np.max(np.abs(loop))


def test_spectral_density_rejects_indices_off_the_grid():
    basis = build_well_basis(1.0, 4)
    with pytest.raises(ValueError, match="grid index"):
        spectral_density(basis, -1, 0)
    with pytest.raises(ValueError, match="grid index"):
        spectral_density(basis, 0, 4, order="second")


def test_inverse_transform_span_precondition():
    eta = 0.05
    omega = np.linspace(-20.0, 20.0, 2001)  # far short of 10/eta beyond the poles
    ret = momentum_response_relativistic(1.0, omega, eta, "retarded")
    with pytest.raises(ValueError, match="span"):
        inverse_transform_roundtrip(ret, np.array([-1.0, 1.0]))


def test_inverse_transform_needs_pole_inventory():
    omega = np.linspace(-1.0, 1.0, 5)
    resp = FreqResponse(omega, np.zeros(5, dtype=complex), 0.1, "retarded", ())
    with pytest.raises(ValueError, match="pole inventory"):
        inverse_transform_roundtrip(resp, np.array([1.0]))
