"""Frequency responses: pole placement, convolution route, inverse transform."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from basis_modes import all_modes

import greenkit
from greenkit import (
    FreqResponse,
    Grid1D,
    Kernel,
    PhysicalConstants,
    RegularizedFamily,
    SampledFunction,
    SpectralDensity,
    TimeWindow,
    build_free_basis,
    build_helmholtz_basis,
    build_oscillator_basis,
    build_relativistic_branches,
    build_well_basis,
    convolution_response,
    family_eval,
    feynman_combination,
    inverse_transform_roundtrip,
    momentum_response_relativistic,
    response_from_density,
    sokhotski_plemelj,
    spectral_density,
    wave_auxiliary_kernel,
)
from greenkit.freqdomain import _CONV_ROWS, _line_integrals
from greenkit.grid import _BLOCK, _slices


# Per-element reference implementations: one trapezoid integral per
# (omega, line) pair on its own deduplicated node set, and one complex
# exponential sum per tau.  The vectorised code must agree with them to
# floating-point noise.


def _line_integral_loop(omega, lines, eta, direction):
    eta_b = eta / 10
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

    return np.array([[j_integral(om - om_l) for om_l in lines] for om in omega])


def _transform_loop(response, tau):
    om = response.omega
    weighted = np.gradient(om) * response.values / (2 * np.pi)
    return np.array([np.sum(np.exp(-1j * om * t) * weighted) for t in tau])


def test_first_order_density_one_line_per_mode():
    basis = build_well_basis(1.0, 1, n_points=3)
    dens = spectral_density(basis, 0, 0, order="first")
    assert dens.omegas.size == 1


def test_second_order_density_mirrored_pairs():
    basis = build_well_basis(1.0, 1, n_points=3)
    dens = spectral_density(basis, 0, 0, order="second")
    assert dens.omegas.size == 2
    assert np.isclose(dens.omegas[0], -dens.omegas[1])
    assert np.isclose(dens.weights[0], -dens.weights[1])


def test_second_order_density_rejects_zero_modes():
    basis = build_helmholtz_basis(2 * np.pi, 4)  # retains k = 0
    with pytest.raises(ValueError, match="positive"):
        spectral_density(basis, 0, 0, order="second")


def test_second_order_poles_reproduce_the_klein_gordon_kernel():
    """One +-E_k pair per momentum: for tau > 0 the retarded poles' residue
    sum -i sum r e^{-i p tau} is i e^{-eta tau} times the wave kernel."""
    basis = build_relativistic_branches(PhysicalConstants(), 3, 5.0)
    taus, eta = np.array([0.3, 1.1, 2.5]), 0.05
    aux = wave_auxiliary_kernel(basis, TimeWindow(taus))
    for i, j in [(0, 0), (1, 4), (6, 2)]:
        resp = response_from_density(spectral_density(basis, i, j, order="second"), np.zeros(1), eta, "retarded")
        assert len(resp.poles) == 14
        lhs = np.array([sum(-1j * r * np.exp(-1j * p * t) for p, r in resp.poles) for t in taus])
        rhs = 1j * np.exp(-eta * taus) * np.array([aux.at(t)[i, j] for t in taus])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


# The bases each order's law takes, for the time-frequency bridge
BRIDGE_BASES = {
    "well": lambda: build_well_basis(1.0, 8),
    "free": lambda: build_free_basis(10.0, 4),
    "oscillator": lambda: build_oscillator_basis(n_max=12, grid_kind="gauss"),
    "relativistic": lambda: build_relativistic_branches(PhysicalConstants(), 4, 5.0),
}
BRIDGE_ROWS = [("first", model) for model in BRIDGE_BASES] + [
    ("second", model) for model in ("well", "oscillator", "relativistic")]
KAPPA = {"first": -1j, "second": 1j}  # the factor between the two halves, in either direction


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
@pytest.mark.parametrize("order, model", BRIDGE_ROWS)
def test_the_frequency_lines_are_the_time_law(order, model, direction):
    """The residue form -i s theta(s tau) sum r e^{-i p tau} of the pole
    form of an entry's lines (inverse_transform_roundtrip's reference) is
    kappa e^{-eta |tau|} G(tau) of the kernel of the same law and direction,
    on both sides of tau = 0: kappa = -i at first order, +i at second."""
    basis = BRIDGE_BASES[model]()
    taus, eta = np.array([-1.1, -0.3, 0.3, 1.1]), 0.5
    kern = Kernel(basis, taus, kind=direction, order=order)
    worst, scale = 0.0, 0.0
    for i, j in [(3, 5), (0, 0), (7, 2)]:
        density = spectral_density(basis, i, j, order=order)
        omega = np.linspace(density.omegas.min() - 25.0, density.omegas.max() + 25.0, 401)
        resp = response_from_density(density, omega, eta, direction)
        residue = inverse_transform_roundtrip(resp, taus)["reference"]
        time = KAPPA[order] * np.exp(-eta * np.abs(taus)) * np.array([kern.at(t)[i, j] for t in taus])
        worst, scale = max(worst, np.max(np.abs(residue - time))), max(scale, np.max(np.abs(time)))
    assert scale > 0 and worst <= 1e-12 * scale


@pytest.mark.parametrize("model", ["helmholtz", "free"])
def test_second_order_lines_refuse_a_zero_mode(model):
    """Helmholtz k = 0 and the free particle's k = 0 have no finite-frequency line."""
    basis = build_helmholtz_basis(10.0, 4) if model == "helmholtz" else BRIDGE_BASES["free"]()
    with pytest.raises(ValueError, match="zero mode"):
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
    """A response is its poles: a pole on the real axis, or a non-finite
    pole or residue, has no half-plane and is refused."""
    omega = np.linspace(-1.0, 1.0, 5)
    vals = np.zeros(5, dtype=complex)
    with pytest.raises(ValueError, match="off the real axis"):
        FreqResponse(omega, vals, ((1.0 - 0.1j, 1.0), (2.0 + 0.0j, 1.0)))
    for bad in ((complex(1.0, math.nan), 1.0), (1.0 - 0.1j, math.inf)):
        with pytest.raises(ValueError, match="poles and residues must be finite"):
            FreqResponse(omega, vals, (bad,))


@pytest.mark.parametrize("eta", [1e-3, 0.05, 0.3, 7.1e5])
@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_every_builder_keeps_its_eta_and_direction(direction, eta):
    """eta and direction are read from the poles, and read back exactly what
    each builder was given."""
    dens = _well_density()
    omega = np.linspace(-1.0, 1.0, 5)
    built = [
        response_from_density(dens, omega, eta, direction),
        convolution_response(dens, omega, eta, direction),
        momentum_response_relativistic(1.0, omega, eta, direction),
    ]
    for resp in built:
        assert (resp.eta, resp.direction) == (eta, direction)
    fey = feynman_combination(1.0, omega, eta)
    assert (fey.eta, fey.direction) == (eta, "feynman")


def test_mixed_half_planes_read_feynman_with_the_least_width():
    omega = np.linspace(-1.0, 1.0, 5)
    resp = FreqResponse(omega, np.zeros(5), ((1.0 - 0.3j, 1.0), (-1.0 + 0.2j, 2.0), (3.0 - 0.7j, 1j)))
    assert (resp.eta, resp.direction) == (0.2, "feynman")
    assert FreqResponse(omega, np.zeros(5), ((1.0 + 0.3j, 1.0),)).direction == "advanced"


def test_freq_response_fields_are_its_poles():
    assert [f.name for f in dataclasses.fields(FreqResponse)] == ["omega", "values", "poles"]
    resp = momentum_response_relativistic(1.0, np.linspace(-1.0, 1.0, 5), 0.1, "retarded")
    for name in ("eta", "direction"):
        with pytest.raises(AttributeError):
            setattr(resp, name, 0.2)


def test_convolution_route_matches_pole_form():
    basis = build_well_basis(1.0, 4)
    dens = spectral_density(basis, 1, 1)
    omega = np.linspace(0.0, 30.0, 7)
    eta = 0.05
    conv = convolution_response(dens, omega, eta, "retarded")
    ref = response_from_density(dens, omega, eta, "retarded")
    peak = np.max(np.abs(ref.values))
    assert np.max(np.abs(conv.values - ref.values)) / peak < 1e-5


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_convolution_matches_per_element_loop(direction):
    basis = build_well_basis(1.0, 3)
    dens = spectral_density(basis, 0, 1)
    eta = 0.05
    # omega sitting on a line or within 40 eta_b of one: no pole cluster
    near = dens.omegas[:2] + np.array([0.0, 0.1 * eta])
    omega = np.concatenate([np.linspace(0.0, 60.0, 5), near])
    # 7 omega x 3 lines = 21 pairs, not a multiple of the chunk's row count
    assert omega.size * dens.omegas.size % _CONV_ROWS != 0
    table = _line_integrals(omega, dens.omegas, eta, direction)
    loop = _line_integral_loop(omega, dens.omegas, eta, direction)
    assert np.max(np.abs(table - loop)) <= 1e-12 * np.max(np.abs(loop))
    conv = convolution_response(dens, omega, eta, direction)
    ref = loop @ dens.weights
    assert np.max(np.abs(conv.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_in_place_legs_match_geomspace_legs():
    """The legs written in place as start exp(t_k ln(stop / start)) give the
    table of np.geomspace legs to 1e-12, entry by entry: on a line, inside
    the 40 eta_b patch, at |v| = 1e4 eta both sides, with 3 x 5 = 15 pairs."""
    eta = 0.05
    lines = np.array([-2.0, 0.0, 7.0])
    omega = np.array([0.0, 0.3 * eta / 10, 1e4 * eta, -2.0 - 1e4 * eta, 7.0 - 4 * eta / 10])
    assert omega.size * lines.size % _CONV_ROWS != 0
    for direction in ("retarded", "advanced"):
        table = _line_integrals(omega, lines, eta, direction)
        loop = _line_integral_loop(omega, lines, eta, direction)
        assert np.all(np.abs(table - loop) <= 1e-12 * np.abs(loop))


def test_convolution_response_contracts_the_line_table():
    basis = build_well_basis(1.0, 16)
    omega = np.linspace(0.0, 60.0, 31)
    for i, j in ((7, 7), (3, 9)):  # criterion 7's entries
        dens = spectral_density(basis, i, j)
        table = _line_integrals(omega, dens.omegas, 0.05, "retarded")
        conv = convolution_response(dens, omega, 0.05, "retarded")
        assert np.array_equal(conv.values, table @ dens.weights)


def test_criterion_7_builds_one_line_table(monkeypatch):
    calls = []
    build = greenkit.freqdomain._line_integrals

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    # both bindings, so a criterion that went back through the public wrapper
    # would count once per entry
    monkeypatch.setattr(greenkit.freqdomain, "_line_integrals", counted)
    monkeypatch.setattr(greenkit.validation, "_line_integrals", counted)
    (c7,) = greenkit.run_acceptance(only="7")
    assert c7.passed
    assert len(calls) == 1


def _well_density():
    return spectral_density(build_well_basis(1.0, 4), 1, 1)


def _gaussian_on_a_line():
    grid = Grid1D.uniform(-10.0, 10.0, 2001)
    return SampledFunction(grid, np.exp(-grid.points**2))


OMEGA = np.linspace(0.0, 30.0, 7)  # off the well's lines

# every public entry that takes eta, each called once with a given eta
ETA_ENTRIES = {
    "RegularizedFamily": lambda eta: family_eval(RegularizedFamily("delta", "arctan", eta), np.linspace(-1.0, 1.0, 5)),
    "sokhotski_plemelj": lambda eta: sokhotski_plemelj(_gaussian_on_a_line(), eta).full_integral,
    "convolution_response": lambda eta: convolution_response(_well_density(), OMEGA, eta, "retarded").values,
    "response_from_density": lambda eta: response_from_density(_well_density(), OMEGA, eta, "retarded").values,
}


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 1e300])
@pytest.mark.parametrize("entry", ETA_ENTRIES)
def test_every_eta_entry_returns_finite_values_or_raises(entry, eta):
    """A bad eta fails at the boundary with a ValueError, never with a
    warning, an OverflowError or a non-finite result; the pole form takes
    every finite eta > 0 listed here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = ETA_ENTRIES[entry](eta)
        except ValueError:
            assert not (entry == "response_from_density" and 0 < eta < math.inf)
            return
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize(
    "eta, omega, ok",
    [
        (1e70, 0.0, True),
        (1e71, 0.0, False),
        (1e-70, 1.0, True),
        (1e-71, 1.0, False),
        (0.05, 1e70, True),
        (0.05, -1e70, True),
        (0.05, 1.01e70, False),
        (0.05, 1e76, False),
        (1e100, 0.0, False),
    ],
)
def test_convolution_route_states_its_range(eta, omega, ok):
    """eta within [1e-70, 1e70] and |omega - omega_l| <= 1e70 give finite
    values and no warning; past either bound is a ValueError.  At the bounds
    the route still tracks the pole form, to the 0.4 % its legs leave far
    from every line (|omega - omega_l| >> eta)."""
    dens = _well_density()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not ok:
            with pytest.raises(ValueError, match=r"convolution route needs eta within \[1e-70, 1e70\]"):
                convolution_response(dens, np.array([omega]), eta, "retarded")
            return
        conv = convolution_response(dens, np.array([omega]), eta, "retarded")
    ref = response_from_density(dens, np.array([omega]), eta, "retarded")
    assert np.all(np.isfinite(conv.values))
    assert np.max(np.abs(conv.values - ref.values)) <= 1e-2 * np.max(np.abs(ref.values))


POLE_RANGE = r"the pole form needs \|omega\| and every \|omega_n\| <= 1e150, eta >= 1e-300"


@pytest.mark.parametrize(
    "lines, weights, omega, eta, ok",
    [
        ([-1e150], [1.0], 1e150, 0.05, True),
        ([-1e308], [1.0], 1e308, 0.05, False),
        ([0.0], [1.0], 1.01e150, 0.05, False),
        ([1.01e150], [1.0], 0.0, 0.05, False),
        ([0.0], [1e8], 0.0, 1e-300, True),
        ([0.0], [1e-8], 0.0, 1e-301, False),
        ([0.0], [2e8], 0.0, 1e-300, False),
        ([0.0, 0.0], [0.5e8, 0.5e8j], 0.0, 1e-300, True),
        ([0.0, 0.0], [0.5e8, 0.6e8j], 0.0, 1e-300, False),
        ([0.0], [1.7e308], 0.0, 1.7e308, True),
        ([0.0], [1.7e308], 0.0, 1.0, False),
    ],
)
def test_pole_form_states_its_range(lines, weights, omega, eta, ok):
    """|omega|, |omega_n| <= 1e150, eta >= 1e-300 and sum |r_n| <= 1e308 eta
    give finite values and no warning, at the largest value the range
    allows; past any bound is a ValueError that names the range."""
    dens = SpectralDensity(lines, weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not ok:
            with pytest.raises(ValueError, match=POLE_RANGE):
                response_from_density(dens, np.array([omega]), eta, "retarded")
            return
        out = response_from_density(dens, np.array([omega, -omega]), eta, "advanced")
    assert np.all(np.isfinite(out.values))


POLE_ROUTES = {
    "momentum_response_relativistic": lambda omega, eta: momentum_response_relativistic(1.0, omega, eta, "retarded"),
    "feynman_combination": lambda omega, eta: feynman_combination(1.0, omega, eta),
}


@pytest.mark.parametrize("omega, eta, ok", [(1e150, 1e-300, True), (1.01e150, 0.05, False), (0.0, 1e-301, False)])
@pytest.mark.parametrize("route", POLE_ROUTES)
def test_every_pole_route_shares_the_range(route, omega, eta, ok):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not ok:
            with pytest.raises(ValueError, match=POLE_RANGE):
                POLE_ROUTES[route](np.array([omega]), eta)
            return
        assert np.all(np.isfinite(POLE_ROUTES[route](np.array([omega, 0.0, -omega]), eta).values))


@pytest.mark.parametrize("reach, bound", [(1e3, 1e-6), (1e10, 3e-5), (1e140, 1e-2)])
@pytest.mark.parametrize("direction", ["retarded", "advanced"])
def test_convolution_error_is_bounded_by_distance_over_eta(reach, bound, direction):
    """One unit line at omega_l: within |omega - omega_l| <= reach * eta, the
    convolution route is within bound of 1 / (omega - omega_l + i s eta),
    relative, at every point.  The error depends on (omega - omega_l) / eta
    alone, and grows with it; reach 1e140 is the far corner of the route's
    range (eta = 1e-70, |omega - omega_l| = 1e70)."""
    eta = 1e70 / reach if reach > 1e70 else 0.05
    line = 2.0 * eta
    x = np.geomspace(1e-2, reach, 400)
    omega = line + eta * np.concatenate([[0.0], x, -x])
    dens = SpectralDensity([line], [1.0])
    conv = convolution_response(dens, omega, eta, direction).values
    ref = response_from_density(dens, omega, eta, direction).values
    assert np.max(np.abs(conv - ref) / np.abs(ref)) <= bound


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_both_response_routes_share_one_axis_check(bad):
    dens = _well_density()
    for route in (response_from_density, convolution_response):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega samples must be finite"):
                route(dens, np.array([1.0, bad]), 0.05, "retarded")


def _lines_past_the_float_range(order):
    """The lines of a basis whose E_n / hbar (first order) and c phi_n phi_n*
    (second order) overflow."""
    well = build_well_basis(1.0, 4, PhysicalConstants(hbar=1e-50, c=1e50))
    hand = greenkit.EigenSystem(well.grid, [1e300, 2e300, 3e300, 4e300], 1e150 * all_modes(well), well.constants, "well")
    return spectral_density(hand, 0, 1, order)


@pytest.mark.parametrize(
    "make",
    [lambda: SpectralDensity([math.nan], [1.0]), lambda: SpectralDensity([math.inf], [1.0]),
     lambda: _lines_past_the_float_range("first"), lambda: _lines_past_the_float_range("second")],
    ids=["nan", "inf", "first-order law past the float range", "second-order law past the float range"],
)
def test_spectral_density_rejects_non_finite_lines(make):
    with pytest.raises(ValueError, match="line frequencies and weights must be finite"):
        make()


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


def _roundtrip_grid(kind):
    if kind == "sinh":
        # non-uniform, densest near the poles at +-sqrt(2)
        return 200.0 * np.sinh(np.linspace(-4.0, 4.0, 6001)) / np.sinh(4.0)
    # uniform: 6001 samples are not a multiple of the block length 78, so
    # the last block is zero-padded
    omega = np.linspace(-200.0, 200.0, 6001)
    if kind == "nudged":
        # one node off the ideal grid, next to the pole at +sqrt(2), where
        # the factored phase would miss the loop by about 7e-11
        omega[3021] += 1e-9
    return omega


@pytest.mark.parametrize(
    "direction, grid",
    [
        pytest.param("retarded", "sinh", id="retarded"),
        pytest.param("advanced", "sinh", id="advanced"),
        pytest.param("retarded", "padded", id="retarded-padded"),
        pytest.param("advanced", "padded", id="advanced-padded"),
        pytest.param("retarded", "nudged", id="retarded-nudged"),
    ],
)
def test_inverse_transform_matches_per_tau_loop(direction, grid):
    eta = 0.5
    resp = momentum_response_relativistic(1.0, _roundtrip_grid(grid), eta, direction)
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


@pytest.mark.parametrize(
    "omega, match",
    [
        (np.array([]), "at least two omega samples"),
        (np.array([0.0]), "at least two omega samples"),
        (np.linspace(-200.0, 200.0, 4001)[::-1], "strictly increasing"),
        (np.linspace(-200.0, 200.0, 4001)[np.random.default_rng(3).permutation(4001)], "strictly increasing"),
        # each slice increases; the second starts below the first one's last sample
        (np.concatenate([np.linspace(-400.0, 0.0, _BLOCK), np.linspace(-1.0, 400.0, 20000)]), "strictly increasing"),
    ],
    ids=["empty", "one-sample", "reversed", "shuffled", "step-back-across-slices"],
)
def test_inverse_transform_refuses_an_omega_that_does_not_increase(omega, match):
    """An empty, one-sample or unordered omega is refused, before the span
    check, where a shuffled one used to read a wrong transform."""
    ret = momentum_response_relativistic(1.0, omega, 0.5, "retarded")
    with pytest.raises(ValueError, match=match):
        inverse_transform_roundtrip(ret, np.array([-1.0, 1.0]))


def test_inverse_transform_needs_pole_inventory():
    """A response without poles cannot be built, so no transform meets one."""
    omega = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="pole inventory"):
        FreqResponse(omega, np.zeros(5, dtype=complex), ())


def _per_pole_sum(omega, poles):
    """The pole form as one array over the whole axis: each term r / (omega - p)
    in one reused buffer, added in pole order."""
    vals = np.zeros(omega.shape, dtype=complex)
    term = np.empty_like(vals)
    for p, r in poles:
        np.subtract(omega, p, out=term)
        vals += np.divide(r, term, out=term)
    return vals


@pytest.mark.parametrize("build", ["density", "relativistic", "feynman"])
def test_pole_form_values_are_the_per_pole_sum_bit_for_bit(build):
    """A pole-form response keeps (omega, poles); its values, read whole or
    through the block reader in slices that do not divide the axis, are the
    per-pole sum bit for bit."""
    omega = np.linspace(-30.0, 30.0, 2 * _BLOCK + 5)
    resp = {
        "density": lambda: response_from_density(_well_density(), omega, 0.05, "retarded"),
        "relativistic": lambda: momentum_response_relativistic(1.0, omega, 0.3, "advanced"),
        "feynman": lambda: feynman_combination(1.0, omega, 0.3),
    }[build]()
    assert "values" not in vars(resp)
    ref = _per_pole_sum(omega, resp.poles)
    sliced = [v for _, (_, v) in _slices(resp._slice, omega.size, 1000)]
    assert "values" not in vars(resp)
    assert np.concatenate(sliced).tobytes() == ref.tobytes()
    assert resp.values.tobytes() == ref.tobytes()
    assert not resp.values.flags.writeable
    assert resp.values is resp.values


def _direct_transform(resp, tau):
    """sum_k w_k G(omega_k) e^{-i omega_k tau} / 2 pi with np.gradient weights,
    one tau at a time over the whole axis."""
    om = resp.omega
    weighted = np.gradient(om) * _per_pole_sum(om, resp.poles) / (2 * np.pi)
    return np.array([np.sum(weighted * np.exp(-1j * om * t)) for t in tau])


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
@pytest.mark.parametrize("grid", ["uniform", "sinh"])
def test_blocked_inverse_transform_matches_the_direct_sum(direction, grid):
    """The roundtrip reads W a block of rows at a time.  The uniform axis of
    40001 samples takes b = 201 and blocks of 81 rows (16281 samples): two
    full blocks and a last one of 7439 samples, 37 rows and 2 samples, so the
    last row is zero-padded.  The sinh axis is not uniform and takes b = 1."""
    n = 40001
    if grid == "uniform":
        omega = np.linspace(-200.0, 200.0, n)
        assert n > 2 * _BLOCK and n % math.ceil(math.sqrt(n)) != 0
    else:
        omega = 200.0 * np.sinh(np.linspace(-4.0, 4.0, n)) / np.sinh(4.0)
    resp = momentum_response_relativistic(1.0, omega, 0.5, direction)
    tau = np.array([0.0, 0.5, -0.5, 1.25, -2.0, 3.0])
    rt = inverse_transform_roundtrip(resp, tau)
    ref = _direct_transform(resp, tau)
    assert np.max(np.abs(rt["transform"] - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the transform reads the values through the block reader only
    assert "values" not in vars(resp)


def test_stored_and_pole_form_transform_alike():
    """The same values, stored or formed on read, give the same transform."""
    omega = np.linspace(-200.0, 200.0, 6001)
    pole_form = momentum_response_relativistic(1.0, omega, 0.5, "retarded")
    stored = FreqResponse(omega, _per_pole_sum(omega, pole_form.poles), pole_form.poles)
    tau = np.array([-1.0, 0.5, 2.0])
    got, want = (inverse_transform_roundtrip(r, tau)["transform"] for r in (pole_form, stored))
    assert got.tobytes() == want.tobytes()
