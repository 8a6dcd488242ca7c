"""Frequency-space responses with explicit eta regularization.

A spectral density is a finite list of weighted frequency lines; shifting the
lines off the real axis by -i eta (retarded) or +i eta (advanced) gives the
frequency response in closed pole form.  The same response is recomputed by
numerically convolving the broadened density against 1/(omega - omega' +- i
eta'), which is the artifact's demonstration that the convolution route and
the pole representation are the same object.  The relativistic per-momentum
responses and their Feynman recombination carry an explicit pole inventory so
the half-plane census is an exact assertion, not a fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .firstorder import _SIGNS, _sign
from .spectra import EigenSystem, PhysicalConstants, _relativistic_energy

__all__ = [
    "SpectralDensity",
    "FreqResponse",
    "spectral_density",
    "response_from_density",
    "convolution_response",
    "momentum_response_relativistic",
    "feynman_combination",
    "inverse_transform_roundtrip",
]


@dataclass(frozen=True)
class SpectralDensity:
    """Finite list of frequency lines (omega_n, weight, sign).

    First-order densities carry all signs +1; second-order densities come in
    mirrored +-sqrt(E) c pairs with opposite-sign weights.
    """

    omegas: np.ndarray
    weights: np.ndarray
    signs: np.ndarray
    label: str = ""

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        wt = np.asarray(self.weights, dtype=complex)
        sg = np.asarray(self.signs, dtype=int)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "weights", wt)
        object.__setattr__(self, "signs", sg)
        if not om.shape == wt.shape == sg.shape:
            raise ValueError("omegas, weights, signs must align")
        if not np.all(np.isfinite(wt)):
            raise ValueError("line weights must be finite")


@dataclass(frozen=True)
class FreqResponse:
    """Complex response over an omega grid with a declared pole inventory."""

    omega: np.ndarray
    values: np.ndarray = field(repr=False)
    eta: float
    direction: str
    poles: tuple = ()

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "poles", tuple((complex(p), complex(r)) for p, r in self.poles))
        if v.shape != om.shape:
            raise ValueError("one value per omega sample")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        ims = np.array([p.imag for p, _ in self.poles])
        if self.direction == "feynman":
            if ims.size and not (np.any(ims < 0) and np.any(ims > 0)):
                raise ValueError("feynman response needs poles in both half-planes")
            return
        s = _sign(self.direction)
        if ims.size and np.any(ims != -s * self.eta):
            raise ValueError(f"{self.direction} poles must sit exactly at Im = {'-' if s > 0 else '+'}eta")


def spectral_density(basis: EigenSystem, i: int, j: int, order: str = "first") -> SpectralDensity:
    """Density of the kernel entry (x_i, x_j).

    order "first": one line per mode at E_n/hbar with weight phi_n(x_i)
    phi_n*(x_j).  order "second": mirrored pair at +-sqrt(E_n) c with
    weights +-c phi phi* / (2 i sqrt(E_n)); zero modes have no finite-
    frequency line and are rejected here.  Indices outside the grid raise
    ValueError.
    """
    basis.check_point_indices(i, j)
    phi = basis.mode_values[:, i] * np.conj(basis.mode_values[:, j])
    if order == "first":
        om = basis.energies / basis.constants.hbar
        return SpectralDensity(om, phi, np.ones(om.size, dtype=int), label=f"x{i}-x{j}")
    if order == "second":
        if np.any(basis.energies <= 0):
            raise ValueError("second-order lines need strictly positive eigenvalues")
        c = basis.constants.c
        root = np.sqrt(basis.energies)
        w_plus = c * phi / (2j * root)
        om = np.concatenate([root * c, -root * c])
        wt = np.concatenate([w_plus, -w_plus])
        sg = np.concatenate([np.ones(root.size, dtype=int), -np.ones(root.size, dtype=int)])
        return SpectralDensity(om, wt, sg, label=f"x{i}-x{j}")
    raise ValueError(f"unknown order {order!r}")


# Chunk sizes: few enough rows that a chunk's temporaries stay small (flat
# peak memory, cache-resident convolution rows), enough that every numpy call
# still covers many thousand elements.
_CONV_ROWS = 8  # v values per convolution chunk
_TAU_ROWS = 2  # |tau| values per inverse-transform chunk


def _shifted_poles(omegas, residues, eta: float, direction: str) -> tuple:
    """(omega_n - i s eta, r_n) per line: below the axis for retarded (s = +1),
    above for advanced (s = -1)."""
    shift = -1j * _sign(direction) * eta
    return tuple((om + shift, r) for om, r in zip(omegas, residues))


def _pole_sum(omega, poles):
    vals = np.zeros(omega.shape, dtype=complex)
    for p, r in poles:
        vals += r / (omega - p)
    return vals


def response_from_density(
    density: SpectralDensity, omega: np.ndarray, eta: float, direction: str
) -> FreqResponse:
    """Closed pole form sum_n w_n / (omega - omega_n + i s eta)."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    poles = _shifted_poles(density.omegas, density.weights, eta, direction)
    omega = np.asarray(omega, dtype=float)
    return FreqResponse(omega, _pole_sum(omega, poles), eta, direction, poles)


def convolution_response(
    density: SpectralDensity,
    omega: np.ndarray,
    eta: float,
    direction: str,
    broadening: float | None = None,
) -> FreqResponse:
    """Quadrature evaluation of the convolution integral over omega'.

    Each line is broadened to a unit-area Lorentzian of width eta_b
    (default eta/10); the convolution kernel carries the remaining eta -
    eta_b, so the total regularization matches the pole form exactly in the
    continuum and the residual against response_from_density is pure
    quadrature error.

    The integral J(v) = int L(u) / (v - u + i sgn eta_k) du depends only on
    v = omega - omega_l.  Every (omega, line) pair gets its own two-scale
    trapezoid grid: fine patches |u| <= 40 eta_b and |u| <= 60 eta around
    the line, geometric legs out to 60 (max(|v|, eta) + eta), and a +-40
    eta_k cluster at the kernel pole u = v when that lies outside the
    40 eta_b patch.  The pairs are evaluated _CONV_ROWS at a time, each as
    one row of a sorted node array (about 8k nodes a row, under 4 MB of
    temporaries a chunk, whatever the number of lines or omega samples);
    the response is then J(omega - omega_l) @ weights.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    eta_b = eta / 10 if broadening is None else broadening
    if not 0 < eta_b < eta:
        raise ValueError("broadening must lie strictly between 0 and eta")
    sgn = _sign(direction)
    eta_k = eta - eta_b
    omega = np.asarray(omega, dtype=float)

    v_all = (omega[:, None] - density.omegas[None, :]).ravel()
    patch = np.unique(np.concatenate([
        np.linspace(-40 * eta_b, 40 * eta_b, 3201),
        np.linspace(-60 * eta, 60 * eta, 1601),
    ]))
    cluster = np.linspace(-40 * eta_k, 40 * eta_k, 1601)
    j_vals = np.empty(v_all.size, dtype=complex)
    for lo in range(0, v_all.size, _CONV_ROWS):
        v = v_all[lo:lo + _CONV_ROWS, None]
        leg = np.geomspace(40 * eta_b, 60 * np.maximum(np.abs(v[:, 0]), eta) + 60 * eta, 800, axis=1)
        # a v inside the line patch has no pole cluster; repeating a node
        # there keeps the row length, and a repeated node only adds a
        # zero-width panel, which leaves the trapezoid sum unchanged
        pole = np.where(np.abs(v) > 40 * eta_b, v + cluster, patch[0])
        u = np.concatenate([np.broadcast_to(patch, (v.shape[0], patch.size)), -leg[:, ::-1], leg, pole], axis=1)
        u.sort(axis=1, kind="stable")  # merges the pre-sorted runs
        d = v - u
        # trapezoid node weights: (u[k+1] - u[k-1]) / 2, one-sided at the ends
        w = np.empty_like(u)
        np.subtract(u[:, 2:], u[:, :-2], out=w[:, 1:-1])
        w[:, 0] = u[:, 1] - u[:, 0]
        w[:, -1] = u[:, -1] - u[:, -2]
        # L(u) / (d + i sgn eta_k) = L(u) (d - i sgn eta_k) / (d^2 + eta_k^2),
        # in real arithmetic; L's constant eta_b / pi and the 1/2 come last
        g = w / ((eta_b**2 + u**2) * (d**2 + eta_k**2))
        j_vals[lo:lo + _CONV_ROWS] = np.vecdot(g, d) - 1j * sgn * eta_k * g.sum(axis=1)
    j_vals *= eta_b / (2 * np.pi)
    vals = j_vals.reshape(omega.size, density.omegas.size) @ density.weights
    ref = response_from_density(density, omega, eta, direction)
    return FreqResponse(omega, vals, eta, direction, ref.poles)


def momentum_response_relativistic(
    k: float,
    omega: np.ndarray,
    eta: float,
    direction: str,
    constants: PhysicalConstants = PhysicalConstants(),
) -> FreqResponse:
    """Per-momentum two-branch response 1/(omega -+ E_k/hbar + i s eta).

    Retarded (s = +1): both poles below the axis; advanced (s = -1): both
    above.  Their sum equals the combined rational form 2(omega + i s eta) /
    ((omega + i s eta)^2 - (E_k/hbar)^2), which is the finite-eta statement
    of the omega-squared regularization.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    w0 = _relativistic_energy(k, constants) / constants.hbar
    poles = _shifted_poles((w0, -w0), (1.0 + 0j, 1.0 + 0j), eta, direction)
    omega = np.asarray(omega, dtype=float)
    return FreqResponse(omega, _pole_sum(omega, poles), eta, direction, poles)


def feynman_combination(
    k: float,
    omega: np.ndarray,
    eta: float,
    constants: PhysicalConstants = PhysicalConstants(),
) -> FreqResponse:
    """Piecewise assembly: positive branch retarded + negative branch advanced.

    One pole below the axis at +E_k/hbar, one above at -E_k/hbar.  Not the
    solution of any single differential equation; kept as a pole-census
    object.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    w0 = _relativistic_energy(k, constants) / constants.hbar
    poles = tuple((s * w0 - 1j * s * eta, 1.0 + 0j) for s in (1, -1))
    omega = np.asarray(omega, dtype=float)
    return FreqResponse(omega, _pole_sum(omega, poles), eta, "feynman", poles)


def inverse_transform_roundtrip(response: FreqResponse, tau: np.ndarray) -> dict:
    """Direct discrete inverse transform and its deviation report.

    Computes (1/2 pi) int domega e^{-i omega tau} G(omega) by the trapezoid
    rule over the stored omega grid (no pole-residue shortcut) and compares
    against the residue-form reference: -i s theta(s tau) sum r e^{-i p tau},
    s = +1 for poles below the axis, -1 above.  Reports the peak magnitude,
    the worst mismatch on the supported side and the worst leakage on the
    suppressed side (relative to the peak).

    The sums run as real matrix products: cos(omega |tau|) and
    sin(omega |tau|) rows for _TAU_ROWS distinct |tau| at a time against
    [Re, Im] of the weighted response, which gives both g(|tau|) and
    g(-|tau|).  A chunk's temporaries are 32 B per omega sample and |tau|
    (10 MB for a 320k-sample grid).
    """
    if not response.poles:
        raise ValueError("roundtrip needs the pole inventory")
    om = response.omega
    re_poles = np.array([p.real for p, _ in response.poles])
    span_lo = re_poles.min() - om[0]
    span_hi = om[-1] - re_poles.max()
    need = 10.0 / response.eta
    if span_lo < need or span_hi < need:
        raise ValueError(
            f"omega span too small: have ({span_lo:.3g}, {span_hi:.3g}) beyond the "
            f"outermost poles, need >= {need:.3g} on both sides"
        )
    tau = np.asarray(tau, dtype=float)
    weighted = np.gradient(om) * response.values / (2 * np.pi)
    w_ri = np.stack([weighted.real, weighted.imag], axis=1)
    # e^{-i omega (-t)} = conj(e^{-i omega t}) for real omega and t, so one
    # cos/sin pair per distinct |tau| serves both signs
    mags, which = np.unique(np.abs(tau), return_inverse=True)
    sums = np.empty((mags.size, 2, 2))
    trig = np.empty((min(_TAU_ROWS, mags.size), 2, om.size))
    for lo in range(0, mags.size, _TAU_ROWS):
        chunk = mags[lo:lo + _TAU_ROWS]
        cs = trig[:chunk.size]
        np.multiply(chunk[:, None], om, out=cs[:, 1])
        np.cos(cs[:, 1], out=cs[:, 0])
        np.sin(cs[:, 1], out=cs[:, 1])
        sums[lo:lo + chunk.size] = (cs.reshape(-1, om.size) @ w_ri).reshape(-1, 2, 2)
    (c_re, c_im), (s_re, s_im) = sums[which].transpose(1, 2, 0)
    side = np.where(tau < 0, -1.0, 1.0)
    g_tau = (c_re + side * s_im) + 1j * (c_im - side * s_re)
    ref = np.zeros(tau.size, dtype=complex)
    for p, r in response.poles:
        s = 1 if p.imag < 0 else -1
        ref += np.where(s * tau > 0, -1j * s * r * np.exp(-1j * p * tau), 0.0)
    peak = float(np.max(np.abs(ref))) or 1.0
    # s = 0 for a feynman response, which has no suppressed side
    wrong = _SIGNS.get(response.direction, 0) * tau < 0
    right = ~wrong & (tau != 0)
    return {
        "peak": peak,
        "leakage": float(np.max(np.abs(g_tau[wrong])) / peak) if wrong.any() else 0.0,
        "mismatch": float(np.max(np.abs(g_tau[right] - ref[right])) / peak) if right.any() else 0.0,
        "tau": tau,
        "transform": g_tau,
        "reference": ref,
    }
