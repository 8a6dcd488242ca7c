"""First-order (Schrodinger-type) kernels: auxiliary, retarded, advanced.

The auxiliary kernel is the theta-free phase sum
K(x, x'; tau) = sum_n phi_n(x) phi_n*(x') exp(-i E_n tau / hbar); multiplying
by the time step function (or minus the reversed step) turns it into the
retarded or advanced kernel.  A "minus-i" convention flag reproduces the form
usually printed in the literature, which differs by a global factor -i; the
default convention is the one whose discrete PDE residual actually closes
(see pde_jump_residual).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import SampledFunction, _require_finite, _require_scale
from .spectra import (
    Coefficients,
    EigenSystem,
    PhysicalConstants,
    block_residual,
    composition_norm,
    mode_blocks,
    project_state,
    reconstruct,
)

__all__ = [
    "TimeWindow",
    "Kernel",
    "auxiliary_kernel",
    "step_factor_kernel",
    "kernel_entry",
    "propagate",
    "composition_residual",
    "free_kernel_closed_form",
    "oscillator_kernel_closed_form",
    "pde_jump_residual",
    "theta",
]

CAUSTIC_TOL = 1e-6


def theta(tau):
    """Step function with theta(0) = 1/2; a NaN stays NaN."""
    return np.heaviside(tau, 0.5)


# The one sign s that separates the two directions: G_s = s theta(s tau) K in
# time, poles at omega_n - i s eta in frequency, arrival at s R / c.
_SIGNS = {"retarded": 1, "advanced": -1}


def _sign(direction: str) -> int:
    """s = +1 for retarded, -1 for advanced; any other direction raises."""
    if direction not in _SIGNS:
        raise ValueError(f"unknown direction {direction!r}")
    return _SIGNS[direction]


def _suppressed(direction: str, tau) -> np.ndarray:
    """Where a kernel or response of this direction must vanish, s tau < 0;
    any other direction (auxiliary, feynman) takes s = 0 and has no such side."""
    return _SIGNS.get(direction, 0) * np.asarray(tau) < 0


def _prefactor(convention: str) -> complex:
    """The global factor of the mode sum: 1 under eq24, -i under minus-i;
    any other convention raises."""
    if convention not in ("eq24", "minus-i"):
        raise ValueError(f"unknown convention {convention!r}")
    return -1j if convention == "minus-i" else 1


def _ranged(law):
    """The laws' one range rule: every amplitude and phase a law returns is
    finite, or a ValueError names tau before numpy warns."""

    def ranged(basis: EigenSystem, tau):
        with np.errstate(over="ignore", invalid="ignore"):  # a value past the range is refused below
            values = law(basis, tau)
        for part in values if isinstance(values, tuple) else (values,):
            _require_finite(part, "amplitudes and phases of the law at tau")
        return values

    return staticmethod(ranged)


class _FirstOrder:
    """i hbar dG/dtau = H G: every mode, at omega_n = E_n / hbar."""

    @staticmethod
    def modes(basis: EigenSystem) -> tuple:
        """(mode indices, E_n, hbar): every mode of any basis."""
        return np.arange(basis.size), basis.energies, basis.constants.hbar

    @_ranged
    def amplitude(basis: EigenSystem, tau):
        """e^{-i E_n tau / hbar}, of shape tau.shape + (basis.size,)."""
        return np.exp(-1j * basis.energies * tau[..., None] / basis.constants.hbar)

    @staticmethod
    def lines(basis: EigenSystem, products: np.ndarray) -> tuple:
        """(omega_n, weights): a line per mode at E_n / hbar, of weight phi_n(x_i) phi_n*(x_j)."""
        return basis.energies / basis.constants.hbar, products


class _SecondOrder:
    """-(1/c^2) d^2G/dtau^2 = H G: the modes of eigenvalue lambda_n >= 0, at omega_n = sqrt(lambda_n) c."""

    @staticmethod
    def modes(basis: EigenSystem) -> tuple:
        """(mode indices, sqrt(lambda_n), c): every mode, lambda = E_n, or on a
        basis with branches (Klein-Gordon, hbar = c = 1) the positive branch,
        lambda = E_k^2; rejects negative eigenvalues."""
        if basis.branches is not None:
            if not (basis.constants.hbar == 1.0 and basis.constants.c == 1.0):
                raise ValueError("Klein-Gordon kernel assumes hbar = c = 1 units")
            index = np.flatnonzero(basis.branches > 0)
            e = basis.energies[index] ** 2
        else:
            index = np.arange(basis.size)
            e = basis.energies
        if np.any(e < 0):
            raise ValueError("second-order modes need non-negative eigenvalues")
        return index, np.sqrt(e), basis.constants.c

    @_ranged
    def phases(basis: EigenSystem, t) -> tuple:
        """(c S, C) = (c sin(r c t) / r, cos(r c t)) per mode r = sqrt(lambda_n), t
        broadcast against the modes, (c t, 1) on a zero mode: c S is the
        amplitude, and c S(t - t') = c S(t) C(t') - C(t) c S(t')."""
        _, root, c = _SecondOrder.modes(basis)
        zero = root == 0
        r = np.where(zero, 1.0, root)
        return np.where(zero, c * t, c * np.sin(r * c * t) / r), np.where(zero, 1.0, np.cos(r * c * t))

    @staticmethod
    def amplitude(basis: EigenSystem, tau):
        """c S(tau) on the law's modes, 0 on the others, of shape tau.shape + (basis.size,)."""
        a = np.zeros(np.shape(tau) + (basis.size,), dtype=complex)
        a[..., _SecondOrder.modes(basis)[0]] = _SecondOrder.phases(basis, tau[..., None])[0]
        return a

    @staticmethod
    def lines(basis: EigenSystem, products: np.ndarray) -> tuple:
        """(omega_n, weights): a pair per mode at +-sqrt(lambda_n) c, of weights
        +-c phi_n(x_i) phi_n*(x_j) / (2 i sqrt(lambda_n)), none for a zero mode."""
        index, root, c = _SecondOrder.modes(basis)
        if np.any(root == 0):
            raise ValueError("second-order lines need positive eigenvalues: a zero mode has no finite-frequency line")
        w_plus = c * products[index] / (2j * root)
        return np.concatenate([root, -root]) * c, np.concatenate([w_plus, -w_plus])


# Each order's law, its one home: the modes it sums, their frequencies, the
# amplitude in tau and the lines in omega, where its retarded transform has
# its poles, shifted by -i eta.
_LAWS = {"first": _FirstOrder, "second": _SecondOrder}


def _law(order: str, basis: EigenSystem):
    """The law of an order string, "first" or "second", once it admits basis:
    a non-empty one, at second order one its modes take."""
    if order not in _LAWS:
        raise ValueError(f"unknown order {order!r}")
    if basis.size == 0:
        raise ValueError("empty basis")
    _LAWS[order].modes(basis)  # raises on a basis outside the law's domain
    return _LAWS[order]


@dataclass(frozen=True, eq=False)
class TimeWindow:
    """Ordered tau = t - t' samples; the one time-axis rule (1-D, at least one
    sample, finite, strictly increasing), which Kernel and SourceField use."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("need at least one time sample")
        _require_finite(s, "time samples")
        if not np.all(np.diff(s) > 0):
            raise ValueError("time samples must be strictly increasing")


@dataclass(frozen=True, eq=False)
class Kernel:
    """G(x_i, x_j; tau) over a time window, fixed by its fields.

    Block k is sum_n phi_n(x_i) amplitude(times[k])[n] phi_n*(x_j), times -i
    under the minus-i convention.  kind: auxiliary | retarded | advanced;
    convention: "eq24" or "minus-i" (printed literature form); order:
    "first" (phase sum) or "second" (wave kernel at c = basis.constants.c),
    whose law (_law) admits the basis.
    """

    basis: EigenSystem
    times: np.ndarray
    kind: str = "auxiliary"
    convention: str = "eq24"
    order: str = "first"

    def __post_init__(self):
        object.__setattr__(self, "times", TimeWindow(self.times).samples)
        if self.kind not in ("auxiliary", "retarded", "advanced"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        _prefactor(self.convention)  # raises on an unknown convention
        object.__setattr__(self, "_law", _law(self.order, self.basis))

    def amplitude(self, tau) -> np.ndarray:
        """The law's amplitude without the minus-i prefactor, of shape
        tau.shape + (basis.size,), for real or complex tau, times
        s theta(s Re tau) (1 for the auxiliary kind).  A zero step factor
        gives exact zero blocks.
        """
        tau = np.asarray(tau)
        a = self._law.amplitude(self.basis, tau)
        if self.kind == "auxiliary":
            return a
        s = _SIGNS[self.kind]
        return a * (s * theta(s * tau.real))[..., None]

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """(nt, basis.size) amplitudes at the stored times, amplitude(times)."""
        return self.amplitude(self.times)

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only (nt, m, m) blocks, built on first access and then kept.

        On periodic bases they are a zero-copy view over the nt first
        columns (O(nt m) memory); on the well and the oscillator they are
        dense.
        """
        return mode_blocks(self.basis, self.amplitudes, _prefactor(self.convention))

    def _check_window(self, tau: float, message: str, first: int | None = 0, last: int = -1) -> None:
        """Raise ValueError(message) unless tau is finite and in times[first]
        .. times[last] (no lower end if first is None) up to 1e-9 max(1, |tau|)."""
        slack = 1e-9 * max(1.0, abs(tau))
        low = -np.inf if first is None else self.times[first] - slack
        if not (np.isfinite(tau) and low <= tau <= self.times[last] + slack):
            raise ValueError(message)

    def at(self, tau: float) -> np.ndarray:
        """Read-only block at the time sample closest to tau (must match
        closely); builds that one block only."""
        i = int(np.argmin(np.abs(self.times - tau)))
        self._check_window(tau, f"tau={tau} is not a stored time sample", i, i)
        return mode_blocks(self.basis, self.amplitudes[i], _prefactor(self.convention))


def auxiliary_kernel(basis: EigenSystem, window: TimeWindow, convention: str = "eq24") -> Kernel:
    """Spectral phase-sum kernel over the window.

    For the relativistic model the basis already carries both energy branches,
    so the plain mode sum reproduces the two-branch integrand.
    """
    return Kernel(basis, window.samples, convention=convention)


def step_factor_kernel(aux: Kernel, direction: str) -> Kernel:
    """Attach the time step factor: theta(tau) or -theta(-tau).

    theta(0) = 1/2, so the sample exactly at tau = 0 carries half the
    auxiliary value in either direction.
    """
    if aux.kind != "auxiliary":
        raise ValueError("step factor applies to auxiliary kernels only")
    _sign(direction)  # raises on anything but retarded or advanced
    return replace(aux, kind=direction)


def kernel_entry(basis: EigenSystem, i: int, j: int, tau: complex, convention: str = "eq24") -> complex:
    """Single kernel entry K(x_i, x_j; tau) without assembling the block.

    Accepts complex tau; a negative imaginary part damps the high modes
    (Abel regularization), which is how the slowly converging spectral sums
    are compared against the analytic closed forms.
    """
    products = basis.mode_products(i, j)
    _require_finite(tau, "tau")
    factor = _prefactor(convention)
    return complex(factor * np.sum(products * _law("first", basis).amplitude(basis, np.asarray(tau))))


def propagate(kernel: Kernel, psi0: SampledFunction, tau: float) -> SampledFunction:
    """psi(x, tau) = sum_j w_j G^R(x, x_j; tau) psi0(x_j).

    Evaluated spectrally from the kernel's amplitude law (exact at any tau
    inside the window), always in the eq24-consistent convention.
    """
    if kernel.kind != "retarded":
        raise ValueError("propagation uses the retarded kernel")
    if tau < 0:
        raise ValueError("retarded kernel cannot evolve into the past")
    kernel._check_window(tau, "tau outside the kernel window")
    basis = kernel.basis
    c = project_state(basis, psi0).values * kernel.amplitude(tau)
    return reconstruct(Coefficients(c, basis))


def composition_residual(kernel: Kernel, tau1: float, tau2: float) -> float:
    """max-norm of K(tau1 + tau2) - K(tau1) o K(tau2).

    The composition o is the quadrature-weighted spatial contraction; the
    kernel's amplitude law is evaluated in the eq24-consistent convention,
    where phase additivity makes the auxiliary kernel's residual vanish on
    complete grids.  spectra.composition_norm takes the norm, without a
    block on a builder's basis.
    """
    if tau1 < 0 or tau2 < 0:
        raise ValueError("split times must be non-negative")
    kernel._check_window(tau1 + tau2, "tau1 + tau2 outside the kernel window")
    return composition_norm(kernel.basis, kernel.amplitude(np.array([tau1 + tau2, tau1, tau2])))


def free_kernel_closed_form(
    dx: float,
    tau: complex,
    constants: PhysicalConstants = PhysicalConstants(),
) -> complex:
    """(m / (2 pi i hbar tau))^{1/2} exp(i m dx^2 / (2 hbar tau)), in 1-D.

    Principal power of the complex prefactor (phase -pi/4 for tau > 0).
    Complex tau with negative imaginary part is the damped continuation used
    when comparing against regularized spectral sums.
    """
    _require_finite([dx, tau], "dx and tau")
    if tau == 0:
        raise ValueError("closed form is singular at tau = 0; use the delta limit")
    m, hbar = constants.mass, constants.hbar
    pref = (m / (2j * np.pi * hbar * tau)) ** 0.5
    return complex(pref * np.exp(1j * m * dx**2 / (2 * hbar * tau)))


def oscillator_kernel_closed_form(
    x: float,
    xp: float,
    tau: complex,
    constants: PhysicalConstants = PhysicalConstants(),
) -> complex:
    """Oscillator closed-form kernel with the branch fixed by the tau -> 0+ free limit.

    Past each caustic (omega tau crossing a multiple of pi) the square-root
    branch picks up an extra factor exp(-i pi/2); near caustics the value is
    rejected and the spectral sum is the fallback.
    """
    _require_finite([x, xp, tau], "x, x' and tau")
    m, hbar, omega = constants.mass, constants.hbar, constants.omega
    wt = omega * tau
    s = np.sin(wt)
    if abs(s) < CAUSTIC_TOL:
        raise ValueError(f"caustic: |sin(omega tau)| = {abs(s):.2e} < {CAUSTIC_TOL}")
    # factor sin(wt) = (-1)^n sin(wt - n pi) with Re(sin(wt - n pi)) > 0,
    # keeping the principal square root on a single sheet per interval
    n = int(np.floor(np.real(wt) / np.pi))
    s_red = np.sin(wt - n * np.pi)
    pref = np.sqrt(m * omega / (2 * np.pi * hbar * s_red)) * np.exp(-1j * np.pi / 4) * (-1j) ** n
    phase = np.exp(1j * m * omega * ((x**2 + xp**2) * np.cos(wt) - 2 * x * xp) / (2 * hbar * s))
    return complex(pref * phase)


def pde_jump_residual(basis: EigenSystem, convention: str, dtau: float) -> float:
    """Discrete residual of the retarded first-order equation across tau = 0.

    Central-difference time derivative of G^R = theta * K straddling the jump,
    H applied spectrally, against the source i hbar * (grid delta) *
    (discrete d theta / d tau).  Small only for the eq24-consistent
    convention; the minus-i form leaves an O(1/dtau) mismatch, which is the
    artifact's demonstration of the printed normalization inconsistency.
    """
    _require_scale(dtau, "dtau")
    ret = Kernel(basis, [-dtau, 0.0, dtau], kind="retarded", convention=convention)
    before, now, after = ret.amplitudes
    _, energies, hbar = _FirstOrder.modes(basis)
    # the operator i hbar d/dtau - H acts on each mode's amplitude: the
    # central difference of G^R across the jump, and E times G^R(0): one row
    row = _prefactor(convention) * (1j * hbar * (after - before) / (2 * dtau) - energies * now)
    return block_residual(basis, row, 1j * hbar / (2 * dtau))
