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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import SampledFunction
from .spectra import (
    STRUCTURED_MODELS,
    Coefficients,
    EigenSystem,
    PhysicalConstants,
    column_max_norm,
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

FIRST_ORDER_MODELS = ("free", "well", "oscillator", "relativistic")


def theta(tau):
    """Step function with theta(0) = 1/2."""
    return np.where(tau > 0, 1.0, np.where(tau < 0, 0.0, 0.5))


# The one sign s that separates the two directions: G_s = s theta(s tau) K in
# time, poles at omega_n - i s eta in frequency, arrival at s R / c.
_SIGNS = {"retarded": 1, "advanced": -1}


def _sign(direction: str) -> int:
    """s = +1 for retarded, -1 for advanced; any other direction raises."""
    if direction not in _SIGNS:
        raise ValueError(f"unknown direction {direction!r}")
    return _SIGNS[direction]


@dataclass(frozen=True)
class TimeWindow:
    """Ordered tau = t - t' samples.

    zero_plus adds a one-sided 0+ sample (a tiny positive tau, <= 1e-6 of the
    span) used by the initial-condition checks.
    """

    samples: np.ndarray
    zero_plus: bool = False

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("need at least one time sample")
        if not np.all(np.diff(s) > 0):
            raise ValueError("time samples must be strictly increasing")
        if self.zero_plus:
            pos = s[s > 0]
            span = s[-1] - s[0] if s.size > 1 else max(abs(s[0]), 1.0)
            if pos.size == 0 or pos[0] > 1e-6 * span:
                raise ValueError("zero_plus window needs a sample within 1e-6 of the span above 0")

    @classmethod
    def linear(cls, t0: float, t1: float, n: int, zero_plus: bool = False) -> "TimeWindow":
        s = np.linspace(t0, t1, n)
        if zero_plus:
            eps = 1e-7 * (t1 - t0)
            s = np.unique(np.concatenate([s, [eps]]))
        return cls(s, zero_plus=zero_plus)


@dataclass(frozen=True)
class Kernel:
    """G(x_i, x_j; tau_k) over a time window, stored as per-time mode amplitudes.

    Block k is sum_n phi_n(x_i) amplitudes[k, n] phi_n*(x_j) over the basis
    modes listed in `modes` (all of them by default), times -i under the
    minus-i convention.  kind: auxiliary | retarded | advanced; convention:
    "eq24" (no prefactor) or "minus-i" (printed literature form); wave_speed:
    the c a second-order kernel was built with, None for a first-order one.
    """

    basis: EigenSystem
    times: np.ndarray
    amplitudes: np.ndarray = field(repr=False)
    modes: np.ndarray | None = None
    kind: str = "auxiliary"
    convention: str = "eq24"
    wave_speed: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        modes = np.arange(self.basis.size) if self.modes is None else np.asarray(self.modes, dtype=int)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "modes", modes)
        if modes.ndim != 1 or np.any((modes < 0) | (modes >= self.basis.size)):
            raise ValueError("modes must index rows of the basis")
        if a.shape != (t.size, modes.size):
            raise ValueError("amplitudes must be one row per time sample, one column per mode")
        if self.kind not in ("auxiliary", "retarded", "advanced"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.convention not in ("eq24", "minus-i"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.wave_speed is not None and not 0 < self.wave_speed < np.inf:
            raise ValueError("wave speed must be positive and finite")
        # support law: zero amplitudes build exact zero blocks
        s = _SIGNS.get(self.kind, 0)  # 0: the auxiliary kernel has no wrong side
        if np.any(a[s * t < 0] != 0):
            raise ValueError(f"{self.kind} kernel must vanish identically for tau {'<' if s > 0 else '>'} 0")

    @property
    def order(self) -> str:
        """Second for a wave kernel (one built with a wave speed), else first."""
        return "first" if self.wave_speed is None else "second"

    def _blocks(self, amplitudes: np.ndarray) -> np.ndarray:
        return mode_blocks(self.basis, amplitudes, self.modes, -1j if self.convention == "minus-i" else 1)

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only (nt, m, m) blocks, built on first access and then kept.

        On periodic bases they are a zero-copy view over the nt first
        columns (O(nt m) memory); on the well and the oscillator they are
        dense.
        """
        return self._blocks(self.amplitudes)

    def at(self, tau: float) -> np.ndarray:
        """Read-only block at the time sample closest to tau (must match
        closely); builds that one block only."""
        i = int(np.argmin(np.abs(self.times - tau)))
        if abs(self.times[i] - tau) > 1e-9 * max(1.0, abs(tau)):
            raise ValueError(f"tau={tau} is not a stored time sample")
        return self._blocks(self.amplitudes[i])


def _phase_weights(basis: EigenSystem, tau: complex) -> np.ndarray:
    return np.exp(-1j * basis.energies * tau / basis.constants.hbar)


def auxiliary_kernel(basis: EigenSystem, window: TimeWindow, convention: str = "eq24") -> Kernel:
    """Spectral phase-sum kernel over the window.

    For the relativistic model the basis already carries both energy branches,
    so the plain mode sum reproduces the two-branch integrand.
    """
    if basis.model not in FIRST_ORDER_MODELS:
        raise ValueError(f"model {basis.model!r} is not a first-order model")
    if basis.size == 0:
        raise ValueError("empty basis")
    amps = _phase_weights(basis, window.samples[:, None])
    return Kernel(basis, window.samples, amps, kind="auxiliary", convention=convention)


def step_factor_kernel(aux: Kernel, direction: str) -> Kernel:
    """Attach the time step factor: theta(tau) or -theta(-tau).

    theta(0) = 1/2, so the sample exactly at tau = 0 carries half the
    auxiliary value in either direction.
    """
    if aux.kind != "auxiliary":
        raise ValueError("step factor applies to auxiliary kernels only")
    return _step_factor(aux, direction)


def _step_factor(aux: Kernel, direction: str) -> Kernel:
    """s theta(s tau) aux: theta(tau) aux (retarded) or -theta(-tau) aux
    (advanced), for an auxiliary kernel of either order."""
    s = _sign(direction)
    fac = s * theta(s * aux.times)
    return Kernel(aux.basis, aux.times, aux.amplitudes * fac[:, None], aux.modes, kind=direction,
                  convention=aux.convention, wave_speed=aux.wave_speed)


def kernel_entry(basis: EigenSystem, i: int, j: int, tau: complex, convention: str = "eq24") -> complex:
    """Single kernel entry K(x_i, x_j; tau) without assembling the block.

    Accepts complex tau; a negative imaginary part damps the high modes
    (Abel regularization), which is how the slowly converging spectral sums
    are compared against the analytic closed forms.
    """
    basis.check_point_indices(i, j)
    ph = _phase_weights(basis, tau)
    val = np.sum(basis.mode_values[:, i] * np.conj(basis.mode_values[:, j]) * ph)
    return complex(-1j * val if convention == "minus-i" else val)


def propagate(kernel: Kernel, psi0: SampledFunction, tau: float) -> SampledFunction:
    """psi(x, tau) = sum_j w_j G^R(x, x_j; tau) psi0(x_j).

    Evaluated spectrally from the kernel's basis (exact at any tau inside the
    window), always in the eq24-consistent convention.
    """
    if kernel.kind != "retarded":
        raise ValueError("propagation uses the retarded kernel")
    if tau < 0:
        raise ValueError("retarded kernel cannot evolve into the past")
    if not kernel.times[0] <= tau <= kernel.times[-1]:
        raise ValueError("tau outside the kernel window")
    basis = kernel.basis
    c = project_state(basis, psi0).values * _phase_weights(basis, tau) * theta(tau)
    return reconstruct(Coefficients(c, basis))


def composition_residual(kernel: Kernel, tau1: float, tau2: float) -> float:
    """max-norm of K(tau1 + tau2) - K(tau1) o K(tau2).

    The composition o is the quadrature-weighted spatial contraction; the
    auxiliary phase sum is evaluated in the eq24-consistent convention,
    where phase additivity makes the residual vanish on complete grids.

    On periodic and well bases every block, and so the residual, lies in the
    basis algebra (circulant, or Toeplitz minus Hankel: a sine mode past m
    aliases onto +- a retained one, and the weights are uniform), where a
    block is rebuilt from its first column.  The residual's first column is
    one O(m^2) matrix-vector product, and column_max_norm turns it into the
    max-norm.  The oscillator has no grid algebra and forms the dense
    O(m^3) product.
    """
    if tau1 < 0 or tau2 < 0:
        raise ValueError("split times must be non-negative")
    if not kernel.times[0] <= tau1 + tau2 <= kernel.times[-1]:
        raise ValueError("tau1 + tau2 outside the kernel window")
    basis = kernel.basis
    taus = np.array([tau1 + tau2, tau1, tau2])
    lhs, k1, k2 = mode_blocks(basis, _phase_weights(basis, taus[:, None]))
    w = basis.grid.weights
    if basis.model not in STRUCTURED_MODELS:
        return float(np.max(np.abs(lhs - k1 @ (w[:, None] * k2))))
    return column_max_norm(basis, lhs[:, 0] - k1 @ (w * k2[:, 0]))


def free_kernel_closed_form(
    dx: float,
    tau: complex,
    constants: PhysicalConstants = PhysicalConstants(),
    dimension: int = 1,
) -> complex:
    """(m / (2 pi i hbar tau))^{d/2} exp(i m dx^2 / (2 hbar tau)).

    Principal power of the complex prefactor (phase -pi/4 per dimension for
    tau > 0).  Complex tau with negative imaginary part is the damped
    continuation used when comparing against regularized spectral sums.
    """
    if dimension not in (1, 3):
        raise ValueError("dimension must be 1 or 3")
    if tau == 0:
        raise ValueError("closed form is singular at tau = 0; use the delta limit")
    m, hbar = constants.mass, constants.hbar
    pref = (m / (2j * np.pi * hbar * tau)) ** (dimension / 2)
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
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    hbar = basis.constants.hbar
    w = basis.grid.weights
    pref = -1j if convention == "minus-i" else 1.0
    # G^R(+dtau) = K(+dtau), G^R(-dtau) = 0, G^R(0) = K(0)/2, so the
    # operator i hbar d/dtau - H acts on each mode's amplitude as
    # i hbar e^{-i E dtau / hbar} / (2 dtau) - E / 2: one block
    amps = 1j * hbar * _phase_weights(basis, dtau) / (2 * dtau) - basis.energies / 2
    lhs = mode_blocks(basis, amps, factor=pref)
    rhs = 1j * hbar * np.diag(1.0 / w) / (2 * dtau)
    return float(np.max(np.abs(lhs - rhs)))
