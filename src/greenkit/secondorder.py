"""Second-order (wave-type) kernels, EM closed forms and source convolution.

The wave auxiliary kernel is G = c sum_n phi_n(x) phi_n*(x') sin(sqrt(E_n) c
tau) / sqrt(E_n): it vanishes at tau = 0 and its one-sided time derivative is
c^2 times the grid delta, which is how a point source switching on at t'
enters the equation.  The vacuum electromagnetic kernel is distributional, a
single outgoing (or incoming) pulse of amplitude 1/(4 pi R) at delay R/c,
carried here as a descriptor rather than a sampled delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .firstorder import Kernel, TimeWindow, _sign, _step_factor, theta
from .grid import Grid1D
from .spectra import EigenSystem, PhysicalConstants, mode_blocks

__all__ = [
    "SourceField",
    "PulseDescriptor",
    "wave_auxiliary_kernel",
    "wave_step_factor_kernel",
    "em_kernel_closed_form",
    "field_from_source",
    "em_point_charge_field",
    "point_charge_potential",
    "wave_pde_residual",
]


@dataclass(frozen=True)
class SourceField:
    """Source density f(x, t) sampled on (grid x times)."""

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if not np.all(np.diff(t) > 0):
            raise ValueError("time samples must be strictly increasing")
        if v.shape != (t.size, self.grid.size):
            raise ValueError("values must be (times x grid points)")
        if not np.all(np.isfinite(v)):
            raise ValueError("source values must be finite")


@dataclass(frozen=True)
class PulseDescriptor:
    """Distributional EM kernel entry: amplitude / delta(tau - arrival).

    direction retarded gives arrival R/c > 0, advanced -R/c.  width is the
    nascent-Gaussian width used when the pulse must be sampled.
    """

    amplitude: float
    arrival: float
    direction: str
    width: float = 0.0

    def sample(self, tau: np.ndarray) -> np.ndarray:
        """Nascent-Gaussian sampling of the pulse (width must be > 0)."""
        if self.width <= 0:
            raise ValueError("sampling needs a positive pulse width")
        g = np.exp(-((tau - self.arrival) ** 2) / (2 * self.width**2))
        return self.amplitude * g / (self.width * np.sqrt(2 * np.pi))


def _wave_modes(basis: EigenSystem) -> tuple:
    """(mode indices, sqrt(E_n)) of the spectral wave kernel; rejects negative
    eigenvalues.

    The relativistic two-branch basis is the Klein-Gordon case: it repeats
    each momentum at +-E_k, so one copy per momentum is kept, with E = E_k^2.
    """
    if basis.model == "helmholtz":
        index = np.arange(basis.size)
        e = basis.energies
    elif basis.model == "relativistic":
        if not (basis.constants.hbar == 1.0 and basis.constants.c == 1.0):
            raise ValueError("Klein-Gordon kernel assumes hbar = c = 1 units")
        index = np.flatnonzero(basis.branches > 0)
        e = basis.energies[index] ** 2
    else:
        raise ValueError(f"model {basis.model!r} is not a second-order model")
    if np.any(e < 0):
        raise ValueError("second-order kernel needs non-negative eigenvalues")
    return index, np.sqrt(e)


def _wave_amplitude(root_e: np.ndarray, c: float, tau) -> np.ndarray:
    """c sin(sqrt(E) c tau) / sqrt(E), with the zero-mode limit c tau; tau
    broadcasts against root_e."""
    zero = root_e == 0
    return np.where(zero, c * tau, c * np.sin(root_e * c * tau) / np.where(zero, 1.0, root_e))


def wave_auxiliary_kernel(
    basis: EigenSystem,
    window: TimeWindow,
    constants: PhysicalConstants | None = None,
) -> Kernel:
    """G = c sum_n phi_n phi_n* sin(sqrt(E_n) c tau) / sqrt(E_n).

    The zero mode uses the removable-singularity limit sin(0 * )/0 -> c tau.
    Odd in tau by construction, zero at tau = 0 exactly.  On the relativistic
    two-branch basis this is the Klein-Gordon kernel, a box-normalized sum of
    e^{ik dx} sin(E_k tau)/E_k with E_k = +sqrt(k^2 + m^2) (hbar = c = 1).
    """
    c = (constants if constants is not None else basis.constants).c
    index, root_e = _wave_modes(basis)
    amps = _wave_amplitude(root_e, c, window.samples[:, None])
    return Kernel(basis, window.samples, amps, index, kind="auxiliary", wave_speed=c)


def wave_step_factor_kernel(aux: Kernel, direction: str) -> Kernel:
    """theta(tau) G (retarded) or -theta(-tau) G (advanced) for wave kernels."""
    if aux.order != "second" or aux.kind != "auxiliary":
        raise ValueError("needs a second-order auxiliary kernel")
    return _step_factor(aux, direction)


def em_kernel_closed_form(
    separation: float,
    c: float,
    direction: str = "retarded",
    width: float = 0.0,
) -> PulseDescriptor:
    """Vacuum EM kernel between points a distance R apart.

    Amplitude 1/(4 pi R), pulse at tau = s R/c: R/c (retarded) or -R/c
    (advanced).
    """
    if not separation > 0:
        raise ValueError("self-field is singular: separation must be positive")
    arrival = _sign(direction) * separation / c
    return PulseDescriptor(1.0 / (4 * np.pi * separation), arrival, direction, width)


def field_from_source(kernel: Kernel, source: SourceField, eval_times: np.ndarray) -> np.ndarray:
    """psi(x, t) = sum over (x', t') of weights * G^R(x, x'; t - t') f(x', t').

    Spatial contraction uses the grid weights, time integration the trapezoid
    rule over the source samples, at the wave speed the kernel was built
    with.  Contributions with t' > t vanish through the retarded step factor,
    so a source in the future yields exactly zero, and so does the field at
    the source's first time.  Returns an array of shape (eval_times, grid
    points).
    """
    if kernel.kind != "retarded" or kernel.order != "second":
        raise ValueError("field convolution uses the retarded second-order kernel")
    basis = kernel.basis
    if source.grid != basis.grid:
        raise ValueError("source must live on the kernel grid")
    ts = source.times
    eval_times = np.asarray(eval_times, dtype=float)
    if eval_times.size:
        # the largest lag t - t' evaluated must lie inside the kernel window
        # (same slack as Kernel.at)
        lag = eval_times.max() - ts[0]
        if lag - kernel.times[-1] > 1e-9 * max(1.0, abs(lag)):
            raise ValueError(f"lag t - t' = {lag:g} exceeds the kernel window end {kernel.times[-1]:g}")
    if ts.size > 1:
        wt = np.empty_like(ts)
        dt = np.diff(ts)
        wt[0] = dt[0] / 2
        wt[-1] = dt[-1] / 2
        wt[1:-1] = (dt[:-1] + dt[1:]) / 2
    else:
        wt = np.array([1.0])
    index, root_e = _wave_modes(basis)
    modes = basis.mode_values[index]
    c = kernel.wave_speed
    # project the source once: s_n(t') = <phi_n, f(., t')>, one row per t'
    s_modes = source.values @ (basis.grid.weights[:, None] * np.conj(modes.T))
    # sin(r c (t - t')) = sin(r c t) cos(r c t') - cos(r c t) sin(r c t'), and
    # c (t - t') for the zero mode, with both times measured from ts[0] so
    # that the lag-0 terms at the onset are exact zeros
    t, tp = eval_times[:, None] - ts[0], ts[:, None] - ts[0]
    zero = root_e == 0
    r = np.where(zero, 1.0, root_e)
    early = np.where(zero, c * t, c * np.sin(r * c * t) / r)
    late = np.where(zero, -c, -c * np.cos(r * c * t) / r)
    src = np.concatenate([np.where(zero, 1.0, np.cos(r * c * tp)) * s_modes,
                          np.where(zero, tp, np.sin(r * c * tp)) * s_modes], axis=1)
    causal = theta(t - tp.T) * wt  # (eval, source): theta(t - t') w_t'
    both = (causal @ src.view(float)).view(complex)
    n = index.size
    return (early * both[:, :n] + late * both[:, n:]) @ modes


def point_charge_potential(q: float, eps0: float, r: float, t: float, c: float) -> float:
    """theta(t) * Q / (4 pi eps0 r) * theta(t - r/c), with theta(0) = 1/2.

    The potential of a charge switching on at the origin at t = 0: zero until
    the front arrives at t = r/c, the static Coulomb value afterwards.
    """
    if not r > 0:
        raise ValueError("potential is singular at r = 0")
    return float(theta(t) * q / (4 * np.pi * eps0 * r) * theta(t - r / c))


def em_point_charge_field(
    q: float,
    eps0: float,
    c: float,
    r: float,
    t_grid: np.ndarray,
    pulse_width: float = 0.0,
    source_times: np.ndarray | None = None,
) -> np.ndarray:
    """Potential of the switch-on point charge via the EM kernel convolution.

    pulse_width = 0 evaluates the time integral by the sifting property of
    the delta pulse (exact, including the half value on the front itself);
    pulse_width > 0 replaces the pulse by a nascent Gaussian and does the
    time quadrature numerically, as an independent cross-check.
    """
    pulse = em_kernel_closed_form(r, c, "retarded", width=pulse_width)
    t_grid = np.asarray(t_grid, dtype=float)
    profile = lambda s: q * theta(s) / eps0  # noqa: E731  source time factor of Eq-style Q theta(t)
    if pulse_width == 0:
        # psi(t) = amplitude * f(t - R/c); the retarded arrival already
        # enforces t' = t - R/c < t
        return pulse.amplitude * profile(t_grid - pulse.arrival)
    if source_times is None:
        span = max(t_grid[-1], pulse.arrival) + 8 * pulse_width
        source_times = np.linspace(-8 * pulse_width, span, 4001)
    out = np.empty_like(t_grid)
    f_src = profile(source_times)
    for i, t in enumerate(t_grid):
        g = pulse.sample(t - source_times) * theta(t - source_times)
        out[i] = np.trapezoid(g * f_src, source_times)
    return out


def wave_pde_residual(basis: EigenSystem, tau_grid: np.ndarray, constants: PhysicalConstants | None = None) -> float:
    """Max discrete residual of (-(1/c^2) d^2/dtau^2 - H) G on interior times.

    H acts spectrally (exact on the grid); the second time derivative is the
    centered difference, so the residual is O(dtau^2) and is reported for
    convergence monitoring.
    """
    constants = constants if constants is not None else basis.constants
    t = TimeWindow(np.asarray(tau_grid, dtype=float)).samples
    if t.size < 3:
        raise ValueError("need at least three time samples")
    index, root_e = _wave_modes(basis)
    # -(1/c^2) d^2/dtau^2 - H acts on each mode's amplitude: the centered
    # second difference of the wave amplitudes, and E = root_e^2 times them
    g = _wave_amplitude(root_e, constants.c, t[:, None])
    dt = np.diff(t)[:, None]
    d2 = ((g[2:] - g[1:-1]) / dt[1:] - (g[1:-1] - g[:-2]) / dt[:-1]) / ((dt[:-1] + dt[1:]) / 2)
    residual = mode_blocks(basis, -d2 / constants.c**2 - root_e**2 * g[1:-1], index)
    return float(np.max(np.abs(residual)))
