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

from .firstorder import Kernel, TimeWindow, _SecondOrder, _sign, step_factor_kernel, theta
from .grid import Grid1D, _require_finite, _require_scale
from .spectra import EigenSystem, _expand, _project, block_residual

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


@dataclass(frozen=True, eq=False)
class SourceField:
    """Source density f(x, t) sampled on (grid x times); the times follow
    TimeWindow's rule."""

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = TimeWindow(self.times).samples
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if v.shape != (t.size, self.grid.size):
            raise ValueError("values must be (times x grid points)")
        _require_finite(v, "source values")


@dataclass(frozen=True)
class PulseDescriptor:
    """Distributional EM kernel entry: amplitude / delta(tau - arrival).

    arrival is R/c > 0 for the retarded kernel, -R/c for the advanced one.
    width is the nascent-Gaussian width used when the pulse must be sampled.
    """

    amplitude: float
    arrival: float
    width: float = 0.0

    def sample(self, tau: np.ndarray) -> np.ndarray:
        """Nascent-Gaussian sampling of the pulse (width within [1e-150, 1e150])."""
        _require_scale(self.width, "pulse width")  # so that 2 width^2 is a normal float
        g = np.exp(-((tau - self.arrival) ** 2) / (2 * self.width**2))
        return self.amplitude * g / (self.width * np.sqrt(2 * np.pi))


def wave_auxiliary_kernel(basis: EigenSystem, window: TimeWindow) -> Kernel:
    """G = c sum_n phi_n phi_n* sin(sqrt(E_n) c tau) / sqrt(E_n), c = basis.constants.c,
    the second-order law (firstorder._SecondOrder): odd in tau, zero at tau = 0
    exactly, and on the relativistic two-branch basis the Klein-Gordon kernel,
    a box-normalized sum of e^{ik dx} sin(E_k tau)/E_k (hbar = c = 1)."""
    return Kernel(basis, window.samples, order="second")


def wave_step_factor_kernel(aux: Kernel, direction: str) -> Kernel:
    """theta(tau) G (retarded) or -theta(-tau) G (advanced) for wave kernels."""
    if aux._law is not _SecondOrder:
        raise ValueError("needs a second-order auxiliary kernel")
    return step_factor_kernel(aux, direction)


def em_kernel_closed_form(
    separation: float,
    c: float,
    direction: str = "retarded",
    width: float = 0.0,
) -> PulseDescriptor:
    """Vacuum EM kernel between points a distance R apart.

    Amplitude 1/(4 pi R), pulse at tau = s R/c: R/c (retarded) or -R/c
    (advanced); c within [1e-150, 1e150].
    """
    if not separation > 0:
        raise ValueError("self-field is singular: separation must be positive")
    _require_scale(c, "wave speed")
    arrival = _sign(direction) * separation / c
    return PulseDescriptor(1.0 / (4 * np.pi * separation), arrival, width)


def _require_times(times, name: str) -> np.ndarray:
    """times as a 1-D float array; raises ValueError, naming them, unless
    they are 1-D and finite."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array")
    _require_finite(times, name)
    return times


def field_from_source(kernel: Kernel, source: SourceField, eval_times: np.ndarray) -> np.ndarray:
    """psi(x, t) = sum over (x', t') of weights * G^R(x, x'; t - t') f(x', t').

    Spatial contraction uses the grid weights, time integration the trapezoid
    rule over the source samples, with the modes, sqrt(lambda) and wave speed
    c = basis.constants.c of the kernel's law.  Contributions with t' > t
    vanish through the retarded step factor, so a source in the future
    yields exactly zero, and so does the field at the source's first time.
    Returns an array of shape (eval_times, grid points).
    """
    if kernel.kind != "retarded" or kernel._law is not _SecondOrder:
        raise ValueError("field convolution uses the retarded second-order kernel")
    basis = kernel.basis
    if source.grid != basis.grid:
        raise ValueError("source must live on the kernel grid")
    ts = source.times
    eval_times = _require_times(eval_times, "evaluation times")
    if eval_times.size:
        # the largest lag t - t' evaluated must not pass the kernel window end
        lag = eval_times.max() - ts[0]
        kernel._check_window(lag, f"lag t - t' = {lag:g} exceeds the kernel window end {kernel.times[-1]:g}", None)
    dt = np.diff(ts)  # trapezoid weights, 1 for a single source sample
    wt = np.concatenate([dt[:1], dt[:-1] + dt[1:], dt[-1:]]) / 2 if ts.size > 1 else np.ones(1)
    index = _SecondOrder.modes(basis)[0]
    # project the source once: s_n(t') = <phi_n, f(., t')>, one row per t'
    s_modes = _project(basis, source.values)[:, index]
    # the law c S(t - t') = c S(t) C(t') - C(t) c S(t') (_SecondOrder.phases),
    # both times measured from ts[0] so that the onset's lag-0 terms are exact zeros
    t, tp = eval_times[:, None] - ts[0], ts[:, None] - ts[0]
    s_t, c_t = _SecondOrder.phases(basis, t)
    s_tp, c_tp = _SecondOrder.phases(basis, tp)
    src = np.concatenate([c_tp * s_modes, s_tp * s_modes], axis=1)
    causal = theta(t - tp.T) * wt  # (eval, source): theta(t - t') w_t'
    both = (causal @ src.view(float)).view(complex)
    n = index.size
    coefficients = np.zeros((eval_times.size, basis.size), dtype=complex)
    coefficients[:, index] = s_t * both[:, :n] - c_t * both[:, n:]
    return _expand(basis, coefficients)


def point_charge_potential(q: float, eps0: float, r: float, t: float, c: float) -> float:
    """theta(t) * Q / (4 pi eps0 r) * theta(t - r/c), with theta(0) = 1/2.

    The potential of a charge switching on at the origin at t = 0: zero until
    the front arrives at t = r/c, the static Coulomb value afterwards.
    q and t must be finite, and eps0 and c within [1e-150, 1e150].
    """
    if not r > 0:
        raise ValueError("potential is singular at r = 0")
    _require_finite(q, "charge q")
    _require_scale(eps0, "permittivity eps0")
    _require_finite(t, "t")
    _require_scale(c, "wave speed")
    return float(theta(t) * q / (4 * np.pi * eps0 * r) * theta(t - r / c))


def em_point_charge_field(
    q: float,
    eps0: float,
    c: float,
    r: float,
    t_grid: np.ndarray,
    pulse_width: float = 0.0,
) -> np.ndarray:
    """Potential of the switch-on point charge via the EM kernel convolution.

    pulse_width = 0 evaluates the time integral by the sifting property of
    the delta pulse (exact, including the half value on the front itself);
    pulse_width > 0 replaces the pulse by a nascent Gaussian and does the
    time quadrature numerically, as an independent cross-check.  q must be
    finite and eps0 within [1e-150, 1e150], and t_grid a 1-D array of finite
    times in any order; an empty t_grid gives an empty array on both routes.
    """
    _require_finite(q, "charge q")
    _require_scale(eps0, "permittivity eps0")
    pulse = em_kernel_closed_form(r, c, "retarded", width=pulse_width)
    t_grid = _require_times(t_grid, "t_grid")
    profile = lambda s: q * theta(s) / eps0  # noqa: E731  source time factor of Eq-style Q theta(t)
    if pulse_width == 0:
        # psi(t) = amplitude * f(t - R/c); the retarded arrival already
        # enforces t' = t - R/c < t
        return pulse.amplitude * profile(t_grid - pulse.arrival)
    # the source is sampled past the latest time evaluated and the arrival,
    # whichever is later, in whatever order t_grid lists its times
    span = t_grid.max(initial=pulse.arrival) + 8 * pulse_width
    source_times = np.linspace(-8 * pulse_width, span, 4001)
    out = np.empty_like(t_grid)
    f_src = profile(source_times)
    for i, t in enumerate(t_grid):
        g = pulse.sample(t - source_times) * theta(t - source_times)
        out[i] = np.trapezoid(g * f_src, source_times)
    return out


def wave_pde_residual(basis: EigenSystem, tau_grid: np.ndarray) -> float:
    """Max discrete residual of (-(1/c^2) d^2/dtau^2 - H) G on interior times.

    H acts spectrally (exact on the grid); the second time derivative is the
    centered difference, so the residual is O(dtau^2) and is reported for
    convergence monitoring.
    """
    kern = wave_auxiliary_kernel(basis, TimeWindow(tau_grid))
    t = kern.times
    if t.size < 3:
        raise ValueError("need at least three time samples")
    index, root_e, c = _SecondOrder.modes(basis)
    # -(1/c^2) d^2/dtau^2 - H acts on each mode's amplitude: the centered
    # second difference of the law's amplitudes, and E = root_e^2 times them
    g = kern.amplitudes[:, index].real
    dt = np.diff(t)[:, None]
    d2 = ((g[2:] - g[1:-1]) / dt[1:] - (g[1:-1] - g[:-2]) / dt[:-1]) / ((dt[:-1] + dt[1:]) / 2)
    amps = np.zeros((t.size - 2, basis.size))
    amps[:, index] = -d2 / c**2 - root_e**2 * g[1:-1]
    return block_residual(basis, amps)
