"""Frequency-space responses with explicit eta regularization.

A spectral density is a finite list of weighted frequency lines; shifting the
lines off the real axis by -i eta (retarded) or +i eta (advanced) gives the
frequency response in closed pole form.  The same response is recomputed by
numerically convolving the density, its lines broadened to width eta/10,
against 1/(omega - omega' +- i 9 eta/10), the demonstration that the
convolution route and the pole representation are the same object.  The
relativistic per-momentum responses and their Feynman recombination carry an
explicit pole inventory so the half-plane census is an exact assertion, not a
fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .firstorder import _law, _sign, _suppressed
from .grid import _BLOCK, _FormedOnRead, _require_finite, _slices
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


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Finite list of frequency lines (omega_n, weight).

    Second-order densities come in mirrored +-sqrt(E) c pairs with
    opposite-sign weights: the +sqrt(E) c half first, then its mirror.
    """

    omegas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        wt = np.asarray(self.weights, dtype=complex)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "weights", wt)
        if om.shape != wt.shape:
            raise ValueError("omegas and weights must align")
        _require_finite([om, wt], "line frequencies and weights")


@dataclass(frozen=True, eq=False)
class FreqResponse(_FormedOnRead):
    """Complex response over an omega grid, and its pole inventory: a non-empty
    tuple of finite (p_n, r_n) off the real axis, from which eta and direction are read.

    FreqResponse(omega, values, poles) stores its values.  With values None
    it is the pole form sum_n r_n / (omega - p_n), kept as (omega, poles):
    values are formed, read-only, on first read, and _slice reads them a
    slice at a time without forming them.  The pole form's range is checked
    here (see _require_pole_range), so a read never overflows.
    """

    omega: np.ndarray
    values: np.ndarray = field(repr=False)
    poles: tuple

    _formed = {"values": 1}

    def __post_init__(self):
        om = _response_axis(self.omega)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "poles", tuple((complex(p), complex(r)) for p, r in self.poles))
        if self.values is not None:
            v = np.asarray(self.values, dtype=complex)
            object.__setattr__(self, "values", v)
            if v.shape != om.shape:
                raise ValueError("one value per omega sample")
        _require_finite(self.poles, "poles and residues")
        if not self.poles or self.eta == 0:
            raise ValueError("a response needs its pole inventory, every pole off the real axis")
        if self.values is None:
            _require_pole_range(om, self.poles)
            del vars(self)["values"]

    def _slice(self, part: slice) -> tuple:
        """(omega, values) over the samples in part: views of stored or formed
        values, or the pole-form sum over the slice, each term r_n / (omega -
        p_n) formed in one reused buffer, so the slices are bit for bit the
        whole sum's."""
        om = self.omega[part]
        stored = vars(self).get("values")
        if stored is not None:
            return om, stored[part]
        vals = np.zeros(om.shape, dtype=complex)
        term = np.empty_like(vals)
        for p, r in self.poles:
            np.subtract(om, p, out=term)
            vals += np.divide(r, term, out=term)
        return om, vals

    @property
    def eta(self) -> float:
        return _width(self.poles)

    @property
    def direction(self) -> str:
        """retarded, advanced or feynman: every pole below the axis, every one above, or both."""
        below = [p.imag < 0 for p, _ in self.poles]
        return "retarded" if all(below) else "feynman" if any(below) else "advanced"


def _width(poles) -> float:
    """eta of a pole inventory: the least |Im p_n|."""
    return min(abs(p.imag) for p, _ in poles)


def spectral_density(basis: EigenSystem, i: int, j: int, order: str = "first") -> SpectralDensity:
    """Density of the kernel entry (x_i, x_j): the lines of the order's law
    (firstorder._law), one per mode at E_n/hbar, or a mirrored pair per
    mode at +-sqrt(lambda_n) c, where a zero mode (Helmholtz k = 0) is
    rejected.  Indices outside the grid raise ValueError, and so do lines
    past the float range (SpectralDensity's rule)."""
    phi = basis.mode_products(i, j)
    with np.errstate(over="ignore", invalid="ignore"):  # a line past the float range is refused below
        lines = _law(order, basis).lines(basis, phi)
    return SpectralDensity(*lines)


# v values per convolution chunk: few enough rows that a chunk's temporaries
# stay small (flat peak memory, cache-resident rows), enough that every numpy
# call still covers many thousand elements.
_CONV_ROWS = 8


def _shifted_poles(omegas, residues, eta: float, direction: str) -> tuple:
    """(omega_n - i s eta, r_n) per line, below the axis for retarded (s = +1) and
    above for advanced (s = -1): where every builder sets eta and the direction."""
    if not 0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    shift = -1j * _sign(direction) * eta
    return tuple((om + shift, r) for om, r in zip(omegas, residues))


def _response_axis(omega) -> np.ndarray:
    """omega as floats, once the check both routes and FreqResponse share passes: finite omega."""
    omega = np.asarray(omega, dtype=float)
    _require_finite(omega, "omega samples")
    return omega


def _require_pole_range(omega: np.ndarray, poles: tuple) -> None:
    """The range of the pole form sum_n r_n / (omega - p_n): every |omega| and
    every line |omega_n| at most 1e150, so that omega - omega_n is a normal
    float; eta at least 1e-300, so that 1 / (omega - p_n) is finite; and
    sum_n (|Re r_n| + |Im r_n|) at most 1e308 eta, which keeps every value
    below sqrt(2) 1e308.  Inside it the values are finite; outside it a
    ValueError names the range, before any numpy warning.  max |omega| is
    read from the least and largest sample, with no array of the axis length.
    """
    eta = _width(poles)
    lines = np.array([p.real for p, _ in poles])
    res = np.array([r for _, r in poles], dtype=complex)
    with np.errstate(over="ignore"):  # a sum or ratio past the float range is rejected below
        weight = (np.sum(np.abs(res.real)) + np.sum(np.abs(res.imag))) / eta
    reach = max(-omega.min(initial=0.0), omega.max(initial=0.0))
    if not (eta >= 1e-300 and weight <= 1e308 and reach <= 1e150 and np.all(np.abs(lines) <= 1e150)):
        raise ValueError(
            "the pole form needs |omega| and every |omega_n| <= 1e150, eta >= 1e-300 "
            "and sum_n (|Re r_n| + |Im r_n|) <= 1e308 eta"
        )


def response_from_density(
    density: SpectralDensity, omega: np.ndarray, eta: float, direction: str
) -> FreqResponse:
    """Closed pole form sum_n w_n / (omega - omega_n + i s eta)."""
    return FreqResponse(omega, None, _shifted_poles(density.omegas, density.weights, eta, direction))


def _line_integrals(omega, lines, eta: float, direction: str) -> np.ndarray:
    """Table J[k, l] = J(omega_k - lines_l) of broadened-line integrals.

    Each line is broadened to a unit-area Lorentzian L of width eta_b =
    eta/10, and the convolution kernel carries the remaining eta_k = eta -
    eta_b, so that J(v) = int L(u) / (v - u + i s eta_k) du
    depends only on v.  Every (omega, line) pair gets its own two-scale
    trapezoid grid: fine patches |u| <= 40 eta_b and |u| <= 60 eta around
    the line, geometric legs out to 60 (max(|v|, eta) + eta), and a +-40
    eta_k cluster at the kernel pole u = v when that lies outside the
    40 eta_b patch.  The pairs are evaluated _CONV_ROWS at a time, each pair
    as one row of a sorted node array (about 8k nodes) in four (_CONV_ROWS,
    nodes) buffers allocated once, so the only arrays of the pair count are
    v = omega - omega_l and the table itself.  A row's legs are written in
    its buffer as start exp(t_k ln(stop / start)), t_k = k / 799, with both
    ends pinned: start = 40 eta_b, the fine patch's last node, so the joint
    is a zero-width panel.  Returns the complex (omega.size, lines.size) table.

    The products (eta_b^2 + u^2)(d^2 + eta_k^2), 8e-3 eta^4 to 2e8 max(eta,
    |v|)^4, and the weights w / product, up to 1 / eta^3, are normal floats
    while eta is within [1e-70, 1e70] and every |v| <= 1e70.
    """
    omega = _response_axis(omega)
    sgn = _sign(direction)
    with np.errstate(over="ignore"):  # a v past the float range is rejected below
        v_all = (omega[:, None] - lines[None, :]).ravel()
    if not (1e-70 <= eta <= 1e70 and np.all(np.abs(v_all) <= 1e70)):
        raise ValueError("the convolution route needs eta within [1e-70, 1e70] and |omega - omega_l| <= 1e70")
    eta_b = eta / 10
    eta_k = eta - eta_b
    # the sorted union of both patches, as np.unique forms it (whose first
    # call would import numpy.ma)
    patch = np.sort(np.concatenate([
        np.linspace(-40 * eta_b, 40 * eta_b, 3201),
        np.linspace(-60 * eta, 60 * eta, 1601),
    ]))
    patch = patch[np.concatenate([[True], patch[1:] != patch[:-1]])]
    cluster = np.linspace(-40 * eta_k, 40 * eta_k, 1601)
    n_leg, start = 800, 40 * eta_b
    t = np.arange(n_leg) / (n_leg - 1)
    # row layout before the sort: patch, -legs reversed, legs, pole cluster
    cuts = np.cumsum([patch.size, n_leg, n_leg])
    u_buf, d_buf, w_buf, b_buf = np.empty((4, _CONV_ROWS, cuts[-1] + cluster.size))
    j_vals = np.empty(v_all.size, dtype=complex)
    for lo in range(0, v_all.size, _CONV_ROWS):
        v = v_all[lo:lo + _CONV_ROWS, None]
        u, d, w, b = (buf[:v.shape[0]] for buf in (u_buf, d_buf, w_buf, b_buf))
        u[:, :cuts[0]] = patch
        leg, stop = u[:, cuts[1]:cuts[2]], 60 * np.maximum(np.abs(v), eta) + 60 * eta
        np.exp(np.multiply(np.log(stop / start), t, out=leg), out=leg)
        leg *= start
        leg[:, :1], leg[:, -1:] = start, stop
        np.negative(leg[:, ::-1], out=u[:, cuts[0]:cuts[1]])
        # a v inside the line patch has no pole cluster; repeating a node
        # there keeps the row length, and a repeated node only adds a
        # zero-width panel, which leaves the trapezoid sum unchanged
        pole = u[:, cuts[2]:]
        np.add(v, cluster, out=pole)
        pole[np.abs(v[:, 0]) <= 40 * eta_b] = patch[0]
        u.sort(axis=1, kind="stable")  # merges the pre-sorted runs
        np.subtract(v, u, out=d)
        # trapezoid node weights: (u[k+1] - u[k-1]) / 2, one-sided at the ends
        np.subtract(u[:, 2:], u[:, :-2], out=w[:, 1:-1])
        w[:, 0] = u[:, 1] - u[:, 0]
        w[:, -1] = u[:, -1] - u[:, -2]
        # L(u) / (d + i sgn eta_k) = L(u) (d - i sgn eta_k) / (d^2 + eta_k^2),
        # in real arithmetic; L's constant eta_b / pi and the 1/2 come last.
        # g = w / ((eta_b^2 + u^2) (d^2 + eta_k^2)) overwrites w, and u is
        # spent on the first factor
        np.multiply(u, u, out=u)
        u += eta_b**2
        np.multiply(d, d, out=b)
        b += eta_k**2
        u *= b
        g = np.divide(w, u, out=w)
        j_vals[lo:lo + _CONV_ROWS] = np.vecdot(g, d) - 1j * sgn * eta_k * g.sum(axis=1)
    j_vals *= eta_b / (2 * np.pi)
    return j_vals.reshape(omega.size, lines.size)


def convolution_response(
    density: SpectralDensity,
    omega: np.ndarray,
    eta: float,
    direction: str,
) -> FreqResponse:
    """Quadrature evaluation of the convolution integral over omega'.

    Each line is broadened to a unit-area Lorentzian of width eta/10; the
    convolution kernel carries the remaining 9 eta/10, so the total
    regularization matches the pole form exactly in the continuum and the
    residual against response_from_density is pure quadrature error.  eta
    must lie within [1e-70, 1e70] and every |omega - omega_l| at most 1e70
    (see _line_integrals); the pole form's range is stated at _require_pole_range.

    The quadrature error grows with |omega - omega_l| / eta, the only
    variable it depends on, because every node scales with eta.  Each line's
    integral J(v), v = omega - omega_l, is within 5e-7 of 1 / (v + i s eta),
    relative, while |v| <= 1e3 eta; within 1.7e-6 to 1e4 eta, 1.5e-5 to
    1e10 eta, 1.1e-3 to 1e20 eta, 4e-3 to 1e70 eta, and 8e-3 at the far
    corner of the range, |v| = 1e70 with eta = 1e-70.  The error is first
    order in the leg node count: it comes from the principal-value point
    u = v, where the geometric legs are coarse and not symmetric.

    The integral over omega' depends on omega and a line only through
    omega - omega_l, so the response is the table J(omega_k - omega_l) of
    one trapezoid integral per (omega, line) pair, contracted with the line
    weights.  Densities with the same lines (every entry of one basis) share
    that table; its nodes and memory are described at _line_integrals.
    """
    poles = _shifted_poles(density.omegas, density.weights, eta, direction)
    table = _line_integrals(omega, density.omegas, eta, direction)
    return FreqResponse(omega, table @ density.weights, poles)


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
    w0 = _relativistic_energy(k, constants) / constants.hbar
    return FreqResponse(omega, None, _shifted_poles((w0, -w0), (1.0 + 0j, 1.0 + 0j), eta, direction))


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
    w0 = _relativistic_energy(k, constants) / constants.hbar
    poles = _shifted_poles((w0,), (1.0 + 0j,), eta, "retarded")
    poles += _shifted_poles((-w0,), (1.0 + 0j,), eta, "advanced")
    return FreqResponse(omega, None, poles)


def inverse_transform_roundtrip(response: FreqResponse, tau: np.ndarray) -> dict:
    """Direct discrete inverse transform and its deviation report.

    Computes (1/2 pi) int domega e^{-i omega tau} G(omega) as a weighted sum
    over the stored omega grid (no pole-residue shortcut), with node weights
    np.gradient(omega): the trapezoid weights at interior nodes, but the full
    end spacing, not half of it, at the two end nodes.  It compares against
    the residue-form reference: -i s theta(s tau) sum r e^{-i p tau},
    s = +1 for poles below the axis, -1 above.  Reports the peak magnitude,
    the worst mismatch on the supported side and the worst leakage on the
    suppressed side (relative to the peak).

    The grid sum factors in two levels.  On a uniform grid omega_k = omega_0
    + k h, write k = q b + r with b = ceil(sqrt(n)): then e^{-i omega_k tau}
    = A_q(tau) R_r(tau), A_q = e^{-i omega_{qb} tau}, R_r = e^{-i r h tau}.
    The weighted response, zero-padded to a (q, b) array W, gives g(|tau|)
    = sum_q A_q (W @ R)_q and g(-|tau|) = sum_q conj(A_q) (W @ conj(R))_q,
    with one column per distinct |tau|: about 2 sqrt(n) exponentials per
    |tau| instead of n cosines and n sines.  A grid that is not uniform to a
    few ulps of max|omega| takes b = 1, where A is the per-sample phase and
    R = 1.

    Both passes go through grid._slices.  The off-grid test reads omega in
    slices of _BLOCK samples, each against omega_0 + k h and the sample
    before it, refusing first an omega that does not increase.  W is then formed
    a block of rows at a time, in slices of rows * b samples (about _BLOCK):
    the response's values through its slice reader (a stored slice, or the
    pole form's sum over the slice), times np.gradient's weights over the
    slice and its two neighbours (bit for bit the whole axis's), over 2 pi.
    Each block's rows of A, and their W @ R and W @ conj(R), are summed into
    g(+-|tau|) before the next block is read.  So the call holds no array of
    the axis length beside omega itself, and its peak does not grow with n.
    """
    om = response.omega
    n = om.size
    if n < 2:
        raise ValueError("need at least two omega samples")
    h = (om[-1] - om[0]) / (n - 1)
    # the factored phase of node q b + r is omega_{qb} tau + r h tau, off the
    # node's own phase by at most 2 |tau| max|omega - ideal grid|; Grid1D's
    # ulp scale keeps that at the round-off of omega tau itself
    off_grid = 0.0
    for s, x in _slices(om.__getitem__, n):
        if np.any(np.diff(om[max(s - 1, 0):s + x.size]) <= 0):
            raise ValueError("omega samples must be strictly increasing")
        off_grid = max(off_grid, np.abs(x - (om[0] + h * np.arange(s, s + x.size, dtype=float))).max())
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
    _require_finite(tau, "tau")
    uniform = off_grid <= 8 * np.finfo(float).eps * max(-om.min(), om.max())
    b = int(np.ceil(np.sqrt(n))) if uniform else 1
    # e^{-i omega (-t)} = conj(e^{-i omega t}) for real omega and t, so one
    # set of phases per distinct |tau| serves both signs
    mags, which = np.unique(np.abs(tau), return_inverse=True)
    r_phase = np.exp(-1j * h * np.arange(b)[:, None] * mags)
    r_conj = np.conj(r_phase)
    rows = max(1, _BLOCK // max(b, mags.size))
    w_buf = np.zeros((rows, b), dtype=complex)
    g_pos = np.zeros(mags.size, dtype=complex)
    g_neg = np.zeros(mags.size, dtype=complex)
    for s, (x, vals) in _slices(response._slice, n, rows * b):
        m = vals.size
        # the block's rows of W, zero-padded past the last sample
        w_qb = w_buf[:-(-m // b)]
        weighted = w_qb.reshape(-1)
        weighted[m:] = 0
        lo = max(s - 1, 0)
        np.multiply(np.gradient(om[lo:s + m + 1])[s - lo:s - lo + m], vals, out=weighted[:m])
        weighted[:m] /= 2 * np.pi
        a_phase = np.exp(-1j * x[::b, None] * mags)
        g_pos += np.sum(a_phase * (w_qb @ r_phase), axis=0)
        g_neg += np.sum(np.conj(a_phase, out=a_phase) * (w_qb @ r_conj), axis=0)
    g_tau = np.where(tau < 0, g_neg[which], g_pos[which])
    ref = np.zeros(tau.size, dtype=complex)
    for p, r in response.poles:
        s = 1 if p.imag < 0 else -1
        ref += np.where(s * tau > 0, -1j * s * r * np.exp(-1j * p * tau), 0.0)
    peak = float(np.max(np.abs(ref))) or 1.0
    wrong = _suppressed(response.direction, tau)
    right = ~wrong & (tau != 0)
    return {
        "peak": peak,
        "leakage": float(np.max(np.abs(g_tau[wrong])) / peak) if wrong.any() else 0.0,
        "mismatch": float(np.max(np.abs(g_tau[right] - ref[right])) / peak) if right.any() else 0.0,
        "tau": tau,
        "transform": g_tau,
        "reference": ref,
    }
