"""Numerical laboratory for regularized step and delta families.

Three smooth families indexed by a width eta converge to the unit step as eta
-> 0+ (arctan, exponential, piecewise-linear); their analytic derivatives are
the matching nascent delta sequences (Lorentzian, two-sided exponential, box).
The lab checks the derivative pairing, the Sokhotski-Plemelj split of
1/(x + i eta) into a principal value and -i pi delta, the damped Fourier
transform of the step against the reference i/(k + i eta), and the delta
moments (flagging the divergent Lorentzian ones instead of truncating them
silently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SampledFunction, _require_finite, _require_scale, _slices

__all__ = [
    "RegularizedFamily",
    "PrincipalValueResult",
    "family_eval",
    "derivative_identity_residual",
    "sokhotski_plemelj",
    "regularized_ft",
    "delta_ft_check",
    "moment_report",
]

_FLAVORS = ("arctan", "exponential", "linear")

# points per block in sokhotski_plemelj: the block's x, w, f and buffer
# (256 kB) stay in a core's L2 cache between the passes over it, and on a
# rule grid, whose reader makes each block's x and w while the last ones are
# still held, the peak stays near 320 kB
_SP_BLOCK = 1 << 13


@dataclass(frozen=True)
class RegularizedFamily:
    """A step or delta family at width eta."""

    kind: str
    flavor: str
    eta: float

    def __post_init__(self):
        if self.kind not in ("step", "delta"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        _require_scale(self.eta, "eta")


@dataclass(frozen=True)
class PrincipalValueResult:
    """Split of int f/(x + i eta): principal part, delta part, and the check."""

    principal: complex
    delta_part: complex
    full_integral: complex
    residual: float

    def __post_init__(self):
        _require_finite([self.principal, self.delta_part, self.full_integral, self.residual], "principal-value result")


def _step_value(flavor: str, eta: float, x: np.ndarray) -> np.ndarray:
    if flavor == "arctan":
        return 0.5 + np.arctan(x / eta) / np.pi
    if flavor == "exponential":
        return np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0) / eta), 1.0 - 0.5 * np.exp(-np.maximum(x, 0) / eta))
    return np.clip((x + eta / 2) / eta, 0.0, 1.0)


def _delta_value(flavor: str, eta: float, x: np.ndarray) -> np.ndarray:
    if flavor == "arctan":
        return (eta / np.pi) / (eta**2 + x**2)
    if flavor == "exponential":
        return np.exp(-np.abs(x) / eta) / (2 * eta)
    inside = np.abs(x) < eta / 2
    edge = np.abs(x) == eta / 2
    return np.where(inside, 1.0 / eta, np.where(edge, 0.5 / eta, 0.0))


def family_eval(family: RegularizedFamily, x):
    """Closed-form value of the family at x (scalar or array).

    The box delta takes the half value 1/(2 eta) exactly on its edges, the
    midpoint of the jump, so edge-aligned quadrature stays second order.
    """
    arr = np.asarray(x, dtype=float)
    if family.kind == "step":
        out = _step_value(family.flavor, family.eta, arr)
    else:
        out = _delta_value(family.flavor, family.eta, arr)
    return float(out) if np.ndim(x) == 0 else out


def derivative_identity_residual(flavor: str, eta: float, x: np.ndarray) -> dict:
    """Check d/dx step_eta = delta_eta on a grid.

    `analytic_residual` compares the paired delta with a derivative of the
    step taken independently of the delta's formulas.  The arctan and
    exponential steps are analytic on each side of x = 0, so their
    complex-step derivative Im step(x + i h) / h (h = 1e-20 eta) is exact to
    round-off; the piecewise-linear step has slope 1/eta inside its ramp and
    0 outside, and its two kink abscissae are excluded (the derivative jumps
    there).  The centered-difference residual cross-checks the closed forms
    on the grid itself.  Also reported: the magnitude eta * sup step_eta of
    the width-proportional correction term retained when the step is
    differentiated at finite eta.
    """
    step_fam = RegularizedFamily("step", flavor, eta)
    delta_fam = RegularizedFamily("delta", flavor, eta)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 5 or not np.all(np.diff(x) > 0):
        raise ValueError("need an increasing grid with at least five points")
    spacing = float(np.max(np.diff(x)))
    if spacing >= eta / 4:
        raise ValueError(f"grid spacing {spacing:.3g} must be < eta/4 = {eta / 4:.3g}")
    step = family_eval(step_fam, x)
    delta = family_eval(delta_fam, x)

    mask = np.ones(x.size, dtype=bool)
    if flavor == "linear":
        analytic = np.where(np.abs(x) < eta / 2, 1.0 / eta, 0.0)
        mask = np.minimum(np.abs(x - eta / 2), np.abs(x + eta / 2)) > spacing
    else:
        # the exponential step picks its branch by comparing x + i h with 0,
        # which numpy orders by real part first, so each point stays on the
        # branch of its real x
        h = 1e-20 * eta
        analytic = _step_value(flavor, eta, x + 1j * h).imag / h
    fd = np.gradient(step, x)
    interior = mask.copy()
    interior[0] = interior[-1] = False
    return {
        "analytic_residual": float(np.max(np.abs(analytic[mask] - delta[mask]))),
        "fd_residual": float(np.max(np.abs(fd[interior] - delta[interior]))),
        "correction_term": float(eta * np.max(step)),
    }


def sokhotski_plemelj(f: SampledFunction, eta: float) -> PrincipalValueResult:
    """int f(x)/(x + i eta) dx and its principal-value / delta split.

    The full integral uses the grid quadrature directly.  The principal part
    excludes a window of n = max(5, eta / (10 spacing)) points on each side of
    the origin and applies the Richardson combination (4 P(n) - P(2n)) / 3 to
    cancel the leading window dependence.  The residual column is
    |full - (P - i pi f(0))|.

    Everything runs in real arithmetic, with the weights folded into real
    factors: the full integral is (x w r) @ f - i eta ((w r) @ f) with
    r = 1 / (x^2 + eta^2).  Real samples take one dot per block; complex
    samples are viewed as (Re, Im) float pairs.  P(2n) is (w / x) @ f over
    the bulk of the grid outside the wider window, and P(n) adds the ring of
    points between n and 2n indices from the origin.  x, w and the samples
    are read only through the sampled function's slice reader,
    SampledFunction._slice, in blocks of _SP_BLOCK points, and the peak |f|
    and both end points and samples are taken in the same pass; so a rule
    grid (Grid1D.uniform) never builds its points and weights, samples kept
    as a rule (SampledFunction.of) are formed a block at a time, and the
    origin index is Grid1D.index_of(0).  Each block's sums go through one reused
    block buffer (64 kB), so no temporary of the grid's length is formed.
    """
    _require_scale(eta, "eta")
    grid = f.grid
    size = grid.size
    # the origin index i0 is the nearer of the two points x[i - 1] < 0 <= x[i]
    i0 = grid.index_of(0.0)

    # exclusion by index, not by coordinate threshold: coordinate ulp jitter
    # could otherwise keep one extra boundary point on a single side, whose
    # w f / x contribution would not cancel.  The points kept by P(n) are
    # those at least n indices from i0; the window holds i0 itself, the only
    # point that can sit at x = 0 on a strictly increasing grid.  Windows
    # that run past an end of the grid are clipped to it
    n1 = max(5, int(np.ceil(eta / (10 * grid.spacing))))
    left1, right1 = max(i0 - n1 + 1, 0), i0 + n1
    left2, right2 = max(i0 - 2 * n1 + 1, 0), i0 + 2 * n1
    # (first, stop, row of sums): row 0 is the bulk, row 1 the ring
    kept = ((0, left2, 0), (left2, left1, 1), (right1, right2, 1), (right2, size, 0))

    # every sum is a (Re, Im) pair; a real block adds to the real part only,
    # in the order a real sum would
    buf = np.empty(min(_SP_BLOCK, size))
    peak = 0.0
    b, a = np.zeros(2), np.zeros(2)
    sums = np.zeros((2, 2))
    for s, (x, w, v) in _slices(f._slice, size, _SP_BLOCK):
        e = s + x.size
        if s == 0:
            x0, first = x[0], v[0]
        peak = max(peak, float(np.abs(v, out=buf[: e - s]).max()))
        real = v.dtype == np.float64
        vf = v if real else np.ascontiguousarray(v).view(float).reshape(-1, 2)
        part = slice(0, 1 if real else 2)
        t = np.multiply(x, x, out=buf[: e - s])
        t += eta**2
        np.divide(w, t, out=t)
        b[part] += t @ vf
        t *= x
        a[part] += t @ vf
        for lo, hi, row in kept:
            lo, hi = max(lo, s), min(hi, e)
            if lo < hi:
                sums[row, part] += np.divide(w[lo - s:hi - s], x[lo - s:hi - s], out=buf[: hi - lo]) @ vf[lo - s:hi - s]
    if peak == 0:
        raise ValueError("zero function")
    if max(abs(first), abs(v[-1])) > 1e-8 * peak:
        raise ValueError("function has not decayed at the domain ends")
    if not x0 < 0 < x[-1]:
        raise ValueError("grid must straddle x = 0")

    i = i0 + (grid._slice(slice(i0, i0 + 1))[0][0] < 0)
    xp, _, vp = f._slice(slice(i - 1, i + 1))
    f0 = complex(np.interp(0.0, xp, vp.real), np.interp(0.0, xp, vp.imag))

    a, b = complex(*a), complex(*b)
    # w f (x - i eta) / (x^2 + eta^2), split into real and imaginary parts
    full = complex(a.real + eta * b.imag, a.imag - eta * b.real)
    bulk, ring = (complex(*row) for row in sums)
    principal = (4 * (bulk + ring) - bulk) / 3
    delta_part = -1j * np.pi * f0
    residual = abs(full - principal - delta_part)
    return PrincipalValueResult(principal, delta_part, full, residual)


def _damped_delta_ft(flavor: str, eta: float, k: np.ndarray) -> np.ndarray:
    """D(k) = int e^{s x} delta_eta(x) dx, s = ik - eta (damped by eta itself), in closed form.

    Box: 2 sinh(s eta/2)/(s eta).  Two-sided exponential: the half-lines give
    (1/2 eta)[1/(1/eta - s) + 1/(1/eta + s)], finite while eta < 1/eta, that
    is eta < 1.  Lorentzian: its anti-damped half-line diverges as a plain
    integral, and the Abel value is the analytic continuation of the Fourier
    transform e^{-eta |k|} from k to k + i eta, that is e^{-eta(|k| + i eta)}.
    Real integrands give D(-k) = conj(D(k)), the conjugate taken for k < 0.
    """
    s = 1j * k - eta
    if flavor == "linear":
        return 2 * np.sinh(s * eta / 2) / (s * eta)
    if flavor == "exponential":
        if eta >= 1 / eta:
            raise ValueError("damping must stay below the family decay rate 1/eta")
        return (1 / (1 / eta - s) + 1 / (1 / eta + s)) / (2 * eta)
    half = np.exp(-eta * (np.abs(k) + 1j * eta))
    return np.where(k < 0, np.conj(half), half)


def regularized_ft(family: RegularizedFamily, k: np.ndarray) -> dict:
    """Damped Fourier transform of a step family vs the reference i/(k + i eta).

    The limit-style transform int e^{(ik - eta) x} step_eta(x) dx, damped
    by the family's own width eta, is evaluated through its
    integration-by-parts form i/(k + i eta) * D(k), where D is the damped
    transform of the paired delta; the surface term vanishes in the damped
    limit.
    """
    if family.kind != "step":
        raise ValueError("regularized_ft takes a step family")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    _require_finite(k, "k")
    if np.any(k == 0):
        raise ValueError("k = 0 is not in the transform's domain")
    reference = 1j / (k + 1j * family.eta)
    vals = reference * _damped_delta_ft(family.flavor, family.eta, k)
    return {
        "k": k,
        "transform": vals,
        "reference": reference,
        "max_deviation": float(np.max(np.abs(vals - reference))),
    }


def delta_ft_check(family: RegularizedFamily, k: np.ndarray) -> dict:
    """max_k |int e^{(ik - eta) x} delta_eta(x) dx - 1| over |k| <= 1/(10 eta)."""
    if family.kind != "delta":
        raise ValueError("delta_ft_check takes a delta family")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    _require_finite(k, "k")
    eta = family.eta
    k_used = k[np.abs(k) <= 1.0 / (10 * eta)]
    if k_used.size == 0:
        raise ValueError("no k samples within |k| <= 1/(10 eta)")
    vals = _damped_delta_ft(family.flavor, eta, k_used)
    return {
        "k": k_used,
        "transform": vals,
        "max_deviation": float(np.max(np.abs(vals - 1.0))),
    }


def moment_report(family: RegularizedFamily, orders=(0, 1, 2, 3, 4)) -> list:
    """Closed-form moments int x^n delta_eta(x) dx per requested order.

    Odd orders vanish by symmetry.  Even orders are (eta/2)^n/(n+1) for the
    box and n! eta^n for the two-sided exponential.  The Lorentzian's even
    orders >= 2 diverge and are reported as math.inf rather than a
    truncation artifact; its mass is taken on the domain +-2e7 eta,
    (2/pi) arctan(2e7) = 1 - 3.2e-8, so the reported m0 carries that
    truncation.
    """
    if family.kind != "delta":
        raise ValueError("moments are defined for delta families")
    eta = family.eta
    out = []
    for n in orders:
        if n % 2:
            out.append(0.0)
        elif family.flavor == "linear":
            out.append((eta / 2) ** n / (n + 1))
        elif family.flavor == "exponential":
            out.append(math.factorial(n) * eta**n)
        else:
            out.append(2 / math.pi * math.atan(2e7) if n == 0 else math.inf)
    return out
