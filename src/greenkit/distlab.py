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

from .grid import SampledFunction

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
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")


@dataclass(frozen=True)
class PrincipalValueResult:
    """Split of int f/(x + i eta): principal part, delta part, and the check."""

    principal: complex
    delta_part: complex
    eta: float
    full_integral: complex
    residual: float

    def __post_init__(self):
        for v in (self.principal, self.delta_part, self.full_integral, self.residual):
            if not np.isfinite(v):
                raise ValueError("principal-value result must be finite")


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

    The analytic derivative of each step flavor is its paired delta by
    construction, so `analytic_residual` is floating-point zero; the
    centered-difference residual cross-checks the closed forms against each
    other.  For the piecewise-linear flavor the two kink abscissae are
    excluded (the derivative jumps there).  Also reported: the magnitude
    eta * sup step_eta of the width-proportional correction term retained
    when the step is differentiated at finite eta.
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

    if flavor == "arctan":
        analytic = (eta / np.pi) / (eta**2 + x**2)
    elif flavor == "exponential":
        analytic = np.exp(-np.abs(x) / eta) / (2 * eta)
    else:
        analytic = np.where(np.abs(x) < eta / 2, 1.0 / eta, 0.0)
    mask = np.ones(x.size, dtype=bool)
    if flavor == "linear":
        mask = np.minimum(np.abs(x - eta / 2), np.abs(x + eta / 2)) > spacing
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

    Each P(n) sums the two contiguous slices of the grid outside the
    window, so its temporaries are two complex arrays of at most the grid's
    length (about 51 MB for 1.6M points).
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    x = f.grid.points
    w = f.grid.weights
    v = f.values
    peak = float(np.max(np.abs(v)))
    if peak == 0:
        raise ValueError("zero function")
    if max(abs(v[0]), abs(v[-1])) > 1e-8 * peak:
        raise ValueError("function has not decayed at the domain ends")
    if not x[0] < 0 < x[-1]:
        raise ValueError("grid must straddle x = 0")
    full = complex(np.sum(w * v / (x + 1j * eta)))
    f0 = complex(np.interp(0.0, x, v.real) + 1j * np.interp(0.0, x, v.imag))

    spacing = f.grid.spacing
    # exclusion by index, not by coordinate threshold: coordinate ulp jitter
    # could otherwise keep one extra boundary point on a single side, whose
    # w f / x contribution would not cancel
    i0 = int(np.argmin(np.abs(x)))
    n1 = max(5, int(np.ceil(eta / (10 * spacing))))

    def pv(n_excl: int) -> complex:
        # the kept points are those at least n_excl indices from i0; the
        # window holds i0 itself, the only point that can sit at x = 0 on a
        # strictly increasing grid
        left = slice(0, max(i0 - n_excl + 1, 0))
        right = slice(i0 + n_excl, None)
        return complex(sum(np.sum(w[s] * v[s] / x[s]) for s in (left, right)))

    principal = (4 * pv(n1) - pv(2 * n1)) / 3
    delta_part = -1j * np.pi * f0
    residual = abs(full - principal - delta_part)
    return PrincipalValueResult(principal, delta_part, eta, full, residual)


def _damped_delta_ft(flavor: str, eta: float, etap: float, k: np.ndarray) -> np.ndarray:
    """D(k) = int e^{s x} delta_eta(x) dx with s = ik - eta', in closed form.

    Box: 2 sinh(s eta/2)/(s eta).  Two-sided exponential: the half-lines give
    (1/2 eta)[1/(1/eta - s) + 1/(1/eta + s)], finite while eta' < 1/eta.
    Lorentzian: its anti-damped half-line diverges as a plain integral, and
    the Abel value is the analytic continuation of the Fourier transform
    e^{-eta |k|} from k to k + i eta', that is e^{-eta(|k| + i eta')}.  Real
    integrands give D(-k) = conj(D(k)), the conjugate taken for k < 0.
    """
    s = 1j * k - etap
    if flavor == "linear":
        return 2 * np.sinh(s * eta / 2) / (s * eta)
    if flavor == "exponential":
        if etap >= 1 / eta:
            raise ValueError("damping must stay below the family decay rate 1/eta")
        return (1 / (1 / eta - s) + 1 / (1 / eta + s)) / (2 * eta)
    half = np.exp(-eta * (np.abs(k) + 1j * etap))
    return np.where(k < 0, np.conj(half), half)


def regularized_ft(family: RegularizedFamily, k: np.ndarray, eta_damp: float | None = None) -> dict:
    """Damped Fourier transform of a step family vs the reference i/(k + i eta).

    The limit-style transform int e^{(ik - eta') x} step_eta(x) dx is
    evaluated through its integration-by-parts form i/(k + i eta') * D(k),
    where D is the damped transform of the paired delta; the surface term
    vanishes in the damped limit.  eta' defaults to eta (both regulators
    driven jointly); eta_damp decouples them for order-of-limits studies.
    """
    if family.kind != "step":
        raise ValueError("regularized_ft takes a step family")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k == 0):
        raise ValueError("k = 0 is not in the transform's domain")
    eta = family.eta
    etap = eta if eta_damp is None else eta_damp
    if not etap > 0:
        raise ValueError("damping must be positive")
    vals = 1j / (k + 1j * etap) * _damped_delta_ft(family.flavor, eta, etap, k)
    reference = 1j / (k + 1j * eta)
    return {
        "k": k,
        "transform": vals,
        "reference": reference,
        "max_deviation": float(np.max(np.abs(vals - reference))),
    }


def delta_ft_check(family: RegularizedFamily, k: np.ndarray, eta_damp: float | None = None) -> dict:
    """max_k |int e^{(ik - eta') x} delta_eta(x) dx - 1| over |k| <= 1/(10 eta)."""
    if family.kind != "delta":
        raise ValueError("delta_ft_check takes a delta family")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    eta = family.eta
    etap = eta if eta_damp is None else eta_damp
    if not etap > 0:
        raise ValueError("damping must be positive")
    k_used = k[np.abs(k) <= 1.0 / (10 * eta)]
    if k_used.size == 0:
        raise ValueError("no k samples within |k| <= 1/(10 eta)")
    vals = _damped_delta_ft(family.flavor, eta, etap, k_used)
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
