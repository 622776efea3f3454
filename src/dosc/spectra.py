"""Coupling-spectrum families, units, and the positivity gate.

A spectrum is the real function V(omega) that couples the oscillator to
the continuum.  Everything downstream only ever needs |V|^2, the support
interval, the integral of |V|^2/omega that decides whether the model
is bounded below (the oscillator stays stable iff

    integral_0^inf |V(omega)|^2 / omega  d omega  <  omega0),

and the dispersion integral

    I(omega) = PV int |V(x)|^2/(omega - x) dx - int |V(x)|^2/(omega + x) dx,

which each family evaluates in closed form on whole arrays of omega,
inside and outside the support; the stability integral has a closed
form in every family too.  With P(z) = PV int |V(x)|^2/(z - x) dx,
I(omega) = P(omega) + P(-omega).

Four families are provided.  ``ohmic_exp`` is the reference family for
all quantitative runs (I in terms of Ei and E1, Abramowitz & Stegun
5.1), ``flat_band`` is the analytic-check family (I is a logarithm),
``gaussian_peak`` models a narrow resonance (I in terms of the Dawson
function, A&S 7.1), and ``tabulated`` accepts measured data (V
piecewise linear, so |V|^2 piecewise quadratic and I a sum of
logarithms and polynomials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from scipy.special import dawsn, exp1, expi, xlogy

from .errors import PositivityError, UsageError, checked
# unused here; perfbench/tracer.py wraps this name to count quadrature calls
from .quadrature import integrate  # noqa: F401

# Effective support of a Gaussian peak, in standard deviations.  Beyond
# eight sigma the density is < 1e-14 of the peak and contributes nothing
# at the tolerances used anywhere in the package.
GAUSS_SUPPORT_SIGMA = 8.0

# Default effective bound for the exponential family, in cutoff units.
# The binding constraint is the omega^2 sum rule: the neglected tail of
# omega^2 pi(omega) is ~ amplitude^2 * cutoff * exp(-omega_max/cutoff),
# which at 20 cutoffs is ~1e-9 of omega0^2, safely below the 1e-6
# tolerance that also guards the normalisation.
OHMIC_SUPPORT_CUTOFFS = 20.0

# Above this x = omega/cutoff the exponential family's dispersion
# integral, k^2 L [x (e^{-x} Ei(x) + e^{x} E1(x)) - 2], switches to the
# asymptotic series k^2 L * 2 sum_{j>=1} (2j)!/x^{2j}: the factors of the
# closed form overflow past x ~ 709, and the bracket cancels to O(1/x^2)
# well before.  At x = 50 the first omitted term of the 25-term series
# is below 1e-20 of the sum.
OHMIC_ASYMPTOTIC_X = 50.0
_OHMIC_SERIES = np.array([0.0] + [float(math.factorial(2 * k)) for k in range(1, 26)])


@dataclass(frozen=True)
class UnitSystem:
    """Scales for the oscillator: frequency omega0, mass, hbar."""

    omega0: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("omega0", "mass", "hbar"):
            object.__setattr__(self, name, checked(getattr(self, name), "number > 0", name))


class CouplingSpectrum:
    """Shared surface of all spectrum families.

    A family is a frozen dataclass subclass: its ``float`` fields are
    its parameters, ``scale`` names the one that multiplies V (checked
    ``>= 0``; every other ``float`` field must be ``> 0``), and it
    implements ``_bounds``, ``_v_sq`` (or ``_v``), ``dispersion`` and
    ``analytic_positivity_integral``.  Construction fills in
    ``support_lower``/``support_upper`` (the mathematical support, may
    be inf) and ``omega_max`` (the finite effective bound used for grid
    construction), which must not cut into a bounded support.
    """

    family: str = "abstract"
    scale: str | None = None

    support_lower: float
    support_upper: float
    omega_max: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name, None)
            if f.type == "float" or f.type == "float | None" and value is not None:
                rule = "number >= 0" if f.name == self.scale else "number > 0"
                object.__setattr__(self, f.name, checked(value, rule, f.name))
        lo, hi, top = self._bounds()
        object.__setattr__(self, "support_lower", lo)
        object.__setattr__(self, "support_upper", hi)
        if self.omega_max is None:
            object.__setattr__(self, "omega_max", top)
        elif self.omega_max < hi < math.inf:
            raise UsageError(f"omega_max must not cut into the support [{lo}, {hi}], "
                             f"got {self.omega_max!r}")

    def _bounds(self) -> tuple[float, float, float]:
        """Support (lower, upper) as floats, and the default omega_max."""
        raise NotImplementedError

    def v_sq(self, omega):
        """|V(omega)|^2, elementwise on arrays; zero outside support."""
        out = self._v_sq(np.asarray(omega, dtype=float))
        return out if out.ndim else float(out)

    def v(self, omega):
        """V(omega), elementwise on arrays; a tabulated V keeps its sign."""
        out = self._v(np.asarray(omega, dtype=float))
        return out if out.ndim else float(out)

    def _v(self, w: np.ndarray) -> np.ndarray:
        return np.sqrt(self._v_sq(w))

    def dispersion(self, omegas):
        """I(omega) = PV int |V|^2/(omega - x) dx - int |V|^2/(omega + x) dx
        in closed form, elementwise for omega >= 0.  Inside the support
        the first integral is a principal value, outside an ordinary one."""
        raise NotImplementedError

    def analytic_positivity_integral(self) -> float:
        """int |V|^2/omega d omega in closed form."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        """True iff V vanishes, so that the stability integral is 0."""
        return self.analytic_positivity_integral() == 0.0


@dataclass(frozen=True)
class OhmicExp(CouplingSpectrum):
    """|V|^2 = amplitude^2 * omega * exp(-omega/cutoff) on (0, inf)."""

    amplitude: float
    cutoff: float
    omega_max: float | None = None

    family = "ohmic_exp"
    scale = "amplitude"

    def _bounds(self):
        return 0.0, math.inf, OHMIC_SUPPORT_CUTOFFS * self.cutoff

    def _v_sq(self, w):
        out = self.amplitude**2 * w * np.exp(-w / self.cutoff)
        return np.where(w > 0.0, out, 0.0)

    def analytic_positivity_integral(self) -> float:
        return self.amplitude**2 * self.cutoff

    def dispersion(self, omegas):
        # I = k^2 L g(x), x = omega/L, g = x (e^{-x} Ei(x) + e^{x} E1(x)) - 2
        x = np.asarray(omegas, dtype=float) / self.cutoff
        g = np.full(x.shape, -2.0)                  # x = 0: I = -2 k^2 L
        near = (x > 0.0) & (x <= OHMIC_ASYMPTOTIC_X)
        xn = x[near]
        g[near] = xn * (np.exp(-xn) * expi(xn) + np.exp(xn) * exp1(xn)) - 2.0
        far = x > OHMIC_ASYMPTOTIC_X
        g[far] = 2.0 * np.polynomial.polynomial.polyval(x[far] ** -2, _OHMIC_SERIES)
        return self.amplitude**2 * self.cutoff * g


@dataclass(frozen=True)
class FlatBand(CouplingSpectrum):
    """|V|^2 = level^2 on [lower, upper], zero elsewhere.

    ``lower`` must be strictly positive so that |V|^2/omega stays
    integrable at the origin.
    """

    level: float
    lower: float
    upper: float
    omega_max: float | None = None

    family = "flat_band"
    scale = "level"

    def _bounds(self):
        lo, hi = float(self.lower), float(self.upper)
        if not lo < hi:
            raise UsageError(f"need lower < upper for the band, got [{lo}, {hi}]")
        return lo, hi, hi

    def _v_sq(self, w):
        inside = (w >= self.lower) & (w <= self.upper)
        return np.where(inside, self.level**2, 0.0)

    def analytic_positivity_integral(self) -> float:
        return self.level**2 * math.log(self.upper / self.lower)

    def dispersion(self, omegas):
        w = np.asarray(omegas, dtype=float)
        a, b = self.lower, self.upper
        # infinite on a band edge, where |V|^2 jumps
        with np.errstate(divide="ignore"):
            return self.level**2 * np.log(np.abs((w - a) * (w + a)) / np.abs((w - b) * (w + b)))


@dataclass(frozen=True)
class GaussianPeak(CouplingSpectrum):
    """|V|^2 = amplitude^2 * exp(-(omega-center)^2 / (2 width^2)).

    Truncated to center +- GAUSS_SUPPORT_SIGMA widths; the lower edge of
    that window must stay positive, which bounds how broad a peak at a
    given center may be.
    """

    amplitude: float
    center: float
    width: float
    omega_max: float | None = None

    family = "gaussian_peak"
    scale = "amplitude"

    def _bounds(self):
        c, s = float(self.center), float(self.width)
        lo = c - GAUSS_SUPPORT_SIGMA * s
        hi = c + GAUSS_SUPPORT_SIGMA * s
        if lo <= 0.0:
            raise UsageError(
                f"peak too broad: center - {GAUSS_SUPPORT_SIGMA}*width = {lo} <= 0, "
                "so |V|^2/omega would not be integrable at the origin"
            )
        return lo, hi, hi

    def _v_sq(self, w):
        z = (w - self.center) / self.width
        out = self.amplitude**2 * np.exp(-0.5 * z * z)
        inside = (w >= self.support_lower) & (w <= self.support_upper)
        return np.where(inside, out, 0.0)

    def analytic_positivity_integral(self) -> float:
        # the +-8 sigma truncation argument of dispersion applies; over the
        # real line PV int e^{-t^2}/(z + t) dt = 2 sqrt(pi) D(z), z = c/(sqrt2 sigma)
        z = self.center / (math.sqrt(2.0) * self.width)
        return 2.0 * math.sqrt(math.pi) * self.amplitude**2 * float(dawsn(z))

    def dispersion(self, omegas):
        # PV int e^{-t^2}/(z - t) dt = 2 sqrt(pi) D(z) over the real line;
        # the +-8 sigma truncation changes I by less than 1e-14 A^2
        w = np.asarray(omegas, dtype=float)
        r = math.sqrt(2.0) * self.width
        return (2.0 * math.sqrt(math.pi) * self.amplitude**2
                * (dawsn((w - self.center) / r) - dawsn((w + self.center) / r)))


@dataclass(frozen=True)
class Tabulated(CouplingSpectrum):
    """V given on a strictly increasing grid, linearly interpolated.

    Outside the grid V is zero.  Either the first node must be positive
    or the first value zero, again for integrability of |V|^2/omega.
    """

    omegas: Sequence[float]
    values: Sequence[float]
    omega_max: float | None = None

    family = "tabulated"

    _x: np.ndarray = field(init=False, repr=False, compare=False)
    _y: np.ndarray = field(init=False, repr=False, compare=False)

    def _bounds(self):
        # also keeps the checked grid as arrays for the formulas below
        w = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.size < 2 or v.shape != w.shape:
            raise UsageError("tabulated spectrum needs matching 1-d omega and value arrays, length >= 2")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(v)):
            raise UsageError("tabulated spectrum contains non-finite entries")
        if not np.all(np.diff(w) > 0):
            raise UsageError("tabulated omega grid must be strictly increasing")
        if w[0] < 0:
            raise UsageError("tabulated omega grid must start at omega >= 0")
        if w[0] == 0.0 and v[0] != 0.0:
            raise UsageError("tabulated spectrum with a node at omega=0 must have V(0)=0")
        object.__setattr__(self, "_x", w)
        object.__setattr__(self, "_y", v)
        return float(w[0]), float(w[-1]), float(w[-1])

    def _v(self, w):
        return np.interp(w, self._x, self._y, left=0.0, right=0.0)

    def _v_sq(self, w):
        val = self._v(w)
        return val * val

    def analytic_positivity_integral(self) -> float:
        # per segment V = alpha + s x, so |V|^2/x = s^2 x + 2 s alpha + alpha^2/x;
        # a segment starting at x = 0 has alpha = V(0) = 0
        a, b = self._x[:-1], self._x[1:]
        s = np.diff(self._y) / (b - a)
        alpha = self._y[:-1] - s * a
        logs = np.where(a > 0.0, np.log1p((b - a) / np.where(a > 0.0, a, 1.0)), 0.0)
        return float(np.sum(0.5 * s * s * (b * b - a * a) + 2.0 * s * alpha * (b - a)
                            + alpha * alpha * logs))

    def _hilbert(self, z: np.ndarray) -> np.ndarray:
        """P(z) = PV int |V(x)|^2/(z - x) dx for real z of either sign.

        On segment [a, a+h] with V = v + s(x - a), write |V|^2 = q(x):
        the integral is q(z) ln|z-a|/|z-a-h| - s h (2v + s(h/2 + z - a)).
        The log terms are grouped by node as (q_right - q_left)(z)
        ln|z - x_j|: at an interior node the bracket vanishes with
        z - x_j, so the sum stays finite and continuous there."""
        x, v = self._x, self._y
        h = np.diff(x)
        s = np.diff(v) / h
        out = -np.sum(s * h * (2.0 * v[:-1] + s * (0.5 * h - x[:-1]))) - np.sum(s * s * h) * z
        # one-sided values and slopes at each node; V = 0 outside the grid
        zero = np.zeros(1)
        v_left, v_right = np.concatenate([zero, v[1:]]), np.concatenate([v[:-1], zero])
        s_left, s_right = np.concatenate([zero, s]), np.concatenate([s, zero])
        c0 = v_right**2 - v_left**2
        c1 = 2.0 * (v_right * s_right - v_left * s_left)
        c2 = s_right**2 - s_left**2
        for xj, a0, a1, a2 in zip(x, c0, c1, c2):
            d = z - xj
            out = out + xlogy(a0 + d * (a1 + a2 * d), np.abs(d))
        return out

    def dispersion(self, omegas):
        w = np.asarray(omegas, dtype=float)
        return self._hilbert(w) + self._hilbert(-w)


def require_admissible(spec: CouplingSpectrum, units: UnitSystem) -> float:
    """Positivity gate used by every downstream module: the margin
    omega0 - int |V|^2/omega, or PositivityError unless it is > 0."""
    integral = spec.analytic_positivity_integral()
    margin = units.omega0 - integral
    if not margin > 0.0:
        raise PositivityError(
            "coupling too strong: int |V|^2/omega = "
            f"{integral:.6g} >= omega0 = {units.omega0:.6g} "
            f"(margin {margin:.3g}); the oscillator would be unstable",
            detail={
                "integral": integral,
                "margin": margin,
                "omega0": units.omega0,
            },
        )
    return float(margin)
