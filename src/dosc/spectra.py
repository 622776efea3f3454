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
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.special import dawsn, exp1, expi, xlogy

from .errors import PositivityError, UsageError
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
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise UsageError(f"UnitSystem.{name} must be a positive finite number, got {v!r}")


@dataclass(frozen=True)
class PositivityReport:
    """Result of the stability check.

    ``integral`` is int |V|^2/omega d omega, ``margin`` is omega0 minus
    that, and ``renormalized_sq`` = omega0 * margin is the square of the
    shifted bare frequency that appears in the minimal-coupling form of
    the Hamiltonian.  The model is admissible iff margin > 0.
    """

    integral: float
    margin: float
    renormalized_sq: float


class CouplingSpectrum:
    """Shared surface of all spectrum families.

    Subclasses must set ``family``, ``support_lower``, ``support_upper``
    (mathematical support, may be inf), ``omega_max`` (finite effective
    bound used for grid construction), and implement ``v_sq``,
    ``dispersion`` and ``analytic_positivity_integral``.
    """

    family: str = "abstract"

    # Subclasses fill these in __post_init__.
    support_lower: float
    support_upper: float
    omega_max: float

    def v_sq(self, omega):
        """|V(omega)|^2, elementwise on arrays; zero outside support."""
        raise NotImplementedError

    def dispersion(self, omegas):
        """I(omega) = PV int |V|^2/(omega - x) dx - int |V|^2/(omega + x) dx
        in closed form, elementwise for omega >= 0.  Inside the support
        the first integral is a principal value, outside an ordinary one."""
        raise NotImplementedError

    def v(self, omega):
        return np.sqrt(self.v_sq(omega))

    def analytic_positivity_integral(self) -> float:
        """int |V|^2/omega d omega in closed form."""
        raise NotImplementedError

    def scaled(self, s: float) -> "CouplingSpectrum":
        """The spectrum with V replaced by s*V."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        return False


def _require_positive(name: str, value) -> float:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise UsageError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class OhmicExp(CouplingSpectrum):
    """|V|^2 = amplitude^2 * omega * exp(-omega/cutoff) on (0, inf)."""

    amplitude: float
    cutoff: float
    omega_max: float | None = None

    family = "ohmic_exp"

    def __post_init__(self):
        if not (isinstance(self.amplitude, (int, float)) and math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise UsageError(f"amplitude must be a finite number >= 0, got {self.amplitude!r}")
        _require_positive("cutoff", self.cutoff)
        if self.omega_max is None:
            object.__setattr__(self, "omega_max", OHMIC_SUPPORT_CUTOFFS * self.cutoff)
        else:
            _require_positive("omega_max", self.omega_max)
        object.__setattr__(self, "support_lower", 0.0)
        object.__setattr__(self, "support_upper", math.inf)

    def v_sq(self, omega):
        w = np.asarray(omega, dtype=float)
        out = self.amplitude**2 * w * np.exp(-w / self.cutoff)
        out = np.where(w > 0.0, out, 0.0)
        return out if out.ndim else float(out)

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

    def scaled(self, s: float) -> "OhmicExp":
        return replace(self, amplitude=s * self.amplitude)

    def is_zero(self) -> bool:
        return self.amplitude == 0.0


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

    def __post_init__(self):
        if not (isinstance(self.level, (int, float)) and math.isfinite(self.level) and self.level >= 0):
            raise UsageError(f"level must be a finite number >= 0, got {self.level!r}")
        lo = _require_positive("lower", self.lower)
        hi = _require_positive("upper", self.upper)
        if not lo < hi:
            raise UsageError(f"need lower < upper for the band, got [{lo}, {hi}]")
        if self.omega_max is None:
            object.__setattr__(self, "omega_max", hi)
        elif _require_positive("omega_max", self.omega_max) < hi:
            raise UsageError("omega_max must not cut into the band")
        object.__setattr__(self, "support_lower", lo)
        object.__setattr__(self, "support_upper", hi)

    def v_sq(self, omega):
        w = np.asarray(omega, dtype=float)
        inside = (w >= self.lower) & (w <= self.upper)
        out = np.where(inside, self.level**2, 0.0)
        return out if out.ndim else float(out)

    def analytic_positivity_integral(self) -> float:
        return self.level**2 * math.log(self.upper / self.lower)

    def dispersion(self, omegas):
        w = np.asarray(omegas, dtype=float)
        a, b = self.lower, self.upper
        # infinite on a band edge, where |V|^2 jumps
        with np.errstate(divide="ignore"):
            return self.level**2 * np.log(np.abs((w - a) * (w + a)) / np.abs((w - b) * (w + b)))

    def scaled(self, s: float) -> "FlatBand":
        return replace(self, level=s * self.level)

    def is_zero(self) -> bool:
        return self.level == 0.0


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

    def __post_init__(self):
        if not (isinstance(self.amplitude, (int, float)) and math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise UsageError(f"amplitude must be a finite number >= 0, got {self.amplitude!r}")
        c = _require_positive("center", self.center)
        s = _require_positive("width", self.width)
        lo = c - GAUSS_SUPPORT_SIGMA * s
        hi = c + GAUSS_SUPPORT_SIGMA * s
        if lo <= 0.0:
            raise UsageError(
                f"peak too broad: center - {GAUSS_SUPPORT_SIGMA}*width = {lo} <= 0, "
                "so |V|^2/omega would not be integrable at the origin"
            )
        if self.omega_max is None:
            object.__setattr__(self, "omega_max", hi)
        elif _require_positive("omega_max", self.omega_max) < hi:
            raise UsageError("omega_max must not cut into the peak window")
        object.__setattr__(self, "support_lower", lo)
        object.__setattr__(self, "support_upper", hi)

    def v_sq(self, omega):
        w = np.asarray(omega, dtype=float)
        z = (w - self.center) / self.width
        out = self.amplitude**2 * np.exp(-0.5 * z * z)
        inside = (w >= self.support_lower) & (w <= self.support_upper)
        out = np.where(inside, out, 0.0)
        return out if out.ndim else float(out)

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

    def scaled(self, s: float) -> "GaussianPeak":
        return replace(self, amplitude=s * self.amplitude)

    def is_zero(self) -> bool:
        return self.amplitude == 0.0


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

    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "support_lower", float(w[0]))
        object.__setattr__(self, "support_upper", float(w[-1]))
        if self.omega_max is None:
            object.__setattr__(self, "omega_max", float(w[-1]))
        elif _require_positive("omega_max", self.omega_max) < w[-1]:
            raise UsageError("omega_max must not cut into the tabulated grid")

    def v_sq(self, omega):
        w = np.asarray(omega, dtype=float)
        val = np.interp(w, self._w, self._v, left=0.0, right=0.0)
        out = val * val
        return out if out.ndim else float(out)

    def v(self, omega):
        w = np.asarray(omega, dtype=float)
        out = np.interp(w, self._w, self._v, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def analytic_positivity_integral(self) -> float:
        # per segment V = alpha + s x, so |V|^2/x = s^2 x + 2 s alpha + alpha^2/x;
        # a segment starting at x = 0 has alpha = V(0) = 0
        a, b = self._w[:-1], self._w[1:]
        s = np.diff(self._v) / (b - a)
        alpha = self._v[:-1] - s * a
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
        x, v = self._w, self._v
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

    def scaled(self, s: float) -> "Tabulated":
        return Tabulated(tuple(self.omegas), tuple(s * x for x in self.values), self.omega_max)

    def is_zero(self) -> bool:
        return bool(np.all(self._v == 0.0))


def positivity_check(spec: CouplingSpectrum, units: UnitSystem) -> PositivityReport:
    """Compute the stability integral and margin.  Never raises on an
    inadmissible model; use require_admissible for the gate."""
    integral = spec.analytic_positivity_integral()
    margin = units.omega0 - integral
    return PositivityReport(
        integral=integral,
        margin=margin,
        renormalized_sq=units.omega0 * margin,
    )


def require_admissible(spec: CouplingSpectrum, units: UnitSystem) -> PositivityReport:
    """Positivity gate used by every downstream module."""
    report = positivity_check(spec, units)
    if not report.margin > 0.0:
        raise PositivityError(
            "coupling too strong: int |V|^2/omega = "
            f"{report.integral:.6g} >= omega0 = {units.omega0:.6g} "
            f"(margin {report.margin:.3g}); the oscillator would be unstable",
            detail={
                "integral": report.integral,
                "margin": report.margin,
                "omega0": units.omega0,
            },
        )
    return report
