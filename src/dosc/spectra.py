"""Coupling-spectrum families, units, and the positivity gate.

A spectrum is the real function V(omega) that couples the oscillator to
the continuum.  Everything downstream only ever needs |V|^2, the support
interval, and the dispersion integral

    I(omega) = PV int |V(x)|^2/(omega - x) dx - int |V(x)|^2/(omega + x) dx,

which each family evaluates in closed form on whole arrays of omega,
inside and outside the support.  With P(z) = PV int |V(x)|^2/(z - x) dx,
I(omega) = P(omega) + P(-omega).  At omega = 0 it is minus twice the
integral that decides whether the model is bounded below: the
oscillator stays stable iff

    integral_0^inf |V(omega)|^2 / omega  d omega  =  -I(0)/2  <  omega0.

Four families are provided.  ``ohmic_exp`` is the reference family for
all quantitative runs (I in terms of Ei and E1, Abramowitz & Stegun
5.1), ``flat_band`` is the analytic-check family (I is a logarithm),
``gaussian_peak`` models a narrow resonance (I in terms of the Dawson
function, A&S 7.1), and ``tabulated`` accepts measured data (V
piecewise linear, so |V|^2 piecewise quadratic and I a sum of
logarithms and polynomials).

The special functions are numpy ports, so that no command imports
scipy: ``xlogy``, ``dawsn`` and the exponential family's bracket
``ohmic_bracket``.  The last two evaluate a Taylor polynomial (degree 7
and 10) about the nearest tabulated centre, a fixed number of numpy operations
per call whatever the array length; each table is built once, in
extended precision, from the function's differential equation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# special functions

# Each table below holds a Taylor polynomial per cell, its coefficients
# computed in long double (64-bit mantissa on x86) and rounded once.
# Where long double is plain double the tables lose a few ulps, still
# well inside 1e-14.
_EULER_GAMMA = np.longdouble("0.577215664901532860606512090082402431")

# Dawson's integral: degree 7 in cells of width 1/64 centred on j/64 up
# to DAWSON_TABLE_X (the first omitted term is below 5e-19, a hundredth
# of an ulp of D); above, 11 terms of the asymptotic series
# 1/(2x) sum_k (2k-1)!!/(2x^2)^k, whose first omitted term,
# 21!!/(2x^2)^11, is below 2e-17 there.
DAWSON_TABLE_X = 12.0
_DAWSON_STEPS = 64
_DAWSON_DEGREE = 7
_DAWSON_FAR = np.cumprod([1.0] + [2.0 * k - 1.0 for k in range(1, 11)])[:, None]

# The ohmic bracket: degree 10 in geometric cells, each within 3% of its
# centre, from OHMIC_SERIES_X to OHMIC_ASYMPTOTIC_X.  Below
# OHMIC_SERIES_X, g = -2 + 2 x^2 (1 - gamma - ln x) up to
# O(x^4 ln x) < 1e-19.
_OHMIC_DEGREE = 10
OHMIC_SERIES_X = 1e-5
_OHMIC_RATIO = 1.03 / 0.97
_OHMIC_CELLS = math.ceil(math.log(OHMIC_ASYMPTOTIC_X / OHMIC_SERIES_X) / math.log(_OHMIC_RATIO))


def _horner(coef: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_k coef[k] h^k by Horner's rule, elementwise on a 1-d h:
    coef[k] holds the degree-k coefficient of each element, or one for
    all (one column)."""
    p = coef[-1] * h
    for k in range(len(coef) - 2, 0, -1):
        p += coef[k]
        p *= h
    p += coef[0]
    return p


@functools.cache
def _dawson_table() -> np.ndarray:
    """Taylor coefficients of D about j/64, by degree (rows) and centre
    (columns).  D(c) is the positive series e^{-c^2} sum_n c^{2n+1}/(n!
    (2n+1)) to 2 DAWSON_TABLE_X^2 terms, past those below 1e-24 of the
    sum; the rest follow from D' = 1 - 2xD."""
    c = np.arange(int(DAWSON_TABLE_X * _DAWSON_STEPS) + 1, dtype=np.longdouble) / _DAWSON_STEPS
    c2 = c * c
    term, total = c.copy(), c.copy()
    for n in range(1, int(2 * DAWSON_TABLE_X**2)):
        term *= c2 / n
        total += term / (2 * n + 1)
    a = np.empty((_DAWSON_DEGREE + 1, c.size), dtype=np.longdouble)
    a[0] = np.exp(-c2) * total
    a[1] = 1 - 2 * c * a[0]
    for n in range(1, _DAWSON_DEGREE):
        a[n + 1] = -2 * (c * a[n] + a[n - 1]) / (n + 1)
    table = a.astype(float)
    table.flags.writeable = False
    return table


def dawsn(x):
    """Dawson's integral D(x) = e^{-x^2} int_0^x e^{t^2} dt, elementwise,
    as scipy.special.dawsn (within 3e-16 relative; D(+-inf) = +-0)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x.ravel())
    table = _dawson_table()

    def tabulated(a):
        cell = np.rint(a * _DAWSON_STEPS).astype(np.intp)
        return _horner(table[:, cell], a - cell / _DAWSON_STEPS)   # a - cell/64 is exact

    near = ax <= DAWSON_TABLE_X           # nan is not
    if near.all():
        out = tabulated(ax)
    else:
        out = np.empty_like(ax)
        out[near] = tabulated(ax[near])
        far = ax[~near]
        half = 0.5 / far
        out[~near] = half * _horner(_DAWSON_FAR, half / far)
    return np.copysign(out, x.ravel()).reshape(x.shape)


@functools.cache
def _ohmic_table() -> tuple[np.ndarray, np.ndarray]:
    """Centres of the ohmic cells and the Taylor coefficients about them,
    by degree (rows) and cell (columns), of s = e^{-x} Ei(x) + e^{x} E1(x),
    so that g = x s - 2.

    With L = gamma + ln x, O and E the odd and even parts of
    sum_k x^k/(k k!): s = 2 (cosh(x) O - sinh(x) (L + E)) and
    s' = 2 (sinh(x) O - cosh(x) (L + E)) below x = 2; above it s and s'
    are e^{-x} Ei(x) +- e^{x} E1(x), with Ei from its series (terms all
    positive) and e^{x} E1(x) from its continued fraction.  The rest
    follow from s'' = s - 2/x."""
    centres = OHMIC_SERIES_X * _OHMIC_RATIO ** (np.arange(_OHMIC_CELLS) + 0.5)
    c = centres.astype(np.longdouble)
    term, odd, even = np.ones_like(c), np.zeros_like(c), np.zeros_like(c)
    for k in range(1, 160):
        term *= c / k
        if k % 2:
            odd += term / k
        else:
            even += term / k
    log = _EULER_GAMMA + np.log(c)
    ch, sh = np.cosh(c), np.sinh(c)
    s_small = 2 * (ch * odd - sh * (log + even))
    ds_small = 2 * (sh * odd - ch * (log + even))
    t = np.zeros_like(c)
    for m in range(80, 0, -1):
        t = m * m / (c + (2 * m + 1) - t)
    ee = 1 / (c + 1 - t)                            # e^x E1(x)
    ei = np.exp(-c) * (log + odd + even)            # e^{-x} Ei(x)
    b = np.empty((_OHMIC_DEGREE + 1, c.size), dtype=np.longdouble)
    b[0] = np.where(c < 2, s_small, ei + ee)
    b[1] = np.where(c < 2, ds_small, ee - ei)
    for n in range(_OHMIC_DEGREE - 1):
        b[n + 2] = (b[n] - 2 * (-1) ** n / c ** (n + 1)) / ((n + 1) * (n + 2))
    table = b.astype(float)
    centres.flags.writeable = table.flags.writeable = False
    return centres, table


def ohmic_bracket(x: np.ndarray) -> np.ndarray:
    """g(x) = x (e^{-x} Ei(x) + e^{x} E1(x)) - 2 on a 1-d array in
    (0, OHMIC_ASYMPTOTIC_X], within 1e-15 absolute."""
    centres, table = _ohmic_table()
    log = np.log(x)
    cell = ((log - math.log(OHMIC_SERIES_X)) / math.log(_OHMIC_RATIO)).astype(np.intp)
    cell = np.clip(cell, 0, _OHMIC_CELLS - 1)
    g = x * _horner(table[:, cell], x - centres[cell]) - 2.0
    tiny = x <= OHMIC_SERIES_X
    if tiny.any():
        xt = x[tiny]
        g[tiny] = 2.0 * xt * xt * (1.0 - np.euler_gamma - log[tiny]) - 2.0
    return g


def xlogy(x, y):
    """x log(y) elementwise, 0 where x == 0 and y is not nan, as
    scipy.special.xlogy: no warning where y == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(y)
    return np.where((x == 0) & ~np.isnan(y), 0.0, out)


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
    implements ``_bounds``, ``_v_sq`` (or ``_v``) and ``dispersion``;
    the stability integral ``analytic_positivity_integral`` is -I(0)/2
    unless a family overrides it.  Construction fills in
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
        """int |V|^2/omega d omega = -I(0)/2, from the closed form."""
        return -0.5 * float(self.dispersion(0.0))

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

    def dispersion(self, omegas):
        # I = k^2 L g(x), x = omega/L, g = x (e^{-x} Ei(x) + e^{x} E1(x)) - 2
        x = np.asarray(omegas, dtype=float) / self.cutoff
        g = np.full(x.shape, -2.0)                  # x = 0: I = -2 k^2 L
        near = (x > 0.0) & (x <= OHMIC_ASYMPTOTIC_X)
        g[near] = ohmic_bracket(x[near])
        far = x > OHMIC_ASYMPTOTIC_X
        g[far] = 2.0 * _horner(_OHMIC_SERIES[:, None], x[far] ** -2)
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

    def dispersion(self, omegas):
        # PV int e^{-t^2}/(z - t) dt = 2 sqrt(pi) D(z) over the real line;
        # the +-8 sigma truncation changes I by less than 1e-14 A^2
        w = np.asarray(omegas, dtype=float)
        r = math.sqrt(2.0) * self.width
        return (2.0 * math.sqrt(math.pi) * self.amplitude**2
                * (dawsn((w - self.center) / r) - dawsn((w + self.center) / r)))


# Tabulated._hilbert evaluates its log terms on arrays of at most this
# many elements (64 kB each), a block of nodes by all arguments at once
_HILBERT_BLOCK = 2**13


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
        # Not -I(0)/2: the terms of _hilbert cancel at z = 0, to an error
        # of up to 1.7e-3 relative on 100 random nodes.
        # On segment [a, a + h] with V = v + s(x - a) and x = a(1 + u),
        # |V|^2/x dx = (v + s a u)^2/(1 + u) du over u in [0, r], r = h/a:
        #   v^2 L + 2 v s a (r - L) + s^2 a^2 (L - r + r^2/2),  L = log1p(r).
        # Both brackets cancel for small r and come from their series
        # there; a segment starting at x = 0 has v = V(0) = 0 and gives
        # s^2 h^2 / 2.
        a, h, v = self._x[:-1], np.diff(self._x), self._y[:-1]
        s = np.diff(self._y) / h
        r = h / np.where(a > 0.0, a, np.inf)
        log1p = np.log1p(r)
        # L - r + r^2/2 = r^3/3 - r^4/4 + ...: 20 terms reach rounding at r = 1/8
        tail = np.zeros_like(r)
        for k in range(22, 2, -1):
            tail = 1.0 / k - r * tail
        small = r < 0.125
        cubic = np.where(small, r**3 * tail, log1p - r + 0.5 * r * r)
        linear = np.where(small, 0.5 * r * r - r**3 * tail, r - log1p)
        sa = s * a
        seg = v * v * log1p + 2.0 * v * sa * linear + sa * sa * cubic
        return float(np.sum(np.where(a > 0.0, seg, 0.5 * (s * h) ** 2)))

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
        # a block of nodes at a time, nodes along the first axis; the
        # block's rows are summed in node order, onto out first
        step = max(1, _HILBERT_BLOCK // max(z.size, 1))
        nodes = (slice(None),) + (None,) * z.ndim
        for lo in range(0, x.size, step):
            blk = slice(lo, lo + step)
            d = z - x[blk][nodes]
            terms = xlogy(c0[blk][nodes] + d * (c1[blk][nodes] + c2[blk][nodes] * d), np.abs(d))
            terms[0] += out
            out = terms.sum(axis=0)
        return out

    def dispersion(self, omegas):
        w = np.asarray(omegas, dtype=float)
        p = self._hilbert(np.stack([w, -w]))
        return p[0] + p[1]


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
