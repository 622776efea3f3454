"""Adaptive quadrature and Cauchy principal values.

Wraps QUADPACK (via :func:`scipy.integrate.quad`) behind two small
entry points:

* :func:`integrate` for ordinary (possibly improper) integrals,
* :func:`cauchy_pv` for principal values with a single simple pole
  strictly inside the interval.

The solve path does not use them: every spectrum family evaluates its
dispersion integral in closed form.  They serve the positivity integral
of a family without a closed form (``gaussian_peak``) and the scalar
reference route ``fano._dispersion_parts`` that the tests compare the
closed forms against.

The principal value is computed by the standard subtraction trick: on a
symmetric window around the pole the integrand is replaced by
``(f(x) - f(pole)) / (pole - x)``, which is bounded, and the removed
piece integrates to zero by symmetry.  Outside the window the raw
integrand is regular and handled by ordinary adaptive panels.

Sign convention: ``cauchy_pv(f, spec, a, b)`` returns

    PV integral over [a, b] of  f(x) / (pole - x)  dx

i.e. the pole variable appears first in the denominator.  Callers that
need the opposite sign flip the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.integrate import quad

from .errors import QuadratureError, UsageError

# QUADPACK stops when |I - result| <= max(ABS_FLOOR, rel_tol * |I|).
ABS_FLOOR = 1e-12
MAX_PANELS = 10000

# Relative distance from the pole below which the subtracted integrand
# switches to its analytic limit -f'(pole).  The 21-point Kronrod rule
# evaluates the window midpoint exactly at the pole, so this branch is
# exercised on every principal-value call.
_POLE_GUARD = 1e-10
_DERIV_STEP = 1e-6


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of one quadrature call.

    Attributes
    ----------
    value : float
        The integral estimate.
    error_estimate : float
        Absolute error estimate reported by the adaptive rule (summed
        over pieces for composite calls).
    evaluations : int
        Number of integrand evaluations consumed.
    """

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class PrincipalValueSpec:
    """Location of a simple pole and, optionally, the symmetric window
    half-width used for the subtraction.

    Parameters
    ----------
    pole : float
        Pole position; must lie strictly inside the integration interval.
    window_half_width : float or None
        Half-width of the symmetric subtraction window.  When ``None`` a
        default is chosen: one tenth of the pole position, capped at half
        the distance to the nearer endpoint.
    """

    pole: float
    window_half_width: float | None = None

    def resolve_window(self, lower: float, upper: float) -> float:
        """Return the actual half-width to use on ``[lower, upper]``."""
        gap = min(self.pole - lower, upper - self.pole)
        if self.window_half_width is None:
            h = min(0.1 * abs(self.pole), 0.5 * gap)
            if h <= 0.0:
                # Pole at the origin with lower == 0 cannot happen
                # (validated upstream); this is a pure safety net.
                h = 0.5 * gap
            return h
        h = float(self.window_half_width)
        if not (h > 0.0):
            raise UsageError(f"window_half_width must be positive, got {h}")
        if h > gap:
            raise UsageError(
                f"window_half_width {h} does not fit: pole {self.pole} is only "
                f"{gap} away from the nearer endpoint of [{lower}, {upper}]"
            )
        return h


def _check_interval(lower: float, upper: float) -> None:
    if math.isnan(lower) or math.isnan(upper):
        raise UsageError("integration limits must not be NaN")
    if not lower < upper:
        raise UsageError(f"need lower < upper, got [{lower}, {upper}]")


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    rel_tol: float = 1e-8,
) -> IntegrationResult:
    """Adaptively integrate ``f`` over ``[lower, upper]``.

    Parameters
    ----------
    f : callable
        Scalar integrand; must be finite on the open interval.
    lower, upper : float
        Limits; ``upper`` may be ``math.inf`` for tail integrals.
    rel_tol : float
        Relative tolerance.  The absolute floor ``ABS_FLOOR`` guards
        integrals whose value is near zero.

    Returns
    -------
    IntegrationResult

    Raises
    ------
    QuadratureError
        If the adaptive subdivision fails to converge within the panel
        budget.  The partial estimate is attached as ``partial``.
    UsageError
        For malformed limits or tolerances.
    """
    _check_interval(lower, upper)
    if not (0.0 < rel_tol < 1.0):
        raise UsageError(f"rel_tol must lie in (0, 1), got {rel_tol}")

    out = quad(
        f,
        lower,
        upper,
        epsabs=ABS_FLOOR,
        epsrel=rel_tol,
        limit=MAX_PANELS,
        full_output=1,
    )
    value, err = out[0], out[1]
    info = out[2]
    evaluations = int(info.get("neval", 0))
    result = IntegrationResult(value, err, evaluations)

    if len(out) > 3 or not math.isfinite(value):
        # full_output returns a fourth element (the explanation string)
        # exactly when QUADPACK flags trouble.
        message = out[3] if len(out) > 3 else "integral evaluated to a non-finite value"
        raise QuadratureError(
            f"quadrature on [{lower}, {upper}] did not converge: {message}",
            partial=result,
            detail={"lower": lower, "upper": upper, "rel_tol": rel_tol},
        )
    return result


def cauchy_pv(
    f: Callable[[float], float],
    spec: PrincipalValueSpec,
    lower: float,
    upper: float,
    rel_tol: float = 1e-8,
) -> IntegrationResult:
    """Principal value of ``f(x) / (pole - x)`` over ``[lower, upper]``.

    The interval is split into a symmetric window ``[pole - h, pole + h]``
    and up to two regular outer pieces.  On the window the subtracted
    integrand ``(f(x) - f(pole)) / (pole - x)`` is integrated; its
    singular complement vanishes by symmetry, so no log term survives.
    The outer pieces use :func:`integrate` on the raw integrand.

    The result is invariant (to tolerance) under changes of ``h``; the
    test suite checks this explicitly.

    Parameters
    ----------
    f : callable
        Numerator; must be differentiable near the pole.
    spec : PrincipalValueSpec
        Pole position and optional window half-width.
    lower, upper : float
        Limits; the pole must lie strictly inside.
    rel_tol : float
        Relative tolerance passed to each piece.

    Returns
    -------
    IntegrationResult
        Value, summed error estimate, summed evaluation count.
    """
    _check_interval(lower, upper)
    if math.isinf(lower):
        raise UsageError("principal-value lower limit must be finite")
    pole = spec.pole
    if not (lower < pole < upper):
        raise UsageError(
            f"pole {pole} must lie strictly inside [{lower}, {upper}]"
        )

    h = spec.resolve_window(lower, upper)
    win_lo, win_hi = pole - h, pole + h

    f_pole = f(pole)
    if not math.isfinite(f_pole):
        raise UsageError(f"integrand is not finite at the pole ({f_pole})")
    step = _DERIV_STEP * h
    guard = _POLE_GUARD * h

    def subtracted(x: float) -> float:
        d = pole - x
        if abs(d) < guard:
            # Limit of the difference quotient: -f'(pole), by central
            # difference so the guard branch stays smooth.
            return -(f(pole + step) - f(pole - step)) / (2.0 * step)
        return (f(x) - f_pole) / d

    def raw(x: float) -> float:
        return f(x) / (pole - x)

    pieces = [integrate(subtracted, win_lo, win_hi, rel_tol)]
    if lower < win_lo:
        pieces.append(integrate(raw, lower, win_lo, rel_tol))
    if win_hi < upper:
        pieces.append(integrate(raw, win_hi, upper, rel_tol))

    return IntegrationResult(
        value=sum(p.value for p in pieces),
        error_estimate=sum(p.error_estimate for p in pieces),
        evaluations=sum(p.evaluations for p in pieces),
    )
