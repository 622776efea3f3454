"""Adaptive quadrature and Cauchy principal values.

Wraps QUADPACK (via :func:`scipy.integrate.quad`) behind two small
entry points:

* :func:`integrate` for ordinary (possibly improper) integrals,
* :func:`cauchy_pv` for principal values with a single simple pole
  strictly inside the interval, by QUADPACK's Cauchy-weight rule QAWC
  (Piessens et al., *QUADPACK*, 1983).

No run path uses them: every spectrum family evaluates its dispersion
and positivity integrals in closed form.  They serve the scalar
reference route the tests compare the closed forms against.

Sign convention: ``cauchy_pv(f, pole, a, b)`` returns

    PV integral over [a, b] of  f(x) / (pole - x)  dx

i.e. the pole variable appears first in the denominator (QAWC weighs
by 1/(x - pole), so its result is negated).  Callers that need the
opposite sign flip the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import QuadratureError, UsageError

# QUADPACK stops when |I - result| <= max(ABS_FLOOR, REL_TOL * |I|).
ABS_FLOOR = 1e-12
REL_TOL = 1e-8
MAX_PANELS = 10000


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


def _check_interval(lower: float, upper: float) -> None:
    if math.isnan(lower) or math.isnan(upper):
        raise UsageError("integration limits must not be NaN")
    if not lower < upper:
        raise UsageError(f"need lower < upper, got [{lower}, {upper}]")


def _quad(f, lower: float, upper: float, **weight) -> IntegrationResult:
    """One QUADPACK call; QuadratureError, carrying the partial result,
    when it flags trouble or returns a non-finite value.  scipy.integrate
    is imported here, not at module level, to keep it off every command's
    import path."""
    from scipy.integrate import quad

    out = quad(f, lower, upper, epsabs=ABS_FLOOR, epsrel=REL_TOL,
               limit=MAX_PANELS, full_output=1, **weight)
    result = IntegrationResult(out[0], out[1], int(out[2].get("neval", 0)))
    if len(out) > 3 or not math.isfinite(result.value):
        # full_output returns a fourth element (the explanation string)
        # exactly when QUADPACK flags trouble.
        message = out[3] if len(out) > 3 else "integral evaluated to a non-finite value"
        raise QuadratureError(
            f"quadrature on [{lower}, {upper}] did not converge: {message}",
            partial=result,
            detail={"lower": lower, "upper": upper, **weight},
        )
    return result


def integrate(f: Callable[[float], float], lower: float, upper: float) -> IntegrationResult:
    """Adaptively integrate ``f`` over ``[lower, upper]``.

    ``f`` is a scalar integrand, finite on the open interval; ``upper``
    may be ``math.inf`` for tail integrals.  Raises QuadratureError
    (partial estimate attached as ``partial``) if the adaptive
    subdivision fails within the panel budget, UsageError for
    malformed limits.
    """
    _check_interval(lower, upper)
    return _quad(f, lower, upper)


def cauchy_pv(
    f: Callable[[float], float],
    pole: float,
    lower: float,
    upper: float,
) -> IntegrationResult:
    """Principal value of ``f(x) / (pole - x)`` over ``[lower, upper]``.

    ``f`` must be smooth near the pole, and the pole must lie strictly
    inside the interval, whose lower limit must be finite.  QAWC needs
    a finite interval: for ``upper = inf`` it covers ``[lower,
    2 pole - lower]``, with the pole at its centre, and an ordinary
    :func:`integrate` takes the tail beyond, summed into one result.
    """
    _check_interval(lower, upper)
    if math.isinf(lower):
        raise UsageError("principal-value lower limit must be finite")
    if not (lower < pole < upper):
        raise UsageError(
            f"pole {pole} must lie strictly inside [{lower}, {upper}]"
        )
    split = upper if math.isfinite(upper) else 2.0 * pole - lower
    pv = _quad(f, lower, split, weight="cauchy", wvar=pole)
    if split == upper:
        return IntegrationResult(-pv.value, pv.error_estimate, pv.evaluations)
    tail = integrate(lambda x: f(x) / (pole - x), split, upper)
    return IntegrationResult(-pv.value + tail.value,
                             pv.error_estimate + tail.error_estimate,
                             pv.evaluations + tail.evaluations)
