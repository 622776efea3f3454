"""Short-time onset of the mean dynamics: a log-log fit of the kernel
k_sin_times(t) against its moment prediction, kept with the tests
because no command or script needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dosc import dynamics, fano
from dosc.spectra import UnitSystem

_SHORT_TIME_POINTS = 25    # log-spaced times in the short-time fit window


@dataclass(frozen=True)
class ShortTimeReport:
    """Log-log fit of k_sin_times(t) minus its uncoupled counterpart.

    The deviation from omega0 sin(omega0 t) opens at t^3 with
    coefficient -(<<omega^4>> - omega0^4)/6; the report carries the
    fitted exponent and coefficient next to the moment-based
    prediction.  ``skipped`` marks the degenerate case where the
    fourth-moment excess is too small to resolve.
    """

    exponent: float
    coefficient: float
    predicted_coefficient: float
    coefficient_rel_error: float
    window: tuple[float, float]
    n_points: int
    skipped: bool = False
    note: str = ""


def short_time_check(sol, units: UnitSystem) -> ShortTimeReport:
    w0 = units.omega0
    m4 = fano.frequency_moment(sol, 4)
    m6 = fano.frequency_moment(sol, 6)
    excess4 = m4 - w0**4
    excess6 = m6 - w0**6
    if excess4 <= 1e-12 * w0**4:
        return ShortTimeReport(
            exponent=math.nan, coefficient=0.0, predicted_coefficient=0.0,
            coefficient_rel_error=math.nan, window=(0.0, 0.0), n_points=0,
            skipped=True,
            note="fourth-moment excess below resolution; deviation not fittable",
        )
    # upper end of the fit window: keep the next order (t^5, weighted by
    # the sixth-moment excess) near 1% of the cubic term; the log-log
    # regression amplifies that contamination by |log t|, so the budget
    # is deliberately tighter than the 5% coefficient tolerance
    if excess6 > 0:
        t_hi = math.sqrt(0.25 * excess4 / excess6)
    else:
        t_hi = 0.1 / w0
    t_hi = min(t_hi, 0.2 / w0)
    t_lo = t_hi / 10.0
    ts = np.geomspace(t_lo, t_hi, _SHORT_TIME_POINTS)
    k_sin_times = dynamics._evaluate(sol, ts)[2]
    dev = k_sin_times - w0 * np.sin(w0 * ts)
    usable = dev < 0
    if usable.sum() < _SHORT_TIME_POINTS // 2:
        return ShortTimeReport(
            exponent=math.nan, coefficient=0.0,
            predicted_coefficient=-excess4 / 6.0,
            coefficient_rel_error=math.nan, window=(t_lo, t_hi),
            n_points=int(usable.sum()), skipped=True,
            note="deviation lost to quadrature noise over the window",
        )
    slope, intercept = np.polyfit(np.log(ts[usable]), np.log(-dev[usable]), 1)
    fitted = -math.exp(intercept)
    predicted = -excess4 / 6.0
    return ShortTimeReport(
        exponent=float(slope), coefficient=fitted,
        predicted_coefficient=predicted,
        coefficient_rel_error=abs(fitted - predicted) / abs(predicted),
        window=(t_lo, t_hi), n_points=int(usable.sum()),
    )
