"""Shared exception hierarchy.

Each class carries the CLI's exit code: configuration problems exit 1,
physics rejections (positivity) exit 2, numerical non-convergence exit
3.  Library code raises them directly.  ``checked`` is the one
rule for a valid number, shared by the config parser and every library
entry point that takes a scalar.
"""

from __future__ import annotations

import numbers
import sys


class DoscError(Exception):
    """Base class for all package-specific failures: ``detail`` holds
    numbers a front end can show, ``exit_code`` the CLI's exit code."""

    exit_code = 3

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


class UsageError(DoscError):
    """Malformed configuration, bad CLI arguments, or misuse of an API."""

    exit_code = 1


class PositivityError(DoscError):
    """Coupling too strong: the Hamiltonian would not be bounded below.

    Carries the offending integral and margin (continuum) or margin
    (discrete) in ``detail`` so front ends can show the numbers.
    """

    exit_code = 2


class ConvergenceError(DoscError):
    """A numerical procedure exhausted its budget before reaching tolerance."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature failed; carries the partial result."""

    def __init__(self, message: str, partial=None, detail: dict | None = None):
        super().__init__(message, detail)
        self.partial = partial


class OutsideSupportError(UsageError):
    """Query frequency lies outside the coupling support, where Y is undefined.

    Nothing in dosc raises it.  It stays because code outside the
    package names it (``perfbench/run.py``'s exit-code table), and as a
    UsageError it keeps exit code 1.
    """


class InternalConsistencyError(DoscError):
    """An algebraic identity failed beyond round-off; indicates a bug, not physics."""


def checked(value, rule: str, name: str):
    """``value`` as a Python number if it passes ``rule``, else
    UsageError naming ``name``.

    A rule is "number" (finite; returned as int if integral, else as
    float) or "integer" (any integral number, returned as int), with an
    optional lower bound such as ">= 1" or "> 0".  Any real number
    passes, numpy scalars included; booleans (Python's or numpy's)
    never do.
    """
    kind, *bound = rule.split()
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ok:
        # compared as a Python number (a float32 casts the bounds to
        # inf); the range test also refuses NaN, infinities and too large ints
        x = int(value) if isinstance(value, numbers.Integral) else float(value)
        ok = -sys.float_info.max <= x <= sys.float_info.max
    if ok and kind == "integer":
        ok = x == int(x)
    if ok and bound:
        op, low = bound
        ok = x > float(low) if op == ">" else x >= float(low)
    if ok:
        return int(x) if kind == "integer" else x
    need = "an " + rule if kind == "integer" else "a finite " + rule
    raise UsageError(f"{name} must be {need}, got {value!r}")
