"""Exact rational arithmetic with a switchable backend.

Every coordinate, weight and threshold in this package is an exact rational.
The backend is ``gmpy2.mpq`` when importable and ``fractions.Fraction``
otherwise.
Set ``WALKORDER_BACKEND`` to ``gmpy2`` or ``python`` to force a choice; the
default ``auto`` prefers gmpy2.  Both backends hash and compare identically,
so values from either may be mixed, but everything constructed through this
module uses the active backend.
"""

from __future__ import annotations

import math
import numbers
import os
from fractions import Fraction

_choice = os.environ.get("WALKORDER_BACKEND", "auto").lower()
if _choice not in ("auto", "gmpy2", "python"):
    raise RuntimeError(f"WALKORDER_BACKEND must be auto, gmpy2 or python, got {_choice!r}")

if _choice in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as _ratio_type

        BACKEND = "gmpy2"
    except ImportError:
        if _choice == "gmpy2":
            raise
        _ratio_type = Fraction
        BACKEND = "python"
else:
    _ratio_type = Fraction
    BACKEND = "python"

# annotation alias; both backends register with the Rational ABC
Rational = numbers.Rational


def rat(numerator, denominator=None) -> Rational:
    """Build an exact rational from ints, strings or another rational.

    Strings may be fraction literals ("2/5"), decimals ("0.1", converted
    exactly to 1/10) or scientific notation ("1e-3").
    """
    if denominator is not None:
        return _ratio_type(numerator, denominator)
    if isinstance(numerator, str):
        return _ratio_type(Fraction(numerator))
    return _ratio_type(numerator)


ZERO = rat(0)
ONE = rat(1)


def as_rat(value) -> Rational:
    """Convert to the backend rational type, rejecting inexact input."""
    if isinstance(value, _ratio_type):
        return value
    if isinstance(value, (int, str)):
        return rat(value)
    if isinstance(value, numbers.Rational):
        return rat(value.numerator, value.denominator)
    raise TypeError(
        f"expected an exact rational, got {type(value).__name__}; "
        "floats must be pre-rationalized by the caller"
    )


def rat_str(q) -> str:
    """Canonical string form: "p/q" in lowest terms, or "p" for integers."""
    return str(q)


def rat_ceil(q) -> int:
    return int(math.ceil(q))


def log_rat(q) -> float:
    """log of a positive rational, robust to values far outside float range."""
    if q <= 0:
        raise ValueError("log_rat requires a positive rational")
    return math.log(int(q.numerator)) - math.log(int(q.denominator))
