"""Exact rational arithmetic on ``fractions.Fraction``.

Every coordinate, weight and threshold in this package is an exact rational.
Values are ``fractions.Fraction``; the exact kernels run on plain ints over
the lcm of the denominators, encoded by ``over_lcm`` and decoded by ``rat``.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

#: Name of the rational type in use, recorded by the benchmark harness.
BACKEND = "python"

# annotation alias; Fraction registers with the Rational ABC
Rational = numbers.Rational


def rat(numerator, denominator=None) -> Rational:
    """Build an exact rational from ints, strings or another rational.

    Strings may be fraction literals ("2/5"), decimals ("0.1", converted
    exactly to 1/10) or scientific notation ("1e-3").
    """
    if denominator is not None:
        return Fraction(numerator, denominator)
    return Fraction(numerator)


ZERO = rat(0)
ONE = rat(1)


def over_lcm(values) -> tuple[int, list]:
    """``(D, ints)`` with ``values[i] == ints[i] / D``, D the lcm of the
    denominators; ``(1, [])`` for no values.  The inverse of ``rat(k, D)``."""
    den = math.lcm(*{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


def as_rat(value) -> Rational:
    """Convert to ``Fraction``, rejecting inexact input."""
    if isinstance(value, Fraction):
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


def point_str(point) -> str:
    """Readable form of a point for messages, as in "(1/2, 0)"."""
    return "(" + ", ".join(rat_str(c) for c in point) + ")"


def log_rat(q) -> float:
    """log of a positive rational, robust to values far outside float range."""
    if q <= 0:
        raise ValueError("log_rat requires a positive rational")
    return math.log(int(q.numerator)) - math.log(int(q.denominator))
