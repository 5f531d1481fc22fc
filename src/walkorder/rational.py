"""Exact rational arithmetic on ``fractions.Fraction``.

Every coordinate, weight and threshold in this package is an exact rational.
Values are ``fractions.Fraction``; the exact kernels run on plain ints over
the lcm of the denominators, encoded by ``over_lcm`` and decoded by ``rat``.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
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


#: the exponent of a decimal literal such as "1e-3", as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def as_rat(value) -> Rational:
    """Convert to ``Fraction``, rejecting inexact input.

    A string is refused (``ValueError``) when its number has more digits than
    Python prints (``sys.get_int_max_str_digits()``); an exponent past that
    limit by more than the literal's length is refused before ``Fraction``
    raises ten to it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return rat(value)
    if isinstance(value, str):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        literal = value.strip()
        exponent = _EXPONENT.search(literal)
        if limit and exponent and abs(int(exponent[1])) > limit + len(literal):
            raise ValueError(f"exponent {exponent[1]} is out of range")
        q = rat(literal)
        big = max(abs(q.numerator), q.denominator)
        if limit and big.bit_length() > 3 * limit and big >= 10**limit:  # 8**limit < 10**limit
            raise ValueError(f"its numerator or denominator has more than {limit} digits")
        return q
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
