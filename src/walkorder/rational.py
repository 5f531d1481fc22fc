"""Exact rational arithmetic on ``fractions.Fraction``.

Every coordinate, weight and threshold in this package is an exact rational.
Values are ``fractions.Fraction``; the exact kernels run on plain ints over
the lcm of the denominators, encoded by ``over_lcm`` and decoded by ``rat``.
Every number is read by one reader, ``as_ratio``, straight to a reduced pair
of Python ints, so measure files reach the integer view without a
``Fraction``; ``as_rat`` and a one-argument ``rat`` build their ``Fraction``
from that pair.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from fractions import _RATIONAL_FORMAT, Fraction  # the grammar of Fraction(str)

#: Name of the rational type in use, recorded by the benchmark harness.
BACKEND = "python"

# annotation alias; Fraction registers with the Rational ABC
Rational = numbers.Rational


def rat(numerator, denominator=None) -> Rational:
    """``Fraction(numerator, denominator)`` for two ints; one argument is read
    by ``as_rat``.

    One argument may be an int, another exact rational, or a string: a
    fraction literal ("2/5"), a decimal ("0.1", converted exactly to 1/10) or
    scientific notation ("1e-3").  Floats raise TypeError.
    """
    if denominator is None:
        return as_rat(numerator)
    return Fraction(numerator, denominator)


ZERO = Fraction(0)


def over_lcm(values) -> tuple[int, list]:
    """``(D, ints)`` with ``values[i] == ints[i] / D``, D the lcm of the
    denominators; ``(1, [])`` for no values.  The inverse of ``rat(k, D)``."""
    den = math.lcm(*{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


#: the exponent of a decimal literal such as "1e-3", as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def as_ratio(value) -> tuple[int, int]:
    """``(p, q)``, Python ints in lowest terms with q > 0, the value of an
    exact rational or of a number string; builds no ``Fraction``.

    A string is read with the grammar of ``Fraction(str)`` on the running
    Python (``fractions._RATIONAL_FORMAT``: signs, "p/q", decimals and
    scientific notation, underscores from 3.11 on, spaces around "/" from
    3.12 on), converted as ``Fraction`` converts it, and refused with its
    exception and message.  It is also refused (``ValueError``) when its
    number has more digits than Python prints (``sys.get_int_max_str_digits()``);
    an exponent past that limit by more than the literal's length is refused
    before ten is raised to it.  Any other ``numbers.Rational`` (ints, numpy
    integers, ``Fraction``) gives its numerator and denominator as ints;
    anything else, a float included, raises TypeError.
    """
    if not isinstance(value, str):
        if isinstance(value, (int, Fraction, numbers.Rational)):  # ints and Fractions skip the ABC check
            return int(value.numerator), int(value.denominator)
        raise TypeError(
            f"expected an exact rational, got {type(value).__name__}; "
            "floats must be pre-rationalized by the caller"
        )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    literal = value.strip()
    exponent = _EXPONENT.search(literal)
    if limit and exponent and abs(int(exponent[1])) > limit + len(literal):
        raise ValueError(f"exponent {exponent[1]} is out of range")
    m = _RATIONAL_FORMAT.match(literal)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {literal!r}")
    sign, num, den, decimal, exp = m.group("sign", "num", "denom", "decimal", "exp")
    num = int(num or "0")
    if den:
        den = int(den)
    else:
        den = 1
        if decimal:
            decimal = decimal.replace("_", "")
            den = 10 ** len(decimal)
            num = num * den + int(decimal)
        if exp:
            exp = int(exp)
            if exp >= 0:
                num *= 10**exp
            else:
                den *= 10**-exp
    if sign == "-":
        num = -num
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    num, den = num // g, den // g
    big = max(abs(num), den)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:  # 8**limit < 10**limit
        raise ValueError(f"its numerator or denominator has more than {limit} digits")
    return num, den


def as_rat(value) -> Rational:
    """``value`` as a ``Fraction`` of Python ints, read by ``as_ratio``; a
    ``Fraction`` is returned as it is."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    return Fraction(*as_ratio(value))


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
