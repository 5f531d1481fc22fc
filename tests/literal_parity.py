"""The int-pair literal reader ``rational.as_ratio`` against ``Fraction(str)``.

Usage: python tests/literal_parity.py

It loads ``src/walkorder/rational.py`` on its own, so it needs only the
standard library and runs on every Python the package supports, with or
without numpy.  On a fixed corpus of number literals, accepted and refused,
``as_ratio`` must give the numerator and denominator of the ``Fraction``
route, or raise the same exception with the same message.  The ``Fraction``
grammar differs by version ("1_000e-3" is refused on 3.10, "2 / 3" is
accepted from 3.12 on), so the script is meant to be run under each of them.
It prints each mismatch and exits 1 if there is one.
"""

from __future__ import annotations

import importlib.util
import itertools
import re
import sys
from fractions import Fraction
from pathlib import Path

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def fraction_route(literal: str) -> Fraction:
    """The str branch of ``rational.as_rat`` before literals were read to int
    pairs: the exponent check, ``Fraction(str)``, then the digit check."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    literal = literal.strip()
    exponent = _EXPONENT.search(literal)
    if limit and exponent and abs(int(exponent[1])) > limit + len(literal):
        raise ValueError(f"exponent {exponent[1]} is out of range")
    q = Fraction(literal)
    big = max(abs(q.numerator), q.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"its numerator or denominator has more than {limit} digits")
    return q


def outcome(read, literal: str) -> tuple:
    """``(numerator, denominator)`` of ``read(literal)``, or the name and the
    message of the error it raises."""
    try:
        q = read(literal)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return q if isinstance(q, tuple) else (q.numerator, q.denominator)


BODIES = (
    "0", "7", "007", "12_345", "1__2", "_1", "1_", "٣",
    "3/4", "6/8", "0/5", "1/0", "0/0", "1_0/2_0", "2 / 3", "2/ 3", "2 /3", "1/-2", "1/2/3",
    "٣/٤", "0.5", ".5", "5.", ".", "1.2.3", "1.50", "0.0250", "1.0_0", "1._5", "1.d", "1.D",
    "1.5e3", "1.5E-3", "2.500e-2", "1e+2", "1e", "e5", ".5e1", "1_000e-3", "1e1_0", "2.5e-1_0",
    "1/2e3",
    "0x10", "1e4299", "1e4300", "1e-4300", "1e10000000", "x1e10000000", "inf", "nan", "", "-",
)


def corpus() -> list[str]:
    """Every body with every sign, and with spaces, tabs or newlines around it."""
    return [
        f"{pad}{sign}{body}{pad}"
        for sign, body, pad in itertools.product(("", "+", "-", "--"), BODIES, ("", " ", "\t\n"))
    ]


def mismatches(as_ratio) -> list[tuple]:
    """``(literal, as_ratio's outcome, the Fraction route's)`` where they differ."""
    return [
        (literal, got, want)
        for literal in corpus()
        if (got := outcome(as_ratio, literal)) != (want := outcome(fraction_route, literal))
    ]


def main() -> int:
    path = Path(__file__).resolve().parents[1] / "src" / "walkorder" / "rational.py"
    spec = importlib.util.spec_from_file_location("rational", path)
    rational = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rational)
    bad = mismatches(rational.as_ratio)
    for literal, got, want in bad:
        print(f"{literal!r}: as_ratio {got}, Fraction route {want}")
    print(f"Python {sys.version.split()[0]}: {len(corpus())} literals, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
