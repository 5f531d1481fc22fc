"""The encoder ``over_lcm`` and its inverse ``rat(k, D)``, the literal reader
``as_ratio`` against ``Fraction(str)``, and the number-size checks of
``as_rat`` on strings."""

from __future__ import annotations

import math
import re
import sys
import time

import pytest

from walkorder import Measure
from walkorder.rational import as_rat, as_ratio, over_lcm, rat

from conftest import kernel_settings, literals
from literal_parity import corpus, fraction_route, mismatches, outcome


def test_round_trip(hyp):
    st = hyp.strategies
    value = st.one_of(
        st.integers(-(10**12), 10**12).map(rat),
        st.fractions(max_denominator=10**6),
        st.builds(rat, st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 12, 7**9])),
    )

    @kernel_settings(hyp)
    @hyp.given(st.lists(value, max_size=12))
    @hyp.example([])
    @hyp.example([rat(0)])
    @hyp.example([rat(-3), rat(0), rat(5)])
    def check(values):
        den, ints = over_lcm(values)
        assert type(den) is int and all(type(k) is int for k in ints)
        assert den == math.lcm(*(v.denominator for v in values))
        assert [rat(k, den) for k in ints] == values
        assert over_lcm(tuple(values)) == (den, ints)

    check()


def test_fixed_values():
    assert over_lcm([]) == (1, [])
    assert over_lcm([rat(0)]) == (1, [0])
    assert over_lcm([rat(-2), rat(7)]) == (1, [-2, 7])
    # the lcm of 4 and 6, not their product
    assert over_lcm([rat(1, 4), rat(-1, 6), rat(0), rat(2)]) == (12, [3, -2, 0, 24])


class TestNumberStrings:
    """A number string with more digits than Python prints is refused where
    every caller reaches it, in ``as_rat``, before ten is raised to its
    exponent."""

    @pytest.mark.parametrize("literal", ["1e10000000", "1e-10000000", " 1e4300 ", "1e-4300"])
    def test_refused_at_once(self, int_digit_limit, literal):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="out of range|more than 4300 digits"):
            as_rat(literal)
        with pytest.raises(ValueError, match="out of range|more than 4300 digits"):
            Measure(1, {(literal,): 1})
        assert time.perf_counter() - start < 5

    def test_messages(self, int_digit_limit):
        with pytest.raises(ValueError, match=r"^exponent 10000000 is out of range$"):
            as_rat("1e10000000")
        with pytest.raises(ValueError, match=r"^its numerator or denominator has more than 4300 digits$"):
            Measure(1, {("1e4300",): 1})

    def test_longest_numbers_parse(self, int_digit_limit):
        for literal in ("1e4299", "12345e4295", "1e-4299"):
            q = as_rat(literal)
            assert q == rat(literal) and str(q) == str(rat(literal))
        mu = Measure(1, {("1e4299",): 1})
        assert mu.support() == [(rat(10**4299),)]
        assert "Measure(dim=1" in repr(mu)

    def test_exact_forms_unchanged(self):
        assert as_rat(" 2/5 ") == rat(2, 5)
        assert as_rat("0.1") == rat(1, 10)
        if sys.version_info >= (3, 11):
            assert as_rat("1_000e-3") == 1
        else:  # Fraction(str) reads underscores from 3.11 on
            with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: '1_000e-3'$"):
                as_rat("1_000e-3")
        assert as_rat(7) == 7 and type(as_rat(7)) is type(rat(7))
        with pytest.raises(TypeError):
            as_rat(0.5)


class TestLiteralReader:
    """``as_ratio`` reads a literal straight to a reduced int pair; it gives the
    value of the ``Fraction`` route, or refuses with its exception and message."""

    def test_equals_fraction_route(self, hyp, int_digit_limit):
        @hyp.settings(kernel_settings(hyp), max_examples=400)
        @hyp.given(literals(hyp.strategies, bent=True))
        @hyp.example("1_000e-3")
        @hyp.example(" -2 / 4 ")
        @hyp.example("1.d")
        @hyp.example("1/0")
        def check(literal):
            got = outcome(as_ratio, literal)
            assert got == outcome(fraction_route, literal)
            if type(got[0]) is int:
                p, q = got
                assert q > 0 and math.gcd(p, q) == 1
                assert as_rat(literal) == rat(p, q) == fraction_route(literal)
            else:
                with pytest.raises((ValueError, ZeroDivisionError), match=f"^{re.escape(got[1])}$"):
                    as_rat(literal)

        check()

    def test_corpus(self, int_digit_limit):
        # the corpus that tests/literal_parity.py checks under every Python
        assert len(corpus()) > 500 and mismatches(as_ratio) == []

    def test_other_values(self):
        assert as_ratio(7) == (7, 1) and type(as_ratio(7)[0]) is int
        assert as_ratio(True) == (1, 1)
        assert as_ratio(rat(-6, 4)) == (-3, 2)
        with pytest.raises(TypeError, match="floats must be pre-rationalized"):
            as_ratio(0.5)

    def test_numpy_integers(self):
        # read as Python ints: an np.int64 numerator wraps at 2^63
        import numpy as np

        assert as_ratio(np.int64(5)) == (5, 1) and type(as_ratio(np.int64(5))[0]) is int
        for q in (as_rat(np.int64(2**62)), rat(np.int64(2**62))):
            assert type(q.numerator) is int and q * 4 == 2**64

    def test_floats_refused_everywhere(self):
        # rat(0.1) once built the float's binary value
        for read in (as_ratio, as_rat, rat):
            with pytest.raises(TypeError, match="^expected an exact rational, got float; floats must"):
                read(0.1)
