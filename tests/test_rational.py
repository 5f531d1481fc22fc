"""The encoder ``over_lcm`` and its inverse ``rat(k, D)``, and the number-size
checks of ``as_rat`` on strings."""

from __future__ import annotations

import math
import time

import pytest

from walkorder import Measure
from walkorder.rational import as_rat, over_lcm, rat

from conftest import kernel_settings


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
        assert as_rat("1_000e-3") == 1
        assert as_rat(7) == 7 and type(as_rat(7)) is type(rat(7))
        with pytest.raises(TypeError):
            as_rat(0.5)
