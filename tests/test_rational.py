"""The encoder ``over_lcm`` and its inverse ``rat(k, D)``."""

from __future__ import annotations

import math

from walkorder.rational import over_lcm, rat

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
