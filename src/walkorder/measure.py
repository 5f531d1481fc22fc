"""Finitely supported measures on R^d with exact rational weights.

A measure is a finite map from points (tuples of exact rationals) to strictly
positive rational weights.  The semialgebra operations are weighted mixture,
convolution (Minkowski sum of supports with weight products), convolution
powers, translation, and pushforward along a linear functional.  Atom
coalescing uses exact point equality; there is no epsilon merging anywhere.

A measure stores only its integer view: the atoms sorted by point, with
coordinates as ints over ``S`` and weights as ints over ``D``, the lcms of
the reduced denominators.  ``from_ratios`` builds it from values read to
``(p, q)`` int pairs (``rational.as_ratio``), merging, dropping and refusing
atoms on the pairs; ``Measure(dim, atoms)`` and the CLI's file reader both
go through it, so no ``Fraction`` is built for a file.  Every operation
computes on views, and ``Measure._of_ints`` sorts a result's atoms and
divides the gcds out of its view.  This form is canonical: equal measures
have identical views, ``==`` compares them, and since ``S > 0`` the int
points sort as the rational ones do.  Rational atoms are decoded on the
first read of ``atoms``, in that sorted order.

Convolution puts the views of its operands on one integer lattice.  Over
the lcm of their ``S``, the support of a measure lies in
``a + diag(h) Z^d``: ``a_i`` is the smallest i-th coordinate and ``h_i`` the
gcd of the offsets ``x_i - a_i`` (1 when they are all 0).  An atom becomes an
int offset vector ``k`` with its int weight, and ``k`` is packed into one int
key by mixed radix.  The radixes bound every offset the result can reach
(``n * span_i + 1`` for an n-th power, ``span_mu + span_nu + 1`` for a
product on the common step ``gcd(h_mu, h_nu)``), so keys add without carries
and the kernel is ``out[x + y] += cx * cy`` over plain ints in any dimension.
The result's view is unpacked from the keys: the point is ``n a + h k`` over
the common scale and the weight ``c`` over ``D^n``.  The encoding is a
bijection on the support, so results equal those of the pairwise rational
loop exactly, whatever order the keys come in.

A power has two routes on the same keys.  The packed step is a polynomial
with int coefficients whose exponents are the keys, so a dense power is one
big-int ``pow`` (Kronecker substitution): each weight sits in a byte slot at
its key, each slot wide enough for the largest coefficient the power can
have, the n-th power of the sum T of the weights.  Its slots span the whole
box of keys, the product of the radices, so it pays only where the support
fills much of that box.  Repeated squaring on the packed maps, as
``convolve`` multiplies, builds X^2, X^4, ... and reads how full each one
is: once some X^j fills a quarter of its own box, squaring it would take as
many multiply-adds as the big int has slots, and the box is within the atom
cap, the power is taken as one ``pow`` instead.  Sparse and non-lattice
steps, one far atom among near ones too, never fill their boxes and stay on
the maps.  The cap raises at the same n either way: up to the switch both
routes run the same products, and after it every support lies in the box.

All values are immutable after construction and every operation is a pure
function, so a measure may be shared by any number of callers; the decoded
atoms and the tail index are derived from the view and never go stale.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import accumulate, chain
from operator import gt, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import AtomBudgetExceeded, DimensionMismatch
from .rational import Rational, ZERO, as_rat, as_ratio, over_lcm, point_str, rat

#: Points are tuples of exact rationals; the tuple length is the dimension.
Point = tuple

#: Default cap on intermediate atom counts in convolution powers.
DEFAULT_ATOM_CAP = 10**6


def as_point(coords: Sequence, dim: int | None = None) -> Point:
    """Normalize a coordinate sequence to a point, optionally checking dim."""
    return _checked(tuple(map(as_rat, coords)), dim)


def _checked(pt: tuple, dim: int | None) -> tuple:
    if not pt:
        raise ValueError("points must have at least one coordinate")
    if dim is not None and len(pt) != dim:
        raise DimensionMismatch(f"point has {len(pt)} coordinates, expected {dim}")
    return pt


class Measure:
    """A finitely supported unsigned measure on R^d.

    Parameters
    ----------
    dim : int
        Ambient dimension, at least 1.
    atoms : mapping or iterable of (point, weight)
        Point coordinates and weights must be exact rationals (or ints or
        fraction strings); floats are rejected.  Zero-weight atoms are
        dropped, negative weights are an error, and duplicate points are
        merged by summing weights.

    It stores only its integer view (``_int_view``), sorted by point.  The
    atom map is decoded on the first read of ``atoms`` and iterates in that
    order; ``==`` compares the views.  A 1-D measure's tail index
    (``_tail_index``), which answers ``mu([c, inf))`` in O(log N), is built
    on the first tail query in O(N); both are kept.
    """

    __slots__ = ("_dim", "_ints", "_atoms", "_tails")

    def __init__(self, dim: int, atoms: Mapping | Iterable = ()):
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        ratios = ((_checked(tuple(map(as_ratio, x)), dim), as_ratio(w)) for x, w in items)
        self._dim, self._ints = dim, from_ratios(dim, ratios)._ints
        self._atoms = None
        self._tails = None

    @classmethod
    def _of_ints(cls, dim: int, s: int, coords: list, d: int, weights: list) -> "Measure":
        # Trusted: distinct int points of length dim and positive int weights,
        # in any order.  Sorting by point and dividing out the gcds gives the
        # canonical view, the one ``Measure(dim, atoms)`` has.
        if any(map(gt, coords, coords[1:])):
            coords, weights = map(list, zip(*sorted(zip(coords, weights))))
        g = math.gcd(s, *chain.from_iterable(coords))
        if g > 1:
            s, coords = s // g, [tuple(c // g for c in x) for x in coords]
        g = math.gcd(d, *weights)
        if g > 1:
            d, weights = d // g, [w // g for w in weights]
        self = object.__new__(cls)
        self._dim = dim
        self._ints = (s, coords, d, weights)
        self._atoms = None
        self._tails = None
        return self

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def atoms(self) -> Mapping[Point, Rational]:
        """Read-only view of the atom map, decoded on the first read."""
        if self._atoms is None:
            s, coords, d, weights = self._ints
            self._atoms = {tuple(rat(c, s) for c in x): rat(w, d) for x, w in zip(coords, weights)}
        return MappingProxyType(self._atoms)

    def mass(self) -> Rational:
        _, _, d, weights = self._ints
        return rat(sum(weights), d)

    def support(self) -> list[Point]:
        """Support points in sorted order, the order of the view."""
        return list(self.atoms)

    def weight(self, point: Sequence) -> Rational:
        return self.atoms.get(as_point(point, self._dim), ZERO)

    def _tail_index(self) -> tuple[int, list, int, list]:
        """1-D only: ``(S, keys, D, suffix)``, the integer view with its points
        as ascending int keys (atom i is ``keys[i] / S``) and ``suffix[i]``
        the sum of the view's int weights from atom i on, so the closed tail
        mass at c is ``suffix[bisect_left(keys, ceil(c S))] / D``."""
        if self._tails is None:
            s, coords, d, weights = self._ints
            suffix = list(accumulate(reversed(weights), initial=0))[::-1]
            self._tails = (s, [k for k, in coords], d, suffix)
        return self._tails

    def _int_view(self) -> tuple[int, list, int, list]:
        """The stored ``(S, coords, D, weights)``, sorted by point: the j-th atom
        is the int point ``coords[j]`` over S with weight ``weights[j]`` over D."""
        return self._ints

    def is_probability(self) -> bool:
        _, _, d, weights = self._ints
        return sum(weights) == d

    def normalized(self) -> "Measure":
        """Scale to total mass 1."""
        s, coords, d, weights = self._ints
        total = sum(weights)
        if total == 0:
            raise ValueError("cannot normalize the zero measure")
        if total == d:
            return self
        # weight w / D over mass total / D is w / total
        return Measure._of_ints(self._dim, s, coords, total, weights)

    def __len__(self) -> int:
        return len(self._ints[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self._dim == other._dim and self._ints == other._ints

    def __repr__(self) -> str:
        s, coords, d, weights = self._ints
        inner = ", ".join(
            f"{tuple(str(rat(c, s)) for c in x)}: {rat(w, d)}" for x, w in zip(coords[:4], weights)
        )
        extra = "" if len(self) <= 4 else f", ... {len(self)} atoms"
        return f"Measure(dim={self._dim}, {{{inner}{extra}}})"


def from_ratios(dim: int, items: Iterable) -> Measure:
    """``Measure(dim, atoms)`` built on ints: each item is a point and its
    weight, with every coordinate and the weight a ``(p, q)`` pair in lowest
    terms with q > 0 (``rational.as_ratio``), and each point of length dim.
    Zero weights are dropped, a negative weight is refused, and duplicate
    points are merged, all on the int pairs."""
    if dim < 1:
        raise ValueError("dimension must be a positive integer")
    kept = []
    for pt, w in items:
        if w[0] < 0:
            raise ValueError(f"negative weight {rat(*w)} at {point_str([rat(*c) for c in pt])}")
        if w[0]:
            kept.append((pt, w))
    s = math.lcm(*{q for pt, _ in kept for _, q in pt})
    d = math.lcm(*{q for _, (_, q) in kept})
    merged: dict[tuple, int] = {}
    for pt, (p, q) in kept:
        merged[pt] = merged.get(pt, 0) + p * (d // q)
    coords = [tuple(p * (s // q) for p, q in pt) for pt in merged]
    return Measure._of_ints(dim, s, coords, d, list(merged.values()))


def require_equal_dims(a: Measure, b: Measure) -> None:
    """Raise DimensionMismatch unless the two measures share a dimension."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"measure dimensions differ: {a.dim} vs {b.dim}")


def require_probability(mu: Measure, name: str) -> None:
    """Raise ValueError unless ``mu`` has total mass 1; ``name`` labels it."""
    if not mu.is_probability():
        raise ValueError(f"{name} must be normalized to total mass 1")


def delta(x: Sequence) -> Measure:
    """Unit point mass at x."""
    s, ints = over_lcm(as_point(x))
    return Measure._of_ints(len(ints), s, [tuple(ints)], 1, [1])


def mix(terms: Iterable[tuple]) -> Measure:
    """Weighted sum of measures: sum of c_i * mu_i with c_i >= 0."""
    terms = list(terms)
    if not terms:
        raise ValueError("mix requires at least one (coefficient, measure) term")
    dim = terms[0][1].dim
    views = []  # the view of each c * m with c > 0: int weights c.num * w over c.den * D
    for coeff, m in terms:
        c = as_rat(coeff)
        if c < 0:
            raise ValueError(f"negative mixture coefficient {c}")
        if m.dim != dim:
            raise DimensionMismatch(f"measure dimensions differ: {m.dim} vs {dim}")
        if c:
            s, coords, d, weights = m._int_view()
            views.append((s, coords, c.denominator * d, [c.numerator * w for w in weights]))
    s = math.lcm(*(view[0] for view in views))
    d = math.lcm(*(view[2] for view in views))
    acc: dict[tuple, int] = {}
    for sm, coords, dm, weights in views:
        for x, w in zip(coords, weights):
            pt = tuple(v * (s // sm) for v in x)
            acc[pt] = acc.get(pt, 0) + w * (d // dm)
    return Measure._of_ints(dim, s, list(acc), d, list(acc.values()))


def _lattice(measures: Sequence[Measure]) -> tuple:
    """Put the atoms of nonempty measures on one integer lattice.

    Returns ``(scale, steps, lows, offsets)``: coordinate i of the j-th
    atom of ``measures[m]`` is ``(lows[m][i] + steps[i] * k[i]) / scale``
    with ``k = offsets[m][j]``, a tuple of non-negative ints.
    """
    views = [m._int_view() for m in measures]
    scale = math.lcm(*(s for s, _, _, _ in views))
    ints = [
        coords if s == scale else [tuple(c * (scale // s) for c in x) for x in coords]
        for s, coords, _, _ in views
    ]
    lows = [tuple(map(min, zip(*pts))) for pts in ints]
    steps = [
        math.gcd(*(p[i] - low[i] for pts, low in zip(ints, lows) for p in pts)) or 1
        for i in range(measures[0].dim)
    ]
    offsets = [
        [tuple((c - a) // h for c, a, h in zip(p, low, steps)) for p in pts]
        for pts, low in zip(ints, lows)
    ]
    return scale, steps, lows, offsets


def _pack(mu: Measure, offsets: list, radices: Sequence[int]) -> tuple[dict, int]:
    """Mixed-radix int keys (coordinate 0 least significant) to the int weights
    of ``mu``'s integer view, in the view's order; returns them with the view's D."""
    _, _, denom, weights = mu._int_view()
    packed = {}
    for k, w in zip(offsets, weights):
        key = 0
        for ki, r in zip(reversed(k), reversed(radices)):
            key = key * r + ki
        packed[key] = w
    return packed, denom


def _convolve_packed(a: dict, b: dict, cap: int | None) -> dict:
    # Keys add like the points they encode; ``Measure._of_ints`` sorts the
    # unpacked result, so the order keys are inserted in does not matter.  The
    # support only grows, so checking the cap once per row raises on exactly
    # the inputs a check per insertion would.
    out: defaultdict[int, int] = defaultdict(int)
    for x, cx in a.items():
        for y, cy in b.items():
            out[x + y] += cx * cy
        if cap is not None and len(out) > cap:
            raise AtomBudgetExceeded(f"convolution support exceeded the atom cap of {cap}")
    return out


def _unpack(
    packed: dict, radices: Sequence[int], origin: Sequence[int], steps, scale: int, denom: int
) -> Measure:
    """The measure of packed atoms: int point ``origin + steps * k`` over
    ``scale`` and int weight ``c`` over ``denom``."""
    coords = []
    frame = tuple(zip(radices, origin, steps))
    for key in packed:
        pt = []
        for r, a, h in frame:
            key, k = divmod(key, r)
            pt.append(a + h * k)
        coords.append(tuple(pt))
    return Measure._of_ints(len(frame), scale, coords, denom, list(packed.values()))


def convolve(mu: Measure, nu: Measure) -> Measure:
    """Convolution: atoms are pairwise sums with weight products coalesced."""
    require_equal_dims(mu, nu)
    if not len(mu) or not len(nu):
        return Measure(mu.dim)
    scale, steps, (low_mu, low_nu), (k_mu, k_nu) = _lattice((mu, nu))
    radices = [
        max(k[i] for k in k_mu) + max(k[i] for k in k_nu) + 1 for i in range(mu.dim)
    ]
    a, d_mu = _pack(mu, k_mu, radices)
    b, d_nu = _pack(nu, k_nu, radices)
    origin = [x + y for x, y in zip(low_mu, low_nu)]
    out = _convolve_packed(a, b, None)
    return _unpack(out, radices, origin, steps, scale, d_mu * d_nu)


def _power_bigint(base: dict, n: int, box: int) -> dict:
    """``base`` to the n-th power as one big int (Kronecker substitution).

    Weight w at key x goes in the little-endian slot x of a byte string, so
    the packed int is the polynomial sum of w t^x at t = 256^width; its n-th
    power is one ``pow``, read back one slot at a time.  No coefficient of
    the power exceeds T^n, T the sum of the weights, so slots as wide as
    T^n never carry; the keys of the power stay below ``box``."""
    width = ((sum(base.values()) ** n).bit_length() + 7) // 8
    packed = bytearray(width * (max(base) + 1))
    for key, w in base.items():
        packed[key * width : (key + 1) * width] = w.to_bytes(width, "little")
    raw = memoryview((int.from_bytes(packed, "little") ** n).to_bytes(width * box, "little"))
    from_bytes = int.from_bytes
    return {
        key: c
        for key in range(box)
        if (c := from_bytes(raw[key * width : (key + 1) * width], "little"))
    }


def convolve_power(mu: Measure, n: int, cap: int = DEFAULT_ATOM_CAP) -> Measure:
    """n-fold convolution of mu with itself, on one of two exact routes.

    Both pack the step as int keys with radices that bound every offset
    of the power.  Repeated squaring on the packed maps builds X^j for
    j = 1, 2, 4, ... from the supports alone.  Before a squaring, if X^j
    fills at least a quarter of its own box, squaring it would take at least
    as many multiply-adds as the box of X^n has slots, and that box is
    within ``cap``, the power is instead one big-int ``pow`` over slots for
    the whole box (``_power_bigint``).  The maps' products multiply
    coefficients as wide as the slots, so slot width weighs on both routes
    alike and the rule leaves it out.

    Raises AtomBudgetExceeded if any intermediate support grows past ``cap``,
    which defends against the exponential blowup of non-lattice steps.  Up
    to the switch both routes run the same products, and every later
    support lies in the box, which is within ``cap``, so the big-int route
    raises on exactly the inputs repeated squaring alone would.
    ``n = 0`` gives the unit mass at the origin.
    """
    if n < 0:
        raise ValueError("convolution power requires n >= 0")
    if n == 0:
        return Measure._of_ints(mu.dim, 1, [(0,) * mu.dim], 1, [1])
    if not len(mu):
        return Measure(mu.dim)
    scale, steps, (low,), (offsets,) = _lattice((mu,))
    tops = [max(k[i] for k in offsets) for i in range(mu.dim)]
    # offsets of a sum of at most n atoms stay below these radices: no carries
    radices = [n * t + 1 for t in tops]
    base, denom = _pack(mu, offsets, radices)
    box = math.prod(radices)
    step, acc, k, j = base, {0: 1}, n, 1  # base is X^j
    while k:
        # dense: X^j fills a quarter of its own box, and squaring it would
        # take as many multiply-adds as the big int has slots to read back
        if (
            k > 1
            and box <= min(cap, len(base) ** 2)
            and 4 * len(base) >= math.prod(j * t + 1 for t in tops)
        ):
            acc = _power_bigint(step, n, box)
            break
        if k & 1:
            acc = _convolve_packed(acc, base, cap)
        k >>= 1
        if k:
            base = _convolve_packed(base, base, cap)
            j *= 2
    del base, step  # free the int squares before the result is unpacked
    origin = [n * a for a in low]
    return _unpack(acc, radices, origin, steps, scale, denom**n)


def shift(mu: Measure, a: Sequence) -> Measure:
    """Translate every atom by a: the convolution with the unit mass at a."""
    return convolve(mu, delta(as_point(a, mu.dim)))


def project(mu: Measure, t: Sequence) -> Measure:
    """Pushforward along the linear functional x -> <t, x>; a 1-D measure.

    Runs on ``mu``'s integer view: with ``t`` scaled to ints by the lcm T of
    its denominators, atom x goes to the int key ``<T t, S x>``, and the
    result's view is the sorted keys over ``S T`` with their summed weights
    over ``D``.  It equals the rational pushforward exactly.
    """
    scale, ti = over_lcm(as_point(t, mu.dim))
    s, coords, d, weights = mu._int_view()
    merged: dict[int, int] = {}
    for x, w in zip(coords, weights):
        k = sum(map(mul, ti, x))
        merged[k] = merged.get(k, 0) + w
    keys = sorted(merged)
    return Measure._of_ints(1, s * scale, [(k,) for k in keys], d, [merged[k] for k in keys])
