"""Exact combinatorial feasibility back-ends.

Transportation feasibility is decided by a max-flow on nonnegative int
supplies and demands, as ``leq_st`` passes them over one common denominator,
with shortest augmenting paths (greedy warm start, then BFS augmentation).
Each demand keeps the sorted positions of its carrying supplies, those with
positive flow into it, so a BFS step back from a demand scans only those; linear
feasibility on int rows by a phase-1 simplex with Bland's rule, whose sparse
int tableau rows pivot exactly as the dense rational tableau does.
Everything is exact, so certificates never depend on a tolerance.  Every
returned LP point is re-checked exactly here; the max-flow hands back its
plan or cut as found, and ``stochorder.leq_st`` checks it.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Optional, Sequence

from .rational import ZERO, rat


@dataclass(frozen=True)
class TransportInstance:
    """Nonnegative int supplies and demands of equal total, and edges as int
    (supply index, demand index) pairs; the edge order fixes determinism.

    The constructor checks everything once: a supply, demand or index that
    is not an int (``operator.index``) raises TypeError; a negative value,
    unequal totals or an edge out of range raise ValueError.
    """

    supplies: tuple
    demands: tuple
    edges: tuple

    def __post_init__(self):
        sup, dem = tuple(map(index, self.supplies)), tuple(map(index, self.demands))
        if min(sup + dem, default=0) < 0:
            raise ValueError("supplies and demands must be nonnegative")
        if sum(sup) != sum(dem):
            raise ValueError("total supply must equal total demand")
        m, k = len(sup), len(dem)
        edges = []
        for i, j in self.edges:
            i, j = index(i), index(j)
            if not (0 <= i < m and 0 <= j < k):
                raise ValueError(f"edge ({i}, {j}) out of range")
            edges.append((i, j))
        object.__setattr__(self, "supplies", sup)
        object.__setattr__(self, "demands", dem)
        object.__setattr__(self, "edges", tuple(edges))


@dataclass(frozen=True)
class TransportResult:
    feasible: bool
    plan: Optional[dict]  # (i, j) -> positive int flow, exact conservation
    cut: Optional[frozenset]  # supply indices with deficient neighborhood


def transport_feasible(inst: TransportInstance) -> TransportResult:
    """Decide feasibility, returning an int plan or a deficient supply set.

    The cut certificate is a set A of supply indices whose admissible demand
    neighborhood has strictly smaller total demand than the supply of A.

    The max-flow runs on the instance's ints: a greedy warm start in edge
    order, then shortest augmenting paths by BFS.  Rational supplies scaled
    by a common D > 0 keep every comparison and every bottleneck, so the
    plan over D and the cut are those of the same max-flow on the
    rationals.  The plan or cut is returned as found; ``stochorder.leq_st``
    checks it before building its verdict.

    ``carried[j]`` lists, sorted, the positions in ``radj[j]`` of the supplies
    that carry positive flow into demand j: a position is inserted when its
    flow leaves 0, in the warm start or on a path, and deleted when a path
    cancels the flow to 0.  From a demand the BFS goes back only along these,
    in ``radj`` order, so it visits the nodes that a scan of all of
    ``radj[j]`` for positive flow would, in the same order: every path, plan
    and cut is that scan's.
    """
    m, k = len(inst.supplies), len(inst.demands)
    adj: list[list[int]] = [[] for _ in range(m)]
    radj: list[list[int]] = [[] for _ in range(k)]
    for i, j in dict.fromkeys(inst.edges):  # each distinct edge once, in edge order
        adj[i].append(j)
        radj[j].append(i)
    carried: list[list[int]] = [[] for _ in range(k)]  # sorted radj[j] positions with flow into j
    flow: dict[tuple, int] = {}
    r_s = list(inst.supplies)
    r_d = list(inst.demands)

    def push(i: int, j: int, f: int) -> None:
        # add f to the flow on edge (i, j), keeping carried[j] in step
        old = flow.get((i, j), 0)
        flow[(i, j)] = old + f
        if not old:
            insort(carried[j], radj[j].index(i))
        elif old + f == 0:
            carried[j].remove(radj[j].index(i))

    # warm start: greedy saturation in edge order
    for i, j in inst.edges:
        if r_s[i] > 0 and r_d[j] > 0:
            f = min(r_s[i], r_d[j])
            push(i, j, f)
            r_s[i] -= f
            r_d[j] -= f

    while True:
        prev_d: dict[int, int] = {}  # demand j discovered from supply i
        prev_s: dict[int, Optional[int]] = {}  # supply i discovered from demand j (None = root)
        queue: deque[int] = deque()
        for i in range(m):
            if r_s[i] > 0:
                prev_s[i] = None
                queue.append(i)
        target = None
        while queue and target is None:
            i = queue.popleft()
            for j in adj[i]:
                if j in prev_d:
                    continue
                prev_d[j] = i
                if r_d[j] > 0:
                    target = j
                    break
                rj = radj[j]
                for p in carried[j]:
                    i2 = rj[p]
                    if i2 not in prev_s:
                        prev_s[i2] = j
                        queue.append(i2)
        if target is None:
            break
        # reconstruct the alternating path back to a root supply
        path: list[tuple] = []  # (i, j, forward)
        j = target
        while True:
            i = prev_d[j]
            path.append((i, j, True))
            back = prev_s[i]
            if back is None:
                break
            path.append((i, back, False))
            j = back
        root = path[-1][0]
        bottleneck = min(r_d[target], r_s[root])
        for i, j, forward in path:
            if not forward and flow[(i, j)] < bottleneck:
                bottleneck = flow[(i, j)]
        for i, j, forward in path:
            push(i, j, bottleneck if forward else -bottleneck)
        r_s[root] -= bottleneck
        r_d[target] -= bottleneck

    if all(r == 0 for r in r_s):
        return TransportResult(True, {e: f for e, f in flow.items() if f > 0}, None)
    return TransportResult(False, None, frozenset(prev_s))


@dataclass(frozen=True)
class LinearFeasibility:
    """Find x >= 0 with A_ub x <= b_ub and A_eq x = b_eq, exactly.

    Each row is ``({column: int}, int rhs)``.  The constructor checks every
    value once: a column, coefficient or rhs that is not an int
    (``operator.index``), or a row that is not a mapping, raise TypeError; a
    column outside ``[0, num_vars)`` raises ValueError.  Zero coefficients
    are not stored.
    """

    num_vars: int
    ineq_rows: tuple = ()  # (coefficients, rhs) meaning a . x <= b
    eq_rows: tuple = ()  # (coefficients, rhs) meaning a . x = b

    def __post_init__(self):
        n = index(self.num_vars)
        object.__setattr__(self, "num_vars", n)
        for name in ("ineq_rows", "eq_rows"):
            rows = []
            for coeffs, rhs in getattr(self, name):
                if not isinstance(coeffs, Mapping):
                    raise TypeError("a row's coefficients must map columns to ints")
                row = {index(j): index(c) for j, c in coeffs.items()}
                for j in row:
                    if not 0 <= j < n:
                        raise ValueError(f"column {j} out of range for {n} variables")
                rows.append(({j: c for j, c in row.items() if c}, index(rhs)))
            object.__setattr__(self, name, tuple(rows))


def lp_feasible(inst: LinearFeasibility) -> Optional[list]:
    """Phase-1 simplex with Bland's rule; returns a feasible point or None.

    The tableau rows are sparse maps ``{column: int}`` that hold only the
    nonzero entries, the right-hand side under the last column's key.  They
    start as the instance's int rows, negated where rhs < 0, with slack and
    artificial entries of +-1.  Each row, the objective row included, stands
    for its rational values up to a positive factor, and the objective row
    is read only for signs.  A pivot on entry p = P[c] of row P replaces
    every other row R that has an entry in column c by p*R - R[c]*P and
    divides out the gcd of the result; p > 0, so every factor stays
    positive.  The pivots are those of the
    rational tableau: the entering column is the first with a negative
    objective entry, the leaving row has the least ratio rhs / R[c] over
    R[c] > 0 (compared by cross-multiplying, where the row factors cancel),
    and ties go to the smaller basic column.  Sparse rows skip the zero
    entries, which are most of a catalyst tableau, and change no pivot.

    A positive factor on an inequality row with rhs >= 0, which starts on its
    slack, changes no pivot; on any other row it weighs the row's artificial
    in the objective, and may change the point but not whether one exists.

    Every returned point is re-checked exactly against all rows before it is
    handed back; infeasibility is declared only when the phase-1 optimum is
    strictly positive.
    """
    n = inst.num_vars
    n_ineq = len(inst.ineq_rows)
    rows = [(coeffs, rhs, idx) for idx, (coeffs, rhs) in enumerate(inst.ineq_rows)]
    rows += [(coeffs, rhs, None) for coeffs, rhs in inst.eq_rows]
    # every row but an inequality with rhs >= 0 starts on an artificial
    num_art = sum(1 for _, rhs, slack in rows if slack is None or rhs < 0)
    rhs_col = n + n_ineq + num_art

    # columns: x (n) | slacks (n_ineq) | artificials | rhs; a row is negated
    # where rhs < 0, and its slack or artificial entry is 1
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    art = n + n_ineq
    for coeffs, rhs, slack in rows:
        s = -1 if rhs < 0 else 1
        row = {j: s * c for j, c in coeffs.items()}
        if rhs:
            row[rhs_col] = s * rhs
        if slack is not None:
            row[n + slack] = s
        if slack is not None and s > 0:
            basis.append(n + slack)
        else:
            row[art] = 1
            basis.append(art)
            art += 1
        tableau.append(row)

    # objective: minimize the sum of artificials, priced out against their rows
    obj = dict.fromkeys(range(n + n_ineq, rhs_col), 1)
    for r, b in enumerate(basis):
        if b >= n + n_ineq:
            for j, v in tableau[r].items():
                obj[j] = obj.get(j, 0) - v
    obj = {j: v for j, v in obj.items() if v != 0}

    while True:
        entering = min((j for j, v in obj.items() if v < 0 and j != rhs_col), default=None)
        if entering is None:
            break
        hits = [r for r, row in enumerate(tableau) if entering in row]
        leaving = None
        for r in hits:
            a = tableau[r][entering]
            if a > 0:
                b = tableau[r].get(rhs_col, 0)
                if leaving is not None:
                    lhs, rhs = b * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leaving]):
                        continue
                leaving, best_a, best_b = r, a, b
        if leaving is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        prow = tableau[leaving]
        for r in hits:
            if r != leaving:
                tableau[r] = _eliminate(tableau[r], prow, best_a, entering)
        obj = _eliminate(obj, prow, best_a, entering)
        basis[leaving] = entering

    if obj.get(rhs_col, 0) < 0:  # optimum value of sum of artificials is positive
        return None
    x = [ZERO] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = rat(row.get(rhs_col, 0), row[b])
    _check_solution(inst, x)
    return x


def _eliminate(row: dict, prow: dict, p: int, col: int) -> dict:
    """p*row - row[col]*prow, which has no entry in column col, divided by
    its gcd; both rows and the result hold nonzero entries only."""
    f = row[col]
    out = {j: p * v for j, v in row.items()}
    for j, v in prow.items():
        w = out.get(j, 0) - f * v
        if w:
            out[j] = w
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


def _check_solution(inst: LinearFeasibility, x: Sequence) -> None:
    if any(v < 0 for v in x):
        raise RuntimeError("simplex returned a negative component")
    support = [(j, v) for j, v in enumerate(x) if v != 0]
    for coeffs, rhs in inst.ineq_rows:
        if sum(coeffs[j] * v for j, v in support if j in coeffs) > rhs:
            raise RuntimeError("simplex returned a point violating an inequality row")
    for coeffs, rhs in inst.eq_rows:
        if sum(coeffs[j] * v for j, v in support if j in coeffs) != rhs:
            raise RuntimeError("simplex returned a point violating an equality row")
