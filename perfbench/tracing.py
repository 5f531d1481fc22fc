"""In-memory span tracing of walkorder's public functions, for the traced run.

``Tracer.install`` replaces each traced function by a wrapper in *every*
walkorder module that holds it, because ``cli``, ``dominance``, ``ldp`` and
``stochorder`` import names directly (``from .measure import project``), so
patching only the defining module would miss their calls.

A span records name, start, end, parent span and query id.  The two hot leaf
predicates, ``Cone.leq_point`` and ``stochorder.tail_mass``, run hundreds of
thousands of times per query; a call to one of them opens no span but adds a
count and its time to the enclosing span.  A span's self time is its duration
minus the time covered by its child spans and leaf calls.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _convolve_counts(span, args, kwargs, result):
    span.counts["atoms_out"] += len(result)


def _leq_st_counts(span, args, kwargs, result):
    mu, nu = args[0], args[1]
    span.counts["pairs_tested"] += len(mu) * len(nu)
    span.counts["dominated"] += int(result.dominated)


def _transport_counts(span, args, kwargs, result):
    span.counts["edges"] += len(args[0].edges)


def _lp_counts(span, args, kwargs, result):
    inst = args[0]
    span.counts["cells"] += (len(inst.ineq_rows) + len(inst.eq_rows)) * inst.num_vars


# (module, function, counter) for every function that opens a span
SPAN_TARGETS = (
    ("measure", "convolve_power", _convolve_counts),
    ("measure", "project", None),
    ("stochorder", "leq_st", _leq_st_counts),
    ("stochorder", "upset_mass", None),
    ("solvers", "transport_feasible", _transport_counts),
    ("solvers", "lp_feasible", _lp_counts),
    ("dominance", "min_n", None),
    ("dominance", "catalyst_1d", None),
    ("spectrum", "compare_on_ray", None),
    ("spectrum", "spectral_verdict", None),
    ("ldp", "rate_function", None),
    ("ldp", "relative_rate_rhs", None),
    ("ldp", "relative_rate_curve", None),
    ("ldp", "relative_rate_lhs", None),
    ("ldp", "cramer_empirical", None),
)
LEAF_TARGETS = (("stochorder", "tail_mass"),)
ROOT_SPAN = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "covered", "counts", "leaves")

    def __init__(self, name, start, parent, qid):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index into Tracer.spans, or None
        self.qid = qid
        self.covered = 0.0  # time spent in child spans and leaf calls
        self.counts = defaultdict(int)
        self.leaves = {}  # leaf name -> [calls, seconds]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []
        self.qid = None

    # -- spans --------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.qid))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        # a span closes only after every span opened inside it has closed
        while self._stack and self._stack.pop() != idx:
            pass
        if span.parent is not None:
            self.spans[span.parent].covered += span.end - span.start
        return span

    def _span_wrapper(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(idx)
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if stack:
                    span = spans[stack[-1]]
                    span.covered += dt
                    entry = span.leaves.get(name)
                    if entry is None:
                        span.leaves[name] = [1, dt]
                    else:
                        entry[0] += 1
                        entry[1] += dt

        return wrapper

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a walkorder module holds it."""
        from walkorder.cones import Cone

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "walkorder" or n.startswith("walkorder."))]
        for mod_name, fn_name, counter in SPAN_TARGETS:
            self._patch(modules, mod_name, fn_name,
                        lambda name, fn, c=counter: self._span_wrapper(name, fn, c))
        for mod_name, fn_name in LEAF_TARGETS:
            self._patch(modules, mod_name, fn_name, self._leaf_wrapper)
        original = Cone.leq_point
        Cone.leq_point = self._leaf_wrapper("cones.leq_point", original)
        self._restore.append((Cone, "leq_point", original))

    def _patch(self, modules, mod_name, fn_name, make) -> None:
        original = getattr(sys.modules[f"walkorder.{mod_name}"], fn_name)
        wrapped = make(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: calls, self seconds and counters, summed over all spans."""
        totals: dict = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span.end is None:
                continue
            t = totals[span.name]
            t["calls"] += 1
            t["self_s"] += (span.end - span.start) - span.covered
            for key, value in span.counts.items():
                t[key] += value
            for leaf, (calls, secs) in span.leaves.items():
                totals[leaf]["calls"] += calls
                totals[leaf]["self_s"] += secs
            if span.parent is not None:
                parent = self.spans[span.parent]
                if span.name == "solvers.transport_feasible" and parent.name == "stochorder.leq_st":
                    totals["stochorder.leq_st"]["edges_kept"] += span.counts["edges"]
                if span.name == "measure.convolve_power" and parent.name == "dominance.min_n":
                    totals["dominance.min_n"]["convolve_calls"] += 1
        return totals

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "query": s.qid,
                                     "counts": dict(s.counts), "leaves": s.leaves}) + "\n")
