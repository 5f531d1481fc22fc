"""walkorder benchmark: seeded CLI query workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload walk1d --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --report               # every metric of every workload
    python3 perfbench/run.py --record-goldens       # rewrite perfbench/goldens/

Each query is one in-process call of ``walkorder.cli.main(argv)``, so argument
parsing and report writing are part of it.  One client runs the queries in a
closed loop, one after another, in a single fresh process.  The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a record with the run's stamps.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import certs  # noqa: E402
import workloads as W  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402

SRC = Path("src")
WORKROOT = Path(".perfbench_work")
GOLDEN_DIR = HERE / "goldens"

SETUP_PROBES = 7
# About the median time of reference_work() on the 2-core host the benchmark
# was tuned on.  There the speed of a fixed loop swings by up to 2x over tens of
# seconds, so every timing is rescaled by REFERENCE_S over the reference time
# measured next to it, and reads as seconds at that host's median speed.
REFERENCE_S = 0.008
QUERY_TIMEOUT_S = 60
GRACE_S = 60  # no query starts later than this past --seconds

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_s", "s"),
    ("query_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_METRICS = (
    ("measure.convolve_power", ("calls", "self_s", "atoms_out")),
    ("measure.project", ("calls", "self_s")),
    ("cones.leq_point", ("calls", "self_s")),
    ("stochorder.leq_st", ("calls", "self_s", "pairs_tested", "edge_ratio", "dominated_ratio")),
    ("stochorder.tail_mass", ("calls", "self_s")),
    ("stochorder.upset_mass", ("calls", "self_s")),
    ("solvers.transport_feasible", ("calls", "self_s", "edges")),
    ("solvers.lp_feasible", ("calls", "self_s", "cells")),
    ("dominance.min_n", ("calls", "self_s", "convolve_calls")),
    ("dominance.catalyst_1d", ("calls", "self_s")),
    ("spectrum.compare_on_ray", ("calls", "self_s")),
    ("spectrum.spectral_verdict", ("calls",)),
    ("ldp.rate_function", ("self_s",)),
    ("ldp.relative_rate_rhs", ("self_s",)),
    ("ldp.relative_rate_curve", ("self_s",)),
    ("ldp.relative_rate_lhs", ("self_s",)),
    ("ldp.cramer_empirical", ("self_s",)),
    (ROOT_SPAN, ("self_s", "report_bytes")),
)
UNITS = {"calls": "count", "self_s": "s", "atoms_out": "count", "pairs_tested": "count",
         "edge_ratio": "ratio", "dominated_ratio": "ratio", "edges": "count", "cells": "count",
         "convolve_calls": "count", "report_bytes": "bytes"}
MODULES = ("measure", "cones", "stochorder", "solvers", "dominance", "spectrum", "ldp", "cli")

# layers that do the work on a workload: a traced run fails if one records no call
REQUIRED_LAYERS = {
    "walk1d": ("measure.convolve_power", "stochorder.tail_mass", "cones.leq_point"),
    "cone-order": ("cones.leq_point", "stochorder.leq_st", "solvers.transport_feasible",
                   "dominance.min_n", "measure.convolve_power"),
    "spectral": ("spectrum.compare_on_ray", "measure.project", "ldp.rate_function",
                 "ldp.relative_rate_rhs"),
    "catalyst": ("solvers.lp_feasible", "stochorder.tail_mass", "dominance.catalyst_1d"),
}


def per_layer_names() -> list:
    names = [(f"{layer}.{key}", UNITS[key]) for layer, keys in LAYER_METRICS for key in keys]
    names += [(f"share.{m}", "%") for m in MODULES]
    names.append(("trace.queries_per_s", "1/s"))
    return names


# -- machine speed --------------------------------------------------------------------


def reference_work() -> None:
    """A fixed slice of exact rational and dict work, like walkorder's inner loops."""
    acc, table = Fraction(0), {}
    for i in range(1, 1200):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        table[(i % 50, i % 7)] = acc


def reference_time() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def rescale(seconds: float, ref_before: float, ref_after: float) -> float:
    """A timing rescaled to the reference speed, from references taken around it."""
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


# -- running one query ---------------------------------------------------------------


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query that ran past QUERY_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_query(cli, query, workdir: Path, tracer: Tracer | None):
    """Run one query; returns (seconds, exit code or None, error text or None)."""
    outputs = query.output_paths(workdir)
    for path in outputs.values():
        path.unlink(missing_ok=True)
    argv = query.argv(workdir)
    rc, err, span = None, None, None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
        try:
            if tracer is not None:
                tracer.qid = query.qid
                span = tracer.open(ROOT_SPAN)
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            finally:
                if span is not None:
                    tracer.close(span)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        err = f"timed out after {QUERY_TIMEOUT_S} s"
    except Exception:  # a traceback is a failed query; the run goes on
        err = traceback.format_exc(limit=4)
    dt = perf_counter() - t0
    if span is not None:
        tracer.spans[span].counts["report_bytes"] += sum(
            p.stat().st_size for p in outputs.values() if p.exists())
    return dt, rc, err


def output_digest(query, workdir: Path) -> dict:
    out = {}
    for label, path in query.output_paths(workdir).items():
        out[label] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


def check_against_golden(query, workdir: Path, rc, golden: dict | None) -> str | None:
    if golden is None:
        return "no golden output recorded"
    if rc != golden["exit"]:
        return f"exit code {rc}, golden {golden['exit']}"
    digest = output_digest(query, workdir)
    if digest != golden["sha256"]:
        bad = sorted(k for k in set(digest) | set(golden["sha256"])
                     if digest.get(k) != golden["sha256"].get(k))
        return f"output bytes differ from the golden copy: {', '.join(bad)}"
    return None


# -- set-up -------------------------------------------------------------------------------


def require_source() -> None:
    if not (SRC / "walkorder" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'walkorder'} not found; run from the root of a walkorder checkout")


def import_cli():
    sys.path.insert(0, str(SRC.resolve()))
    import walkorder
    from walkorder import cli

    if Path(walkorder.__file__).resolve().parent != (SRC / "walkorder").resolve():
        sys.exit(f"error: imported walkorder from {walkorder.__file__}, not from {SRC}")
    return walkorder, cli


def prepare(workload: str, held_out: bool) -> tuple:
    """Write the inputs of every round of the pool; returns (workdir, rounds)."""
    workdir = WORKROOT / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rounds = {}
    for j in W.pool_indices(workload, held_out):
        rounds[j] = W.make_round(workload, j)
        W.write_round(rounds[j], workdir)
    return workdir, rounds


def setup_manifest(workdir: Path, rounds: dict) -> Path:
    """List every input measure and cone of the pool for setup_probe.py."""
    measures, cones = [], []
    for rnd in rounds.values():
        for q in rnd.queries:
            measures += [str(workdir / f) for f in q.inputs]
            spec = q.cone if q.cone in ("halfline", "orthant") else str(workdir / q.cone)
            if [spec, q.dim] not in cones:
                cones.append([spec, q.dim])
    manifest = workdir / "setup_manifest.json"
    manifest.write_text(json.dumps({"src": str(SRC.resolve()), "measures": measures,
                                    "cones": cones}), encoding="utf-8")
    return manifest


def probe_setup(manifest: Path, count: int) -> list:
    """(rescaled, wall) set-up times of ``count`` fresh interpreters."""
    times = []
    ref = reference_time()
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(manifest)],
                              capture_output=True, text=True, timeout=120, check=True)
        wall = float(proc.stdout.strip().splitlines()[-1])
        ref_after = reference_time()
        times.append((rescale(wall, ref, ref_after), wall))
        ref = ref_after
    return times


def load_goldens(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def stamps(walkorder) -> dict:
    return {"git_sha": _git_sha(), "python": sys.version.split()[0],
            "backend": walkorder.BACKEND, "nproc": len(os.sched_getaffinity(0))}


def _git_sha() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# -- the two kinds of run ---------------------------------------------------------------


class Checker:
    """Golden and certificate checks, kept outside every timed interval."""

    def __init__(self, workload: str, workdir: Path):
        self.goldens = load_goldens(workload)
        self.workdir = workdir
        self.cert_checked: set = set()
        self.problems: list = []

    def check(self, query, rc, err) -> bool:
        problem = err or check_against_golden(query, self.workdir, rc, self.goldens.get(query.qid))
        if problem is None and query.qid not in self.cert_checked:
            self.cert_checked.add(query.qid)
            problem = certs.check_query(query, self.workdir)
        if problem is not None:
            self.problems.append(f"{query.qid}: {problem}")
        return problem is None


def timed_loop(cli, rounds, order, seconds, checker, tracer=None):
    """Run whole passes over the rounds in ``order`` until ``seconds`` pass.

    Whole passes make every run do the same work and make per-pass counts
    exact.  Returns the number of passes and one (rescaled seconds, wall
    seconds, ok) sample per query.
    """
    samples = []
    passes = 0
    start = perf_counter()
    ref = reference_time()
    while passes == 0 or perf_counter() - start < seconds:
        for j in order:
            for query in rounds[j].queries:
                if perf_counter() - start >= seconds + GRACE_S:
                    return passes, samples
                dt, rc, err = run_query(cli, query, checker.workdir, tracer)
                ref_after = reference_time()
                samples.append((rescale(dt, ref, ref_after), dt, checker.check(query, rc, err)))
                ref = ref_after
        passes += 1
    return passes, samples


def latency_metrics(times, oks) -> dict:
    """queries_per_s, query_p50_s and query_tail_s of per-query times."""
    # a failed query counts as missing any latency limit
    lat = sorted(t if ok else max(t, QUERY_TIMEOUT_S) for t, ok in zip(times, oks))
    return {
        "queries_per_s": sum(oks) / sum(times),
        "query_p50_s": statistics.median(lat),
        "query_tail_s": lat[max(len(lat) - 11, 0)],  # ten samples lie beyond it
    }


def end_to_end_metrics(samples, setup_times) -> tuple:
    scaled, wall, oks = zip(*samples)
    metrics = latency_metrics(scaled, oks)
    metrics["setup_s"] = statistics.median(t for t, _ in setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(samples)
    extra = {"tail_percentile": 100 * (max(n - 11, 0) + 1) / n, "latency_samples": n,
             "wall": {**latency_metrics(wall, oks),
                      "setup_s": statistics.median(w for _, w in setup_times)}}
    return metrics, extra


def layer_metrics(totals: dict, passes: int, samples) -> dict:
    out = {}
    for layer, keys in LAYER_METRICS:
        t = totals.get(layer, {})
        for key in keys:
            if key == "edge_ratio":
                value = t.get("edges_kept", 0) / t["pairs_tested"] if t.get("pairs_tested") else 0.0
            elif key == "dominated_ratio":
                value = t.get("dominated", 0) / t["calls"] if t.get("calls") else 0.0
            else:
                value = t.get(key, 0) / passes
                if key != "self_s" and float(value).is_integer():
                    value = int(value)
            out[f"{layer}.{key}"] = value
    busy = sum(wall for _, wall, _ in samples)
    for module in MODULES:
        own = sum(t["self_s"] for name, t in totals.items() if name.split(".")[0] == module)
        out[f"share.{module}"] = 100 * own / busy
    out["trace.queries_per_s"] = sum(ok for _, _, ok in samples) / sum(t for t, _, _ in samples)
    return out


def run(args) -> int:
    require_source()
    workdir, rounds = prepare(args.workload, args.held_out)
    manifest = setup_manifest(workdir, rounds)
    # set-up probes run before and after the timed loop, so that their
    # median does not rest on one stretch of machine speed
    setup_times = [] if args.trace else probe_setup(manifest, SETUP_PROBES // 2 + 1)
    walkorder, cli = import_cli()
    order = W.round_order(args.workload, args.seed, args.held_out)
    checker = Checker(args.workload, workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "pool": "held-out" if args.held_out else "default", "trace": args.trace,
              **stamps(walkorder)}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            passes, samples = timed_loop(cli, rounds, order, args.seconds, checker, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(workdir / "spans.jsonl")
        totals = tracer.layer_totals()
        metrics = layer_metrics(totals, max(passes, 1), samples)
        for layer in REQUIRED_LAYERS[args.workload]:
            if not totals.get(layer, {}).get("calls"):
                checker.problems.append(f"layer {layer} recorded no call on {args.workload}")
    else:
        passes, samples = timed_loop(cli, rounds, order, args.seconds, checker)
        setup_times += probe_setup(manifest, SETUP_PROBES // 2)
        metrics, extra = end_to_end_metrics(samples, setup_times)
        record.update(extra)
    attempted = len(samples)
    failed = sum(1 for _, _, ok in samples if not ok)
    record.update(passes=passes, attempted=attempted, query_fail_ratio=failed / attempted,
                  problems=checker.problems[:20])
    units = dict(per_layer_names()) if args.trace else dict(END_TO_END)
    result = {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for problem in checker.problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


# -- golden outputs ------------------------------------------------------------------------


def record_goldens(names) -> int:
    require_source()
    _, cli = import_cli()
    signal.signal(signal.SIGALRM, _on_alarm)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in names:
        goldens = {}
        for held_out in (False, True):
            workdir, rounds = prepare(workload, held_out)
            for rnd in rounds.values():
                for query in rnd.queries:
                    dt, rc, err = run_query(cli, query, workdir, None)
                    problem = err or (None if rc in (0, 2) else f"exit code {rc}")
                    problem = problem or certs.check_query(query, workdir)
                    if problem:
                        sys.exit(f"error: {workload} {query.qid}: {problem}")
                    goldens[query.qid] = {"exit": rc, "sha256": output_digest(query, workdir)}
            print(f"{workload}: {len(goldens)} queries recorded", file=sys.stderr)
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


# -- every workload in one table ---------------------------------------------------------


def _child(workload: str, args, trace: int) -> tuple:
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.held_out:
        cmd.append("--held-out")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def report(args) -> int:
    require_source()
    for workload in W.WORKLOADS:
        rec, res = _child(workload, args, 0)
        trec, tres = _child(workload, args, 1)
        print(f"== {workload}  (seed {args.seed}, {rec['pool']} pool, {args.seconds} s, "
              f"git {rec['git_sha'][:12]}, python {rec['python']}, backend {rec['backend']}, "
              f"nproc {rec['nproc']})")
        print(f"   correct={res['correct'] and tres['correct']}  attempted={res['attempted']}  "
              f"failed={res['failed']}  passes={rec['passes']}")
        for name, m in res["metrics"].items():
            print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"   {'query_fail_ratio':<40} {rec['query_fail_ratio']:>14.6g} ratio")
        print("   unscaled wall time: " + ", ".join(f"{k} {v:.4g}" for k, v in rec["wall"].items()))
        print(f"   query_tail_s is the p{rec['tail_percentile']:.1f} of "
              f"{rec['latency_samples']} samples")
        base = res["metrics"]["queries_per_s"]["value"]
        traced = tres["metrics"]["trace.queries_per_s"]["value"]
        print(f"   tracing overhead: {100 * (base - traced) / base:.1f}% of queries_per_s "
              f"({base:.4g} untraced, {traced:.4g} traced)")
        print(f"   per layer, per pass over the pool ({trec['passes']} traced passes):")
        for name, m in tres["metrics"].items():
            print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}")
        for problem in rec["problems"] + trec["problems"]:
            print(f"   problem: {problem}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", dest="held_out",
                        help="use the held-out half of the round pool")
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and print every metric")
    parser.add_argument("--record-goldens", action="store_true", dest="record_goldens",
                        help="rewrite the golden outputs (of --workload, or of all)")
    args = parser.parse_args(argv)
    if args.record_goldens:
        return record_goldens([args.workload] if args.workload else W.WORKLOADS)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
