"""End-to-end benchmark: request to report, over four workloads.

Usage, from the repository root::

    python3 bench_e2e/run.py --workload standins-warm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Every
timing is divided by the machine's speed factor of the moment, measured by
a fixed probe timed around it (see ``speed.py``): the end-to-end times are
at the probe's reference speed, and the stamp keeps the raw median.
``batch-repeat``, whose work runs in pool workers no probe follows, reports
raw wall time.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics instead: self time per layer from spans recorded around
each layer's entry points (see ``spans.py``), work counters read from the
reports, and the tracing overhead.  Every answer is checked: status,
optimality, a balanced witness that is a biclique of the input, the side
size pinned in ``pins.json`` (or, for an unpinned seed, the side found by
the independent ``sets`` kernel), and the pass counters, which must
repeat exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the process exits
with 1 when any answer is wrong and with 2 when the sources are missing.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("standins-warm", "s3-planted", "dense-table4", "batch-repeat")

#: Percentiles the tail may fall back to when a run holds too few samples
#: for the workload's declared one (highest first).
TAIL_FALLBACKS = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

clock = time.perf_counter


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--family-seed",
        type=int,
        default=0,
        help="dense-table4 only: generator seed of the graph family "
        "(pinned for 0; other values are checked against the sets kernel)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    if pct >= 100.0 or len(values) == 1:
        return max(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[int(pct * 10) - 1]


def tail(values: List[float], declared: float) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)``: the declared percentile, or
    the highest fallback that keeps ten samples beyond it."""
    candidates = [declared] + [pct for pct in TAIL_FALLBACKS if pct < declared]
    for pct in candidates:
        value = percentile(values, pct)
        beyond = sum(1 for sample in values if sample > value)
        if pct >= 100.0 or beyond >= MIN_BEYOND_TAIL or pct == candidates[-1]:
            return pct, value, beyond
    raise AssertionError("unreachable: the last candidate always returns")


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident memory in MiB: this process, or its largest child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def set_up(args: argparse.Namespace):
    """Run the set-up :data:`SETUP_REPEATS` times; keep the last workload.

    Returns the workload and each set-up's duration at the reference speed.
    """
    from speed import probe, slowdown
    from suite import WORKLOADS

    durations = []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[args.workload](args.seed, family_seed=args.family_seed)
        before = probe()
        start = clock()
        workload.setup()
        duration = clock() - start
        durations.append(duration / slowdown(before, probe()))
    return workload, durations


@dataclass
class PassSummary:
    """What the run keeps of a pass once its reports are checked."""

    #: Client latencies at the reference speed.
    latencies: List[float]
    #: The speed factor each latency was divided by.
    slowdowns: List[float]
    requests: int
    traced: bool
    #: Per-layer values of a traced pass (empty for an untraced one).
    layers: Dict[str, float]

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def reference_sides(workload) -> Dict[int, int]:
    """Side sizes from the ``sets`` kernel: the oracle for unpinned inputs."""
    from dataclasses import replace

    from repro.api import MBBEngine
    from repro.api.engine import PreparedGraphCache

    sides = {}
    for index, request in enumerate(workload.requests):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        sides[index] = engine.solve(replace(request, kernel="sets")).side_size
    return sides


class Checker:
    """Checks every report of every pass and the pass counters."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.expected = workload.expected()
        if self.expected is not None:
            self.sides = {
                index: self.expected["sides"][workload.input_label(index)]
                for index in range(len(workload.requests))
            }
        else:
            self.sides = reference_sides(workload)
        self.failed = 0
        self.problems: List[str] = []
        self.counters: Optional[Dict[str, object]] = None
        self.passes = 0

    def check(self, result) -> None:
        from suite import check_report, pass_counters

        workload = self.workload
        where = f"pass {self.passes}"
        self.passes += 1
        for report, index in zip(result.reports, result.inputs, strict=True):
            problem = check_report(report, workload.graphs[index], self.sides[index])
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{where} {workload.input_label(index)}: {problem}")
        self.problems.extend(f"{where} {p}" for p in workload.check_pass(result))
        counters = pass_counters(result.reports)
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self.problems.append(f"{where} counters {counters} != first pass {self.counters}")
        if self.expected is not None and counters != self.expected["counters"]:
            self.problems.append(
                f"{where} counters {counters} != pinned {self.expected['counters']}"
            )


def layer_values(workload, result, tracer) -> Dict[str, float]:
    """Per-layer values of one traced pass: self ms per request, counters."""
    from spans import LAYERS, ROOT

    reports = result.reports
    n = len(reports)
    self_s = tracer.self_seconds(*result.span_range)

    def total(stat: str) -> int:
        return sum(int(report.stats.get(stat, 0)) for report in reports)

    values = {f"{layer}_ms": self_s.get(layer, 0.0) * 1000.0 / n for layer in LAYERS}
    values["other_ms"] = self_s.get(ROOT, 0.0) * 1000.0 / n
    hits, misses = total("prepared_cache_hits"), total("prepared_cache_misses")
    values["api.engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    wall = sum(result.latencies)
    busy = sum(report.elapsed_seconds for report in reports)
    values["api.engine.pool_busy_ratio"] = (
        busy / (workload.workers * wall) if workload.workers > 1 else 0.0
    )
    values["api.engine.retries"] = (
        total("worker_retries")
        + total("pool_rebuilds")
        + total("handoff_fallbacks")
        + result.handoff_degradations
    )
    values["graph.prepared.exports"] = result.observed.get("exports", 0.0)
    values["graph.prepared.export_bytes"] = result.observed.get("export_bytes", 0.0)
    values["mbb.heuristics.s1_exit_ratio"] = (
        sum(1 for report in reports if report.terminated_at == "S1") / n
    )
    generated = total("subgraphs_generated")
    values["mbb.bridge.subgraphs_generated"] = generated
    values["mbb.bridge.prune_ratio"] = (
        total("subgraphs_pruned") / generated if generated else 0.0
    )
    values["mbb.verify.subgraphs_searched"] = total("subgraphs_searched")
    with_s3 = tracer.requests_with("mbb.verify.s3", *result.span_range)
    values["mbb.verify.s3_request_share"] = len(with_s3) / len(result.latencies)
    nodes = total("nodes")
    dense_s = self_s.get("mbb.dense.search", 0.0)
    values["mbb.dense.nodes"] = nodes
    values["mbb.dense.nodes_per_s"] = nodes / dense_s if dense_s > 0 else 0.0
    values["mbb.dense.polynomial_cases"] = total("polynomial_cases")
    values["mbb.dense.bound_prunes"] = total("bound_prunes")
    return values


def measure(workload, seconds: float, traced: bool, checker: Checker):
    """Run whole passes until ``seconds`` of them are measured.

    With ``traced``, untraced and traced passes alternate.  Each pass is
    checked and summarised as soon as it ends, outside the measured time,
    and its reports are dropped.  Returns ``(summaries, tracer)``.
    """
    from spans import Tracer, install

    tracer = Tracer()
    summaries: List[PassSummary] = []
    measured = 0.0
    while True:
        trace_this = traced and len(summaries) % 2 == 1
        uninstall = install(tracer) if trace_this else None
        first = len(tracer.spans)
        observed = dict(tracer.observed)
        start = clock()
        try:
            result = workload.run_pass(tracer)
        finally:
            measured += clock() - start
            if uninstall is not None:
                uninstall()
        checker.check(result)
        # Each pass starts from a collected heap, so that garbage of the
        # last pass (a whole engine, on batch-repeat) does not stack onto
        # the next one's peak memory.
        gc.collect()
        layers: Dict[str, float] = {}
        if trace_this:
            result.span_range = (first, len(tracer.spans))
            result.observed = {
                key: value - observed.get(key, 0.0)
                for key, value in tracer.observed.items()
            }
            layers = layer_values(workload, result, tracer)
        latencies = [
            latency / factor
            for latency, factor in zip(result.latencies, result.slowdowns, strict=True)
        ]
        summaries.append(
            PassSummary(latencies, result.slowdowns, len(result.reports), trace_this, layers)
        )
        if measured >= seconds and (not traced or len(summaries) % 2 == 0):
            return summaries, tracer


def end_to_end_metrics(workload, summaries: List[PassSummary], setup_s: float):
    latencies = [sample for summary in summaries for sample in summary.latencies]
    requests = sum(summary.requests for summary in summaries)
    pct, tail_value, beyond = tail(latencies, workload.tail_percentile)
    metrics = {
        "solve_ms_p50": (statistics.median(latencies) * 1000.0, "ms"),
        "solve_ms_tail": (tail_value * 1000.0, "ms"),
        "solves_per_s": (requests / sum(summary.wall for summary in summaries), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = [
        sample * factor
        for summary in summaries
        for sample, factor in zip(summary.latencies, summary.slowdowns)
    ]
    sampling = {
        "raw_solve_ms_p50": statistics.median(raw) * 1000.0,
        "slowdown_p50": statistics.median(
            factor for summary in summaries for factor in summary.slowdowns
        ),
        "tail_percentile": pct,
        "latency_samples": len(latencies),
        "samples_beyond_tail": beyond,
        "latency_unit": "batch" if workload.name == "batch-repeat" else "request",
    }
    return metrics, sampling


#: Units of the per-layer metrics that are not milliseconds.
LAYER_UNITS = {
    "api.engine.cache_hit_ratio": "ratio",
    "api.engine.pool_busy_ratio": "ratio",
    "api.engine.retries": "count",
    "graph.prepared.exports": "count",
    "graph.prepared.export_bytes": "bytes",
    "mbb.heuristics.s1_exit_ratio": "ratio",
    "mbb.bridge.subgraphs_generated": "count",
    "mbb.bridge.prune_ratio": "ratio",
    "mbb.verify.subgraphs_searched": "count",
    "mbb.verify.s3_request_share": "ratio",
    "mbb.dense.nodes": "count",
    "mbb.dense.nodes_per_s": "1/s",
    "mbb.dense.polynomial_cases": "count",
    "mbb.dense.bound_prunes": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer_metrics(summaries: List[PassSummary]):
    """Median over traced passes of each layer value, plus the overhead."""
    traced = [summary for summary in summaries if summary.traced]
    untraced = [summary for summary in summaries if not summary.traced]
    metrics = {
        name: (
            statistics.median(summary.layers[name] for summary in traced),
            LAYER_UNITS.get(name, "ms"),
        )
        for name in traced[0].layers
    }
    untraced_wall = statistics.median(summary.wall for summary in untraced)
    traced_wall = statistics.median(summary.wall for summary in traced)
    metrics["trace.overhead_ratio"] = (
        (traced_wall - untraced_wall) / untraced_wall,
        "ratio",
    )
    metrics["api.engine.worker_peak_rss_mb"] = (
        peak_rss_mb(resource.RUSAGE_CHILDREN),
        "MB",
    )
    return metrics


def stamp(args, workload, summaries) -> Dict[str, object]:
    from repro.graph.buffers import available_backends, default_backend

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "buffer_backend": default_backend(),
        "numpy": "numpy" in available_backends(),
        "workers": workload.workers,
        "passes": len(summaries),
        "pin": workload.pin_key(),
    }


def stop_processes() -> None:
    """Stop and reap every process the run started, on every path out.

    Engines join their own worker pools; this releases any shared-memory
    segment still published, then stops multiprocessing's resource
    tracker, which the first segment starts and which would otherwise
    outlive the run (as an orphan, then a zombie nobody reaps).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.api import MBBEngine

    MBBEngine().shutdown()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.api  # noqa: F401  (counted in the import share of setup_s)

    from speed import probe, slowdown

    import_s = (clock() - _PROCESS_START) / slowdown(probe(), probe())
    try:
        return run(args, import_s)
    finally:
        stop_processes()


def run(args: argparse.Namespace, import_s: float) -> int:
    workload, setup_durations = set_up(args)
    setup_s = import_s + statistics.median(setup_durations)
    checker = Checker(workload)
    summaries, tracer = measure(workload, args.seconds, bool(args.trace), checker)
    problems = checker.problems
    attempted = sum(summary.requests for summary in summaries)

    info = stamp(args, workload, summaries)
    info["pinned"] = checker.expected is not None
    info["counters"] = checker.counters
    info["error_rate"] = f"{checker.failed}/{attempted}"
    if args.trace:
        metrics = per_layer_metrics(summaries)
        problems.extend(workload.check_layers(metrics))
        from suite import WORKDIR

        WORKDIR.mkdir(parents=True, exist_ok=True)
        span_path = WORKDIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write_jsonl(str(span_path))
        info["spans"] = len(tracer.spans)
        info["span_file"] = os.path.relpath(span_path, ROOT)
    else:
        metrics, sampling = end_to_end_metrics(workload, summaries, setup_s)
        info.update(sampling)
        info["import_s"] = import_s
        info["setup_runs_s"] = setup_durations

    print(json.dumps({"stamp": info}, sort_keys=True))
    for problem in problems:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failed = checker.failed
    correct = failed == 0 and not problems
    if problems and not failed:
        failed = 1  # a pass-level problem still fails the run
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
