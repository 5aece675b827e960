"""The four workloads: inputs, set-up, one measured pass, answer checks.

Every workload is a closed loop with one client.  A *pass* sends each of
the workload's requests once, in a seeded order, and waits for each reply
before sending the next; the measured loop runs whole passes only, so
every run covers the same mix of inputs.

* ``standins-warm`` — ``engine.solve`` on the 30 KONECT stand-ins through
  the sparse backend, after a warm-up pass, with a private prepared-graph
  cache that holds all 30 graphs: the warm serving path.
* ``s3-planted`` — cold sparse solves of seeded power-law graphs with six
  planted near-bicliques, read from edge-list files; each one ends at S3.
* ``dense-table4`` — the dense backend on Table-4-style uniform graphs.
* ``batch-repeat`` — one ``solve_many`` (2 workers, default shared-memory
  handoff) per fresh engine over the 30 stand-ins, each twice.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import GraphSpec, MBBEngine, SolveReport, SolveRequest
from repro.api.engine import PreparedGraphCache
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_power_law_bipartite
from repro.graph.io import write_edge_list
from repro.mbb.result import Biclique
from repro.workloads.datasets import DATASETS

from spans import Tracer
from speed import probe, slowdown

PINS_PATH = Path(__file__).with_name("pins.json")
#: Generated inputs and span files; inside the checkout, ignored by git.
WORKDIR = Path(__file__).resolve().parent.parent / ".bench_work"

#: Counters summed over a pass; with the per-input side sizes they are
#: pinned exactly, because the solvers are deterministic.
PINNED_COUNTERS = (
    "nodes",
    "subgraphs_generated",
    "subgraphs_pruned",
    "subgraphs_searched",
)

BATCH_WORKERS = 2


@dataclass
class PassResult:
    """What one pass produced: reports in input order, client latencies."""

    reports: List[SolveReport]
    #: Seconds the client waited for each reply (one per request, or one
    #: per batch for ``batch-repeat``).
    latencies: List[float]
    #: Index of the input each report answers.
    inputs: List[int]
    #: Speed factor of each latency, from the probes around it (see
    #: ``speed.py``); the latency at the reference speed is the quotient.
    #: 1.0 where no probe can follow the work.
    slowdowns: List[float]
    #: Handoff degradations the parent counted outside the reports.
    handoff_degradations: int = 0
    #: Set by the measuring loop for a traced pass: which slice of the
    #: tracer's spans belongs to it, and the scalar observations the
    #: wrappers made during it.
    span_range: Tuple[int, int] = (0, 0)
    observed: Dict[str, float] = field(default_factory=dict)


def pass_counters(reports: List[SolveReport]) -> Dict[str, object]:
    """The deterministic work counters of a pass (pinned exactly)."""
    totals: Dict[str, object] = {
        name: sum(int(report.stats.get(name, 0)) for report in reports)
        for name in PINNED_COUNTERS
    }
    totals["terminated_at"] = dict(
        sorted(Counter(str(report.terminated_at) for report in reports).items())
    )
    return totals


def check_report(
    report: SolveReport, graph: BipartiteGraph, expected_side: Optional[int]
) -> Optional[str]:
    """Why ``report`` is not a correct answer for ``graph``, or ``None``."""
    if report.status != "ok":
        kind = report.error.kind if report.error is not None else "?"
        return f"status {report.status} ({kind})"
    if not report.optimal:
        return "not proven optimal"
    if len(report.left) != report.side_size or len(report.right) != report.side_size:
        return f"witness is not balanced at side {report.side_size}"
    if not Biclique.of(report.left, report.right).is_valid_in(graph):
        return "witness is not a biclique of the input"
    if expected_side is not None and report.side_size != expected_side:
        return f"side {report.side_size}, expected {expected_side}"
    return None


class Workload:
    """Base class: a named set of requests and the engine that serves them."""

    name = ""
    #: Tail percentile of the client latency; chosen so a run at the
    #: pinned commit has at least ten samples beyond it.
    tail_percentile = 90.0
    workers = 1

    def __init__(self, seed: int, *, family_seed: int = 0) -> None:
        self.seed = seed
        #: Generator seed of a fixed input family (``dense-table4`` only).
        self.family_seed = family_seed
        self.requests: List[SolveRequest] = []
        self.graphs: List[BipartiteGraph] = []
        #: Pass order: indices into ``requests``.
        self.order: List[int] = []

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        """Generate inputs, build the engine and warm up (repeatable)."""
        raise NotImplementedError

    # -- one pass --------------------------------------------------------
    def run_pass(self, tracer: Tracer) -> PassResult:
        raise NotImplementedError

    # -- answers ---------------------------------------------------------
    def pin_key(self) -> str:
        """Which pin table entry this run is checked against."""
        return str(self.seed)

    def expected(self) -> Optional[dict]:
        """The pinned sides and counters for this run, if any."""
        with open(PINS_PATH, encoding="utf-8") as handle:
            pins = json.load(handle)
        return pins.get(self.name, {}).get(self.pin_key())

    def input_label(self, index: int) -> str:
        return self.requests[index].tag or str(index)

    def check_pass(self, result: PassResult) -> List[str]:
        """Workload-specific problems with a whole pass (none by default)."""
        return []

    def check_layers(self, metrics: Dict[str, Tuple[float, str]]) -> List[str]:
        """Workload-specific problems with the traced layer split."""
        return []


class _SingleSolveWorkload(Workload):
    """Workloads that send one ``engine.solve`` request at a time."""

    def engine_for_request(self) -> MBBEngine:
        return self.engine

    def run_pass(self, tracer: Tracer) -> PassResult:
        reports: List[SolveReport] = []
        latencies: List[float] = []
        probes = [probe()]
        for index in self.order:
            engine = self.engine_for_request()
            request = self.requests[index]
            start = time.perf_counter()
            report = tracer.request(engine.solve, request)
            latencies.append(time.perf_counter() - start)
            probes.append(probe())
            reports.append(report)
        slowdowns = [slowdown(a, b) for a, b in zip(probes, probes[1:])]
        return PassResult(reports, latencies, list(self.order), slowdowns)


def _standin_inputs(workload: Workload) -> None:
    """The 30 stand-ins as sparse requests, materialised for the checks."""
    workload.requests = [
        SolveRequest(graph=GraphSpec.dataset(name), backend="sparse", tag=name)
        for name in sorted(DATASETS)
    ]
    workload.graphs = [request.graph.materialise() for request in workload.requests]


class StandinsWarm(_SingleSolveWorkload):
    name = "standins-warm"
    tail_percentile = 95.0

    def setup(self) -> None:
        _standin_inputs(self)
        self.order = list(range(len(self.requests)))
        random.Random(self.seed).shuffle(self.order)
        # Capacity above the 30 stand-ins, so after the warm-up pass every
        # request hits the prepared-graph cache.
        self.engine = MBBEngine(prepared_cache=PreparedGraphCache(capacity=32))
        for index in self.order:
            self.engine.solve(self.requests[index])

    def pin_key(self) -> str:
        return "all"  # the stand-ins do not depend on the seed


def planted_graph(
    seed: int,
    *,
    side: int = 1500,
    avg_degree: float = 3.0,
    blocks: int = 6,
    block_side: int = 24,
    block_density: float = 0.7,
) -> BipartiteGraph:
    """A power-law background with near-bicliques planted on random vertices.

    The overlapping dense blocks defeat S1's greedy heuristics and survive
    S2's pruning, so the solve has to prove its optimum in S3.
    """
    rng = random.Random(seed)
    graph = random_power_law_bipartite(side, side, avg_degree, seed=rng)
    for _ in range(blocks):
        left = rng.sample(range(side), block_side)
        right = rng.sample(range(side), block_side)
        for u in left:
            for v in right:
                if rng.random() < block_density:
                    graph.add_edge(u, v)
    return graph


class S3Planted(_SingleSolveWorkload):
    name = "s3-planted"
    tail_percentile = 90.0
    graphs_per_seed = 12

    def setup(self) -> None:
        directory = WORKDIR / f"{self.name}-{self.seed}"
        directory.mkdir(parents=True, exist_ok=True)
        self.requests = []
        self.graphs = []
        for index in range(self.graphs_per_seed):
            graph = planted_graph(self.seed * 1000 + index)
            path = directory / f"g{index:02d}.txt"
            write_edge_list(graph, path)
            self.graphs.append(graph)
            self.requests.append(
                SolveRequest(
                    graph=GraphSpec.from_path(str(path)),
                    backend="sparse",
                    tag=f"g{index:02d}",
                )
            )
        self.order = list(range(len(self.requests)))
        random.Random(self.seed).shuffle(self.order)
        # Warm the code paths once; every measured solve starts cold.
        self.engine_for_request().solve(self.requests[0])

    def engine_for_request(self) -> MBBEngine:
        # Cold: a fresh engine with an empty private cache per request.
        return MBBEngine(prepared_cache=PreparedGraphCache())

    def check_pass(self, result: PassResult) -> List[str]:
        return [
            f"{self.input_label(index)} ended at {report.terminated_at}, not S3"
            for report, index in zip(result.reports, result.inputs)
            if report.ok and report.terminated_at != "S3"
        ]

    def check_layers(self, metrics: Dict[str, Tuple[float, str]]) -> List[str]:
        share = metrics["mbb.verify.s3_request_share"][0]
        if share < 1.0:
            return [f"only {share:.0%} of the solves ran S3"]
        return []


#: Table 4 family: (side, density) per configuration.
DENSE_CONFIGS = tuple((side, density) for side in (32, 36) for density in (0.80, 0.85, 0.90))


class DenseTable4(_SingleSolveWorkload):
    name = "dense-table4"
    tail_percentile = 75.0
    replicas = 2

    def setup(self) -> None:
        self.requests = []
        for replica in range(self.replicas):
            for side, density in DENSE_CONFIGS:
                graph_seed = self.family_seed * 1000 + len(self.requests)
                self.requests.append(
                    SolveRequest(
                        graph=GraphSpec.random(side, side, density, seed=graph_seed),
                        backend="dense",
                        tag=f"{side}x{side}@{density:.2f}#{replica}",
                    )
                )
        self.graphs = [request.graph.materialise() for request in self.requests]
        self.order = list(range(len(self.requests)))
        random.Random(self.seed).shuffle(self.order)
        self.engine = MBBEngine()
        self.engine.solve(self.requests[0])

    def pin_key(self) -> str:
        # The graphs come from the family seed; ``--seed`` sets the order.
        return f"family-{self.family_seed}"


def repeat_order(first_copies: List[int], distance: int) -> List[int]:
    """Each input twice: its second copy follows ``distance`` first copies.

    With a fixed distance every seed has the same reuse pattern, so the
    engine's export registry and caches see the same hits whatever the
    shuffle; only which graph sits where changes.
    """
    order: List[int] = []
    for position, index in enumerate(first_copies):
        order.append(index)
        if position >= distance:
            order.append(first_copies[position - distance])
    order.extend(first_copies[len(first_copies) - distance :])
    return order


class BatchRepeat(Workload):
    name = "batch-repeat"
    #: A pass is one batch; a run holds too few batches for any
    #: percentile to have ten samples beyond it, so the tail is the max.
    tail_percentile = 100.0
    workers = BATCH_WORKERS
    reuse_distance = 3

    def setup(self) -> None:
        _standin_inputs(self)
        first_copies = list(range(len(self.requests)))
        random.Random(self.seed).shuffle(first_copies)
        self.order = repeat_order(first_copies, self.reuse_distance)
        self.batch = [self.requests[index] for index in self.order]

    def run_pass(self, tracer: Tracer) -> PassResult:
        engine = MBBEngine(
            max_workers=self.workers,
            prepared_cache=PreparedGraphCache(capacity=64),
        )
        try:
            start = time.perf_counter()
            reports = tracer.request(engine.solve_many, self.batch)
            wall = time.perf_counter() - start
        finally:
            engine.shutdown()
        # Raw wall time: the batch is three processes on the host's cores,
        # and neither probes around it nor a probe process beside it track
        # its speed (dividing by them widened the spread).
        return PassResult(
            reports,
            [wall],
            list(self.order),
            [1.0],
            engine.prepared_cache.handoff_degradations,
        )

    def pin_key(self) -> str:
        return "all"


WORKLOADS = {
    workload.name: workload
    for workload in (StandinsWarm, S3Planted, DenseTable4, BatchRepeat)
}
