"""In-memory span tracing around each layer's public entry points.

The traced run wraps the calls into each layer *at their call sites*: the
module attribute (or class attribute) the caller looks the function up
through is replaced by a thin wrapper that records a span, and restored
afterwards.  Nothing inside ``repro`` is edited, so the untraced runs
execute exactly the shipped code.

A span is ``(name, start, end, parent, request)``: the parent is the span
that was open when it started, and every span of one request shares the
request id of that request's root span.  Spans stay in memory and are
written out once, at the end of the run (:meth:`Tracer.write_jsonl`).

Pool workers forked while tracing is installed inherit the wrappers; the
tracer is pid-guarded, so workers run the original functions and record
nothing.  Worker-side work is read from the reports' stats instead.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of the per-request root; its self time is ``other_ms``.
ROOT = "request"

#: Layer span names, in pipeline order.  Each ``<name>_ms`` per-layer
#: metric is the summed self time of the spans carrying that name.
LAYERS = (
    "api.request.materialise",
    "graph.prepared.fingerprint",
    "graph.prepared.prepare",
    "graph.prepared.export",
    "cores.order",
    "mbb.heuristics.s1",
    "mbb.bridge.s2",
    "mbb.verify.s3",
    "mbb.dense.search",
    "api.request.encode",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int


class Tracer:
    """Collects spans for the process that created it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request = -1
        self.enabled = False
        #: Per-name scalar observations made inside a span (export bytes).
        self.observed: Dict[str, float] = defaultdict(float)

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        if not self.active():
            return function(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._request)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return function(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def request(self, function: Callable, *args, **kwargs):
        """Run one client request under a root span with a fresh id."""
        self._request += 1
        return self.call(ROOT, function, *args, **kwargs)

    def self_seconds(self, first: int, stop: int) -> Dict[str, float]:
        """Self time per span name over ``spans[first:stop]``.

        Self time is a span's duration minus the time its children cover.
        The slice must hold whole requests, so every parent lies inside it.
        """
        spans = self.spans[first:stop]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent - first] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for span, covered in zip(spans, child_time):
            totals[span.name] += (span.end - span.start) - covered
        return totals

    def requests_with(self, name: str, first: int, stop: int) -> set:
        """Ids of the requests in ``spans[first:stop]`` that ran ``name``."""
        return {
            span.request
            for span in self.spans[first:stop]
            if span.name == name and span.end > span.start
        }

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )


def _wrap_function(tracer: Tracer, name: str, function: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, function, *args, **kwargs)

    return traced


def _wrap_export(tracer: Tracer, function: Callable) -> Callable:
    def traced(self, *args, **kwargs):
        handle = tracer.call("graph.prepared.export", function, self, *args, **kwargs)
        if tracer.active():
            tracer.observed["export_bytes"] += handle.nbytes
            tracer.observed["exports"] += 1
        return handle

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point at its call site; return the undo."""
    from repro.api import backends, engine
    from repro.api.request import GraphSpec, SolveReport
    from repro.graph import prepared as prepared_module
    from repro.graph.prepared import PreparedGraph
    from repro.mbb import sparse, verify

    saved: List[Tuple[object, str, object]] = []

    def patch(owner: object, attribute: str, replacement: object) -> None:
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def function(owner: object, attribute: str, name: str) -> None:
        patch(owner, attribute, _wrap_function(tracer, name, getattr(owner, attribute)))

    function(GraphSpec, "materialise", "api.request.materialise")
    function(engine, "graph_fingerprint", "graph.prepared.fingerprint")
    function(prepared_module, "graph_fingerprint", "graph.prepared.fingerprint")
    patch(
        PreparedGraph,
        "prepare",
        classmethod(
            _wrap_function(
                tracer, "graph.prepared.prepare", PreparedGraph.prepare.__func__
            )
        ),
    )
    function(PreparedGraph, "for_subgraph", "graph.prepared.prepare")
    patch(PreparedGraph, "to_shm", _wrap_export(tracer, PreparedGraph.to_shm))
    function(PreparedGraph, "search_order", "cores.order")
    function(sparse, "h_mbb", "mbb.heuristics.s1")
    function(sparse, "bridge_mbb", "mbb.bridge.s2")
    function(sparse, "verify_mbb", "mbb.verify.s3")
    function(verify, "dense_mbb_on_bitgraph", "mbb.dense.search")
    function(backends, "dense_mbb", "mbb.dense.search")
    patch(
        SolveReport,
        "from_result",
        classmethod(
            _wrap_function(
                tracer, "api.request.encode", SolveReport.from_result.__func__
            )
        ),
    )
    tracer.enabled = True

    def uninstall() -> None:
        tracer.enabled = False
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall
