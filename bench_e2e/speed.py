"""Machine-speed probe: timings reported at a fixed reference speed.

The benchmark runs on a few cores of a shared host, and the speed one
process gets there is not steady: it switches between states about 1.6x
apart every few seconds and drifts over minutes, for CPU time exactly as
for wall time.  A run's raw median then depends on how much of it fell in
slow phases, not on the program.

So the benchmark times a fixed pure-Python probe next to the work it
measures and divides each timing by the probe's slowdown against
:data:`PROBE_REFERENCE_S`: the metrics are milliseconds at the reference
speed.  Timed next to a solve, the probe's duration follows the solve's
through the speed phases to within about 5% (3-second windows), where the
raw solve time moves by about 18%.  The probe is the benchmark's own
code, the same on every commit it compares, and it runs with the garbage
collector off so that the program's heap does not reach into it.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

#: Probe duration that defines the reference speed (the probe takes about
#: this long in the fast phase of a 2-CPU x86-64 host on CPython 3.11).
PROBE_REFERENCE_S = 0.0025

#: Loop rounds of one probe.
PROBE_ROUNDS = 5000


def _probe_work() -> int:
    """Fixed interpreter work of the kinds the solvers do: big-int bit
    operations, dict and set updates, list sorts."""
    mask = (1 << 256) - 1
    bits = 0x9E3779B97F4A7C15
    acc = 0
    counts: Dict[int, int] = {}
    items: List[int] = []
    for i in range(PROBE_ROUNDS):
        bits = ((bits << 7) ^ (bits >> 3) ^ i) & mask
        acc += (bits & (bits >> 11)).bit_count()
        key = bits & 1023
        counts[key] = counts.get(key, 0) + 1
        items.append(bits & 0xFFFF)
        if len(items) == 64:
            items.sort()
            acc ^= items[32]
            items.clear()
    live = set(range(0, 600, 3))
    for _ in range(20):
        live = {(v * 5 + 1) % 600 for v in live} | {1, 2}
    return acc + len(counts) + len(live)


def probe() -> float:
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """The speed factor of work timed between two probes (1.0 at the
    reference speed, 2.0 at half of it)."""
    return (before + after) / (2.0 * PROBE_REFERENCE_S)
