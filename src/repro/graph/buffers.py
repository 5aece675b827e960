"""Shared-memory segment helpers behind :meth:`PreparedGraph.to_shm`.

Every flat int array of the sparse pipeline — the CSR ``indptr``/
``indices`` arrays of :class:`~repro.graph.csr.CSRBipartite`, the
``N_{<=2}`` arrays of :func:`~repro.cores.two_hop.n_le2_flat`, the bucket
peel's working arrays, the rows of
:class:`~repro.graph.prepared.OrderView` — is a plain Python list, the
container pure-Python index loops run fastest on.  A published list is
immutable by convention (the same contract as the snapshots that own it,
checked by RPL005).

What is left here is the plumbing of the shared-memory transport:
:meth:`~repro.graph.prepared.PreparedGraph.to_shm` writes a bundle's
arrays into one segment as native int64 bytes, and
:meth:`~repro.graph.prepared.PreparedGraph.from_shm` copies them back out
into lists and closes its mapping.  No solve path uses the transport; it
stays only because the end-to-end benchmark's tracer wraps ``to_shm``,
and it goes when the benchmark drops that wrap.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple


def default_backend() -> str:
    """The flat-array storage in use: always ``"list"``.

    Kept only for the end-to-end benchmark's run stamp
    (``bench_e2e/run.py``); it goes when that stamp drops the field.
    """
    return "list"


def available_backends() -> Tuple[str, ...]:
    """Every flat-array storage there is: ``("list",)``.

    Kept, like :func:`default_backend`, only for the end-to-end
    benchmark's run stamp.
    """
    return ("list",)


def buffer_to_bytes(values: Sequence[int]) -> bytes:
    """``values`` as native-endian signed 64-bit raw bytes."""
    return array("q", values).tobytes()


def ints_from_buffer(raw: memoryview) -> List[int]:
    """Copy raw int64 bytes out of a segment into a list."""
    return raw.cast("q").tolist()


def create_shared_memory(size: int):
    """Create an anonymous-named shared-memory segment of ``size`` bytes."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(create=True, size=size)


def attach_shared_memory(name: str):
    """Attach to an existing segment by name, without adopting ownership.

    The attaching side must *not* register the segment with the
    ``multiprocessing`` resource tracker: the creator owns unlinking, and
    a tracker entry in a pool worker would tear the segment down when
    that worker exits (the well-known ``SharedMemory`` attach side
    effect, fixed upstream only in 3.13's ``track=False``).  The
    unregister is best-effort — on platforms without the tracker the
    attach alone is already correct.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    try:  # pragma: no cover - tracker internals differ per platform
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    return segment


def unlink_shared_memory(segment) -> None:
    """Unlink a segment this process created, balancing tracker accounting.

    ``SharedMemory.unlink`` sends the resource tracker an unregister for
    the name — but if this same process also *attached* to the segment
    (the handoff benchmark does; tests do), :func:`attach_shared_memory`
    already consumed the registration, and the tracker would log a
    ``KeyError`` at exit.  The tracker's cache is a set and its pipe is
    ordered, so re-registering immediately before the unlink is
    idempotent when accounting is balanced and heals it when it is not.
    An already-removed segment is not an error.
    """
    try:  # pragma: no cover - tracker internals differ per platform
        from multiprocessing import resource_tracker

        resource_tracker.register(segment._name, "shared_memory")
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
