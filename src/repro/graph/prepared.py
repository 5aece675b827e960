"""The :class:`PreparedGraph` artifact: one CSR snapshot for a whole solve.

The sparse framework (``hbvMBB``) derives everything it needs — the
``N_{<=2}`` structure, the total search order, the vertex-centred
subgraphs — from one immutable input graph, yet each of those artifacts
historically re-indexed the label-keyed :class:`~repro.graph.bipartite.
BipartiteGraph` from scratch.  A :class:`PreparedGraph` is the bundle
that breaks the cycle: the graph is indexed **once** into a
:class:`~repro.graph.csr.CSRBipartite` snapshot, and every derived
artifact is computed lazily from the flat arrays and memoised on the
bundle:

* the flat ``N_{<=2}`` adjacency (:attr:`PreparedGraph.n_le2`) the
  bidegeneracy peel consumes;
* the three total search orders (:meth:`PreparedGraph.search_order`),
  memoised per order name so a repeated solve of the same graph never
  re-peels;
* the position-space adjacency views (:meth:`PreparedGraph.order_view`)
  the CSR centred-subgraph generator walks;
* the core number of every vertex (:meth:`PreparedGraph.core_numbers`),
  from one flat bucket peel: S1's degree and core seeds, its Lemma 5
  degeneracy exit and its Lemma 4 reductions all read this one list;
* the ``k``-core residual snapshots (:meth:`PreparedGraph.for_subgraph`),
  memoised by ``k``.  A residual's CSR is cut from the parent's arrays
  and it inherits the parent's core numbers, so a warm solve runs no
  peel and builds no graph in S1, and a cold one peels once.  A
  residual's label-keyed :attr:`PreparedGraph.graph` is built on its
  first read, which only the ``sets`` kernel and label-level callers
  make, so a bits solve builds no residual graph at all.

All flat arrays are plain Python lists.  :meth:`PreparedGraph.to_shm`
publishes the CSR arrays, the ``N_{<=2}`` arrays and a pickled copy of
the source graph into one :mod:`multiprocessing.shared_memory` segment,
and :meth:`PreparedGraph.from_shm` copies them back out in another
process and closes its mapping.  The fingerprint stored in the segment
is re-verified on attach, so a stale or mixed-up segment name can cost
an error, never a wrong answer.  No solve path uses this transport: it
stays only for the end-to-end benchmark's tracer, and goes when the
benchmark drops that wrap.

The bundle is immutable in the same by-convention sense as
:class:`CSRBipartite` and :class:`~repro.graph.bitset.IndexedBitGraph`:
it does not track later mutations of the source graph.  Memoisation only
ever *adds* derived data, so sharing one bundle across repeated solves
(what :class:`repro.api.engine.PreparedGraphCache` does) is safe.

Identity for caching purposes is the **content fingerprint**
(:func:`graph_fingerprint`): a digest over the ``repr``-sorted vertex
sets and edge list, so two graphs built in different insertion orders
hash equal exactly when they are equal.  Fingerprints are a cache *key*,
not a proof — the engine cache re-verifies equality on every fingerprint
hit, so a collision can cost a re-preparation but never leaks one graph's
arrays into another graph's solve.  (A repeated request whose spec the
engine has memoised finds its bundle through the exact spec key instead,
and computes no fingerprint at all.)

Layering note: this module lives in :mod:`repro.graph` because the
bundle *is* graph substrate (every layer above consumes it), but the
order computations it memoises live in :mod:`repro.cores`; those are
imported lazily inside the memoising methods to keep the package import
graph acyclic.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.buffers import (
    attach_shared_memory,
    buffer_to_bytes,
    create_shared_memory,
    ints_from_buffer,
    unlink_shared_memory,
)
from repro.graph.csr import CSRBipartite, sorted_vertex_keys

VertexKey = Tuple[str, Vertex]


def ensure_prepared_for(
    prepared: "PreparedGraph", graph: BipartiteGraph
) -> None:
    """Raise unless ``prepared`` was built from (an equal of) ``graph``.

    Every API that accepts a ``prepared=`` snapshot alongside a graph
    calls this first: shape alone is not enough — a same-shape snapshot
    of a different graph would silently have *its* edges decomposed or
    searched instead of the argument graph's.  The identity fast path
    makes the check free on the internal flows, which always pass the
    snapshot's own graph object.
    """
    if prepared.graph is not graph and prepared.graph != graph:
        raise InvalidParameterError(
            "prepared snapshot was built from a different graph than the "
            "one passed alongside it"
        )

#: How many ``k``-core residual snapshots one bundle memoises.  A
#: deterministic solve asks for the same one or two ``k`` every time (the
#: heuristic finds the same incumbent), so a handful of slots amortises
#: repeated solves without letting a caller grow the bundle without bound.
_MAX_CHILDREN = 4

#: Segment format tag; bump on any layout change so a stale attacher
#: fails loudly instead of misparsing.
_SHM_MAGIC = b"RPGB0001"
#: ``(num_left, num_vertices, len(indices), len(le2), len(graph_blob))``.
_SHM_COUNTS = struct.Struct("<5q")
_SHM_FINGERPRINT_LEN = 32
_SHM_HEADER_LEN = len(_SHM_MAGIC) + _SHM_FINGERPRINT_LEN + _SHM_COUNTS.size


def graph_fingerprint(graph: BipartiteGraph) -> str:
    """Content fingerprint of a graph: equal content, equal digest.

    The digest covers both sorted vertex label sets and the full
    adjacency, every entry by ``repr``, so insertion order does not
    matter: two graphs that compare equal under ``==`` fingerprint
    equal.  Distinct graphs can only collide through ``repr`` collisions
    between distinct labels (or a pathological ``repr`` containing the
    joiner characters) — acceptable for a cache key because the engine
    cache re-checks ``==`` on every fingerprint hit, so a collision costs
    a re-preparation, never a wrong answer.

    The whole payload is assembled as one string and hashed in a single
    ``blake2b`` update, so the cost is one ``repr`` per vertex plus
    C-level sorts, joins and hashing — cheap enough to run once per
    engine solve whose spec is not memoised.
    """
    right_repr = {v: repr(v) for v in graph.right_vertices()}
    parts: List[str] = [f"L{graph.num_left}"]
    parts.extend(sorted(map(repr, graph.left_vertices())))
    parts.append(f"R{graph.num_right}")
    parts.extend(sorted(right_repr.values()))
    parts.append(f"E{graph.num_edges}")
    rows = [
        "{}>{}".format(
            repr(u),
            ",".join(sorted(right_repr[v] for v in graph.neighbors_left(u))),
        )
        for u in graph.left_vertices()
    ]
    rows.sort()
    parts.extend(rows)
    payload = "\n".join(parts)
    return hashlib.blake2b(
        payload.encode("utf-8", "backslashreplace"), digest_size=16
    ).hexdigest()


class PreparedGraphShm:
    """Owner-side handle of one published :class:`PreparedGraph` segment.

    Returned by :meth:`PreparedGraph.to_shm`.  The creator of a segment
    owns its lifecycle: :meth:`destroy` (or ``close`` + ``unlink``) must
    run exactly once when the graph leaves service, ideally inside a
    ``finally`` block so a crashed consumer cannot leak the segment.  All
    teardown methods are idempotent.  Kept only for the end-to-end
    benchmark's tracer; it goes with ``to_shm`` (ROADMAP item 5).
    """

    __slots__ = ("_segment", "_closed", "_unlinked", "name", "fingerprint", "nbytes")

    def __init__(self, segment, fingerprint: str, nbytes: int) -> None:
        self._segment = segment
        self._closed = False
        self._unlinked = False
        #: The attach token workers receive instead of a pickled graph.
        self.name: str = segment.name
        self.fingerprint: str = fingerprint
        #: Logical payload size (header + arrays + graph blob); the OS
        #: may round the actual mapping up to a page multiple.
        self.nbytes: int = nbytes

    def close(self) -> None:
        """Unmap the owner's view of the segment (idempotent)."""
        if not self._closed:
            self._closed = True
            self._segment.close()

    def unlink(self) -> None:
        """Remove the segment name from the system (idempotent)."""
        if not self._unlinked:
            self._unlinked = True
            unlink_shared_memory(self._segment)

    def destroy(self) -> None:
        """Close and unlink in one idempotent call."""
        self.close()
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreparedGraphShm(name={self.name!r}, nbytes={self.nbytes})"


class PreparedGraph:
    """Immutable once-indexed bundle of a graph's flat solve artifacts."""

    __slots__ = (
        "_graph",
        "_lineage",
        "csr",
        "labels",
        "_fingerprint",
        "_le2",
        "_orders",
        "_views",
        "_bicore",
        "_cores",
        "_children",
    )

    def __init__(self, graph: Optional[BipartiteGraph], csr: CSRBipartite) -> None:
        self._graph = graph
        #: How a residual builds its label graph on first read (``None``
        #: once built, and for a bundle born with its graph).
        self._lineage: Optional[_Lineage] = None
        self.csr = csr
        #: Label of every dense id (the ``(side, label)`` key minus the
        #: side marker): the id→label boundary map of the CSR subgraph
        #: generator, precomputed so the hot loop never indexes tuples.
        self.labels: List[Vertex] = [key[1] for key in csr.keys]
        self._fingerprint: Optional[str] = None
        self._le2: Optional[Tuple[List[int], List[int]]] = None
        self._orders: Dict[str, List[VertexKey]] = {}
        self._views: Dict[str, "OrderView"] = {}
        self._bicore: Optional[
            Tuple[Dict[VertexKey, int], List[VertexKey]]
        ] = None
        self._cores: Optional[List[int]] = None
        self._children: Dict[int, "PreparedGraph"] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def prepare(cls, graph: BipartiteGraph) -> "PreparedGraph":
        """Index ``graph`` once and return the prepared bundle."""
        return cls(graph, CSRBipartite.from_bipartite(graph))

    @property
    def graph(self) -> BipartiteGraph:
        """The label-keyed graph (a residual builds it on first read)."""
        graph = self._graph
        if graph is None:
            graph = self._graph = self._lineage.build()
            self._lineage = None
        return graph

    # ------------------------------------------------------------------
    # memoised derived artifacts
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the source graph (lazy, cached)."""
        if self._fingerprint is None:
            self._fingerprint = graph_fingerprint(self.graph)
        return self._fingerprint

    @property
    def n_le2(self) -> Tuple[List[int], List[int]]:
        """The flat ``N_{<=2}`` adjacency ``(indptr, indices)`` (cached)."""
        if self._le2 is None:
            from repro.cores.two_hop import n_le2_flat

            self._le2 = n_le2_flat(self.csr)
        return self._le2

    def bicore_decomposition(
        self,
    ) -> Tuple[Dict[VertexKey, int], List[VertexKey]]:
        """Bucket-peel bicore numbers and peel order (cached).

        Runs the default flat engine of :mod:`repro.cores.bicore` on this
        bundle's CSR and ``N_{<=2}`` arrays — no re-indexing — and
        memoises the result, so every later consumer (the bidegeneracy
        order, repeated solves) gets it for free.  The returned
        containers are the memoised objects: treat them as immutable
        (the public :func:`repro.cores.bicore.bicore_decomposition`
        wrapper hands out copies).
        """
        if self._bicore is None:
            from repro.cores.bicore import flat_bicore_decomposition

            self._bicore = flat_bicore_decomposition(self)
        return self._bicore

    def core_numbers(self) -> List[int]:
        """Core number of every dense id (one flat bucket peel, cached).

        :func:`repro.cores.core.flat_core_numbers` over this bundle's CSR,
        run at most once per bundle; a :meth:`for_subgraph` residual is
        born with its list already set.  The returned list is the
        memoised object: treat it as immutable.
        """
        if self._cores is None:
            from repro.cores.core import flat_core_numbers

            self._cores = flat_core_numbers(self.csr)
        return self._cores

    def search_order(self, order: str) -> List[VertexKey]:
        """The requested total search order (memoised per order name).

        Accepts the same names as :func:`repro.cores.orders.search_order`
        and produces identical orders: the degree order falls out of the
        CSR id order directly (ids *are* the ``(side, repr(label))``
        tie-break), the degeneracy order is
        :func:`repro.cores.core.flat_degeneracy_order` on this bundle's
        CSR, and the bidegeneracy order reuses
        :meth:`bicore_decomposition`.

        The returned list is the memoised object — treat it as immutable
        (mutating it would corrupt every later solve of this graph); its
        identity is also what keys the :meth:`order_view` memoisation.
        The public :func:`repro.cores.orders.search_order` wrapper hands
        out copies instead.
        """
        cached = self._orders.get(order)
        if cached is None:
            cached = self._compute_order(order)
            self._orders[order] = cached
        return cached

    def _compute_order(self, order: str) -> List[VertexKey]:
        from repro.cores.orders import (
            ORDER_BIDEGENERACY,
            ORDER_DEGENERACY,
            ORDER_DEGREE,
            search_order,
        )

        if order == ORDER_DEGREE:
            # Dense ids are assigned left side first, ``repr``-sorted per
            # side, so sorting ids by ``(-degree, id)`` is exactly the
            # label-keyed ``(-degree, side, repr(label))`` key.
            csr = self.csr
            ids = sorted(range(csr.num_vertices), key=lambda i: (-csr.degree(i), i))
            keys = csr.keys
            return [keys[i] for i in ids]
        if order == ORDER_BIDEGENERACY:
            return list(self.bicore_decomposition()[1])
        if order == ORDER_DEGENERACY:
            from repro.cores.core import flat_degeneracy_order

            return flat_degeneracy_order(self.csr)
        # Unknown names fall through to the canonical validator so the
        # error message stays in one place.
        return search_order(self.graph, order)

    def order_view(self, order: List[VertexKey]) -> "OrderView":
        """The position-space adjacency view for a total order.

        When ``order`` is (the exact list object of) one of this bundle's
        memoised :meth:`search_order` results, the view is memoised too —
        which is how a repeated solve of one graph generates its centred
        subgraphs without rebuilding anything.  Arbitrary order lists get
        a fresh view.
        """
        for name, cached in self._orders.items():
            if cached is order:
                view = self._views.get(name)
                if view is None:
                    view = OrderView(self, order)
                    self._views[name] = view
                return view
        return OrderView(self, order)

    # ------------------------------------------------------------------
    # residual snapshots
    # ------------------------------------------------------------------
    def for_subgraph(self, k: int) -> "PreparedGraph":
        """The prepared snapshot of this graph's ``k``-core (a Lemma 4 residual).

        Returns ``self`` when every vertex has core number at least ``k``
        (the reduction removes nothing).  Otherwise the residual is built
        once and memoised by ``k``; a ``k``-core of one graph is unique, so
        the key alone identifies it.

        * Its CSR is :meth:`CSRBipartite.induced` on the vertices with
          core number ``>= k``: the child's ids are this bundle's
          surviving ids in the same order.
        * It inherits ``[c for c in cores if c >= k]`` as its core
          numbers: a vertex of the ``k``-core has the same core number
          there as in the whole graph, so it never needs a peel.
        * Its label-keyed graph is built only when :attr:`graph` is first
          read, which the bits pipeline never does.  It is then built
          exactly like :func:`repro.cores.core.k_core` builds it from this
          bundle's graph (a set comprehension over the vertices in
          insertion order, then ``induced_subgraph``).  The ``sets``
          kernel iterates that graph in insertion order, so a chain of
          reductions is built from the previous residual's graph, never
          from the root's.  The child keeps a :class:`_Lineage` of
          graphs, not this bundle: this bundle's ``_children`` memo
          already holds the child, and a back-reference would make every
          cold bundle cyclic garbage.
        """
        cores = self.core_numbers()
        if k <= min(cores, default=k):
            return self
        child = self._children.get(k)
        if child is None:
            child = PreparedGraph(None, self.csr.induced([core >= k for core in cores]))
            parent = self._graph if self._graph is not None else self._lineage
            child._lineage = _Lineage(parent, child.labels, child.csr.num_left)
            child._cores = [core for core in cores if core >= k]
            if len(self._children) >= _MAX_CHILDREN:
                self._children.pop(next(iter(self._children)))
            self._children[k] = child
        return child

    # ------------------------------------------------------------------
    # shared-memory handoff
    # ------------------------------------------------------------------
    def to_shm(self) -> PreparedGraphShm:
        """Publish this bundle into one shared-memory segment.

        Segment layout: magic, the content fingerprint, the five counts,
        then the raw int64 bytes of ``csr.indptr``, ``csr.indices``,
        ``n_le2`` pointer and index arrays (forced now — materialising
        them once on the owner is the point of sharing), and finally a
        pickle of the label-keyed source graph.  The graph blob rides
        along because workers need the label-keyed form for the solvers;
        it is unpickled **once per attach**, not once per request, which
        is the pickling the handoff eliminates.

        The caller owns the returned handle's lifecycle (see
        :class:`PreparedGraphShm`); on a partially written segment the
        segment is destroyed before the error propagates.  No solve path
        exports: the method stays only because the end-to-end
        benchmark's tracer wraps it, and goes in the benchmark change of
        ROADMAP item 5.
        """
        csr = self.csr
        le2_ptr, le2 = self.n_le2
        blob = pickle.dumps(self.graph, protocol=pickle.HIGHEST_PROTOCOL)
        fingerprint = self.fingerprint.encode("ascii")
        if len(fingerprint) != _SHM_FINGERPRINT_LEN:  # pragma: no cover
            raise InvalidParameterError(
                "unexpected fingerprint width; segment format needs updating"
            )
        chunks = [
            _SHM_MAGIC,
            fingerprint,
            _SHM_COUNTS.pack(
                csr.num_left,
                csr.num_vertices,
                len(csr.indices),
                len(le2),
                len(blob),
            ),
            buffer_to_bytes(csr.indptr),
            buffer_to_bytes(csr.indices),
            buffer_to_bytes(le2_ptr),
            buffer_to_bytes(le2),
            blob,
        ]
        nbytes = sum(len(chunk) for chunk in chunks)
        segment = create_shared_memory(nbytes)
        try:
            buf = segment.buf
            offset = 0
            for chunk in chunks:
                buf[offset : offset + len(chunk)] = chunk
                offset += len(chunk)
        except BaseException:
            segment.close()
            segment.unlink()
            raise
        return PreparedGraphShm(segment, self.fingerprint, nbytes)

    @classmethod
    def from_shm(
        cls,
        name: str,
        expected_fingerprint: Optional[str] = None,
        *,
        verify_content: bool = False,
    ) -> "PreparedGraph":
        """Attach to a published segment and rebuild the bundle.

        The CSR and ``N_{<=2}`` arrays are copied out of the segment into
        lists and the mapping is closed before this returns, so the
        bundle owns its data and outlives the segment.

        ``expected_fingerprint`` (the handle's
        :attr:`PreparedGraphShm.fingerprint`) must match the fingerprint
        stored in the header, so attaching a stale, recycled or mixed-up
        segment raises instead of silently solving the wrong graph.
        Passing ``verify_content=True`` additionally recomputes the
        fingerprint from the attached graph itself — a full content
        re-hash that costs as much as preparing the order arrays, so it
        is opt-in (tests use it; the timed handoff rows do not).  Dense ids
        are rebuilt with the same canonical key sort the owner used, so
        both sides agree on every id.
        """
        segment = attach_shared_memory(name)
        try:
            buf = segment.buf
            offset = len(_SHM_MAGIC)
            if bytes(buf[:offset]) != _SHM_MAGIC:
                raise InvalidParameterError(
                    f"shared-memory segment {name!r} is not a PreparedGraph "
                    "segment (bad magic)"
                )
            try:
                fingerprint = bytes(
                    buf[offset : offset + _SHM_FINGERPRINT_LEN]
                ).decode("ascii")
            except UnicodeDecodeError as exc:
                raise InvalidParameterError(
                    f"shared-memory segment {name!r} header is garbled "
                    "(undecodable fingerprint)"
                ) from exc
            offset += _SHM_FINGERPRINT_LEN
            if (
                expected_fingerprint is not None
                and fingerprint != expected_fingerprint
            ):
                raise InvalidParameterError(
                    f"shared-memory segment {name!r} holds fingerprint "
                    f"{fingerprint}, expected {expected_fingerprint}"
                )
            # A truncated or corrupted body must surface as the canonical
            # validation error — the attach-side degradation path keys on
            # it — never as a raw struct/pickle/buffer failure.
            try:
                num_left, n, len_indices, len_le2, blob_len = _SHM_COUNTS.unpack_from(
                    buf, offset
                )
                offset = _SHM_HEADER_LEN

                def int_region(count: int) -> List[int]:
                    nonlocal offset
                    region = buf[offset : offset + count * 8]
                    offset += count * 8
                    return ints_from_buffer(region)

                indptr = int_region(n + 1)
                indices = int_region(len_indices)
                le2_ptr = int_region(n + 1)
                le2 = int_region(len_le2)
                graph = pickle.loads(bytes(buf[offset : offset + blob_len]))
            except InvalidParameterError:
                raise
            except (
                struct.error,
                pickle.UnpicklingError,
                ValueError,
                TypeError,
                EOFError,
                IndexError,
                KeyError,
                AttributeError,
                MemoryError,
            ) as exc:
                raise InvalidParameterError(
                    f"shared-memory segment {name!r} body is corrupted or "
                    f"truncated: {type(exc).__name__}: {exc}"
                ) from exc
            if verify_content and graph_fingerprint(graph) != fingerprint:
                raise InvalidParameterError(
                    f"shared-memory segment {name!r} content does not match "
                    "its stored fingerprint"
                )
            keys, keys_num_left = sorted_vertex_keys(
                graph.left_vertices(), graph.right_vertices()
            )
            if keys_num_left != num_left or len(keys) != n:
                raise InvalidParameterError(
                    f"shared-memory segment {name!r} shape disagrees with "
                    "its graph payload"
                )
            prepared = cls(graph, CSRBipartite(keys, indptr, indices, num_left))
            prepared._le2 = (le2_ptr, le2)
            prepared._fingerprint = fingerprint
            segment.close()
            return prepared
        except BaseException:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views still exported
                pass
            raise

    # ------------------------------------------------------------------
    # pickling — the handoff *baseline*.  Ships the graph plus the CSR
    # and N_<=2 arrays; memoised orders/views/residuals are derived data
    # and rebuild lazily.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.graph, self.csr, self._fingerprint, self._le2)

    def __setstate__(self, state) -> None:
        graph, csr, fingerprint, le2 = state
        self.__init__(graph, csr)
        self._fingerprint = fingerprint
        if le2 is not None:
            self._le2 = le2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreparedGraph({self.csr!r})"


class _Lineage:
    """How a residual's label graph is induced from its parent's.

    ``parent`` is the parent bundle's graph, or the parent's own lineage
    while that graph is unbuilt, so building a residual of a residual
    builds (and memoises) the intermediate graph once, for both bundles.
    """

    __slots__ = ("parent", "labels", "num_left", "graph")

    def __init__(
        self,
        parent: Union[BipartiteGraph, "_Lineage"],
        labels: List[Vertex],
        num_left: int,
    ) -> None:
        self.parent = parent
        self.labels = labels
        self.num_left = num_left
        self.graph: Optional[BipartiteGraph] = None

    def build(self) -> BipartiteGraph:
        """The residual's graph, induced once from the parent's."""
        if self.graph is None:
            parent = self.parent
            if isinstance(parent, _Lineage):
                parent = parent.build()
            left = set(self.labels[: self.num_left])
            right = set(self.labels[self.num_left :])
            self.graph = parent.induced_subgraph(
                {u for u in parent.left_vertices() if u in left},
                {v for v in parent.right_vertices() if v in right},
            )
            self.parent = None
        return self.graph


class OrderView:
    """A prepared snapshot re-indexed along one total search order.

    Everything is in *position space*: vertex ``p`` is the order's
    ``p``-th vertex, and row ``p`` of the flat adjacency holds the
    positions of its neighbours **sorted ascending**.  That sort is the
    whole trick: the neighbours appearing *after* position ``p`` — the
    only ones vertex-centred subgraph generation ever looks at — are a
    contiguous tail located by one binary search, so the generator
    touches later vertices only instead of filtering every neighbour
    with a comparison (on average half the neighbourhood volume, with no
    per-element test).

    The rows are packed CSR-style into one flat positions list
    (:attr:`flat_positions`, row ``p`` at
    ``row_ptr[p]:row_ptr[p + 1]``).  Centred subgraphs stay in this
    position space; :attr:`labels` is the one position→label map they
    read when a consumer asks for labels.

    Building a view costs one pass over the adjacency plus per-row sorts
    (``O(|E| log dmax)``); :meth:`PreparedGraph.order_view` memoises it
    per order name, so one build serves every solve of the graph.
    """

    __slots__ = (
        "order_ids",
        "positions",
        "row_ptr",
        "flat_positions",
        "labels",
    )

    def __init__(self, prepared: "PreparedGraph", order: List[VertexKey]) -> None:
        csr = prepared.csr
        indptr = csr.indptr
        indices = csr.indices
        order_ids, positions = positions_of(csr, order)
        self.order_ids: List[int] = order_ids
        self.positions: List[int] = positions
        row_ptr = [0] * (len(order_ids) + 1)
        flat_positions: List[int] = []
        for p, vertex in enumerate(order_ids):
            flat_positions.extend(
                sorted(
                    positions[neighbour]
                    for neighbour in indices[indptr[vertex] : indptr[vertex + 1]]
                )
            )
            row_ptr[p + 1] = len(flat_positions)
        self.row_ptr: List[int] = row_ptr
        self.flat_positions: List[int] = flat_positions
        #: Label of the vertex at each position — the position→label map
        #: of lazy member sets and survivor bitgraphs.
        self.labels: List[Vertex] = [
            prepared.labels[vertex] for vertex in self.order_ids
        ]

    def __len__(self) -> int:
        return len(self.order_ids)


def positions_of(
    csr: CSRBipartite, order: Sequence[VertexKey]
) -> Tuple[List[int], List[int]]:
    """Map a key-space total order onto ``(order_ids, positions)`` arrays.

    ``order`` must be a permutation of the snapshot's vertex keys (the
    bridging stage validates this before generating subgraphs); a foreign
    key raises ``KeyError`` exactly like the label-keyed position maps.
    """
    index = csr.index_of
    order_ids = [index(key) for key in order]
    positions = [0] * len(order_ids)
    for position, vertex in enumerate(order_ids):
        positions[vertex] = position
    return order_ids, positions
