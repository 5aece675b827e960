"""Reading and writing bipartite graphs.

Two textual formats are supported:

* **Edge list** — one ``left right`` pair per line, whitespace separated.
  Lines starting with ``%`` or ``#`` are comments.  This is the format of
  the KONECT collection the paper evaluates on (its ``out.*`` files), so a
  user who does have the original datasets can load them directly.
* **Biadjacency matrix** — rows of ``0``/``1`` characters, one left vertex
  per row.  Convenient for the small, dense VLSI-style instances.

Both readers return plain :class:`~repro.graph.bipartite.BipartiteGraph`
objects with integer labels.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, TextIO, Union

from repro.exceptions import GraphFormatError
from repro.graph.bipartite import BipartiteGraph

PathLike = Union[str, Path]
_COMMENT_PREFIXES = ("%", "#")


def _open_lines(source: Union[PathLike, TextIO, Iterable[str]]) -> Iterable[str]:
    """Yield lines from a path, an open file object, or an iterable of strings.

    Bytes that are not UTF-8 raise :class:`GraphFormatError`, like any
    other malformed input; the ``try`` costs nothing per line.  A caller's
    file object stays open when a reader stops early: ``yield from`` would
    close it along with this generator.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as handle:
                yield from handle
        else:
            for line in source:
                yield line
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"input is not UTF-8 text: {exc}") from exc


def read_edge_list(source: Union[PathLike, TextIO, Iterable[str]]) -> BipartiteGraph:
    """Parse a KONECT-style edge list into a bipartite graph.

    Each non-comment line must start with two integer tokens, the left and
    right endpoint; any further tokens (weights, timestamps) are ignored,
    matching how the paper treats KONECT data as unweighted.
    """
    graph = BipartiteGraph()
    for line_number, raw_line in enumerate(_open_lines(source), start=1):
        line = raw_line.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise GraphFormatError(
                f"line {line_number}: expected at least two tokens, got {line!r}"
            )
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {line_number}: endpoints must be integers, got {line!r}"
            ) from exc
        graph.add_edge(u, v)
    return graph


def write_edge_list(graph: BipartiteGraph, path: PathLike) -> None:
    """Write ``graph`` as an edge list with a small header comment."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"% bipartite edge list |L|={graph.num_left} "
            f"|R|={graph.num_right} |E|={graph.num_edges}\n"
        )
        for u, v in graph.to_edge_list():
            handle.write(f"{u} {v}\n")


def read_biadjacency(source: Union[PathLike, TextIO, Iterable[str]]) -> BipartiteGraph:
    """Parse a 0/1 biadjacency matrix (one row of digits per line)."""
    rows = []
    width = None
    for line_number, raw_line in enumerate(_open_lines(source), start=1):
        line = raw_line.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        cells = line.replace(" ", "")
        if any(c not in "01" for c in cells):
            raise GraphFormatError(
                f"line {line_number}: biadjacency rows may only contain 0/1, got {line!r}"
            )
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise GraphFormatError(
                f"line {line_number}: ragged matrix (expected {width} columns, "
                f"got {len(cells)})"
            )
        rows.append([int(c) for c in cells])
    return BipartiteGraph.from_biadjacency(rows)


def write_biadjacency(graph: BipartiteGraph, path: PathLike) -> None:
    """Write ``graph`` as a 0/1 biadjacency matrix with vertex order comments."""
    matrix, left_order, right_order = graph.to_biadjacency()
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"% rows: {left_order}\n")
        handle.write(f"% cols: {right_order}\n")
        for row in matrix:
            handle.write("".join(str(cell) for cell in row) + "\n")


def from_networkx(nx_graph, left_nodes: Iterable) -> BipartiteGraph:
    """Convert a NetworkX bipartite graph into a :class:`BipartiteGraph`.

    ``left_nodes`` designates which NetworkX nodes form the left side;
    every edge must have exactly one endpoint in that set.  The import is
    optional — the library itself never depends on NetworkX — but the
    converter makes it easy to reuse existing loaders in examples/tests.
    """
    left_set = set(left_nodes)
    graph = BipartiteGraph(left=left_set)
    for node in nx_graph.nodes:
        if node not in left_set:
            graph.add_right_vertex(node, exist_ok=True)
    for a, b in nx_graph.edges:
        if a in left_set and b not in left_set:
            graph.add_edge(a, b)
        elif b in left_set and a not in left_set:
            graph.add_edge(b, a)
        else:
            raise GraphFormatError(
                f"edge ({a!r}, {b!r}) does not cross the given bipartition"
            )
    return graph
