"""Graph serialization: edge lists, adjacency lists, binary CSR.

The text formats are the usual whitespace-separated ``u v`` edge list
(SNAP-style, ``#`` comments) and the ``u: v1 v2 ...`` adjacency format;
both transparently support gzip compression when the path ends in
``.gz``.  The binary format is a little-endian CSR dump with a magic
header, suitable for fast reloads of large generated graphs.

Every reader fails on a malformed input with :class:`GraphFormatError`
(or the :class:`~repro.errors.GraphError` the graph builder raises),
never with a decoder's own exception or a silently different graph.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.errors import GraphError, GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

__all__ = [
    "read_adjacency",
    "read_binary",
    "read_edge_list",
    "write_adjacency",
    "write_binary",
    "write_edge_list",
]


def _open_text(path: Path, mode: str) -> IO[str]:
    """Open *path* as text, transparently gzipped for ``.gz`` suffixes."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


#: What reading a text input can raise besides the parsers' own errors:
#: a ``.gz`` that is not gzip or is cut short, bytes that are not UTF-8,
#: and (from the builder) a vertex id too large for an int64.
_UNREADABLE = (gzip.BadGzipFile, EOFError, zlib.error, UnicodeDecodeError,
               OverflowError)


@contextmanager
def _reading(path: Path) -> Iterator[IO[str]]:
    """Open *path* for parsing; decoder failures become GraphFormatError."""
    try:
        with _open_text(path, "r") as handle:
            yield handle
    except _UNREADABLE as exc:
        raise GraphFormatError(f"{path}: unreadable graph input: {exc}") from exc


_BINARY_MAGIC = b"OPTG"
_BINARY_VERSION = 1
_BINARY_HEADER = struct.Struct("<IQQ")


def write_edge_list(graph: Graph, path: str | Path, *, header: bool = True) -> None:
    """Write *graph* as a text edge list (one ``u v`` line per edge)."""
    path = Path(path)
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"# undirected simple graph: {graph.num_vertices} "
                         f"vertices, {graph.num_edges} edges\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_edge_list(path: str | Path, *, num_vertices: int | None = None) -> Graph:
    """Parse a text edge list into a :class:`Graph`.

    Lines starting with ``#`` or ``%`` are comments; blank lines are
    skipped; self loops are dropped (raw web-graph dumps contain them).
    """
    path = Path(path)
    builder = GraphBuilder(num_vertices)
    with _reading(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer vertex id") from exc
            builder.add_edge(u, v)
        return builder.build()


def write_adjacency(graph: Graph, path: str | Path) -> None:
    """Write *graph* in the adjacency format: ``u: v1 v2 ...`` per line."""
    path = Path(path)
    with _open_text(path, "w") as handle:
        handle.write(f"# adjacency: {graph.num_vertices} vertices\n")
        for u in range(graph.num_vertices):
            row = " ".join(str(int(v)) for v in graph.neighbors(u))
            handle.write(f"{u}: {row}\n")


def read_adjacency(path: str | Path) -> Graph:
    """Parse an adjacency-format file into a :class:`Graph`."""
    path = Path(path)
    builder = GraphBuilder()
    max_vertex = -1
    with _reading(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            head, _, rest = line.partition(":")
            if not _:
                raise GraphFormatError(f"{path}:{lineno}: missing ':' separator")
            try:
                u = int(head)
                neighbors = [int(token) for token in rest.split()]
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer id") from exc
            if u < 0 or min(neighbors, default=0) < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative vertex id")
            max_vertex = max(max_vertex, u, *neighbors)
            for v in neighbors:
                if u < v:  # the reverse direction appears on v's line
                    builder.add_edge(u, v)
        graph = builder.build()
        if graph.num_vertices < max_vertex + 1:
            # Preserve trailing isolated vertices.
            rebuilt = GraphBuilder(max_vertex + 1)
            rebuilt.add_edges(graph.edges())
            return rebuilt.build()
    return graph


def write_binary(graph: Graph, path: str | Path) -> None:
    """Write *graph* in the binary CSR format."""
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(_BINARY_HEADER.pack(_BINARY_VERSION, graph.num_vertices,
                                         len(graph.indices)))
        handle.write(graph.indptr.astype("<i8").tobytes())
        handle.write(graph.indices.astype("<i8").tobytes())


def read_binary(path: str | Path) -> Graph:
    """Load a graph written by :func:`write_binary`.

    The declared sizes are checked against the file size before anything
    is read, and the CSR goes through :class:`Graph`'s full validation.
    """
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(4)
        if magic != _BINARY_MAGIC:
            raise GraphFormatError(f"{path}: bad magic {magic!r}")
        header = handle.read(_BINARY_HEADER.size)
        if len(header) != _BINARY_HEADER.size:
            raise GraphFormatError(f"{path}: truncated header")
        version, num_vertices, num_entries = _BINARY_HEADER.unpack(header)
        if version != _BINARY_VERSION:
            raise GraphFormatError(f"{path}: unsupported version {version}")
        expected = 4 + _BINARY_HEADER.size + 8 * (num_vertices + 1 + num_entries)
        actual = os.fstat(handle.fileno()).st_size
        if actual != expected:
            raise GraphFormatError(
                f"{path}: header declares {num_vertices} vertices and "
                f"{num_entries} entries ({expected} bytes), file has {actual}"
            )
        data = np.frombuffer(handle.read(), dtype="<i8").astype(np.int64)
    try:
        return Graph(data[:num_vertices + 1], data[num_vertices + 1:])
    except GraphError as exc:
        raise GraphFormatError(f"{path}: invalid CSR: {exc}") from exc
