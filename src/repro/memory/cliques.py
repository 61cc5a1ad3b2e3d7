"""k-clique listing — the paper's "subgraph listing" future-work direction.

The paper closes by positioning OPT as "a substantial framework for
future research such as the subgraph listing problem".  This module
provides the in-memory reference for the simplest such generalization:
listing all k-cliques (triangles are the ``k = 3`` case) with the
Chiba-Nishizeki-style ordered expansion — extend each (k-1)-clique by a
common successor of all its members, so every clique is emitted exactly
once in increasing-id order.

Under the degree ordering the successor lists are small, giving the
``O(alpha^{k-2} * |E|)`` behaviour of the classic algorithm.  Every
narrowing step is one ``hash`` kernel intersection, charged Eq. 3.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import TriangulationError
from repro.exec.kernels import HashKernel
from repro.graph.graph import Graph
from repro.memory.base import TriangulationResult

__all__ = ["count_cliques", "list_cliques"]


def list_cliques(graph: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every k-clique of *graph* as an increasing id tuple.

    ``k = 1`` yields vertices, ``k = 2`` edges, ``k = 3`` triangles...
    """
    if k < 1:
        raise TriangulationError("clique size must be at least 1")
    if k == 1:
        for v in range(graph.num_vertices):
            yield (v,)
        return
    intersect = HashKernel().bind(graph.num_vertices).intersect

    def expand(prefix: tuple[int, ...], common_succ: np.ndarray) -> Iterator[tuple[int, ...]]:
        if len(prefix) == k:
            yield prefix
            return
        for v in common_succ:
            v = int(v)
            narrowed, _ = intersect(common_succ, graph.n_succ(v))
            yield from expand(prefix + (v,), narrowed)

    for u in range(graph.num_vertices):
        yield from expand((u,), graph.n_succ(u))


def count_cliques(graph: Graph, k: int) -> TriangulationResult:
    """Count k-cliques, with the same probe cost accounting as the iterators.

    ``result.triangles`` carries the clique count (for ``k = 3`` it *is*
    the triangle count).
    """
    if k < 1:
        raise TriangulationError("clique size must be at least 1")
    if k == 1:
        return TriangulationResult(triangles=graph.num_vertices)
    intersect = HashKernel().bind(graph.num_vertices).intersect
    count = 0
    ops = 0

    def expand(depth: int, common_succ: np.ndarray) -> None:
        nonlocal count, ops
        if depth == k:
            count += len(common_succ)
            return
        for v in common_succ:
            v = int(v)
            narrowed, pair_ops = intersect(common_succ, graph.n_succ(v))
            ops += pair_ops
            if len(narrowed):
                expand(depth + 1, narrowed)

    for u in range(graph.num_vertices):
        expand(2, graph.n_succ(u))
    return TriangulationResult(triangles=count, cpu_ops=ops)
