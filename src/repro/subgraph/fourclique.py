"""Disk-based 4-clique listing on top of the OPT triangle stream.

The paper closes with: "we believe our overlapped and parallel
triangulation method provides ... a substantial framework for future
research such as the subgraph listing problem."  This module realizes the
first step of that program: listing 4-cliques out of core by *joining*
OPT's nested triangle output with the graph's adjacency lists.

The key observation mirrors OPT's own internal/external split.  A nested
group ``<u, v, W>`` already carries ``W = n_succ(u) ∩ n_succ(v)``; every
4-clique ``(u, v, w, x)`` with ``u < v < w < x`` is then a pair
``w < x`` from ``W`` with ``x ∈ n(w)`` — so completing the join needs
exactly one more adjacency list per triangle apex ``w``.  Those lists are
fetched through the same buffer-managed page store OPT uses, with the
LRU pool absorbing the heavy reuse of high-degree apexes (measured as
buffer hits, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.exec.kernels import HashKernel
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.storage.buffer import BufferManager
from repro.storage.layout import GraphStore

__all__ = ["FourCliqueResult", "four_cliques_disk"]


@dataclass
class FourCliqueResult:
    """Outcome of the disk-based 4-clique join."""

    cliques: int
    cpu_ops: int
    pages_read: int
    buffer_hits: int
    elapsed: float
    listed: list[tuple[int, int, int, int]] = field(default_factory=list)


def four_cliques_disk(
    store: GraphStore,
    triangle_groups: Iterable[tuple[int, int, list[int]]],
    *,
    buffer_pages: int = 8,
    cost: CostModel = DEFAULT_COST_MODEL,
    collect: bool = False,
) -> FourCliqueResult:
    """List all 4-cliques by joining *triangle_groups* against *store*.

    Parameters
    ----------
    store:
        The slotted-page store of the (degree-ordered) graph.
    triangle_groups:
        Nested ``(u, v, ws)`` groups — a live sink stream or
        :func:`repro.core.result_store.read_nested_groups` over an output
        file.
    buffer_pages:
        Frames of the adjacency-fetch buffer pool.
    collect:
        When true, materialize the cliques in ``result.listed``.

    The count is exact; ``elapsed`` follows the usual cost model with
    buffer hits free and misses charged a page read.
    """
    buffer = BufferManager(max(1, buffer_pages), loader=store.decode_page)
    intersect = HashKernel().bind(store.num_vertices).intersect
    pages_read = 0
    cpu_ops = 0
    cliques = 0
    listed: list[tuple[int, int, int, int]] = []

    def succ_of(w: int) -> np.ndarray:
        """Fetch n_succ(w) through the buffer pool, counting device reads."""
        nonlocal pages_read
        chunks = []
        for pid in store.pages_of_candidate(w):
            hit = pid in buffer
            frame = buffer.get(pid)
            if not hit:
                pages_read += 1
            for record in frame.records:
                if record.vertex == w:
                    part = record.neighbors
                    chunks.append(part[part > w])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    # Chunked external processing can emit several groups for one (u, v)
    # prefix; pairs spanning chunks would be lost, so merge first.  The
    # merged map is bounded by the triangle listing itself (the join's
    # input), not by the graph.
    merged: dict[tuple[int, int], list[int]] = {}
    for u, v, ws in triangle_groups:
        if ws:
            merged.setdefault((int(u), int(v)), []).extend(int(w) for w in ws)

    for (u, v), ws in merged.items():
        w_array = np.asarray(sorted(ws), dtype=np.int64)
        for index, w in enumerate(w_array[:-1]):
            w = int(w)
            # Candidates x: later members of W (already common neighbors
            # of u and v); the join condition is x ∈ n_succ(w).
            candidates = w_array[index + 1:]
            common, pair_ops = intersect(candidates, succ_of(w))
            cpu_ops += pair_ops
            if len(common):
                cliques += len(common)
                if collect:
                    for x in common:
                        listed.append((u, v, w, int(x)))
    elapsed = cost.read_io(pages_read) / cost.channels + cost.cpu(cpu_ops)
    return FourCliqueResult(
        cliques=cliques,
        cpu_ops=cpu_ops,
        pages_read=pages_read,
        buffer_hits=buffer.hits,
        elapsed=elapsed,
        listed=listed,
    )
