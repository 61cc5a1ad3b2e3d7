"""Disk-based k-clique listing — the general ordered-expansion join.

Generalizes :mod:`repro.subgraph.fourclique`: a nested triangle group
``<u, v, W>`` is a level-3 frontier (prefix ``(u, v)`` with extension set
``W``); each level joins every frontier entry against the adjacency of
its extension vertices, fetched through the buffer-managed page store —

    frontier(t+1) = { (prefix + (w,),  W_{>w} ∩ n_succ(w)) }

until level ``k``, where the extension sets' sizes sum to the clique
count.  Every adjacency fetch beyond the triangle stream is a *suffix*
page range (``pages_of_candidate``), and the LRU pool absorbs apex
reuse; both effects are measured in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import TriangulationError
from repro.exec.kernels import HashKernel
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.storage.buffer import BufferManager
from repro.storage.layout import GraphStore

__all__ = ["KCliqueResult", "k_cliques_disk"]


@dataclass
class KCliqueResult:
    """Outcome of the disk-based k-clique join."""

    k: int
    cliques: int
    cpu_ops: int
    pages_read: int
    buffer_hits: int
    elapsed: float
    listed: list[tuple[int, ...]] = field(default_factory=list)


def k_cliques_disk(
    store: GraphStore,
    triangle_groups: Iterable[tuple[int, int, list[int]]],
    k: int,
    *,
    buffer_pages: int = 8,
    cost: CostModel = DEFAULT_COST_MODEL,
    collect: bool = False,
) -> KCliqueResult:
    """List all k-cliques (``k >= 3``) by joining the triangle stream.

    ``k = 3`` simply re-counts the stream; larger *k* fetches one
    adjacency suffix per extension vertex per level through a
    *buffer_pages*-frame pool.
    """
    if k < 3:
        raise TriangulationError("the disk join starts from triangles (k >= 3)")
    buffer = BufferManager(max(1, buffer_pages), loader=store.decode_page)
    intersect = HashKernel().bind(store.num_vertices).intersect
    pages_read = 0
    cpu_ops = 0

    def succ_of(w: int) -> np.ndarray:
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

    # Merge chunked groups per (u, v) prefix (cf. fourclique.py).
    merged: dict[tuple[int, int], list[int]] = {}
    for u, v, ws in triangle_groups:
        if ws:
            merged.setdefault((int(u), int(v)), []).extend(int(w) for w in ws)

    cliques = 0
    listed: list[tuple[int, ...]] = []

    def expand(prefix: tuple[int, ...], extensions: np.ndarray, level: int) -> None:
        """*extensions* are the candidates for clique position *level*."""
        nonlocal cliques, cpu_ops
        if level == k:
            cliques += len(extensions)
            if collect:
                listed.extend(prefix + (int(x),) for x in extensions)
            return
        if len(extensions) < 2:
            return  # at least two more members are needed
        for index, w in enumerate(extensions[:-1]):
            w = int(w)
            later = extensions[index + 1:]
            narrowed, pair_ops = intersect(later, succ_of(w))
            cpu_ops += pair_ops
            if len(narrowed):
                expand(prefix + (w,), narrowed, level + 1)

    for (u, v), ws in merged.items():
        extensions = np.asarray(sorted(set(ws)), dtype=np.int64)
        expand((u, v), extensions, 3)

    elapsed = cost.read_io(pages_read) / cost.channels + cost.cpu(cpu_ops)
    return KCliqueResult(
        k=k,
        cliques=cliques,
        cpu_ops=cpu_ops,
        pages_read=pages_read,
        buffer_hits=buffer.hits,
        elapsed=elapsed,
        listed=listed,
    )
