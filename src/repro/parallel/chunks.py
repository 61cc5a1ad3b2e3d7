"""Degree-balanced vertex chunking for the process-parallel engine.

EdgeIterator≻ charges each vertex ``u`` one intersection per successor,
so successor-list mass — not vertex count — is the work proxy that keeps
chunks comparable on power-law graphs.  Chunks are deliberately finer
than the worker count (``default_chunk_count``): the work queue then
behaves like thread morphing, because a worker that drains its fair
share early keeps pulling chunks that "belonged" to a slower sibling.

Every triangle is listed at its minimum vertex, so contiguous vertex
chunks enumerate disjoint triangle sets and the merge step is a plain
concatenation — no cross-chunk deduplication is ever needed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.graph import Graph

__all__ = ["default_chunk_count", "plan_chunks"]

# Chunks per worker.  4x oversubscription is the classic work-stealing
# sweet spot: fine enough that a straggler chunk can't serialize the run,
# coarse enough that queue traffic stays negligible.
OVERSUBSCRIPTION = 4


def default_chunk_count(graph: Graph, workers: int) -> int:
    """Target chunk count for *workers*: oversubscribed, vertex-capped."""
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    return max(1, min(graph.num_vertices, workers * OVERSUBSCRIPTION))


def plan_chunks(graph: Graph, chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, num_vertices)`` into ≤ *chunks* half-open ranges of
    approximately equal successor mass.

    Pure planning (a cumsum + searchsorted split): the chunk list is
    computed once in the parent and pushed onto the work queue, so the
    split is identical for every worker count — the root of the
    engine's determinism guarantee.
    """
    if chunks < 1:
        raise ConfigurationError("chunks must be >= 1")
    num_vertices = graph.num_vertices
    succ_mass = np.array(
        [len(graph.n_succ(u)) for u in range(num_vertices)],
        dtype=np.float64,
    )
    total = succ_mass.sum()
    if total == 0 or chunks == 1:
        return [(0, num_vertices)]
    cumulative = np.cumsum(succ_mass)
    bounds = [0]
    for cut in range(1, chunks):
        target = total * cut / chunks
        bounds.append(int(np.searchsorted(cumulative, target)))
    bounds.append(num_vertices)
    return [
        (lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ] or [(0, num_vertices)]
