"""Shared machinery for the disk-based baseline methods.

The "slow group" baselines (CC-Seq, CC-DS, GraphChi-Tri) share a
partition-shrink-rewrite structure: process a vertex range whose data fits
the memory buffer, list every triangle whose minimum vertex falls in the
range, then rewrite the *remaining* graph (vertices above the range) to
disk.  Their CPU work is the same intersection workload as EdgeIterator≻
— each round runs :func:`repro.exec.engine.run_range` over its vertex
range with the ``hash`` kernel, so their triangle output is exact; what
distinguishes them — and what the paper's Figure 5 shows — is the I/O
pattern of re-reading and re-writing the shrinking remainder every round.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = [
    "induced_pages",
    "partition_ranges",
    "RECORD_HEADER_BYTES",
    "NEIGHBOR_BYTES",
]

RECORD_HEADER_BYTES = 8
NEIGHBOR_BYTES = 4


def induced_pages(graph: Graph, lo: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Page count of the subgraph induced on vertices ``>= lo``.

    Uses the same record encoding as the slotted-page layout, so the
    baselines' rewrite volumes are directly comparable to OPT's page
    counts.
    """
    n = graph.num_vertices
    if lo >= n:
        return 0
    total_bytes = 0
    for v in range(lo, n):
        row = graph.neighbors(v)
        kept = len(row) - int(np.searchsorted(row, lo, side="left"))
        total_bytes += RECORD_HEADER_BYTES + NEIGHBOR_BYTES * kept
    return int(np.ceil(total_bytes / page_size)) if total_bytes else 0


def partition_ranges(
    graph: Graph,
    budget_pages: int,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> list[tuple[int, int]]:
    """Split vertices into contiguous ranges of ~*budget_pages* each.

    Greedy: extend the current range until its adjacency data exceeds the
    budget (every range keeps at least one vertex, mirroring the paper's
    requirement that a partition holds at least one adjacency list).
    """
    ranges: list[tuple[int, int]] = []
    budget_bytes = max(1, budget_pages) * page_size
    lo = 0
    current_bytes = 0
    for v in range(graph.num_vertices):
        record_bytes = RECORD_HEADER_BYTES + NEIGHBOR_BYTES * graph.degree(v)
        if current_bytes and current_bytes + record_bytes > budget_bytes:
            ranges.append((lo, v - 1))
            lo = v
            current_bytes = 0
        current_bytes += record_bytes
    if graph.num_vertices:
        ranges.append((lo, graph.num_vertices - 1))
    return ranges
