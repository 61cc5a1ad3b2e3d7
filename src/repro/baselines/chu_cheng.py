"""CC-Seq and CC-DS — the iterative partition methods of Chu & Cheng (KDD'11).

Per the paper's description (Sections 1 and 4): partition the graph so a
partition fits the memory buffer; for each partition, identify its
triangles, then *remove* the processed edges and *write the remaining
edges back to disk*; repeat until no edges remain.  The repeated
read-and-rewrite of the shrinking remainder is exactly why the paper's
Figure 5 places both variants in the buffer-sensitive "slow group".

Both variants do the same intersection work (their triangle listing is
exact); they differ in how partitions are formed:

* **CC-Seq** packs contiguous vertex ranges by data volume,
* **CC-DS** (the dominating-set variant) uses coarser partitions sized by
  edge budget, trading fewer rounds for more data per round — the paper
  measures the two within a few percent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.baselines.common import induced_pages, partition_ranges
from repro.exec.engine import run_range
from repro.exec.kernels import HashKernel
from repro.exec.sources import _GraphHandle
from repro.graph.graph import Graph
from repro.memory.base import TriangleSink, TriangulationResult
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = ["cc_ds", "cc_seq"]

#: CC identifies triangles inside the buffer without the one-direction
#: ordering constraint, driving each intersection from both endpoints.
_NO_ORDERING_CPU_FACTOR = 2.0


@dataclass
class _RoundCost:
    read_pages: int
    write_pages: int
    cpu_ops: int


def _run_partitioned(
    graph: Graph,
    buffer_pages: int,
    page_size: int,
    cost: CostModel,
    sink: TriangleSink | None,
    *,
    partition_budget_factor: float,
) -> TriangulationResult:
    if buffer_pages < 1:
        raise ConfigurationError("buffer must hold at least one page")
    budget = max(1, int(buffer_pages * partition_budget_factor))
    ranges = partition_ranges(graph, budget, page_size)
    handle = _GraphHandle(graph)
    binding = HashKernel().bind(graph.num_vertices)
    rounds: list[_RoundCost] = []
    triangles = 0
    for lo, hi in ranges:
        # Each round reads the current remainder (partition + streamed
        # rest), writes the surviving edges, and then performs the
        # *merging* pass the paper describes ("the remaining edges are
        # merged"): one more read + write of the shrunken remainder.
        remainder_pages = induced_pages(graph, lo, page_size)
        next_pages = induced_pages(graph, hi + 1, page_size)
        found, ops, groups = run_range(handle, binding, lo, hi + 1,
                                       collect=sink is not None)
        for u, v, ws in groups:
            sink.emit(u, v, list(ws))
        triangles += found
        rounds.append(
            _RoundCost(remainder_pages + next_pages, 2 * next_pages, ops)
        )

    read_pages = sum(r.read_pages for r in rounds)
    write_pages = sum(r.write_pages for r in rounds)
    cpu_ops = sum(r.cpu_ops for r in rounds)
    # Without the global ordering constraint the in-buffer identification
    # drives each intersection from both edge endpoints.
    effective_cpu = _NO_ORDERING_CPU_FACTOR * cost.cpu(cpu_ops)
    # Synchronous I/O: reads, writes and CPU serialize (no overlap).
    elapsed = (
        cost.read_io(read_pages) / cost.channels
        + write_pages * cost.page_write_time / cost.channels
        + effective_cpu
    )
    return TriangulationResult(
        triangles=triangles,
        cpu_ops=cpu_ops,
        pages_read=read_pages,
        pages_written=write_pages,
        elapsed=elapsed,
        iterations=len(rounds),
        extra={"rounds": len(rounds), "buffer_pages": buffer_pages},
    )


def cc_seq(
    graph: Graph,
    *,
    buffer_pages: int,
    page_size: int = DEFAULT_PAGE_SIZE,
    cost: CostModel = DEFAULT_COST_MODEL,
    sink: TriangleSink | None = None,
) -> TriangulationResult:
    """Run CC-Seq with a *buffer_pages*-page memory budget."""
    return _run_partitioned(
        graph, buffer_pages, page_size, cost, sink, partition_budget_factor=1.0
    )


def cc_ds(
    graph: Graph,
    *,
    buffer_pages: int,
    page_size: int = DEFAULT_PAGE_SIZE,
    cost: CostModel = DEFAULT_COST_MODEL,
    sink: TriangleSink | None = None,
) -> TriangulationResult:
    """Run CC-DS: coarser partitions, fewer but heavier rounds."""
    return _run_partitioned(
        graph, buffer_pages, page_size, cost, sink, partition_budget_factor=1.4
    )
