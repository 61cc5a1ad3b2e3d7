"""GraphChi-Tri — the triangle counting application of GraphChi (OSDI'12).

Modeled from the paper's Section 4 description:

* vertices are divided into execution intervals, each with a shard;
* the triangle application alternates *odd* iterations (load the next
  pivot interval into an extra buffer, remove edges whose triangles were
  identified, rewrite the remainder) and *even* iterations (scan the whole
  remaining graph intersecting pivot adjacency lists against all lists) —
  so each pivot round reads the remainder twice and writes it once;
* incoming edges use synchronous I/O, and edges inside one execution
  interval are processed in enforced sequential order, which caps the
  parallel fraction — the reason its speed-up saturates below 2.5 in
  Figure 6.

The intersection work is executed for real (exact triangle counts); the
vertex-centric engine cannot exploit the one-direction ordering trick, so
its CPU cost is doubled relative to EdgeIterator≻ (every intersection is
driven from both edge endpoints).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import induced_pages, partition_ranges
from repro.errors import ConfigurationError
from repro.exec.engine import run_range
from repro.exec.kernels import HashKernel
from repro.exec.sources import _GraphHandle
from repro.graph.graph import Graph
from repro.graph.ordering import edge_charges
from repro.memory.base import TriangleSink, TriangulationResult
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = ["graphchi_tri"]

#: Vertex-centric engines drive each intersection from both endpoints.
_VERTEX_CENTRIC_CPU_FACTOR = 2.0

#: Fixed engine cost of one execution-interval pass (shard load, vertex
#: value management, scheduler bookkeeping).  Dominates on small graphs —
#: the reason the paper's GraphChi-Tri/OPT ratio peaks at 13.4x on LJ.
_INTERVAL_OVERHEAD_SECONDS = 0.3e-3

#: Per-vertex engine cost of one iteration (vertex record deserialization,
#: update-function dispatch, scheduler flags).  Processed in the enforced
#: sequential order, so it never parallelizes — on vertex-heavy graphs
#: like YAHOO (1.4 B vertices) this term dominates GraphChi's runtime and
#: caps its speed-up near 1, as the paper's Table 6 shows.
_VERTEX_UPDATE_SECONDS = 2e-6


def _op_split(graph: Graph, ranges: list[tuple[int, int]]) -> tuple[int, int]:
    """``(parallel_ops, sequential_ops)``: the Eq. 3 bill split by the
    sequential-order constraint — an edge whose upper endpoint's interval
    is its lower endpoint's round may not run in parallel."""
    edges = graph.edge_array()
    charges = edge_charges(edges[:, 0], edges[:, 1], graph.num_vertices)
    starts = np.array([lo for lo, _ in ranges], dtype=np.int64)
    bounds = np.array([hi for _, hi in ranges], dtype=np.int64)
    round_of = np.searchsorted(starts, edges[:, 0], side="right") - 1
    sequential = np.searchsorted(bounds, edges[:, 1], side="right") == round_of
    return int(charges[~sequential].sum()), int(charges[sequential].sum())


def graphchi_tri(
    graph: Graph,
    *,
    buffer_pages: int,
    page_size: int = DEFAULT_PAGE_SIZE,
    cost: CostModel = DEFAULT_COST_MODEL,
    cores: int = 1,
    sink: TriangleSink | None = None,
) -> TriangulationResult:
    """Run the GraphChi triangle-counting model.

    ``cores`` parallelizes only the cross-interval intersection work; the
    sequential-order constraint keeps same-interval work on one core.
    """
    if buffer_pages < 1:
        raise ConfigurationError("buffer must hold at least one page")
    if cores < 1:
        raise ConfigurationError("cores must be >= 1")
    ranges = partition_ranges(graph, max(1, buffer_pages), page_size)
    handle = _GraphHandle(graph)
    binding = HashKernel().bind(graph.num_vertices)

    scan_pages = 0
    write_pages = 0
    triangles = 0
    for lo, hi in ranges:
        scan_pages += 2 * induced_pages(graph, lo, page_size)  # odd + even sweeps
        write_pages += induced_pages(graph, hi + 1, page_size)
        found, _, groups = run_range(handle, binding, lo, hi + 1,
                                     collect=sink is not None)
        for u, v, ws in groups:
            sink.emit(u, v, list(ws))
        triangles += found

    parallel_ops, sequential_ops = _op_split(graph, ranges)
    cpu_parallel = cost.cpu(parallel_ops) * _VERTEX_CENTRIC_CPU_FACTOR
    cpu_sequential = cost.cpu(sequential_ops) * _VERTEX_CENTRIC_CPU_FACTOR
    io_time = (
        cost.read_io(scan_pages) + write_pages * cost.page_write_time
    ) / cost.channels
    # One pivot round per interval; every round executes all intervals
    # twice (odd + even iteration).
    engine_overhead = 2 * len(ranges) * len(ranges) * _INTERVAL_OVERHEAD_SECONDS
    engine_overhead += (
        2 * len(ranges) * graph.num_vertices * _VERTEX_UPDATE_SECONDS
    )
    elapsed = io_time + engine_overhead + cpu_sequential + cpu_parallel / cores
    total_cpu = cpu_sequential + cpu_parallel
    serial_elapsed = io_time + engine_overhead + total_cpu
    parallel_fraction = cpu_parallel / serial_elapsed if serial_elapsed else 0.0
    return TriangulationResult(
        triangles=triangles,
        cpu_ops=int(
            (parallel_ops + sequential_ops) * _VERTEX_CENTRIC_CPU_FACTOR
        ),
        pages_read=scan_pages,
        pages_written=write_pages,
        elapsed=elapsed,
        iterations=2 * len(ranges),
        extra={
            "parallel_fraction": parallel_fraction,
            "intervals": len(ranges),
            "serial_elapsed": serial_elapsed,
        },
    )
