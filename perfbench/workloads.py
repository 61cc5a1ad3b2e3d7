"""The benchmark's workloads: input shape, set-up and the timed call.

Each workload generates its graph from the seed with
``repro.graph.generators`` (the dataset stand-ins' shapes, whose own seeds
are the defaults), writes it once as an edge list, and hands the program
only that file.  Set-up is "edge list to ready input"; the timed call is
one public triangulation entry point, run in a closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import make_store, replay, triangulate_disk
from repro.core.engine import ideal_elapsed
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.graph.ordering import apply_ordering, ordering_op_cost
from repro.memory.base import CollectSink, TriangulationResult
from repro.memory.edge_iterator import edge_iterator
from repro.parallel.engine import triangulate_parallel
from repro.sim import DEFAULT_COST_MODEL, RunTrace
from repro.storage.layout import GraphStore

#: Page size of the disk path: small pages so a ~113k-edge graph spans
#: about a thousand pages, several times the 15% buffer.
PAGE_SIZE = 1024
BUFFER_RATIO = 0.15
#: Process count of the parallel workload: the sandbox's core count.
WORKERS = 2


@dataclass
class Input:
    """A ready input: the ordered graph, its relabeling, its page store."""

    graph: Graph
    #: ``mapping[old_id] == new_id``; listings come back in new ids.
    mapping: np.ndarray
    store: GraphStore | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: The matching dataset stand-in's generator seed.
    default_seed: int
    generate: Callable[[int], Graph]
    ordering: str
    #: The disk workload also packs pages during set-up.
    disk: bool
    #: One timed call: ``(result, listing sink or None)``.
    call: Callable[[Input], tuple[TriangulationResult, CollectSink | None]]


def _list_in_memory(inp: Input) -> tuple[TriangulationResult, CollectSink]:
    sink = CollectSink()
    return edge_iterator(inp.graph, sink), sink


def _count_parallel(inp: Input) -> tuple[TriangulationResult, None]:
    return triangulate_parallel(inp.graph, workers=WORKERS), None


def _list_on_disk(inp: Input) -> tuple[TriangulationResult, CollectSink]:
    sink = CollectSink()
    return triangulate_disk(inp.store, buffer_ratio=BUFFER_RATIO, sink=sink), sink


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("lj-list", 41,
                 lambda seed: generators.holme_kim(2400, 14, 0.9, seed=seed),
                 "auto", False, _list_in_memory),
        Workload("twitter-count-2w", 43,
                 lambda seed: generators.rmat(3200, 76800, seed=seed),
                 "degree", False, _count_parallel),
        Workload("yahoo-disk", 45,
                 lambda seed: generators.rmat(
                     12000, 108000, probabilities=(0.52, 0.14, 0.14, 0.20),
                     seed=seed),
                 "degree", True, _list_on_disk),
    )
}


def setup(workload: Workload, path: str) -> Input:
    """Edge-list file to ready input, exactly as a user of the program would."""
    graph, mapping = apply_ordering(read_edge_list(path), workload.ordering)
    store = make_store(graph, PAGE_SIZE) if workload.disk else None
    return Input(graph, mapping, store)


def fidelity(graph: Graph, trace: RunTrace, store: GraphStore,
             elapsed: float) -> dict[str, float]:
    """The paper's deterministic figures of one simulated OPT_serial run.

    Simulated elapsed time; its ratio to the ideal cost (Eq. 6: read the
    graph once plus the in-memory EdgeIterator CPU cost, whose Eq. 3 bill
    ``ordering_op_cost`` gives in closed form); and the 1-core over
    6-core-with-morphing replay speed-up of the same trace.
    """
    in_memory_ops = ordering_op_cost(graph, np.arange(graph.num_vertices))
    six = replay(trace, DEFAULT_COST_MODEL, cores=6, morphing=True)
    return {
        "sim_elapsed_s": elapsed,
        "overhead_vs_ideal": elapsed / ideal_elapsed(store, in_memory_ops),
        "sim_speedup_6c": elapsed / six.elapsed,
    }


def disk_run(graph: Graph) -> TriangulationResult:
    """Untimed OPT_serial simulation of *graph* for the fidelity figures."""
    return triangulate_disk(make_store(graph, PAGE_SIZE),
                            buffer_ratio=BUFFER_RATIO)
