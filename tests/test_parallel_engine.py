"""Differential harness for the process-parallel engine.

The acceptance bar is *exact* agreement: ``opt-parallel`` with workers
in {1, 2, 4} and across chunk granularities must list the same triangle
set and charge the same total op count as the serial in-memory engines
(EdgeIterator≻, forward, compact-forward), the disk stack, and an
independent set-based brute force — on the seeded zoo from
``conftest.py`` and on the adversarial edge cases (empty graph, single
vertex, star, clique, disconnected triangles).

Workers beyond 1 run through real forked processes and shared-memory
CSR attach; on this single-core container that exercises correctness of
the decomposition and merge, not speed (the simulated engine owns the
speed-up curves).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core import triangulate_disk
from repro.errors import ConfigurationError, ParallelError
from repro.graph.builder import from_edges
from repro.graph.generators import complete_graph, star_graph
from repro.graph.graph import Graph
from repro.memory import compact_forward, edge_iterator, forward
from repro.memory.base import CollectSink, canonical_triangles
from repro.parallel import (
    default_chunk_count,
    plan_chunks,
    triangulate_parallel,
)

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (1, 2, 4)


def parallel_triangles(graph, workers, **kwargs):
    sink = CollectSink()
    result = triangulate_parallel(graph, workers=workers, sink=sink, **kwargs)
    return result, canonical_triangles(sink)


def serial_reference(graph):
    sink = CollectSink()
    result = edge_iterator(graph, sink)
    return result, canonical_triangles(sink)


def brute_force_set(graph) -> list[tuple[int, int, int]]:
    """Independent oracle: adjacency-set triangle listing."""
    adjacency = [set(graph.neighbors(v).tolist())
                 for v in range(graph.num_vertices)]
    triangles = set()
    for u in range(graph.num_vertices):
        for v in adjacency[u]:
            if v <= u:
                continue
            for w in adjacency[u] & adjacency[v]:
                if w > v:
                    triangles.add((u, v, w))
    return sorted(triangles)


# ---------------------------------------------------------------------------
# the seeded zoo
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zoo(request):
    """Named deterministic graphs spanning shapes the chunker must split."""
    seeded_graph = request.getfixturevalue("seeded_graph")
    figure1 = request.getfixturevalue("figure1")
    return {
        "figure1": figure1,
        "rmat": seeded_graph("rmat", 400, 3000, seed=5, ordering="natural"),
        "rmat_ordered": seeded_graph("rmat", 400, 3000, seed=5),
        "clustered": seeded_graph("holme_kim", 300, 6, 0.5, seed=6,
                                  ordering="natural"),
        "star": star_graph(32),
        "clique": complete_graph(12),
        "two_triangles": from_edges(
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
            num_vertices=6,
        ),
    }


class TestDifferentialZoo:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_serial_engines(self, zoo, workers):
        """Triangle set + op total equal EdgeIterator≻ on every zoo graph."""
        for name, graph in zoo.items():
            serial, serial_set = serial_reference(graph)
            result, listed = parallel_triangles(graph, workers)
            assert listed == serial_set, (name, workers)
            assert result.triangles == serial.triangles, (name, workers)
            assert result.cpu_ops == serial.cpu_ops, (name, workers)

    def test_matches_forward_family(self, zoo):
        """Same sets as forward/compact-forward (different algorithms)."""
        for name, graph in zoo.items():
            _, listed = parallel_triangles(graph, 2)
            forward_sink = CollectSink()
            forward(graph, forward_sink)
            assert listed == canonical_triangles(forward_sink), name
            compact_sink = CollectSink()
            compact_forward(graph, compact_sink)
            assert listed == canonical_triangles(compact_sink), name

    def test_matches_brute_force(self, zoo):
        for name, graph in zoo.items():
            _, listed = parallel_triangles(graph, 4)
            assert listed == brute_force_set(graph), name

    @pytest.mark.parametrize("plugin",
                             ["edge-iterator", "vertex-iterator", "mgt"])
    def test_matches_disk_engines(self, zoo, plugin):
        """Same triangle set as the full disk pipeline, per plugin."""
        for name in ("figure1", "clustered", "two_triangles"):
            graph = zoo[name]
            disk_sink = CollectSink()
            disk = triangulate_disk(graph, plugin=plugin, page_size=256,
                                    buffer_pages=4, sink=disk_sink)
            result, listed = parallel_triangles(graph, 2)
            assert listed == canonical_triangles(disk_sink), (name, plugin)
            assert result.triangles == disk.triangles, (name, plugin)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunks", [1, 2, 3, 16, 64])
    def test_chunk_granularity_is_invisible(self, zoo, workers, chunks):
        """Any chunk count lists the same set with the same op total."""
        graph = zoo["clustered"]
        serial, serial_set = serial_reference(graph)
        result, listed = parallel_triangles(graph, workers, chunks=chunks)
        assert listed == serial_set
        assert result.cpu_ops == serial.cpu_ops


class TestEdgeCases:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_empty_graph(self, workers):
        empty = Graph(np.zeros(1, dtype=np.int64),
                      np.array([], dtype=np.int64))
        result, listed = parallel_triangles(empty, workers)
        assert result.triangles == 0 and result.cpu_ops == 0
        assert listed == []

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_single_vertex(self, workers):
        single = Graph(np.zeros(2, dtype=np.int64),
                       np.array([], dtype=np.int64))
        result, _ = parallel_triangles(single, workers)
        assert result.triangles == 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_star_is_triangle_free(self, workers):
        result, listed = parallel_triangles(star_graph(16), workers)
        assert result.triangles == 0 and listed == []

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_clique(self, workers):
        n = 10
        result, listed = parallel_triangles(complete_graph(n), workers)
        expected = n * (n - 1) * (n - 2) // 6
        assert result.triangles == expected
        assert listed == sorted(combinations(range(n), 3))

    def test_more_workers_than_vertices(self, figure1):
        result, listed = parallel_triangles(figure1, 64)
        assert result.triangles == 5
        assert result.extra["workers"] <= figure1.num_vertices

    def test_more_chunks_than_vertices_plan(self, figure1):
        """Asking for more chunks than vertices still covers the vertex
        range with non-empty chunks."""
        bounds = plan_chunks(figure1, figure1.num_vertices + 10)
        covered = [v for lo, hi in bounds for v in range(lo, hi)]
        assert covered == list(range(figure1.num_vertices))
        assert all(hi > lo for lo, hi in bounds)

    def test_edgeless_graph_is_one_chunk(self):
        """No successor mass to balance: one full-range chunk, not
        several empty ones."""
        edgeless = Graph(np.zeros(6, dtype=np.int64),
                         np.array([], dtype=np.int32))
        assert plan_chunks(edgeless, 4) == [(0, edgeless.num_vertices)]
        assert triangulate_parallel(edgeless, workers=4).triangles == 0

    def test_worker_validation(self, figure1):
        with pytest.raises(ConfigurationError):
            triangulate_parallel(figure1, workers=0)

    def test_zero_chunk_count_rejected(self, figure1):
        with pytest.raises(ConfigurationError):
            plan_chunks(figure1, 0)

    def test_sim_clock_tracer_rejected(self, figure1):
        from repro.obs.trace import EventTracer

        with pytest.raises(ConfigurationError):
            triangulate_parallel(figure1, trace=EventTracer.sim())


class TestWorkQueue:
    def test_default_chunks_oversubscribe(self, figure1):
        assert default_chunk_count(figure1, 2) == min(
            figure1.num_vertices, 8)

    def test_plan_covers_vertex_range(self, zoo):
        for name, graph in zoo.items():
            for chunks in (1, 2, 5, 16):
                bounds = plan_chunks(graph, chunks)
                covered = [v for lo, hi in bounds for v in range(lo, hi)]
                assert covered == list(range(graph.num_vertices)), (
                    name, chunks)

    def test_every_chunk_is_executed_exactly_once(self, zoo):
        result = triangulate_parallel(zoo["clustered"], workers=4)
        parallel = result.extra["parallel"]
        assert len(parallel.executed_by) == len(parallel.chunk_bounds)
        assert all(0 <= wid < parallel.workers
                   for wid in parallel.executed_by)

    def test_steals_counted_against_round_robin_share(self, zoo):
        result = triangulate_parallel(zoo["clustered"], workers=2, chunks=8)
        parallel = result.extra["parallel"]
        expected_steals = sum(
            1 for index, wid in enumerate(parallel.executed_by)
            if wid != index % parallel.workers
        )
        assert parallel.steals == expected_steals
        assert result.extra["steals"] == expected_steals


class TestObsMerge:
    def test_metrics_fold_into_report(self, zoo):
        from repro.obs import RunReport

        graph = zoo["clustered"]
        serial = edge_iterator(graph)
        report = RunReport("parallel")
        triangulate_parallel(graph, workers=2, report=report)
        snapshot = report.registry.snapshot()
        assert snapshot["counters"]["parallel.ops"] == serial.cpu_ops
        assert (snapshot["counters"]["triangles{phase=parallel}"]
                == serial.triangles)
        assert snapshot["counters"]["parallel.chunks"] == len(
            plan_chunks(graph, default_chunk_count(graph, 2)))
        assert snapshot["gauges"]["parallel.workers"] == 2
        assert snapshot["gauges"]["run.elapsed_wall"] > 0

    def test_one_trace_track_per_worker(self, zoo):
        from repro.obs.trace import EventTracer

        tracer = EventTracer.wall()
        result = triangulate_parallel(zoo["clustered"], workers=4,
                                      trace=tracer)
        events = tracer.events()
        chunk_events = [e for e in events if e.name == "parallel.chunk"]
        tracks = {e.track for e in chunk_events}
        assert tracks == {f"parallel/w{wid}"
                          for wid in set(result.extra["parallel"].executed_by)}
        assert len(chunk_events) == len(result.extra["chunks"])
        assert any(e.name == "parallel.merge" for e in events)
        # Worker timestamps were translated onto the caller's timeline.
        assert all(0 <= e.ts <= tracer.now() for e in events)

    def test_trace_exports_as_chrome_json(self, zoo, tmp_path):
        from repro.obs.trace import EventTracer, to_chrome_trace, \
            validate_chrome_trace

        tracer = EventTracer.wall()
        triangulate_parallel(zoo["figure1"], workers=2, trace=tracer)
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload, known_names_only=True) == []


class TestFailurePropagation:
    """A crash inside the pool's chunk loop, for both entry points.

    The worker loop calls ``run_range`` through the engine module's
    namespace; fork inherits the patched module, so the failure happens
    on the worker side of the queue protocol.
    """

    def test_worker_failure_raises_and_leaks_nothing(self, zoo, monkeypatch):
        """A crashing worker surfaces as ParallelError, segments unlinked."""
        import os

        import repro.parallel.engine as engine_mod

        def boom(*args, **kwargs):
            raise ValueError("injected chunk failure")

        monkeypatch.setattr(engine_mod, "run_range", boom)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ParallelError, match="injected chunk failure"):
            triangulate_parallel(zoo["figure1"], workers=2)
        assert set(os.listdir("/dev/shm")) <= before

    def test_worker_failure_identifies_the_worker(self, zoo, monkeypatch):
        import repro.parallel.engine as engine_mod

        def boom(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(engine_mod, "run_range", boom)
        with pytest.raises(ParallelError, match=r"w\d+: ValueError"):
            triangulate_parallel(zoo["figure1"], workers=2)

    def test_process_executor_failure_raises_and_leaks_nothing(
            self, zoo, monkeypatch):
        """The composed process cell runs on the same pool: same funnel."""
        import os

        import repro.parallel.engine as engine_mod
        from repro.exec import compose

        def boom(*args, **kwargs):
            raise ValueError("injected chunk failure")

        monkeypatch.setattr(engine_mod, "run_range", boom)
        before = set(os.listdir("/dev/shm"))
        engine = compose("shm", "hash", "process", graph=zoo["figure1"],
                         workers=2)
        with pytest.raises(ParallelError,
                           match=r"w\d+: ValueError: injected chunk failure"):
            engine.run()
        assert set(os.listdir("/dev/shm")) <= before
