"""Tests for the real-thread OPT engine."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import threaded, triangulate_threaded
from repro.errors import ConfigurationError
from repro.exec import HashKernel
from repro.graph import generators
from repro.memory import CollectSink, canonical_triangles, edge_iterator
from repro.verify import oracle_triangles


class TestThreadedCorrectness:
    def test_figure1(self, figure1, tmp_path):
        result = triangulate_threaded(figure1, tmp_path, buffer_pages=2,
                                      page_size=128)
        assert result.triangles == 5

    @pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator"])
    @pytest.mark.parametrize("buffer_pages", [2, 6])
    def test_rmat(self, small_rmat_ordered, tmp_path, plugin, buffer_pages):
        expected = edge_iterator(small_rmat_ordered).triangles
        result = triangulate_threaded(
            small_rmat_ordered, tmp_path, plugin=plugin,
            buffer_pages=buffer_pages, page_size=256,
        )
        assert result.triangles == expected

    def test_exact_listing(self, small_rmat_ordered, tmp_path):
        reference = CollectSink()
        edge_iterator(small_rmat_ordered, reference)
        sink = CollectSink()
        triangulate_threaded(small_rmat_ordered, tmp_path, buffer_pages=4,
                             page_size=256, sink=sink)
        assert canonical_triangles(sink) == canonical_triangles(reference)

    def test_spanning_hub(self, tmp_path):
        graph = generators.complete_graph(40)
        result = triangulate_threaded(graph, tmp_path, buffer_pages=4,
                                      page_size=64)
        assert result.triangles == 40 * 39 * 38 // 6

    def test_deterministic_counts_across_windows(self, tmp_path, seeded_graph):
        graph = seeded_graph("holme_kim", 200, 6, 0.5, seed=3)
        expected = edge_iterator(graph).triangles
        for window in (1, 2, 8):
            result = triangulate_threaded(graph, tmp_path / str(window),
                                          buffer_pages=4, page_size=256,
                                          window=window)
            assert result.triangles == expected

    def test_reports_io_and_iterations(self, small_rmat_ordered, tmp_path):
        result = triangulate_threaded(small_rmat_ordered, tmp_path,
                                      buffer_pages=6, page_size=256)
        assert result.pages_read > 0
        assert result.iterations > 1
        assert result.elapsed > 0

    def test_validation(self, figure1, tmp_path):
        with pytest.raises(ConfigurationError):
            triangulate_threaded(figure1, tmp_path, buffer_pages=1)


class TestPerThreadBindings:
    """The main thread (internal, Algorithm 5) and the callback thread
    (external, Algorithm 9) intersect at the same time; each must own
    its ``hash`` binding, so neither sees the other's mask marks."""

    @pytest.mark.parametrize("member", ["rmat-heavy", "hub-bipartite",
                                        "star-of-cliques"])
    def test_skewed_zoo_lists_the_oracle(self, graph_zoo, member, tmp_path,
                                         monkeypatch):
        bindings = []

        class RecordingBinding:
            def __init__(self, inner):
                self._inner = inner
                self.threads = set()

            def intersect(self, a, b):
                self.threads.add(threading.get_ident())
                return self._inner.intersect(a, b)

        class RecordingKernel(HashKernel):
            def bind(self, num_vertices):
                bindings.append(RecordingBinding(super().bind(num_vertices)))
                return bindings[-1]

        monkeypatch.setattr(threaded, "HashKernel", RecordingKernel)
        graph = graph_zoo(member)
        expected = [tuple(t) for t in oracle_triangles(graph)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            for run in range(6):
                bindings.clear()
                sink = CollectSink()
                triangulate_threaded(graph, tmp_path / str(run),
                                     buffer_pages=4, page_size=64,
                                     window=4 + 4 * (run % 2), sink=sink)
                assert canonical_triangles(sink) == expected, (member, run)
                # Both threads intersected, never through one binding.
                assert [len(b.threads) for b in bindings] == [1, 1]
                assert len(bindings[0].threads | bindings[1].threads) == 2
        finally:
            sys.setswitchinterval(previous)
