"""Tests for the library extensions: compact-forward, k-cliques, kernels."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TriangulationError
from repro.exec import registry
from repro.graph import generators
from repro.graph.builder import from_edges
from repro.memory import (
    CollectSink,
    canonical_triangles,
    compact_forward,
    count_cliques,
    edge_iterator,
    list_cliques,
)
from tests.conftest import nx_triangle_count


class TestCompactForward:
    def test_figure1(self, figure1):
        assert compact_forward(figure1).triangles == 5

    def test_matches_networkx(self, small_rmat):
        assert compact_forward(small_rmat).triangles == nx_triangle_count(small_rmat)

    def test_lists_same_triangles(self, small_rmat_ordered):
        reference = CollectSink()
        edge_iterator(small_rmat_ordered, reference)
        sink = CollectSink()
        compact_forward(small_rmat_ordered, sink)
        assert canonical_triangles(sink) == canonical_triangles(reference)

    def test_counts_merge_steps(self, small_rmat_ordered):
        result = compact_forward(small_rmat_ordered)
        merge = edge_iterator(small_rmat_ordered, kernel="merge")
        # Truncated merges can never cost more than full succ-list merges.
        assert 0 < result.cpu_ops <= merge.cpu_ops

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_property_agrees(self, edges):
        graph = from_edges(edges)
        assert compact_forward(graph).triangles == edge_iterator(graph).triangles


class TestCliques:
    def test_k1_is_vertices(self, figure1):
        assert count_cliques(figure1, 1).triangles == 8
        assert len(list(list_cliques(figure1, 1))) == 8

    def test_k2_is_edges(self, figure1):
        assert count_cliques(figure1, 2).triangles == figure1.num_edges

    def test_k3_is_triangles(self, figure1, small_rmat):
        assert count_cliques(figure1, 3).triangles == 5
        assert count_cliques(small_rmat, 3).triangles == nx_triangle_count(small_rmat)

    def test_k4_complete_graph(self):
        graph = generators.complete_graph(8)
        assert count_cliques(graph, 4).triangles == 70  # C(8, 4)
        assert count_cliques(graph, 8).triangles == 1
        assert count_cliques(graph, 9).triangles == 0

    def test_k4_figure1(self, figure1):
        # Figure 1 has no 4-cliques (no vertex pair shares two triangles
        # whose apexes are adjacent).
        assert count_cliques(figure1, 4).triangles == 0

    def test_listing_matches_count(self, clustered_graph):
        for k in (3, 4):
            listed = list(list_cliques(clustered_graph, k))
            assert len(listed) == count_cliques(clustered_graph, k).triangles
            assert len(set(listed)) == len(listed)
            for clique in listed[:50]:
                assert list(clique) == sorted(clique)
                for i in range(k):
                    for j in range(i + 1, k):
                        assert clustered_graph.has_edge(clique[i], clique[j])

    def test_k4_matches_networkx(self, clustered_graph):
        import networkx as nx

        nxg = nx.Graph(list(clustered_graph.edges()))
        expected = sum(1 for c in nx.enumerate_all_cliques(nxg) if len(c) == 4)
        assert count_cliques(clustered_graph, 4).triangles == expected

    def test_validation(self, figure1):
        with pytest.raises(TriangulationError):
            count_cliques(figure1, 0)
        with pytest.raises(TriangulationError):
            list(list_cliques(figure1, -1))


class TestKernelParameter:
    @pytest.mark.parametrize("kernel", list(registry.KERNELS))
    def test_all_kernels_agree(self, small_rmat_ordered, kernel):
        expected = edge_iterator(small_rmat_ordered).triangles
        assert edge_iterator(small_rmat_ordered, kernel=kernel).triangles == expected

    def test_kernel_listing_identical(self, clustered_graph):
        reference = CollectSink()
        edge_iterator(clustered_graph, reference)
        for kernel in registry.KERNELS:
            sink = CollectSink()
            edge_iterator(clustered_graph, sink, kernel=kernel)
            assert canonical_triangles(sink) == canonical_triangles(reference)

    def test_hash_kernel_matches_analytic_ops(self, small_rmat_ordered):
        analytic = edge_iterator(small_rmat_ordered).cpu_ops
        hashed = edge_iterator(small_rmat_ordered, kernel="hash").cpu_ops
        assert hashed == analytic

    def test_bitmap_is_an_alias_of_hash(self, clustered_graph):
        """``bitmap`` resolves to the hash kernel: same bill, same
        listing, emit order included."""
        runs = {}
        for kernel in ("hash", "bitmap"):
            sink = CollectSink()
            result = edge_iterator(clustered_graph, sink, kernel=kernel)
            runs[kernel] = (result.triangles, result.cpu_ops, sink.triangles)
        assert runs["bitmap"] == runs["hash"]

    @pytest.mark.parametrize("kernel", ["adaptive", "numpy", "bogus"])
    def test_unknown_kernel_is_a_configuration_error(self, figure1, kernel):
        """A name outside the registry is a typed configuration error,
        not a raw ``ValueError`` from an enum lookup."""
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            edge_iterator(figure1, kernel=kernel)
