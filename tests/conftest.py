"""Shared fixtures: small graphs with independently known triangle counts."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.graph import generators
from repro.graph.ordering import apply_ordering


@lru_cache(maxsize=None)
def _seeded_graph(model: str, args: tuple, seed: int, ordering: str):
    graph = getattr(generators, model)(*args, seed=seed)
    if ordering != "natural":
        graph, _ = apply_ordering(graph, ordering)
    return graph


@pytest.fixture(scope="session")
def seeded_graph():
    """Factory for deterministic test graphs, cached across the session.

    ``seeded_graph("holme_kim", 300, 6, 0.5, seed=6)`` builds (once) a
    degree-ordered Holme-Kim graph; pass ``ordering="natural"`` to skip
    the relabeling.  Consolidates the ad-hoc per-module constructions so
    identical graphs are built exactly once per test session.
    """

    def make(model: str, *args, seed: int = 0, ordering: str = "degree"):
        return _seeded_graph(model, args, seed, ordering)

    return make


@pytest.fixture(scope="session")
def figure1():
    """The paper's Figure 1 example graph (5 triangles)."""
    return generators.figure1_graph()


@pytest.fixture(scope="session")
def small_rmat(seeded_graph):
    """A small R-MAT graph for cross-method comparisons."""
    return seeded_graph("rmat", 400, 3000, seed=5, ordering="natural")


@pytest.fixture(scope="session")
def small_rmat_ordered(seeded_graph):
    return seeded_graph("rmat", 400, 3000, seed=5)


@pytest.fixture(scope="session")
def clustered_graph(seeded_graph):
    """A Holme-Kim graph with substantial clustering."""
    return seeded_graph("holme_kim", 300, 6, 0.5, seed=6, ordering="natural")


@pytest.fixture(scope="session")
def graph_zoo():
    """Factory over the named zoo in ``tests/zoo.py``, cached per session.

    ``graph_zoo("star")`` returns the same object for every test, so
    harnesses that sweep all members pay construction cost once.
    """
    from tests import zoo

    cache: dict[tuple[str, int], object] = {}

    def make(name: str, seed: int = 0):
        key = (name, seed)
        if key not in cache:
            cache[key] = zoo.build(name, seed)
        return cache[key]

    return make


def nx_triangle_count(graph):
    """Ground-truth triangle count via networkx."""
    import networkx as nx

    nxg = nx.Graph(list(graph.edges()))
    nxg.add_nodes_from(range(graph.num_vertices))
    return sum(nx.triangles(nxg).values()) // 3


def find_span(spans, name):
    """Depth-first search of a serialized span tree for *name*, or None."""
    for span in spans:
        if span["name"] == name:
            return span
        found = find_span(span["children"], name)
        if found is not None:
            return found
    return None


def child_span(span, name):
    """First direct child of a serialized span named *name*, or None."""
    return next((c for c in span["children"] if c["name"] == name), None)
