"""Network-analysis metrics built on triangle counts.

The paper motivates triangulation via clustering coefficients, transitivity
and trigonal connectivity; these are provided as library features so the
examples can compute them through the public API.
"""

from __future__ import annotations

import numpy as np

from repro.exec.kernels import HashKernel
from repro.graph.graph import Graph

__all__ = [
    "arboricity_bound",
    "clustering_coefficients",
    "global_clustering_coefficient",
    "per_vertex_triangles",
    "transitivity",
    "trigonal_connectivity",
]


def per_vertex_triangles(graph: Graph) -> np.ndarray:
    """Number of triangles each vertex participates in.

    Computed by intersecting successor lists along each edge (u < v)
    through the ``hash`` kernel and crediting u, v, and every common
    successor w.
    """
    intersect = HashKernel().bind(graph.num_vertices).intersect
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for u in range(graph.num_vertices):
        row_u = graph.n_succ(u)
        for v in row_u:
            v = int(v)
            common, _ = intersect(row_u, graph.n_succ(v))
            if len(common):
                counts[u] += len(common)
                counts[v] += len(common)
                counts[common] += 1
    return counts


def clustering_coefficients(graph: Graph) -> np.ndarray:
    """Local clustering coefficient of every vertex (0 for degree < 2)."""
    triangles = per_vertex_triangles(graph)
    degrees = graph.degrees().astype(np.float64)
    pairs = degrees * (degrees - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coefficients = np.where(pairs > 0, triangles / pairs, 0.0)
    return coefficients


def global_clustering_coefficient(graph: Graph) -> float:
    """Average of the local clustering coefficients (Watts–Strogatz)."""
    if graph.num_vertices == 0:
        return 0.0
    return float(clustering_coefficients(graph).mean())


def transitivity(graph: Graph) -> float:
    """Global transitivity: ``3 * #triangles / #connected-triples``."""
    triangles = int(per_vertex_triangles(graph).sum()) // 3
    degrees = graph.degrees().astype(np.int64)
    triples = int((degrees * (degrees - 1) // 2).sum())
    if triples == 0:
        return 0.0
    return 3.0 * triangles / triples


def trigonal_connectivity(graph: Graph, u: int, v: int) -> int:
    """Number of triangles the edge ``(u, v)`` participates in.

    A tightness measure for the connection between *u* and *v* (Batagelj &
    Zaveršnik); 0 when the edge does not exist.
    """
    if not graph.has_edge(u, v):
        return 0
    # One uncharged pair: a dense mask would cost O(n) for this lookup.
    return len(np.intersect1d(graph.neighbors(u), graph.neighbors(v),
                              assume_unique=True))


def arboricity_bound(graph: Graph) -> float:
    """Upper bound on arboricity: ``ceil(sqrt(|E|))`` for simple graphs.

    Used to sanity check the ``O(alpha * |E|)`` cost accounting.
    """
    return float(np.ceil(np.sqrt(max(graph.num_edges, 1))))
