"""The seeded graph zoo: named small graphs with known shapes.

One place to enumerate the inputs every differential harness should
survive — the paper's worked example, random graphs with triangles, and
the pathological shapes that historically break triangulation engines
(empty input, a triangle-free star, disconnected dense components,
duplicate edges that must collapse to one).

``ZOO`` maps a stable name to a zero-argument builder; builders are
deterministic (fixed seeds) so every test session sees identical
graphs.  The scenario matrix parametrizes over :func:`zoo_names` and
the ``graph_zoo`` fixture in ``conftest.py`` materializes members on
demand, cached per session.
"""

from __future__ import annotations

from repro.graph import generators
from repro.graph.builder import from_edges
from repro.graph.graph import Graph


def _empty() -> Graph:
    """No vertices, no edges — every engine must return zero, not crash."""
    return from_edges([], num_vertices=0)


def _isolated() -> Graph:
    """Vertices but not a single edge (all-zero CSR rows)."""
    return from_edges([], num_vertices=7)


def _star() -> Graph:
    """A 9-leaf star: many edges, zero triangles (hub never closes)."""
    return generators.star_graph(10)


def _path() -> Graph:
    """A 12-vertex path — triangle-free with non-trivial adjacency."""
    return from_edges([(u, u + 1) for u in range(11)], num_vertices=12)


def _two_cliques() -> Graph:
    """Two disconnected K5s: dense components a vertex split straddles."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    return from_edges(edges, num_vertices=10)


def _duplicate_edges() -> Graph:
    """A triangle given with duplicate + reversed edges.

    ``from_edges`` must collapse them; an engine that double-counts an
    edge lists phantom triangles.
    """
    edges = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (0, 2), (2, 0),
             (2, 3), (3, 2), (2, 3)]
    return from_edges(edges, num_vertices=4)


def _figure1() -> Graph:
    """The paper's Figure 1 worked example (5 triangles)."""
    return generators.figure1_graph()


def _rmat_small() -> Graph:
    """A seeded R-MAT graph: skewed degrees, plenty of triangles."""
    return generators.rmat(128, 600, seed=11)


def _holme_kim_small() -> Graph:
    """A seeded Holme-Kim graph: high clustering coefficient."""
    return generators.holme_kim(80, 4, 0.6, seed=3)


def _star_of_cliques() -> Graph:
    """A hub attached to one representative of each lopsided clique.

    The hub's successor list spans the whole id range while each
    clique's lists stay inside their contiguous block, so hub pairs have
    disjoint id spans while in-clique pairs stay comparable in length.
    """
    sizes = (3, 4, 5, 8, 12, 24)
    edges = []
    base = 1
    for size in sizes:
        edges.append((0, base))
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j))
        base += size
    return from_edges(edges, num_vertices=base)


def _hub_bipartite() -> Graph:
    """Bipartite-ish hubs over leaf blocks with engineered skew bands.

    Hub 0 owns a 96-leaf block; hub 1 samples every 8th leaf plus a far
    block outside hub 0's span; hub 2 samples every 24th.  The hub-hub
    pairs are one each of mid skew, extreme skew, and comparable
    lengths; leaf pairs intersect empty lists.
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    main = list(range(3, 99))
    far = list(range(99, 105))
    for leaf in main:
        edges.append((0, leaf))
    for leaf in main[::8] + far:
        edges.append((1, leaf))
    for leaf in main[::24]:
        edges.append((2, leaf))
    return from_edges(edges, num_vertices=105)


def _rmat_heavy() -> Graph:
    """A heavy-tailed R-MAT variant: quadrant weights pushed to (0.65,
    0.15, 0.15, 0.05) concentrate edges on low ids, producing heavy
    degree skew on one member."""
    return generators.rmat(96, 480, probabilities=(0.65, 0.15, 0.15, 0.05),
                           seed=5)


#: name -> zero-argument deterministic builder.
ZOO = {
    "empty": _empty,
    "isolated": _isolated,
    "star": _star,
    "path": _path,
    "two-cliques": _two_cliques,
    "dup-edges": _duplicate_edges,
    "figure1": _figure1,
    "rmat-small": _rmat_small,
    "holme-kim-small": _holme_kim_small,
    "star-of-cliques": _star_of_cliques,
    "hub-bipartite": _hub_bipartite,
    "rmat-heavy": _rmat_heavy,
}

#: Members whose triangle count is known by construction, for harness
#: self-checks (the oracle must reproduce these exactly).
KNOWN_COUNTS = {
    "empty": 0,
    "isolated": 0,
    "star": 0,
    "path": 0,
    "two-cliques": 20,   # 2 * C(5, 3)
    "dup-edges": 1,
    "figure1": 5,
    "star-of-cliques": 2315,  # sum C(c, 3) over cliques (3,4,5,8,12,24)
    "hub-bipartite": 21,      # hub triangle + per-hub leaf closures
}


#: Members that exist as a seeded family: ``seed`` shifts the base seed
#: so the scenario matrix can sweep several instances of each random
#: shape.  Seed 0 is always identical to the plain ``ZOO`` builder.
SEEDED = {
    "rmat-small": lambda seed: generators.rmat(128, 600, seed=11 + seed),
    "holme-kim-small": lambda seed: generators.holme_kim(80, 4, 0.6,
                                                         seed=3 + seed),
    "rmat-heavy": lambda seed: generators.rmat(
        96, 480, probabilities=(0.65, 0.15, 0.15, 0.05), seed=5 + seed),
}


def zoo_names() -> list[str]:
    """Stable ordering for parametrization."""
    return list(ZOO)


def build(name: str, seed: int = 0) -> Graph:
    """Build a zoo member; *seed* > 0 varies the random families."""
    if seed and name in SEEDED:
        return SEEDED[name](seed)
    return ZOO[name]()
