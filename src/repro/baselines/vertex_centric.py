"""A minimal vertex-centric (Gather-Apply-Scatter) engine.

GraphChi and PowerGraph both expose the vertex-centric programming model
the paper describes in Section 4; this module implements that model for
real — synchronous supersteps of gather (over incident edges), apply
(update the vertex value), and scatter (activate neighbors) — so the
cost models in :mod:`repro.baselines.graphchi` and
:mod:`repro.distributed` rest on an executable reference, not just on
prose.  Two classic programs are included: triangle counting (validated
against EdgeIterator≻ in the tests) and PageRank.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "GASEngine",
    "PageRankProgram",
    "SuperstepStats",
    "TriangleCountProgram",
    "VertexProgram",
]


class VertexProgram(ABC):
    """One vertex-centric computation."""

    @abstractmethod
    def initial_value(self, graph: Graph, u: int) -> float:
        """Value of vertex *u* before the first superstep."""

    @abstractmethod
    def gather(self, graph: Graph, values: np.ndarray, u: int, v: int) -> float:
        """Contribution of the incident edge ``(u, v)`` to *u*'s sum."""

    @abstractmethod
    def apply(self, graph: Graph, u: int, old_value: float, gathered: float) -> float:
        """New value of *u* from its gathered sum."""

    def scatter(self, graph: Graph, u: int, old_value: float, new_value: float) -> bool:
        """Whether *u*'s neighbors must be re-activated next superstep."""
        return abs(new_value - old_value) > 1e-10

    def max_supersteps(self) -> int:
        return 100


@dataclass
class SuperstepStats:
    """Work metering of one superstep."""

    active_vertices: int
    edges_gathered: int


class GASEngine:
    """Synchronous GAS execution over an in-memory graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.history: list[SuperstepStats] = []

    def run(self, program: VertexProgram) -> np.ndarray:
        """Run *program* to convergence; returns the final vertex values."""
        graph = self.graph
        n = graph.num_vertices
        values = np.array(
            [program.initial_value(graph, u) for u in range(n)], dtype=np.float64
        )
        active = np.ones(n, dtype=bool)
        self.history = []
        for _ in range(program.max_supersteps()):
            if not active.any():
                break
            next_active = np.zeros(n, dtype=bool)
            new_values = values.copy()
            edges_gathered = 0
            for u in np.flatnonzero(active):
                u = int(u)
                gathered = 0.0
                for v in graph.neighbors(u):
                    gathered += program.gather(graph, values, u, int(v))
                    edges_gathered += 1
                new_values[u] = program.apply(graph, u, values[u], gathered)
                if program.scatter(graph, u, values[u], new_values[u]):
                    next_active[graph.neighbors(u)] = True
            self.history.append(
                SuperstepStats(int(active.sum()), edges_gathered)
            )
            values = new_values
            active = next_active
        return values

    @property
    def supersteps(self) -> int:
        return len(self.history)


class TriangleCountProgram(VertexProgram):
    """Per-vertex triangle counts in one superstep.

    Gathering ``|n(u) ∩ n(v)|`` over *u*'s incident edges counts each of
    *u*'s triangles twice (once per participating edge), so apply halves
    the sum; the global total is ``sum(values) / 3``.
    """

    def initial_value(self, graph, u):
        return 0.0

    def gather(self, graph, values, u, v):
        # One uncharged pair per call: a dense mask would cost O(n) each.
        return float(len(np.intersect1d(graph.neighbors(u), graph.neighbors(v),
                                        assume_unique=True)))

    def apply(self, graph, u, old_value, gathered):
        return gathered / 2.0

    def scatter(self, graph, u, old_value, new_value):
        return False  # one superstep suffices

    @staticmethod
    def total_triangles(values: np.ndarray) -> int:
        return int(round(values.sum() / 3.0))


class PageRankProgram(VertexProgram):
    """Standard damped PageRank with convergence-driven activation."""

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-6):
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must be in (0, 1)")
        self.damping = damping
        self.tolerance = tolerance

    def initial_value(self, graph, u):
        return 1.0 / max(graph.num_vertices, 1)

    def gather(self, graph, values, u, v):
        degree = graph.degree(v)
        return values[v] / degree if degree else 0.0

    def apply(self, graph, u, old_value, gathered):
        return (1.0 - self.damping) / graph.num_vertices + self.damping * gathered

    def scatter(self, graph, u, old_value, new_value):
        return abs(new_value - old_value) > self.tolerance

    def max_supersteps(self):
        return 200
