"""Per-iteration state shared between the OPT driver and its plugins.

A :class:`ChunkContext` represents one internal-area fill: the inclusive
vertex range ``[v_lo, v_hi]`` whose record chains are pinned in the
internal area, their assembled adjacency lists, and the requester map
``V_req`` built during candidate identification (Algorithm 7) and
consumed by the external triangulation (Algorithm 9), plus the run's
``hash`` kernel binding through which EdgeIterator≻ intersects.
"""

from __future__ import annotations

import copy
from collections import defaultdict

import numpy as np

from repro.memory.base import TriangleSink

__all__ = ["ChunkContext"]


class ChunkContext:
    """State of one OPT iteration (one internal chunk)."""

    def __init__(
        self,
        v_lo: int,
        v_hi: int,
        adjacency: dict[int, np.ndarray],
        sink: TriangleSink,
        binding,
    ):
        self.v_lo = v_lo
        self.v_hi = v_hi
        self._adjacency = adjacency
        self.sink = sink
        #: The run's ``hash`` kernel binding; owned by one thread.
        self.binding = binding
        #: candidate vertex -> internal vertices that requested it (V_req).
        self.requesters: dict[int, list[int]] = defaultdict(list)
        self._succ_cache: dict[int, np.ndarray] = {}

    def with_binding(self, binding) -> "ChunkContext":
        """A view for another thread: shares every chunk structure and
        the sink with this context, but intersects through *binding*."""
        view = copy.copy(self)
        view.binding = binding
        return view

    def is_internal(self, v: int) -> bool:
        """Whether vertex *v*'s adjacency list is in the internal area."""
        return self.v_lo <= v <= self.v_hi

    def n_full(self, v: int) -> np.ndarray:
        """Full adjacency list of internal vertex *v* (sorted)."""
        return self._adjacency[v]

    def n_succ(self, v: int) -> np.ndarray:
        """``n_succ(v)`` of internal vertex *v*, cached per iteration."""
        cached = self._succ_cache.get(v)
        if cached is None:
            row = self._adjacency[v]
            cut = int(np.searchsorted(row, v, side="right"))
            cached = row[cut:]
            self._succ_cache[v] = cached
        return cached

    def extend_adjacency(self, mapping: dict[int, np.ndarray]) -> None:
        """Install assembled adjacency lists (used by the threaded engine)."""
        self._adjacency.update(mapping)

    def add_request(self, candidate: int, requester: int) -> None:
        """Record that internal *requester* needs external *candidate*."""
        self.requesters[candidate].append(requester)

    @property
    def candidate_vertices(self) -> list[int]:
        """All external candidate vertices recorded so far (``V_ex``)."""
        return list(self.requesters)
