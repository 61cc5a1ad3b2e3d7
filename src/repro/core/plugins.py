"""Pluggable iterator models for the OPT framework.

OPT is generic: an instance supplies three operations (Section 3.2/3.5) —

* ``internal_ops_for_page``   — InternalTriangleImpl (Algorithms 6 / 11),
* ``candidates_for_record``   — ExternalCandidateVertexImpl (Algorithms 8 / 12),
* ``external_ops_for_record`` — ExternalTriangleImpl (Algorithms 10 / 13).

Each returns the CPU operation count it consumed (the paper's probe
measure) and emits triangles into the context's sink.  EdgeIterator≻
intersects through the context's ``hash`` kernel binding, which supplies
both the common members and the Eq. 3 charge.  Adjacency lists may
arrive chunked across pages; intersections and membership probes
distribute over chunks, so per-record processing remains exact.

:class:`MGTPlugin` realizes the paper's Section 3.5 reduction of MGT
[Hu et al., SIGMOD'13] to an OPT instance: no internal triangulation,
every successor is an external candidate, vertex-iterator external
processing, synchronous I/O (the driver handles the I/O mode).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.context import ChunkContext
from repro.storage.page import PageRecord
from repro.util.intersect import HASH_PROBE_COST

__all__ = ["EdgeIteratorPlugin", "IteratorPlugin", "MGTPlugin", "VertexIteratorPlugin"]


class IteratorPlugin(ABC):
    """One iterator-model instantiation of the OPT framework."""

    #: Short identifier used in reports and the CLI.
    name: str = "abstract"
    #: MGT mode: candidates include in-memory vertices and I/O is synchronous.
    rescan_all: bool = False
    sync_external: bool = False

    @abstractmethod
    def candidates_for_record(
        self, ctx: ChunkContext, record: PageRecord
    ) -> tuple[np.ndarray, int]:
        """External candidate vertices contributed by one record chunk.

        Returns ``(candidates, ops)``; the driver files each candidate in
        ``ctx.requesters`` keyed by the record's vertex.
        """

    @abstractmethod
    def internal_ops_for_page(
        self, ctx: ChunkContext, records: list[PageRecord]
    ) -> int:
        """Find internal triangles for one internal-area page; return ops."""

    @abstractmethod
    def external_ops_for_record(
        self, ctx: ChunkContext, record: PageRecord
    ) -> int:
        """Find external triangles for one arrived candidate chunk; return ops."""


class EdgeIteratorPlugin(IteratorPlugin):
    """EdgeIterator≻ instance (Algorithms 6, 8 and 10)."""

    name = "edge-iterator"

    def candidates_for_record(self, ctx, record):
        neighbors = record.neighbors
        candidates = neighbors[neighbors > ctx.v_hi]
        return candidates, len(neighbors)

    def internal_ops_for_page(self, ctx, records):
        intersect = ctx.binding.intersect
        ops = 0
        for record in records:
            u = record.vertex
            neighbors = record.neighbors
            internal_succ = neighbors[(neighbors > u) & (neighbors <= ctx.v_hi)]
            if len(internal_succ) == 0:
                continue
            succ_u = ctx.n_succ(u)
            for v in internal_succ:
                v = int(v)
                common, pair_ops = intersect(succ_u, ctx.n_succ(v))
                ops += pair_ops
                if len(common):
                    ctx.sink.emit(u, v, common.tolist())
        return ops

    def external_ops_for_record(self, ctx, record):
        v = record.vertex
        chunk = record.neighbors
        succ_chunk = chunk[chunk > v]  # this chunk's slice of n_succ(v)
        requesters = ctx.requesters.get(v)
        if not requesters:
            return 0
        intersect = ctx.binding.intersect
        ops = 0
        for u in requesters:
            common, pair_ops = intersect(ctx.n_succ(u), succ_chunk)
            ops += pair_ops
            if len(common):
                ctx.sink.emit(u, v, common.tolist())
        return ops


class VertexIteratorPlugin(IteratorPlugin):
    """VertexIterator≻ instance (Algorithms 11, 12 and 13)."""

    name = "vertex-iterator"

    def candidates_for_record(self, ctx, record):
        neighbors = record.neighbors
        candidates = neighbors[neighbors > ctx.v_hi]
        return candidates, len(neighbors)

    def internal_ops_for_page(self, ctx, records):
        ops = 0
        for record in records:
            u = record.vertex
            neighbors = record.neighbors
            internal_succ = neighbors[(neighbors > u) & (neighbors <= ctx.v_hi)]
            if len(internal_succ) == 0:
                continue
            succ_u = ctx.n_succ(u)
            for v in internal_succ:
                v = int(v)
                cut = int(np.searchsorted(succ_u, v, side="right"))
                w_candidates = succ_u[cut:]
                if len(w_candidates) == 0:
                    continue
                ops += HASH_PROBE_COST * len(w_candidates)
                hits = w_candidates[
                    np.isin(w_candidates, ctx.n_full(v), assume_unique=True)
                ]
                if len(hits):
                    ctx.sink.emit(u, v, hits.tolist())
        return ops

    def external_ops_for_record(self, ctx, record):
        v = record.vertex
        chunk = record.neighbors
        requesters = ctx.requesters.get(v)
        if not requesters:
            return 0
        ops = 0
        for u in requesters:
            succ_u = ctx.n_succ(u)
            cut = int(np.searchsorted(succ_u, v, side="right"))
            w_candidates = succ_u[cut:]
            if len(w_candidates) == 0:
                continue
            ops += HASH_PROBE_COST * len(w_candidates)
            hits = w_candidates[np.isin(w_candidates, chunk, assume_unique=True)]
            if len(hits):
                ctx.sink.emit(u, v, hits.tolist())
        return ops


class MGTPlugin(VertexIteratorPlugin):
    """MGT as an OPT instance (Section 3.5).

    No internal triangulation; *every* successor becomes an external
    candidate (so in-memory vertices are re-read through the streaming
    scan); external processing is the vertex-iterator check; the driver
    runs the external reads synchronously with no buffer reuse — giving
    the paper's ``(1 + ceil(P/m)) * c * P(G)`` I/O bound (Eq. 7).
    """

    name = "mgt"
    rescan_all = True
    sync_external = True

    def candidates_for_record(self, ctx, record):
        neighbors = record.neighbors
        candidates = neighbors[neighbors > record.vertex]
        return candidates, len(neighbors)

    def internal_ops_for_page(self, ctx, records):
        return 0
