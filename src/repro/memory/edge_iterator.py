"""EdgeIterator≻ — Algorithm 2 of the paper.

For every edge ``(u, v)`` with ``id(u) < id(v)``, every common successor
``w in n_succ(u) ∩ n_succ(v)`` completes the triangle ``(u, v, w)``.  The
ordering constraint lists each triangle exactly once.  With the hash cost
model, one edge costs ``min(|n_succ(u)|, |n_succ(v)|)`` operations and the
total is ``O(alpha * |E|)`` (Eq. 2-5).

This function is now a façade over the composition layer: it runs
``compose(memory, <kernel>, serial)`` from :mod:`repro.exec`, which
executes the identical loop with the identical operation accounting.
The scenario matrix cross-checks the composed cell against every other
source/executor pairing, so the façade stays honest by construction.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.memory.base import TriangleSink, TriangulationResult

__all__ = ["edge_iterator"]


def edge_iterator(
    graph: Graph,
    sink: TriangleSink | None = None,
    *,
    kernel: str = "hash",
) -> TriangulationResult:
    """List all triangles of *graph* with EdgeIterator≻.

    Parameters
    ----------
    graph:
        The (already relabeled, if desired) input graph.
    sink:
        Optional receiver of nested ``<u, v, {w...}>`` groups; defaults to
        a counting sink.
    kernel:
        A :data:`repro.exec.registry.KERNELS` name.  The default ``hash``
        kernel charges the paper's analytic probe count; the reference
        kernels (``merge``, ``gallop``) charge their own measured
        comparison counts.  An unknown name raises
        :class:`~repro.errors.ConfigurationError`.

    Returns the triangle count and the CPU op count.
    """
    from repro.exec.engine import compose

    engine = compose("memory", kernel, "serial", graph=graph)
    # No sink: run in count-only mode (no group materialization), the
    # historical default-CountSink behavior.
    result = engine.run(sink)
    # Preserve the historical result shape: a pure in-memory run reports
    # triangles and CPU ops only.
    return TriangulationResult(triangles=result.triangles,
                               cpu_ops=result.cpu_ops)
