"""The composed engine: one edge-iterator loop, three pluggable axes.

:func:`run_range` is the single triangle-listing loop every composition
executes — EdgeIterator≻ (Algorithm 2) over a half-open vertex range,
reading successor lists from a :class:`~repro.exec.protocols.SourceHandle`
and intersecting through a kernel binding.  Because every triangle is
listed at its minimum vertex, any partition of ``[0, n)`` enumerates
disjoint triangle sets, chunk results merge by concatenation in range
order, and the per-pair op charges are identical no matter who executes
which range — the conservation property the scenario matrix asserts.

:func:`compose` assembles ``(source, kernel, executor)`` — instances or
registry names — into an :class:`Engine` after validating the cell
against :func:`repro.exec.registry.cell_validity`, so an impossible
combination fails loudly with the same reason string the test grid
reports as a skip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.memory.base import TriangleSink, TriangulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.protocols import Executor, Kernel, Source, SourceHandle

__all__ = ["Engine", "EngineOutcome", "compose", "run_range", "split_ranges"]

#: One emitted triangle group ``(u, v, (w, ...))`` — also the process
#: pool's merge unit.
Group = tuple[int, int, tuple[int, ...]]


@dataclass
class EngineOutcome:
    """What an executor hands back to :meth:`Engine.run`."""

    triangles: int = 0
    cpu_ops: int = 0
    groups: list[Group] = field(default_factory=list)
    chunks: int = 0
    io: dict[str, int] = field(default_factory=dict)


def split_ranges(num_vertices: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, num_vertices)`` into ≤ *parts* contiguous ranges.

    Plain equal-width vertex split: executor-agnostic, deterministic,
    and independent of the source (a disk handle cannot cheaply provide
    degree mass).  Work balance is the executor's concern — the chunk
    count oversubscribes the pool so fast workers absorb skew.
    """
    if parts < 1:
        raise ConfigurationError("parts must be >= 1")
    if num_vertices <= 0:
        return []
    parts = min(parts, num_vertices)
    bounds = [round(i * num_vertices / parts) for i in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def run_range(
    handle: "SourceHandle",
    binding,
    lo: int,
    hi: int,
    collect: bool,
    scope=None,
) -> tuple[int, int, list[Group]]:
    """EdgeIterator≻ over ``[lo, hi)`` through one kernel binding.

    Charges exactly what the historical serial edge iterator charges for
    the same vertices: one kernel invocation per edge ``(u, v)`` with
    ``u`` in range, including pairs with empty intersections.

    *scope* is an optional
    :class:`~repro.obs.attribution.AttributionScope`; when given, every
    pair's op charge additionally lands in the degree bucket of
    ``min(|n_succ(u)|, |n_succ(v)|)`` — the probed side, the quantity
    Eq. 3 charges — so the attribution table's per-bucket sums conserve
    the returned ``ops`` exactly.
    """
    triangles = 0
    ops = 0
    groups: list[Group] = []
    # Per-bucket accumulator (bit_length -> [pairs, ops, triangles]):
    # plain dict updates in the pair loop, one bulk charge at the end —
    # a method call per pair would dominate the attributed run.
    counts: dict[int, list[int]] = {}
    for u in range(lo, hi):
        succ_u = handle.succ(u)
        deg_u = len(succ_u)
        if deg_u == 0:
            continue
        prepped = binding.prep(succ_u)
        if scope is None:
            for v in succ_u:
                v = int(v)
                common, pair_ops = binding.intersect(prepped, handle.succ(v))
                ops += pair_ops
                if len(common):
                    triangles += len(common)
                    if collect:
                        groups.append(
                            (u, v, tuple(int(w) for w in common)))
        else:
            for v in succ_u:
                v = int(v)
                succ_v = handle.succ(v)
                common, pair_ops = binding.intersect(prepped, succ_v)
                ops += pair_ops
                found = len(common)
                length = min(deg_u, len(succ_v)).bit_length()
                cell = counts.get(length)
                if cell is None:
                    cell = counts[length] = [0, 0, 0]
                cell[0] += 1
                cell[1] += pair_ops
                cell[2] += found
                if found:
                    triangles += found
                    if collect:
                        groups.append(
                            (u, v, tuple(int(w) for w in common)))
    if scope is not None and counts:
        scope.charge_lengths(counts)
    return triangles, ops, groups


@dataclass(frozen=True)
class Engine:
    """One cell of the Source × Kernel × Executor cube, ready to run."""

    source: "Source"
    kernel: "Kernel"
    executor: "Executor"

    @property
    def cell(self) -> tuple[str, str, str]:
        """The registry coordinates ``(source, kernel, executor)``."""
        return (self.source.name, self.kernel.name, self.executor.name)

    def describe(self) -> str:
        return "+".join(self.cell)

    def run(self, sink: TriangleSink | None = None, *,
            report=None, attribution=None) -> TriangulationResult:
        """Execute the composition; list to *sink* when given.

        With a :class:`~repro.obs.RunReport`, per-axis labelled counters
        (``exec.triangles`` / ``exec.ops`` / ``exec.chunks``) land in its
        registry so cross-cell comparisons can slice by any axis.  With
        an :class:`~repro.obs.attribution.Attribution`, every pair's op
        charge lands in its ``(exec, kernel, source, degree-bucket)``
        cell and the engine's wall time is attributed to the same
        coordinate — per-bucket ops sum exactly to ``exec.ops``.
        """
        collect = sink is not None
        started = time.perf_counter()
        outcome = self.executor.execute(self.source, self.kernel,
                                        collect=collect,
                                        attribution=attribution)
        elapsed = time.perf_counter() - started
        if attribution is not None:
            attribution.scope(phase="exec", kernel=self.kernel.name,
                              source=self.source.name).charge_time(elapsed)
        if sink is not None:
            for u, v, ws in outcome.groups:
                sink.emit(u, v, list(ws))
        source_name, kernel_name, executor_name = self.cell
        extra = {
            "cell": self.describe(),
            "source": source_name,
            "kernel": kernel_name,
            "executor": executor_name,
            "chunks": outcome.chunks,
        }
        if report is not None:
            labels = dict(source=source_name, kernel=kernel_name,
                          executor=executor_name)
            # Namespaced meta keys: the CLI already uses "source" for
            # the input path.
            report.meta.update({"engine": "exec.compose",
                                "exec.cell": self.describe()})
            report.counter("exec.triangles", **labels).inc(outcome.triangles)
            report.counter("exec.ops", **labels).inc(outcome.cpu_ops)
            report.counter("exec.chunks", **labels).inc(outcome.chunks)
            report.gauge("run.elapsed_wall").set(elapsed)
            extra["report"] = report
        return TriangulationResult(
            triangles=outcome.triangles,
            cpu_ops=outcome.cpu_ops,
            pages_read=outcome.io.get("pages_read", 0),
            pages_buffered=outcome.io.get("pages_buffered", 0),
            elapsed=elapsed,
            extra=extra,
        )


def compose(
    source,
    kernel,
    executor,
    *,
    graph=None,
    workers: int = 2,
    page_size: int | None = None,
    buffer_pages: int = 8,
) -> Engine:
    """Assemble an :class:`Engine` from axis instances or registry names.

    String axes resolve through :mod:`repro.exec.registry` (``graph`` is
    required to instantiate a named source).  Invalid cells raise
    :class:`~repro.errors.ConfigurationError` carrying the same reason
    string the scenario matrix records for the skipped cell.
    """
    from repro.exec import registry

    if isinstance(source, str):
        source = registry.make_source(source, graph, page_size=page_size,
                                      buffer_pages=buffer_pages)
    if isinstance(kernel, str):
        kernel = registry.make_kernel(kernel)
    if isinstance(executor, str):
        executor = registry.make_executor(executor, workers=workers)
    reason = registry.composition_conflict(source, executor)
    if reason is not None:
        raise ConfigurationError(
            f"invalid composition {source.name}+{kernel.name}+{executor.name}: "
            f"{reason}"
        )
    return Engine(source=source, kernel=kernel, executor=executor)
