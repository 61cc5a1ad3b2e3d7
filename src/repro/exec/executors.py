"""Execution strategies: the Executor axis of the composition layer.

All three executors run the same :func:`repro.exec.engine.run_range`
loop and merge chunk results in range order, so triangles, op counts,
and emitted groups are identical across the axis — only wall time and
I/O locality differ.  That invariance is what the scenario matrix's
conservation checks pin down.

* :class:`SerialExecutor` — one range, one loop; the reference cell.
* :class:`ThreadedExecutor` — a thread pool over oversubscribed
  equal-width :func:`split_ranges` (a disk handle cannot provide the
  degree mass :func:`~repro.parallel.chunks.plan_chunks` balances
  on).  Under CPython this overlaps I/O (the disk source's page
  reads) rather than CPU, mirroring the paper's threaded OPT; each task
  reads through ``fork_local()`` so stateful read paths stay
  single-threaded internally.
* :class:`ProcessExecutor` — the work-queue fork pool of
  :func:`repro.parallel.engine.run_pool` (the one that also runs
  :func:`~repro.parallel.triangulate_parallel`): degree-balanced
  :func:`~repro.parallel.chunks.plan_chunks` chunks over the source's
  published CSR, which every worker attaches zero-copy.  Requires a
  shareable source; the registry marks other combinations invalid
  rather than pickling whole graphs across the boundary.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ConfigurationError
from repro.exec.engine import EngineOutcome, run_range, split_ranges
from repro.exec.protocols import Kernel, Source
from repro.parallel.chunks import OVERSUBSCRIPTION, default_chunk_count, plan_chunks

__all__ = ["ProcessExecutor", "SerialExecutor", "ThreadedExecutor"]


def _merge_io(totals: dict[str, int], stats: dict[str, int]) -> None:
    for key, value in stats.items():
        totals[key] = totals.get(key, 0) + int(value)


def _scope_for(attribution, source: Source, kernel: Kernel):
    """The ``(exec, kernel, source)`` charging scope, or ``None``.

    Every executor charges the same coordinate, so the merged table is
    identical across the executor axis — the attribution analogue of the
    triangles/ops invariance the scenario matrix pins.
    """
    if attribution is None:
        return None
    return attribution.scope(phase="exec", kernel=kernel.name,
                             source=source.name)


class SerialExecutor:
    """The whole vertex range in one in-process loop."""

    name = "serial"
    requires_shareable = False

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, attribution=None) -> EngineOutcome:
        with source.open() as handle:
            binding = kernel.bind(handle.num_vertices)
            triangles, ops, groups = run_range(
                handle, binding, 0, handle.num_vertices, collect,
                scope=_scope_for(attribution, source, kernel))
            return EngineOutcome(triangles=triangles, cpu_ops=ops,
                                 groups=groups, chunks=1,
                                 io=dict(handle.io_stats()))


class ThreadedExecutor:
    """A thread pool over oversubscribed contiguous vertex ranges."""

    name = "threaded"
    requires_shareable = False

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, attribution=None) -> EngineOutcome:
        from repro.obs.attribution import Attribution

        with source.open() as handle:
            ranges = split_ranges(handle.num_vertices,
                                  self.workers * OVERSUBSCRIPTION)
            if not ranges:
                return EngineOutcome(io=dict(handle.io_stats()))
            num_vertices = handle.num_vertices

            def job(bounds: tuple[int, int]):
                lo, hi = bounds
                local = handle.fork_local()
                binding = kernel.bind(num_vertices)
                # Each task charges its own table; the parent folds them
                # in range order — integer cells sum, so the merged
                # table is independent of scheduling and worker count.
                table = Attribution() if attribution is not None else None
                triangles, ops, groups = run_range(
                    local, binding, lo, hi, collect,
                    scope=_scope_for(table, source, kernel))
                return triangles, ops, groups, local.io_stats(), table

            outcome = EngineOutcome(chunks=len(ranges))
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                for triangles, ops, groups, stats, table in pool.map(job, ranges):
                    outcome.triangles += triangles
                    outcome.cpu_ops += ops
                    outcome.groups.extend(groups)
                    _merge_io(outcome.io, stats)
                    if table is not None:
                        attribution.merge(table)
            return outcome


class ProcessExecutor:
    """The work-queue process pool over a shareable (shared-memory) source."""

    name = "process"
    requires_shareable = True

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers

    def execute(self, source: Source, kernel: Kernel, *,
                collect: bool, attribution=None) -> EngineOutcome:
        # Imported on use: repro.parallel.engine itself imports repro.exec.
        from repro.parallel.engine import run_pool

        with source.open() as handle:
            if handle.csr_handle() is None:
                raise ConfigurationError(
                    f"source {source.name!r} is not attachable across "
                    "processes; use the shared-memory source"
                )
            # No local names the shared Graph: a traceback holding one
            # would keep its buffers exported and block the segment close.
            bounds = plan_chunks(
                handle.graph, default_chunk_count(handle.graph, self.workers))
            scope = (dict(phase="exec", kernel=kernel.name,
                          source=source.name)
                     if attribution is not None else None)
            result = run_pool(handle, bounds, workers=self.workers,
                              kernel=kernel.name, collect=collect,
                              anchor=time.perf_counter(), scope=scope)
            outcome = EngineOutcome(chunks=len(bounds),
                                    io=dict(handle.io_stats()))
            for _, _, _, triangles, ops, groups in result.rows():
                outcome.triangles += triangles
                outcome.cpu_ops += ops
                outcome.groups.extend(groups)
            for report in result.worker_reports:
                if report.attribution is not None:
                    attribution.merge_snapshot(report.attribution)
            return outcome
