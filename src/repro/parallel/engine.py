"""The process-parallel triangulation engine.

Execution model (the process-pool analogue of thread morphing,
Section 3.4 of the paper):

1. the parent publishes the CSR graph into shared memory once
   (:class:`repro.parallel.shm.SharedCSR`) and plans degree-balanced
   vertex chunks (:func:`repro.parallel.chunks.plan_chunks`), finer than
   the worker count;
2. chunks go onto one work queue; every forked worker attaches the
   shared CSR zero-copy and pulls chunks until it drains the queue.  The
   round-robin "fair share" of chunk ``i`` is worker ``i % workers`` — a
   worker executing someone else's chunk is the *steal* that morphing
   performs with threads;
3. each worker binds the named intersection kernel once, runs the one
   EdgeIterator≻ loop (:func:`repro.exec.engine.run_range`) per chunk,
   and accumulates its own :class:`MetricsRegistry` counters and
   :class:`EventTracer` slices on a private ``parallel/w<id>`` track;
4. the parent merges: triangle groups re-emitted to the caller's sink in
   chunk order (so output is identical for every worker count), worker
   metric snapshots folded into the run report's registry, worker trace
   events translated onto the caller's tracer timeline.

:func:`run_pool` is that pool — the repository's only fork pool.  Both
:func:`triangulate_parallel` (the ``hash`` kernel over a heap graph it
publishes on demand) and :class:`repro.exec.executors.ProcessExecutor`
(any kernel over the ``shm`` source's published CSR) run on it.

Determinism contract: the chunk plan, per-chunk triangle groups, and all
op counts depend only on the graph — never on scheduling.  Only
``parallel.steals`` and the wall-clock figures are scheduling-dependent,
and the determinism tests compare snapshots with exactly those excluded.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, ParallelError
from repro.exec.engine import Group, run_range
from repro.exec.kernels import HashKernel
from repro.exec.sources import _GraphHandle
from repro.graph.graph import Graph
from repro.memory.base import CountSink, TriangleSink, TriangulationResult
from repro.obs.registry import MetricsRegistry
from repro.obs.report import RunReport
from repro.obs.telemetry import TelemetrySampler
from repro.obs.trace import EventTracer, TraceEvent
from repro.parallel.chunks import default_chunk_count, plan_chunks
from repro.parallel.heartbeat import Heartbeat, HeartbeatMonitor, StragglerPolicy
from repro.parallel.shm import SharedCSR

__all__ = [
    "ParallelResult",
    "WorkerReport",
    "count_chunk",
    "run_pool",
    "triangulate_parallel",
]

#: One executed chunk: ``(chunk_index, lo, hi, triangles, ops, groups)``.
Row = tuple[int, int, int, int, int, list[Group]]


def count_chunk(
    indptr: np.ndarray,
    indices: np.ndarray,
    lo: int,
    hi: int,
    collect: bool = False,
    scope=None,
) -> tuple[int, int, list[Group]]:
    """EdgeIterator≻ over the vertex range ``[lo, hi)`` of a raw CSR.

    :func:`repro.exec.engine.run_range` with the ``hash`` kernel:
    returns ``(triangles, ops, groups)``, *groups* empty unless
    *collect*, with exactly the Eq. 3 charges of the serial
    :func:`repro.memory.edge_iterator.edge_iterator` — so summing chunk
    ops over any partition of ``[0, n)`` reproduces the serial total.
    *scope* is an optional
    :class:`~repro.obs.attribution.AttributionScope` charged per degree
    bucket, as in :func:`~repro.exec.engine.run_range`.
    """
    graph = Graph(indptr, indices, validate=False)
    return run_range(_GraphHandle(graph),
                     HashKernel().bind(graph.num_vertices),
                     lo, hi, collect, scope=scope)


@dataclass
class WorkerReport:
    """Everything one worker ships back over the result queue.

    Plain data only — this crosses a process boundary by pickle.
    """

    worker_id: int
    #: One :data:`Row` per executed chunk.
    results: list[Row] = field(default_factory=list)
    snapshot: dict = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    #: Serialized :class:`~repro.obs.attribution.Attribution` snapshot
    #: (deterministic form), or ``None`` when attribution was off.
    attribution: dict | None = None
    error: str | None = None


@dataclass(frozen=True)
class ParallelResult:
    """Merged view of a parallel run, for introspection and tests."""

    workers: int
    chunk_bounds: tuple[tuple[int, int], ...]
    #: ``chunk_index -> worker_id`` that actually executed it.
    executed_by: tuple[int, ...]
    steals: int
    worker_reports: tuple[WorkerReport, ...]

    def rows(self) -> list[Row]:
        """Every executed chunk in chunk-index (== vertex) order."""
        return sorted((row for report in self.worker_reports
                       for row in report.results), key=lambda row: row[0])


def _execute_chunks(
    handle,
    tasks: Iterable[tuple[int, int, int]],
    worker_id: int,
    num_workers: int,
    collect: bool,
    anchor: float,
    kernel: str,
    scope: dict[str, str] | None = None,
    hb_queue=None,
    chunk_delay: float = 0.0,
) -> WorkerReport:
    """Run *tasks* (``(index, lo, hi)``) over *handle* and record obs locally.

    Shared by the in-process path and the forked worker loop; the named
    *kernel* is bound once and every chunk goes through
    :func:`repro.exec.engine.run_range`.  Timestamps are seconds since
    *anchor* (a parent-side ``perf_counter`` reading), so merged events
    land on the caller's timeline without clock negotiation —
    ``perf_counter`` is one system-wide monotonic clock on Linux.

    With *hb_queue* set, a :class:`Heartbeat` is published at start,
    after every chunk, and once more at drain (``done=True``) — always
    ``put_nowait``, dropping the beat if the channel is momentarily
    full: progress reporting must never block the work it reports on.
    *chunk_delay* is the straggler fault-injection hook: seconds slept
    once before the first task fetch and again inside every chunk (the
    up-front sleep makes the stall deterministic even when the other
    workers drain the queue first; see :class:`StragglerPolicy`).
    With a *scope* (``phase``/``kernel``/``source`` keywords), the
    worker charges a private attribution table under that constant
    coordinate and ships its deterministic snapshot on the report —
    cells merge by summation, so the folded table is independent of
    worker count and scheduling.
    """
    from repro.exec.registry import make_kernel
    from repro.obs.attribution import Attribution

    registry = MetricsRegistry()
    tracer = EventTracer(clock="wall")
    chunks_counter = registry.counter("parallel.chunks")
    ops_counter = registry.counter("parallel.ops")
    steals_counter = registry.counter("parallel.steals")
    triangles_counter = registry.counter("triangles", phase="parallel")
    chunk_elapsed = registry.histogram("parallel.chunk.elapsed")
    track = f"parallel/w{worker_id}"
    report = WorkerReport(worker_id=worker_id)
    binding = make_kernel(kernel).bind(handle.num_vertices)
    attr_table = Attribution() if scope is not None else None
    attr_scope = attr_table.scope(**scope) if attr_table is not None else None
    done_chunks = total_ops = total_steals = 0

    def beat(done: bool = False) -> None:
        if hb_queue is None:
            return
        try:
            hb_queue.put_nowait(Heartbeat(
                worker_id=worker_id, chunks_done=done_chunks,
                ops=total_ops, steals=total_steals,
                ts=time.perf_counter() - anchor, done=done,
            ))
        except queue_mod.Full:  # pragma: no cover - tiny payloads
            pass

    beat()
    if chunk_delay > 0.0:
        time.sleep(chunk_delay)
    for index, lo, hi in tasks:
        start = time.perf_counter() - anchor
        if chunk_delay > 0.0:
            time.sleep(chunk_delay)
        triangles, ops, groups = run_range(handle, binding, lo, hi, collect,
                                           scope=attr_scope)
        end = time.perf_counter() - anchor
        chunks_counter.inc()
        ops_counter.inc(ops)
        triangles_counter.inc(triangles)
        chunk_elapsed.observe(end - start)
        done_chunks += 1
        total_ops += ops
        owner = index % num_workers
        if owner != worker_id:
            steals_counter.inc()
            total_steals += 1
            tracer.instant("parallel.steal", ts=end, track=track,
                           chunk=index, owner=owner)
        tracer.complete("parallel.chunk", start, end - start, track=track,
                        chunk=index, lo=lo, hi=hi,
                        triangles=triangles, ops=ops)
        report.results.append((index, lo, hi, triangles, ops, groups))
        beat()
    beat(done=True)
    report.snapshot = registry.snapshot(histogram_samples=True)
    report.events = tracer.events()
    if attr_table is not None:
        report.attribution = attr_table.snapshot()
    return report


def _drain_queue(task_queue) -> Iterator[tuple[int, int, int]]:
    """Yield tasks from *task_queue* until the ``None`` sentinel."""
    while True:
        item = task_queue.get()
        if item is None:
            return
        yield item


def _worker_main(csr, num_workers: int, worker_id: int, collect: bool,
                 anchor: float, kernel: str, scope, task_queue, result_queue,
                 hb_queue=None, chunk_delay: float = 0.0) -> None:
    """Forked worker entry: attach, drain the queue, ship one report."""
    shared = SharedCSR.attach(csr)
    graph = None
    try:
        graph = shared.graph()
        report = _execute_chunks(
            _GraphHandle(graph), _drain_queue(task_queue), worker_id,
            num_workers, collect, anchor, kernel, scope, hb_queue,
            chunk_delay,
        )
    # Worker boundary: ANY failure (including KeyboardInterrupt /
    # SystemExit) must reach the parent as an error report, or the
    # parent's result_queue.get() blocks forever.
    # lint: ignore[error-types] worker-to-parent error funnel
    except BaseException as exc:
        report = WorkerReport(worker_id=worker_id,
                              error=f"{type(exc).__name__}: {exc}")
    finally:
        # The Graph wraps the shared buffers; its views must die before
        # close() or the mmap refuses to unmap ("exported pointers exist").
        graph = None
        shared.close()
    result_queue.put(report)


def run_pool(
    handle,
    chunk_bounds: Sequence[tuple[int, int]],
    *,
    workers: int,
    kernel: str,
    collect: bool,
    anchor: float,
    scope: dict[str, str] | None = None,
    straggler: StragglerPolicy | None = None,
    telemetry: TelemetrySampler | None = None,
    registry: MetricsRegistry | None = None,
    trace: EventTracer | None = None,
) -> ParallelResult:
    """Run *chunk_bounds* over *handle* on the work-queue process pool.

    *handle* is a CSR-backed source handle
    (:class:`repro.exec.sources._GraphHandle` or the shared-memory
    subclass): forked workers attach its ``csr_handle()``, and a heap
    graph without one is published for the pool's lifetime — closed
    and unlinked however the run ends.  ``workers == 1`` or a single
    chunk runs the identical chunk loop in-process, with no fork and no
    shared memory.  Every chunk runs the named *kernel*; *scope* is the
    attribution coordinate as ``phase``/``kernel``/``source`` keywords,
    or ``None`` to leave attribution off.

    Heartbeat monitoring is opt-in: a *straggler* policy, or implicitly
    a live (wall-clock) *telemetry* sampler, which also gains the
    monitor's ``workers`` provider; *registry* and *trace* receive the
    monitor's counters and instants.  A failed worker raises
    :class:`ParallelError` naming it, after every process is reaped.
    """
    tasks = [(index, lo, hi) for index, (lo, hi) in enumerate(chunk_bounds)]
    if workers == 1 or len(tasks) == 1:
        width = 1
        reports = [_execute_chunks(handle, tasks, 0, 1, collect, anchor,
                                   kernel, scope)]
    else:
        width = min(workers, len(tasks))
        reports = _fork_pool(handle, tasks, width, collect, anchor, kernel,
                             scope, straggler, telemetry, registry, trace)
    failures = sorted(
        (report.worker_id, report.error)
        for report in reports if report.error
    )
    if failures:
        detail = "; ".join(f"w{wid}: {err}" for wid, err in failures)
        raise ParallelError(f"{len(failures)} worker(s) failed: {detail}")
    reports.sort(key=lambda report: report.worker_id)
    executed = sorted((row[0], report.worker_id)
                      for report in reports for row in report.results)
    if [index for index, _ in executed] != list(range(len(tasks))):
        raise ParallelError(
            f"chunk accounting mismatch: planned {len(tasks)}, "
            f"executed {len(executed)}"
        )
    steals = sum(int(report.snapshot.get("counters", {})
                     .get("parallel.steals", 0)) for report in reports)
    return ParallelResult(
        workers=width,
        chunk_bounds=tuple(chunk_bounds),
        executed_by=tuple(worker_id for _, worker_id in executed),
        steals=steals,
        worker_reports=tuple(reports),
    )


def _fork_pool(handle, tasks, width, collect, anchor, kernel, scope,
               straggler, telemetry, registry, trace) -> list[WorkerReport]:
    """Fork *width* workers over one task queue; one report each."""
    policy = straggler
    if policy is None and telemetry is not None:
        policy = StragglerPolicy()
    monitor: HeartbeatMonitor | None = None
    if policy is not None:
        monitor = HeartbeatMonitor(policy, workers=width,
                                   total_chunks=len(tasks),
                                   registry=registry, tracer=trace)
        if telemetry is not None:
            telemetry.add_provider("workers", monitor.provider)
    shared = None
    csr = handle.csr_handle()
    if csr is None:
        shared = SharedCSR.publish(handle.graph)
        csr = shared.handle
    ctx = mp.get_context("fork")
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    hb_queue = ctx.Queue() if monitor is not None else None
    processes: list = []
    failed = False
    try:
        for task in tasks:
            task_queue.put(task)
        for _ in range(width):
            task_queue.put(None)
        processes = [
            ctx.Process(
                target=_worker_main,
                args=(csr, width, worker_id, collect, anchor, kernel, scope,
                      task_queue, result_queue, hb_queue,
                      policy.inject_chunk_delay
                      if policy is not None
                      and policy.inject_worker == worker_id else 0.0),
                name=f"parallel-w{worker_id}",
            )
            for worker_id in range(width)
        ]
        for process in processes:
            process.start()
        # Drain results *before* join: a worker blocks in put() until
        # the parent reads, so the reverse order deadlocks on big
        # payloads.
        if monitor is None:
            reports = [result_queue.get() for _ in processes]
        else:
            reports = _monitored_drain(processes, result_queue, hb_queue,
                                       monitor, policy, telemetry, anchor)
        for process in processes:
            process.join()
    # Cleanup-and-reraise: even KeyboardInterrupt must terminate the
    # workers and discard the queues, or the interpreter hangs at
    # exit on the feeder threads.  # lint: ignore[error-types]
    except BaseException:
        failed = True
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join()
        raise
    finally:
        if shared is not None:
            shared.close()
            shared.unlink()
        _close_queue(task_queue, discard=failed)
        _close_queue(result_queue, discard=failed)
        _close_queue(hb_queue, discard=failed)
    return reports


def _close_queue(q, *, discard: bool = False) -> None:
    """Release a multiprocessing queue's pipe fds and feeder thread.

    ``discard=True`` (the error path) drops any unflushed buffer instead
    of waiting on the feeder — the queues are dead either way, and the
    fd-leak gate in ``tests/test_telemetry.py`` checks exactly this
    cleanup.
    """
    if q is None:
        return
    q.close()
    if discard:
        q.cancel_join_thread()
    else:
        q.join_thread()


def _monitored_drain(
    processes: Sequence,
    result_queue,
    hb_queue,
    monitor: HeartbeatMonitor,
    policy: StragglerPolicy,
    telemetry: TelemetrySampler | None,
    start_wall: float,
) -> list[WorkerReport]:
    """Collect worker reports while folding heartbeats + detections.

    The replacement for the blocking ``result_queue.get()`` loop: each
    pass waits at most ``policy.poll_interval`` for a report, drains
    every pending heartbeat, runs the straggler/silence detections (a
    silent worker raises :class:`ParallelError` out of here), and lets a
    wall-clock telemetry sampler take a rate-limited tick.
    """
    reports: list[WorkerReport] = []
    pending = len(processes)
    while pending:
        try:
            report = result_queue.get(timeout=policy.poll_interval)
        except queue_mod.Empty:
            report = None
        if report is not None:
            reports.append(report)
            monitor.mark_done(report.worker_id)
            pending -= 1
        monitor.drain(hb_queue)
        monitor.check(time.perf_counter() - start_wall)
        if telemetry is not None:
            telemetry.maybe_sample()
    monitor.drain(hb_queue)
    return reports


def _replay_sample(
    rows: Sequence[tuple[int, int, int, int, int, list[Group]]],
    telemetry: TelemetrySampler,
) -> None:
    """Sim-clock telemetry for a parallel run: replay the merged chunks.

    Wall-clock sampling of live workers can never be deterministic, so
    the sim-clock tick stream is produced *after* the fact from the
    merged chunk rows, which are a pure function of the graph: a fresh
    replay registry re-accumulates the deterministic counters in chunk
    order, sampling at every chunk ordinal.  The resulting JSONL is
    byte-identical across runs *and across worker counts* — the
    determinism gate in ``tests/test_telemetry.py``.

    The sampler is rebound to the replay registry (scheduling-dependent
    counters like ``parallel.steals`` must stay out of the stream).
    """
    replay = MetricsRegistry()
    telemetry.registry = replay
    chunks_counter = replay.counter("parallel.chunks")
    ops_counter = replay.counter("parallel.ops")
    triangles_counter = replay.counter("triangles", phase="parallel")
    telemetry.sample(0.0)
    for index, _, _, triangles, ops, _ in rows:
        chunks_counter.inc()
        ops_counter.inc(ops)
        triangles_counter.inc(triangles)
        telemetry.sample(float(index + 1), chunk=index)


def _merge(
    result: ParallelResult,
    sink: TriangleSink,
    collect: bool,
    run_report: RunReport | None,
    trace: EventTracer | None,
    anchor_rel: float,
    telemetry: TelemetrySampler | None = None,
    attribution=None,
) -> tuple[int, int]:
    """Fold the pool's reports into (triangles, ops) + obs, deterministically."""
    merge_started = trace.now() if trace is not None else 0.0
    rows = result.rows()
    triangles = sum(row[3] for row in rows)
    ops = sum(row[4] for row in rows)
    if telemetry is not None and telemetry.clock == "sim":
        _replay_sample(rows, telemetry)
    if collect:
        # Chunk-index order == vertex order: the emission sequence is a
        # pure function of the graph, whatever the workers did.
        for _, _, _, _, _, groups in rows:
            for u, v, ws in groups:
                sink.emit(u, v, ws)

    for report in result.worker_reports:
        if attribution is not None and report.attribution is not None:
            attribution.merge_snapshot(report.attribution)
        if run_report is not None:
            run_report.registry.merge_snapshot(report.snapshot)
        if trace is not None:
            for event in report.events:
                if event.dur is None:
                    trace.instant(event.name, ts=anchor_rel + event.ts,
                                  track=event.track, **event.args)
                else:
                    trace.complete(event.name, anchor_rel + event.ts,
                                   event.dur, track=event.track,
                                   **event.args)
    if trace is not None:
        trace.complete("parallel.merge", merge_started,
                       trace.now() - merge_started,
                       workers=result.workers,
                       chunks=len(result.chunk_bounds))
    return triangles, ops


def triangulate_parallel(
    graph: Graph,
    *,
    workers: int = 2,
    chunks: int | None = None,
    ordering: str | None = None,
    sink: TriangleSink | None = None,
    report: RunReport | None = None,
    trace: EventTracer | None = None,
    telemetry: TelemetrySampler | None = None,
    straggler: StragglerPolicy | None = None,
    attribution=None,
) -> TriangulationResult:
    """List all triangles of *graph* with *workers* processes.

    Parameters
    ----------
    graph:
        The input graph; published once into shared memory, never
        pickled per worker.
    workers:
        Process count.  ``1`` runs the identical chunked pipeline
        in-process (no fork, no shared memory) — the reference point the
        differential tests compare higher worker counts against.
    chunks:
        Work-queue chunk count; defaults to
        :func:`repro.parallel.chunks.default_chunk_count` (4x
        oversubscription so idle workers have something to steal).
    ordering:
        Optional vertex relabeling applied before the run (an
        :class:`~repro.graph.ordering.Ordering` name; ``"auto"``
        resolves through
        :func:`~repro.graph.ordering.choose_ordering`).  Emitted
        triangle groups then carry the *relabeled* ids; the resolved
        name lands in ``extra["ordering"]`` and the report meta.
        ``None`` (default) runs the graph as given — callers that
        already ordered their input keep byte-identical behavior.
    sink:
        Optional receiver of nested ``<u, v, {w...}>`` groups, emitted
        in deterministic chunk order; defaults to a counting sink.
    report:
        Optional :class:`RunReport`; worker metric snapshots are folded
        into its registry (``parallel.*`` counters, per-phase
        ``triangles``) plus the parent-side ``parallel.workers`` and
        ``run.elapsed_wall`` gauges.
    trace:
        Optional wall-clock :class:`EventTracer`; worker slices land on
        one ``parallel/w<id>`` track per worker.
    telemetry:
        Optional :class:`TelemetrySampler`.  A wall-clock sampler is
        fed live from the parent's heartbeat monitor loop (per-worker
        progress in each tick's ``workers`` section).  A sim-clock
        sampler instead gets a deterministic post-merge replay of the
        chunk stream — byte-identical ticks across runs and worker
        counts — and is rebound to a private replay registry.
    straggler:
        Optional :class:`StragglerPolicy` enabling heartbeat monitoring
        (it also switches on implicitly when a wall-clock *telemetry*
        sampler is passed): workers publish progress beats, laggards are
        flagged via ``parallel.straggler``, and with a ``deadline`` set
        a silent worker raises :class:`ParallelError` promptly instead
        of hanging the join.  Monitoring is fully off by default — the
        determinism contract of plain runs is untouched.
    attribution:
        Optional :class:`~repro.obs.attribution.Attribution`.  Workers
        charge private tables under the constant coordinate
        ``(parallel, hash, shm)`` with per-pair degree buckets and ship
        deterministic snapshots; the parent folds them in worker order.
        Because cells are integer sums, the merged table is byte-identical
        across worker counts, and its ``total_ops`` equals the run's
        Eq. 3 op count.  The parent's wall time is attributed separately
        (excluded from the deterministic snapshot).

    Returns the usual :class:`TriangulationResult`; ``extra["parallel"]``
    carries the merged :class:`ParallelResult`.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    resolved_ordering: str | None = None
    if ordering is not None:
        from repro.graph.ordering import Ordering, apply_ordering, choose_ordering

        resolved = Ordering(ordering)
        if resolved is Ordering.AUTO:
            resolved = choose_ordering(graph)
        graph, _ = apply_ordering(graph, resolved)
        resolved_ordering = resolved.value
    if trace is not None and not trace.enabled:
        trace = None
    if trace is not None and trace.clock != "wall":
        raise ConfigurationError(
            "triangulate_parallel records wall-clock events; pass a "
            "clock='wall' tracer"
        )
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    if telemetry is not None and telemetry.clock == "wall":
        # Sim-clock samplers are (re)bound by the merge replay instead.
        telemetry.bind(report.registry if report is not None
                       else MetricsRegistry())
    collect = sink is not None
    if sink is None:
        sink = CountSink()
    if chunks is None:
        chunks = default_chunk_count(graph, workers)
    chunk_bounds = plan_chunks(graph, chunks)

    start_wall = time.perf_counter()
    anchor_rel = trace.now() if trace is not None else 0.0
    scope = dict(phase="parallel", kernel="hash", source="shm")
    live_telemetry = (telemetry if telemetry is not None
                      and telemetry.clock == "wall" else None)
    parallel_result = run_pool(
        _GraphHandle(graph), chunk_bounds, workers=workers, kernel="hash",
        collect=collect, anchor=start_wall,
        scope=scope if attribution is not None else None,
        straggler=straggler, telemetry=live_telemetry,
        registry=(report.registry if report is not None
                  else live_telemetry.registry
                  if live_telemetry is not None else None),
        trace=trace,
    )
    triangles, ops = _merge(parallel_result, sink, collect, report, trace,
                            anchor_rel, telemetry, attribution)
    elapsed = time.perf_counter() - start_wall
    if attribution is not None:
        attribution.scope(**scope).charge_time(elapsed)
    extra = {
        "workers": parallel_result.workers,
        "chunks": list(chunk_bounds),
        "steals": parallel_result.steals,
        "parallel": parallel_result,
    }
    if resolved_ordering is not None:
        extra["ordering"] = resolved_ordering
    if report is not None:
        if resolved_ordering is not None:
            report.meta.setdefault("parallel.ordering", resolved_ordering)
        report.gauge("parallel.workers").set(parallel_result.workers)
        report.gauge("run.elapsed_wall").set(elapsed)
        extra["report"] = report
    return TriangulationResult(
        triangles=triangles,
        cpu_ops=ops,
        elapsed=elapsed,
        extra=extra,
    )
