"""Real-thread OPT execution against an on-disk page file.

Where :func:`repro.core.engine.triangulate_disk` charges costs to the
discrete-event simulator, this engine runs the paper's thread structure
for real: the *main thread* issues asynchronous reads (Algorithm 3),
fills the internal area, and finds internal triangles, while the SSD
reader pool and the *callback thread* concurrently load external pages
and find external triangles (Algorithms 7 and 9).  ``os.pread`` releases
the GIL, so the I/O genuinely overlaps the main thread's Python CPU work;
the two CPU streams interleave under the GIL (real multi-core speed-up is
what the discrete-event engine models).

Triangle counts are exact and wall-clock ``elapsed`` is real time — used
by the correctness tests and the quickstart, not by the paper-figure
benchmarks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path

from repro.analysis.costs import cost_conformance
from repro.core.context import ChunkContext
from repro.core.engine import resolve_plugin
from repro.core.framework import _assemble_adjacency, _fold_fault_log
from repro.core.plugins import IteratorPlugin
from repro.core.result_store import GroupCaptureSink, RunCheckpoint
from repro.errors import ConfigurationError
from repro.exec.kernels import HashKernel
from repro.graph.graph import Graph
from repro.memory.base import CountSink, TriangleSink, TriangulationResult
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    RunReport,
    TelemetrySampler,
    fold_trace_analytics,
    get_logger,
)
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace
from repro.storage.faults import FaultPlan, FaultyPageFile, RetryPolicy
from repro.storage.layout import GraphStore
from repro.storage.page import DEFAULT_PAGE_SIZE, PageRecord
from repro.storage.ssd import ThreadedSSD

__all__ = ["triangulate_threaded"]

logger = get_logger(__name__)


class _LockedSink:
    """Serializes emissions from the main and callback threads."""

    def __init__(self, inner: TriangleSink):
        self._inner = inner
        self._lock = threading.Lock()
        self.count = 0

    def emit(self, u, v, ws):
        with self._lock:
            self.count += len(ws)
            self._inner.emit(u, v, ws)


def triangulate_threaded(
    source: Graph | GraphStore,
    directory: str | Path,
    *,
    plugin: IteratorPlugin | str = "edge-iterator",
    buffer_pages: int = 8,
    page_size: int = DEFAULT_PAGE_SIZE,
    io_workers: int = 4,
    window: int = 4,
    sink: TriangleSink | None = None,
    report: RunReport | None = None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint: RunCheckpoint | None = None,
    trace: EventTracer | None = None,
    telemetry: TelemetrySampler | None = None,
) -> TriangulationResult:
    """Run OPT with real threads and real file I/O.

    *directory* receives the materialized page file; ``buffer_pages`` is
    split evenly into internal and external areas as in the paper, and
    ``window`` bounds the outstanding external read requests (the
    external area's frame count in flight).

    With a :class:`~repro.obs.RunReport` *report*, the SSD counts device
    reads, async-read queue depth, and callback latency into the report's
    registry, and each iteration emits a wall-clock span.

    With a :class:`~repro.storage.faults.FaultPlan`, the page file is
    wrapped in a :class:`~repro.storage.faults.FaultyPageFile` that
    injects the plan's faults *for real* (sleeps, raised errors,
    corrupted bytes), and the SSD recovers per *retry_policy*: failing
    reads retry with backoff, and reads whose completion is lost
    (``dropped_callback`` / ``stall`` faults, which *require* a
    ``retry_policy.timeout``) are reclaimed at the iteration barrier and
    degraded to a synchronous re-read.  A fault that outlasts the policy
    surfaces as :class:`~repro.errors.FaultExhaustedError` from
    ``wait_idle`` — never a silently wrong triangle listing.

    With a :class:`~repro.core.result_store.RunCheckpoint`, each
    completed iteration commits its emitted groups; committed iterations
    are replayed on resume instead of being re-triangulated.

    With a :class:`~repro.obs.TelemetrySampler` *telemetry* (wall clock
    only — this engine's timeline is real time), the run ticks at every
    iteration barrier, rate-limited by the sampler's interval, so
    ``repro top`` can follow buffer hit rates and SSD queue depth live.

    With an :class:`~repro.obs.EventTracer` *trace* (wall clock), both
    timelines land on the event stream: the main thread's ``fill`` /
    ``internal`` / ``iteration`` slices, and the SSD's ``read.submit`` /
    ``read.service`` / ``read.callback`` events on the reader and
    callback threads — one Perfetto track per thread.  With a *report*
    too, the trace's overlap analytics (macro/micro overlap ratios,
    per-thread utilization) and the measured-vs-``Cost_OPTserial``
    conformance check are folded into ``report.derived``.
    """
    if buffer_pages < 2:
        raise ConfigurationError("buffer must hold at least two pages")
    plugin = resolve_plugin(plugin)
    if plugin.rescan_all:
        raise ConfigurationError(
            "the threaded engine implements OPT's overlapped request list; "
            "full-rescan plugins (MGT) use synchronous streaming — run them "
            "through triangulate_disk instead"
        )
    if isinstance(source, GraphStore):
        store = source
    elif report is not None:
        with report.span("pack", page_size=page_size):
            store = GraphStore.from_graph(source, page_size)
    else:
        store = GraphStore.from_graph(source, page_size)
    m_in = buffer_pages // 2
    tracer = trace if trace is not None and trace.enabled else None
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    if telemetry is not None:
        if telemetry.clock != "wall":
            raise ConfigurationError(
                "triangulate_threaded runs on real time; pass a "
                "clock='wall' telemetry sampler"
            )
        telemetry.bind(report.registry if report is not None
                       else MetricsRegistry())
    base_sink = sink if sink is not None else CountSink()
    locked_sink = _LockedSink(base_sink)
    if checkpoint is not None:
        checkpoint.bind(num_pages=store.num_pages, plugin=plugin.name,
                        m_in=m_in)
    if report is not None:
        report.meta.update(
            engine="triangulate_threaded", plugin=plugin.name,
            num_pages=store.num_pages, buffer_pages=buffer_pages,
            io_workers=io_workers, window=window,
        )

    run_trace = RunTrace(num_pages=store.num_pages, m_in=m_in, m_ex=window,
                         sync_external=False)
    # One binding per intersecting thread: the main thread (Algorithm 5)
    # and the SSD's callback thread (Algorithm 9) run concurrently.
    bindings = (HashKernel().bind(store.num_vertices),
                HashKernel().bind(store.num_vertices))
    start = time.perf_counter()
    iterations = 0
    page_file = store.open_page_file(directory)
    try:
        device = (FaultyPageFile(page_file, fault_plan, tracer=tracer)
                  if fault_plan is not None else page_file)
        registry = report.registry if report is not None else None
        with ThreadedSSD(device, io_workers=io_workers,
                         registry=registry, retry_policy=retry_policy,
                         tracer=tracer) as ssd:
            pid = 0
            while pid < store.num_pages:
                end = store.align_chunk_end(pid, m_in)
                if checkpoint is not None and checkpoint.has(iterations):
                    replayed = checkpoint.replay_into(iterations, locked_sink)
                    logger.debug("threaded iteration %d: replayed %d "
                                 "triangles from checkpoint",
                                 iterations, replayed)
                    run_trace.iterations.append(IterationTrace())
                    if report is not None:
                        report.counter("recovery.checkpoint.replayed").inc()
                    iterations += 1
                    pid = end + 1
                    continue
                iteration_sink = (GroupCaptureSink(locked_sink)
                                  if checkpoint is not None else locked_sink)
                logger.debug("threaded iteration %d: pages %d..%d",
                             iterations, pid, end)
                with (report.span("iteration", index=iterations)
                      if report is not None else nullcontext()):
                    itrace = _run_iteration(store, ssd, plugin,
                                            iteration_sink, bindings, pid,
                                            end, window, tracer, iterations)
                run_trace.iterations.append(itrace)
                if checkpoint is not None:
                    checkpoint.record(iterations, pid, end,
                                      iteration_sink.groups)
                    if report is not None:
                        report.counter("recovery.checkpoint.saved").inc()
                iterations += 1
                pid = end + 1
                if telemetry is not None:
                    telemetry.maybe_sample()
            pages_read = ssd.pages_read
    finally:
        page_file.close()
    elapsed = time.perf_counter() - start
    run_trace.triangles = locked_sink.count
    if report is not None:
        report.gauge("run.elapsed_wall").set(elapsed)
        report.counter("triangles", phase="total").inc(locked_sink.count)
        report.counter("opt.iterations").inc(iterations)
        if fault_plan is not None:
            _fold_fault_log(fault_plan, report)
        report.derive("cost_conformance",
                      cost_conformance(run_trace, elapsed, DEFAULT_COST_MODEL,
                                       basis="wall"))
        if tracer is not None:
            fold_trace_analytics(report, tracer)
    extra = {"engine": "threaded", "store": store, "trace": run_trace}
    if tracer is not None:
        extra["tracer"] = tracer
    if report is not None:
        extra["report"] = report
    return TriangulationResult(
        triangles=locked_sink.count,
        pages_read=pages_read,
        elapsed=elapsed,
        iterations=iterations,
        extra=extra,
    )


def _run_iteration(
    store: GraphStore,
    ssd: ThreadedSSD,
    plugin: IteratorPlugin,
    sink: _LockedSink,
    bindings: tuple,
    pid: int,
    end: int,
    window: int,
    tracer: EventTracer | None = None,
    index: int = 0,
) -> IterationTrace:
    # -- fill the internal area (Algorithm 3 lines 6-8) --------------------
    # Candidate identification runs on the callback thread while later
    # fill reads are still in flight (the paper's Algorithm 7 placement).
    itrace = IterationTrace()
    iteration_start = tracer.now() if tracer is not None else 0.0
    chunk_records: dict[int, list[PageRecord]] = {}
    v_lo, v_hi = store.chunk_vertex_range(pid, end)
    main_binding, callback_binding = bindings
    ctx = ChunkContext(v_lo, v_hi, {}, sink, main_binding)
    callback_ctx = ctx.with_binding(callback_binding)

    def identify_candidates(records, page_id):
        # Distinct page_id per callback, and the single callback thread
        # serializes the stores; the main thread reads chunk_records only
        # after wait_idle().  # lint: ignore[lockset]
        chunk_records[page_id] = records
        for record in records:
            candidates, ops = plugin.candidates_for_record(ctx, record)
            # Callback-thread-only until wait_idle().  # lint: ignore[lockset]
            itrace.candidate_ops += ops
            for candidate in candidates:
                ctx.add_request(int(candidate), record.vertex)

    for page_id in range(pid, end + 1):
        ssd.async_read(page_id, identify_candidates, (page_id,))
    ssd.wait_idle()
    itrace.fill_reads = end - pid + 1
    if tracer is not None:
        tracer.complete("fill", iteration_start,
                        tracer.now() - iteration_start,
                        reads=itrace.fill_reads, index=index)

    # Assemble the chunk's full adjacency lists (read-only afterwards).
    ctx.extend_adjacency(_assemble_adjacency(
        chunk_records[page_id] for page_id in range(pid, end + 1)))

    # -- delegate the external triangulation (Algorithm 4) ------------------
    pages_needed: set[int] = set()
    for candidate in ctx.requesters:
        pages_needed.update(store.pages_of_candidate(candidate))
    pending = deque(sorted(pages_needed - set(range(pid, end + 1)), reverse=True))
    issue_lock = threading.Lock()

    def external_triangle(records, page_id):
        # Runs on the callback thread, concurrently with the main thread's
        # internal triangulation below (macro-level overlap).  The SSD's
        # single callback thread serializes these, so the append is safe.
        ops = 0
        for record in records:
            if record.vertex in ctx.requesters:
                ops += plugin.external_ops_for_record(callback_ctx, record)
        # Serialized by the single callback thread; the main thread reads
        # external_reads only after wait_idle().  # lint: ignore[lockset]
        itrace.external_reads.append(ExternalRead(pid=page_id, cpu_ops=ops))
        with issue_lock:  # Algorithm 9's atomic issue of the next request
            if pending:
                next_pid = pending.popleft()
                ssd.async_read(next_pid, external_triangle, (next_pid,))

    with issue_lock:
        for _ in range(min(window, len(pending))):
            next_pid = pending.popleft()
            ssd.async_read(next_pid, external_triangle, (next_pid,))

    # -- internal triangulation on the main thread (Algorithm 5) -----------
    internal_start = tracer.now() if tracer is not None else 0.0
    for page_id in range(pid, end + 1):
        itrace.internal_page_ops.append(
            plugin.internal_ops_for_page(ctx, chunk_records[page_id]))
    if tracer is not None:
        tracer.complete("internal", internal_start,
                        tracer.now() - internal_start, index=index)

    # -- iteration barrier (Algorithm 3 line 11) -----------------------------
    ssd.wait_idle()
    if tracer is not None:
        tracer.complete("iteration", iteration_start,
                        tracer.now() - iteration_start, index=index)
    return itrace
