"""The OPT driver: Algorithm 3 with its callbacks (Algorithms 4, 5, 7, 9).

``run_opt`` executes the *real* algorithm against a page store: it fills
the internal area chunk by chunk, identifies external candidate vertices
while loading (Algorithm 7), builds the descending-ordered request list
(Algorithm 4 — so the pages the *next* chunk needs are the last through
the external area and stay buffered, the paper's ``Δin`` saving), finds
internal triangles per page (Algorithm 5) and external triangles per
arrived candidate chunk (Algorithm 9).

The driver produces exact triangles plus a :class:`~repro.sim.trace.RunTrace`
describing every iteration's I/O and per-page CPU cost; the discrete-event
scheduler replays the trace under any core/morphing configuration.  This
separation is what makes a single execution serve a whole speed-up curve.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.context import ChunkContext
from repro.core.plugins import EdgeIteratorPlugin, IteratorPlugin
from repro.core.result_store import GroupCaptureSink, RunCheckpoint
from repro.errors import ConfigurationError
from repro.exec.kernels import HashKernel
from repro.memory.base import CountSink, TriangleSink
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    RunReport,
    TelemetrySampler,
    get_logger,
)
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace
from repro.storage.buffer import BufferManager
from repro.storage.faults import FaultPlan, RecoveringLoader, RetryPolicy
from repro.storage.layout import GraphStore

__all__ = ["OPTConfig", "run_opt"]

logger = get_logger(__name__)


class _PhaseSink:
    """Wraps a sink to attribute emitted triangles to the current phase."""

    def __init__(self, inner: TriangleSink, report: RunReport):
        self._inner = inner
        self._report = report
        self.phase = "internal"

    def emit(self, u: int, v: int, ws: Sequence[int]) -> None:
        self._report.counter("triangles", phase=self.phase).inc(len(ws))
        self._inner.emit(u, v, ws)

    def __getattr__(self, name):  # pages_written, count, ...
        return getattr(self._inner, name)


def _span(report: RunReport | None, name: str, **attrs):
    """A report span, or a no-op when observability is off."""
    if report is None:
        return nullcontext()
    return report.span(name, **attrs)


@dataclass
class OPTConfig:
    """Static configuration of one OPT run.

    ``m_in`` / ``m_ex`` are the internal- and external-area sizes in
    pages.  The paper splits the memory budget evenly (``m_in = m_ex =
    m / 2``) to maximize the buffering effect of Algorithm 4's load order;
    :meth:`even_split` builds that configuration from a total budget.
    """

    m_in: int
    m_ex: int
    plugin: IteratorPlugin = field(default_factory=EdgeIteratorPlugin)

    def __post_init__(self) -> None:
        if self.m_in < 1 or self.m_ex < 1:
            raise ConfigurationError("m_in and m_ex must be at least one page")

    @classmethod
    def even_split(cls, total_pages: int, plugin: IteratorPlugin | None = None) -> "OPTConfig":
        """Split a total budget of *total_pages* evenly, as the paper does."""
        if total_pages < 2:
            raise ConfigurationError("memory budget must be at least two pages")
        half = total_pages // 2
        return cls(m_in=half, m_ex=total_pages - half,
                   plugin=plugin or EdgeIteratorPlugin())


def run_opt(
    store: GraphStore,
    config: OPTConfig,
    sink: TriangleSink | None = None,
    report: RunReport | None = None,
    *,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint: RunCheckpoint | None = None,
    tracer: EventTracer | None = None,
    telemetry: TelemetrySampler | None = None,
    attribution=None,
) -> RunTrace:
    """Run OPT over *store* and return the trace (with real triangles).

    The buffer manager holds ``m_in + m_ex`` frames; internal-chunk pages
    are pinned for their iteration, external pages cycle through the
    remaining frames under LRU — which is how the saved I/O ``Δin``
    arises rather than being assumed.

    With a :class:`~repro.obs.RunReport` *report*, every phase emits a
    wall-clock span (``fill`` → ``identify-candidates`` →
    ``external-triangulation`` → ``internal-triangulation`` per
    iteration), the buffer manager counts hits/misses/evictions into the
    report's registry, and triangles are attributed to the phase that
    found them (``triangles{phase=internal}`` / ``{phase=external}``).

    With an :class:`~repro.obs.EventTracer` *tracer*, the buffer manager
    and the fault layer mark hits / evictions / injections on the event
    timeline as they happen.  A wall-clock tracer timestamps them in real
    time; a sim-clock tracer silently drops them (the deterministic sim
    timeline comes from replaying the returned trace through
    :func:`repro.sim.schedule.simulate` with the same tracer).

    With a :class:`~repro.storage.faults.FaultPlan`, every page load goes
    through a :class:`~repro.storage.faults.RecoveringLoader`: the plan's
    seeded faults fire in *virtual* time, recoverable ones are retried
    per *retry_policy* (``recovery.retries``), and the injected latency
    plus backoff is charged to the trace (``fill_delay`` /
    ``ExternalRead.delay``) so the discrete-event replay shows the same
    dual-timeline report a clean run would — just slower.  A fault that
    outlasts the retry budget raises the typed
    :class:`~repro.errors.FaultExhaustedError`.

    With a :class:`~repro.core.result_store.RunCheckpoint`, each
    completed iteration commits its emitted groups and measured trace;
    on resume, committed iterations are *replayed* from the checkpoint
    (``recovery.checkpoint.replayed``) and execution restarts at the
    first uncommitted chunk — no already-emitted triangle is listed
    twice.

    With a :class:`~repro.obs.TelemetrySampler` *telemetry*, the driver
    samples at iteration boundaries: one tick before the first chunk and
    one after each completed iteration.  A sim-clock sampler ticks at
    the iteration *ordinal* (``t = 0, 1, 2, ...``) so its JSONL stream
    is byte-deterministic; a wall-clock sampler ticks rate-limited by
    its interval.

    With an :class:`~repro.obs.attribution.Attribution` *attribution*,
    every plugin op charge lands in a ``(phase, plugin, disk,
    degree-bucket)`` cell — phases ``candidate`` / ``external`` /
    ``internal`` (Algorithms 7 / 9 / 5), degree bucketed by the record's
    neighbor-fragment length — and each phase's wall time is attributed
    at phase granularity.  Per-bucket op sums conserve the trace's
    ``candidate_ops`` / ``external_ops`` / ``internal_ops`` exactly.
    """
    if sink is None:
        sink = CountSink()
    if report is not None:
        sink = _PhaseSink(sink, report)
    if tracer is not None and not tracer.enabled:
        tracer = None
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    if telemetry is not None:
        telemetry.bind(report.registry if report is not None
                       else MetricsRegistry())
    plugin = config.plugin
    if attribution is not None:
        attr_candidate = attribution.scope(
            phase="candidate", kernel=plugin.name, source="disk")
        attr_external = attribution.scope(
            phase="external", kernel=plugin.name, source="disk")
        attr_internal = attribution.scope(
            phase="internal", kernel=plugin.name, source="disk")
    else:
        attr_candidate = attr_external = attr_internal = None
    reader: RecoveringLoader | None = None
    loader = store.decode_page
    if fault_plan is not None:
        reader = RecoveringLoader(
            store.decode_page, fault_plan, retry_policy,
            registry=report.registry if report is not None else None,
            tracer=tracer,
        )
        loader = reader
    if checkpoint is not None:
        checkpoint.bind(num_pages=store.num_pages, plugin=plugin.name,
                        m_in=config.m_in)
    trace = RunTrace(num_pages=store.num_pages, m_in=config.m_in,
                     m_ex=1 if plugin.sync_external else config.m_ex,
                     sync_external=plugin.sync_external)
    if store.num_pages == 0:
        return trace

    # Pre-compute the chunk boundaries: a chunk may exceed m_in when a
    # single adjacency list spans more pages (DESIGN.md §2), in which case
    # the frame budget grows to hold it — the paper's "internal area must
    # be large enough to load at least one adjacency list".
    chunks: list[tuple[int, int]] = []
    pid = 0
    while pid < store.num_pages:
        end = store.align_chunk_end(pid, config.m_in)
        chunks.append((pid, end))
        pid = end + 1
    max_chunk = max(end - start + 1 for start, end in chunks)
    capacity = max(config.m_in, max_chunk) + config.m_ex
    buffer = BufferManager(capacity, loader=loader,
                           registry=report.registry if report else None,
                           tracer=tracer)
    binding = HashKernel().bind(store.num_vertices)

    output_pages_before = getattr(sink, "pages_written", 0)
    if telemetry is not None:
        # The opening tick: t=0 in sim mode, "now" on the wall clock.
        telemetry.sample(0.0 if telemetry.clock == "sim" else None)
    with _span(report, "run-opt", plugin=plugin.name, m_in=config.m_in,
               m_ex=config.m_ex):
        for index, (pid, end) in enumerate(chunks):
            if checkpoint is not None and checkpoint.has(index):
                # Committed by an earlier (failed) run: replay the stored
                # output instead of re-listing the chunk's triangles.
                replayed = checkpoint.replay_into(index, sink)
                stored = checkpoint.trace_of(index)
                trace.iterations.append(
                    IterationTrace.from_dict(stored) if stored
                    else IterationTrace()
                )
                logger.debug("iteration %d: replayed %d triangles from "
                             "checkpoint", index, replayed)
                if report is not None:
                    report.counter("recovery.checkpoint.replayed").inc()
                    report.counter("opt.iterations").inc()
                _sample_iteration(telemetry, index)
                continue
            iteration = IterationTrace()
            iteration_sink = (GroupCaptureSink(sink) if checkpoint is not None
                              else sink)
            logger.debug("iteration %d: internal pages %d..%d", index, pid, end)

            with _span(report, "iteration", index=index):
                # -- fill the internal area (Algorithm 3 lines 6-8) ----------
                chunk_pages = list(range(pid, end + 1))
                chunk_records = []
                with _span(report, "fill"):
                    for page_id in chunk_pages:
                        hit = page_id in buffer
                        frame = buffer.get(page_id, pin=True)
                        if hit and not plugin.rescan_all:
                            iteration.fill_buffered += 1
                        else:
                            iteration.fill_reads += 1
                        if reader is not None:
                            iteration.fill_delay += reader.take_delay()
                        chunk_records.append(frame.records)

                v_lo, v_hi = store.chunk_vertex_range(pid, end)
                adjacency = _assemble_adjacency(chunk_records)
                ctx = ChunkContext(v_lo, v_hi, adjacency, iteration_sink,
                                   binding)

                # -- candidate identification (Algorithm 7 per record) -------
                with _span(report, "identify-candidates"):
                    phase_started = time.perf_counter()
                    for records in chunk_records:
                        for record in records:
                            candidates, ops = plugin.candidates_for_record(
                                ctx, record)
                            iteration.candidate_ops += ops
                            if attr_candidate is not None:
                                attr_candidate.charge(
                                    len(record.neighbors), ops)
                            for candidate in candidates:
                                ctx.add_request(int(candidate), record.vertex)
                    if attr_candidate is not None:
                        attr_candidate.charge_time(
                            time.perf_counter() - phase_started)

                    # -- build the request list (Algorithm 4) ----------------
                    if plugin.rescan_all:
                        # MGT streams the whole input file once per iteration
                        # (its I/O cost bound, Eq. 7); no buffering credit for
                        # re-read pages.
                        ordered = list(range(store.num_pages))
                    else:
                        pages_needed: set[int] = set()
                        for candidate in ctx.requesters:
                            pages_needed.update(
                                store.pages_of_candidate(candidate))
                        # Descending page ids: the next chunk's pages are
                        # loaded last and survive in the external area (the
                        # paper's Δin trick).
                        ordered = sorted(pages_needed - set(chunk_pages),
                                         reverse=True)

                # -- external triangulation (Algorithm 9 per page) -----------
                if report is not None:
                    sink.phase = "external"
                with _span(report, "external-triangulation"):
                    phase_started = time.perf_counter()
                    for page_id in ordered:
                        hit = page_id in buffer
                        frame = buffer.get(page_id, pin=True)
                        delay = reader.take_delay() if reader is not None else 0.0
                        ops = 0
                        for record in frame.records:
                            if record.vertex in ctx.requesters:
                                record_ops = plugin.external_ops_for_record(
                                    ctx, record)
                                ops += record_ops
                                if attr_external is not None:
                                    attr_external.charge(
                                        len(record.neighbors), record_ops)
                        buffer.unpin(page_id)
                        buffered = hit and not plugin.rescan_all
                        iteration.external_reads.append(
                            ExternalRead(pid=page_id, cpu_ops=ops,
                                         buffered=buffered, delay=delay)
                        )
                    if attr_external is not None:
                        attr_external.charge_time(
                            time.perf_counter() - phase_started)

                # -- internal triangulation (Algorithm 5, per page) ----------
                if report is not None:
                    sink.phase = "internal"
                with _span(report, "internal-triangulation"):
                    phase_started = time.perf_counter()
                    for records in chunk_records:
                        if attr_internal is None:
                            page_ops = plugin.internal_ops_for_page(
                                ctx, records)
                        else:
                            # Every plugin processes records independently,
                            # so per-record calls sum to the page call —
                            # same trace, but degree-bucketed attribution.
                            page_ops = 0
                            for record in records:
                                record_ops = plugin.internal_ops_for_page(
                                    ctx, [record])
                                attr_internal.charge(
                                    len(record.neighbors), record_ops)
                                page_ops += record_ops
                        iteration.internal_page_ops.append(page_ops)
                    if attr_internal is not None:
                        attr_internal.charge_time(
                            time.perf_counter() - phase_started)

                # -- unpin the chunk (Algorithm 3 lines 12-13) ---------------
                for page_id in chunk_pages:
                    buffer.unpin(page_id)

            output_pages_now = getattr(sink, "pages_written", 0)
            iteration.output_pages = output_pages_now - output_pages_before
            output_pages_before = output_pages_now

            if report is not None:
                report.counter("opt.fill.reads").inc(iteration.fill_reads)
                report.counter("opt.fill.buffered").inc(iteration.fill_buffered)
                report.counter("opt.candidate.ops").inc(iteration.candidate_ops)
                report.counter("opt.internal.ops").inc(iteration.internal_ops)
                report.counter("opt.external.ops").inc(iteration.external_ops)
                report.counter("opt.external.reads").inc(
                    iteration.external_device_reads)
                report.counter("opt.external.buffered").inc(
                    iteration.external_buffered)
                report.counter("opt.iterations").inc()

            trace.iterations.append(iteration)
            _sample_iteration(telemetry, index)

            if checkpoint is not None:
                checkpoint.record(index, pid, end, iteration_sink.groups,
                                  trace=iteration.to_dict())
                if report is not None:
                    report.counter("recovery.checkpoint.saved").inc()

    trace.triangles = getattr(sink, "count", 0)
    if report is not None:
        report.counter("opt.pages_read").inc(trace.total_device_reads)
        if fault_plan is not None:
            _fold_fault_log(fault_plan, report)
    return trace


def _sample_iteration(telemetry: TelemetrySampler | None, index: int) -> None:
    """One telemetry tick at an iteration boundary.

    Sim clock: the tick's timestamp is the iteration ordinal (``index``
    completing means ``t = index + 1``), the deterministic time axis.
    Wall clock: a rate-limited tick at the sampler's interval.
    """
    if telemetry is None:
        return
    if telemetry.clock == "sim":
        telemetry.sample(float(index + 1), iteration=index)
    else:
        telemetry.maybe_sample()


def _fold_fault_log(fault_plan: FaultPlan, report: RunReport) -> None:
    """Mirror the plan's injection log into the report's registry.

    Each ``inject:<kind>`` tally from the event log becomes the
    ``faults.injected{kind=...}`` counter, so the RunReport alone tells
    what the plan actually did.  FaultPlans are single-run objects: reuse
    one across runs and these counts would double.
    """
    for key, value in fault_plan.log.counts().items():
        if key.startswith("inject:"):
            kind = key.split(":", 1)[1]
            counter = report.counter("faults.injected", kind=kind)
            delta = value - counter.value
            if delta > 0:
                counter.inc(delta)


def _assemble_adjacency(chunk_records) -> dict:
    """Concatenate record chunks into full adjacency lists per vertex."""
    import numpy as np

    partial: dict[int, list] = {}
    for records in chunk_records:
        for record in records:
            partial.setdefault(record.vertex, []).append(record.neighbors)
    return {
        vertex: (parts[0] if len(parts) == 1 else np.concatenate(parts))
        for vertex, parts in partial.items()
    }
