"""Unified observability: metrics registry, phase spans, run reports.

Every measurement the reproduction makes — I/O page counts, intersection
operations, buffer hit rates, simulated and wall-clock phase times — flows
through this package so that one run produces one comparable artifact:

* :class:`MetricsRegistry` — dependency-free counters, gauges, and
  histograms with labels, safe to update from the SSD callback thread;
* :class:`EventTracer` — causal event tracing on both timelines, with
  Chrome ``trace_event`` (Perfetto) export, an ASCII Gantt renderer,
  and overlap analytics (:mod:`repro.obs.trace`); its complete events
  are the one record of phase time, and :func:`span_tree` nests them
  into a tree carrying wall-clock and simulated seconds;
* :class:`RunReport` — the export path: ``report.span()`` records onto
  the report's own wall-clock tracer (``report.tracer``); JSON / JSONL
  serialization, an ASCII summary table, and a stable schema that
  ``BENCH_*.json`` trajectory files and the CLI's ``--report`` flag
  share;
* :mod:`repro.obs.vocab` — the canonical metric / trace-event name
  vocabulary every emitter must draw from (statically enforced by the
  ``obs-vocab`` rule of :mod:`repro.lint`).

The engines accept ``report=`` and record into it; nothing here imports
anything outside the standard library, so storage/sim/core modules can
depend on it freely.
"""

from repro.obs.attribution import (
    Attribution,
    AttributionScope,
    degree_bucket,
    render_attribution,
    validate_attribution_dict,
)
from repro.obs.expose import expose_text, read_telemetry_jsonl, render_top
from repro.obs.history import (
    PerfHistory,
    PerfRecord,
    headline_elapsed,
    render_trend,
    validate_history_dict,
)
from repro.obs.logsetup import configure_logging, get_logger
from repro.obs.profile import (
    StackSampler,
    collapsed_text,
    to_speedscope,
    validate_speedscope,
    write_speedscope,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    RunReport,
    validate_report_dict,
)
from repro.obs.series import Series, SeriesBank
from repro.obs.telemetry import TelemetrySampler, fold_telemetry
from repro.obs.trace import (
    TRACE_SCHEMA_NAME,
    TRACE_SCHEMA_VERSION,
    EventTracer,
    TraceEvent,
    ascii_gantt,
    fold_trace_analytics,
    from_chrome_trace,
    overlap_analytics,
    span_tree,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.vocab import (
    EXTERNAL_CPU_EVENTS,
    METRIC_NAMES,
    TRACE_EVENT_NAMES,
    WORK_EVENTS,
    is_metric_name,
    is_trace_event_name,
)

__all__ = [
    "EXTERNAL_CPU_EVENTS",
    "METRIC_NAMES",
    "TRACE_EVENT_NAMES",
    "WORK_EVENTS",
    "is_metric_name",
    "is_trace_event_name",
    "Attribution",
    "AttributionScope",
    "Counter",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PerfHistory",
    "PerfRecord",
    "RunReport",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "Series",
    "SeriesBank",
    "StackSampler",
    "TRACE_SCHEMA_NAME",
    "TRACE_SCHEMA_VERSION",
    "TelemetrySampler",
    "TraceEvent",
    "ascii_gantt",
    "collapsed_text",
    "configure_logging",
    "degree_bucket",
    "expose_text",
    "fold_telemetry",
    "fold_trace_analytics",
    "from_chrome_trace",
    "get_logger",
    "headline_elapsed",
    "overlap_analytics",
    "read_telemetry_jsonl",
    "render_attribution",
    "render_top",
    "render_trend",
    "span_tree",
    "to_chrome_trace",
    "to_speedscope",
    "validate_attribution_dict",
    "validate_history_dict",
    "validate_chrome_trace",
    "validate_speedscope",
    "write_chrome_trace",
    "write_speedscope",
]
