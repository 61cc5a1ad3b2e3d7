"""Causal event tracing: discrete timestamped events on both timelines.

This module records *when things happened* — the raw material for
showing the paper's temporal claims.  OPT's whole argument is about
concurrency: internal CPU work overlapping outstanding SSD reads (macro
level), and arrived-page CPU work overlapping the remaining requests
(micro level).  A tree of durations cannot show two phases running at
the same instant; an event timeline can.  The tracer's complete events
are also the only record of phase time: :func:`span_tree` nests them
into the span tree a :class:`~repro.obs.report.RunReport` serializes.

One :class:`EventTracer` records the shared **event vocabulary** both
engines emit:

=====================  ====  =====================================================
event name             ph    meaning
=====================  ====  =====================================================
``iteration``          X     one OPT iteration (Algorithm 3 outer loop)
``fill``               X     internal-area fill (reads + candidate identification)
``internal``           X     internal triangulation CPU slice (Algorithm 5)
``external``           X     external-page CPU slice (Algorithm 9, sim engine)
``read.submit``        i     ``AsyncRead`` issued (args: ``pid``, ``req``)
``read.service``       X     the device serving one page read
``read.callback``      X     completion callback running (threaded engine)
``buffer.hit``         i     request absorbed by the buffer pool (Δin / Δex)
``buffer.evict``       i     LRU eviction
``morph``              i     a worker switched roles (paper Section 3.4)
``fault.inject``       i     a fault plan action fired (real injection path)
``fault.delay``        i     injected virtual latency charged to a read (sim)
``recovery.timeout``   i     a read missed its deadline
``recovery.fallback``  i     timed-out read degraded to a synchronous re-read
=====================  ====  =====================================================

A :class:`~repro.obs.report.RunReport`'s own tracer also carries the
simulated phase timeline of ``sim/schedule.py``: ``simulate`` (the whole
replay), ``iteration`` and ``fill`` on ``sim/run``, and the overlapping
``internal-triangulation`` / ``external-triangulation`` phases on lanes
of their own (``sim/internal``, ``sim/external``).

Every event carries a *track* — a thread name on the real engine
(``MainThread``, ``ssd-reader-0``, ``ssd-callback``), a simulated
resource on the discrete-event engine (``sim/core0``, ``sim/flash0``,
``sim/run``) — so the export shows one lane per concurrent actor.

Two clock modes keep the timelines honest:

* ``clock="wall"`` — implicit timestamps from ``time.perf_counter``
  relative to the tracer's epoch (the threaded engine);
* ``clock="sim"`` — **only** events with explicit timestamps are
  recorded; implicitly-timed calls are dropped.  The simulated engine
  passes scheduler times, so a sim-mode trace is a pure function of the
  workload and seed: byte-identical across runs (the determinism gate
  in ``tests/test_trace_determinism.py``).

Exports: :func:`to_chrome_trace` produces Chrome ``trace_event`` JSON —
load it in `Perfetto <https://ui.perfetto.dev>`_ or ``chrome://tracing``
— and :func:`ascii_gantt` renders the same timeline in a terminal.
:func:`overlap_analytics` computes the derived figures
(macro/micro overlap ratios, per-track utilization) that
:func:`fold_trace_analytics` lands in a run report.

Like the rest of :mod:`repro.obs`, nothing here imports anything outside
the standard library.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.vocab import (
    EXTERNAL_CPU_EVENTS,
    WORK_EVENTS,
    is_trace_event_name,
)

__all__ = [
    "TRACE_SCHEMA_NAME",
    "TRACE_SCHEMA_VERSION",
    "EventTracer",
    "TraceEvent",
    "ascii_gantt",
    "fold_trace_analytics",
    "from_chrome_trace",
    "overlap_analytics",
    "span_tree",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]

TRACE_SCHEMA_NAME = "repro.obs/trace"
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceEvent:
    """One discrete event: a point (``dur is None``) or a slice."""

    name: str
    ts: float
    track: str
    dur: float | None = None
    args: dict = field(default_factory=dict)
    seq: int = 0

    @property
    def end(self) -> float:
        return self.ts if self.dur is None else self.ts + self.dur


class EventTracer:
    """Thread-safe recorder of timestamped events.

    ``clock="wall"`` stamps implicitly-timed events with seconds since
    the tracer's construction; ``clock="sim"`` records only events whose
    caller supplied an explicit ``ts`` (simulated seconds), which keeps
    simulated traces deterministic — wall-clocked instrumentation points
    (buffer hits during the measuring pass, real fault sleeps) silently
    no-op instead of injecting nondeterministic timestamps.

    A tracer constructed with ``enabled=False`` records nothing; engines
    normalize such a tracer to ``None`` on entry so the hot path keeps
    its plain ``tracer is not None`` guard and pays nothing when tracing
    is off.
    """

    def __init__(self, *, clock: str = "wall", enabled: bool = True,
                 strict_vocab: bool = False):
        if clock not in ("wall", "sim"):
            raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")
        self.clock = clock
        self.enabled = enabled
        self.strict_vocab = strict_vocab
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._seq = 0

    @classmethod
    def wall(cls) -> "EventTracer":
        return cls(clock="wall")

    @classmethod
    def sim(cls) -> "EventTracer":
        return cls(clock="sim")

    def now(self) -> float:
        """Seconds since the tracer's epoch (wall clock)."""
        return time.perf_counter() - self._epoch

    def _record(self, name: str, ts: float | None, dur: float | None,
                track: str | None, args: dict) -> None:
        if not self.enabled:
            return
        if self.strict_vocab and not is_trace_event_name(name):
            raise ValueError(
                f"event name {name!r} is not in the canonical vocabulary "
                f"(repro.obs.vocab.TRACE_EVENT_NAMES)"
            )
        if ts is None:
            if self.clock == "sim":
                return  # wall-clocked call site on a simulated timeline
            ts = self.now()
        if track is None:
            track = threading.current_thread().name
        with self._lock:
            seq = self._seq
            self._seq += 1
            self._events.append(
                TraceEvent(name=name, ts=ts, track=track, dur=dur,
                           args=args, seq=seq)
            )

    def instant(self, name: str, *, ts: float | None = None,
                track: str | None = None, **args) -> None:
        """Record a point event."""
        self._record(name, ts, None, track, args)

    def complete(self, name: str, ts: float, dur: float, *,
                 track: str | None = None, **args) -> None:
        """Record a slice with explicit start and duration."""
        self._record(name, ts, dur, track, args)

    @contextmanager
    def slice(self, name: str, *, track: str | None = None, **args):
        """Measure a wall-clock slice around a ``with`` body.

        On a sim-clock tracer this is a no-op context (the body still
        runs, nothing is recorded).
        """
        if not self.enabled or self.clock == "sim":
            yield
            return
        start = self.now()
        try:
            yield
        finally:
            self._record(name, start, self.now() - start, track, args)

    def events(self) -> list[TraceEvent]:
        """A snapshot of the recorded events, in recording order."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def _as_events(source) -> list[TraceEvent]:
    if isinstance(source, EventTracer):
        return source.events()
    return list(source)


def span_tree(source) -> list[dict]:
    """Nest the complete events of *source* into the serialized span tree.

    Nesting follows Perfetto's rule, per track (a thread name or a
    ``sim/…`` lane): an event is the child of the innermost event on its
    track still open when it starts.  Events are visited in
    ``(ts, -dur, -seq)`` order, so of two events sharing a start the
    longer one — or, on a tie, the later recorded one, since an
    enclosing ``slice`` completes after its children — is the parent.
    Durations on ``sim/`` tracks fill ``sim_elapsed``, all others
    ``wall_elapsed``.  Roots are grouped by track, in order of each
    track's first recorded event; instants are ignored.
    """
    tracks: dict[str, list[TraceEvent]] = {}
    for event in _as_events(source):
        if event.dur is not None:
            tracks.setdefault(event.track, []).append(event)
    roots: list[dict] = []
    for track, events in tracks.items():
        clock = "sim_elapsed" if track.startswith("sim/") else "wall_elapsed"
        open_spans: list[tuple[float, dict]] = []  # (end, node), innermost last
        for event in sorted(events, key=lambda e: (e.ts, -e.dur, -e.seq)):
            node = {"name": event.name, "attrs": dict(event.args),
                    "wall_elapsed": None, "sim_elapsed": None,
                    "children": []}
            node[clock] = event.dur
            while open_spans and event.ts >= open_spans[-1][0]:
                open_spans.pop()
            siblings = open_spans[-1][1]["children"] if open_spans else roots
            siblings.append(node)
            open_spans.append((event.end, node))
    return roots


# ---------------------------------------------------------------------------
# Chrome trace_event export / import
# ---------------------------------------------------------------------------


def to_chrome_trace(source) -> dict:
    """Events as a Chrome ``trace_event`` JSON object.

    One ``tid`` per track (in order of first appearance), named through
    ``thread_name`` metadata so Perfetto / ``chrome://tracing`` label the
    lanes.  Timestamps are microseconds rounded to nanosecond precision —
    a pure function of the event list, so a deterministic event stream
    exports to byte-identical JSON.
    """
    events = _as_events(source)
    track_ids: dict[str, int] = {}
    for event in events:
        track_ids.setdefault(event.track, len(track_ids))
    trace_events: list[dict] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in track_ids.items()
    ]
    for event in events:
        payload: dict = {
            "name": event.name,
            "ph": "X" if event.dur is not None else "i",
            "ts": round(event.ts * 1e6, 3),
            "pid": 0,
            "tid": track_ids[event.track],
        }
        if event.dur is not None:
            payload["dur"] = round(event.dur * 1e6, 3)
        else:
            payload["s"] = "t"  # instant scope: thread
        if event.args:
            payload["args"] = event.args
        trace_events.append(payload)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA_NAME,
            "version": TRACE_SCHEMA_VERSION,
        },
    }


def write_chrome_trace(path: str | Path, source) -> Path:
    """Serialize :func:`to_chrome_trace` output to *path* (compact JSON).

    ``sort_keys`` plus compact separators make the bytes a pure function
    of the event stream — the determinism gate diffs these files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = to_chrome_trace(source)
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return path


def from_chrome_trace(payload: dict) -> list[TraceEvent]:
    """Rebuild :class:`TraceEvent` objects from exported Chrome JSON."""
    errors = validate_chrome_trace(payload)
    if errors:
        raise ValueError("invalid chrome trace: " + "; ".join(errors))
    names: dict[int, str] = {}
    for raw in payload["traceEvents"]:
        if raw.get("ph") == "M" and raw.get("name") == "thread_name":
            names[raw["tid"]] = raw["args"]["name"]
    events: list[TraceEvent] = []
    for seq, raw in enumerate(payload["traceEvents"]):
        if raw.get("ph") == "M":
            continue
        track = names.get(raw["tid"], f"track{raw['tid']}")
        dur = raw.get("dur")
        events.append(
            TraceEvent(
                name=raw["name"],
                ts=raw["ts"] / 1e6,
                track=track,
                dur=None if dur is None else dur / 1e6,
                args=dict(raw.get("args", {})),
                seq=seq,
            )
        )
    return events


def validate_chrome_trace(payload, *, known_names_only: bool = False) -> list[str]:
    """Schema errors in a Chrome trace payload (empty list = valid).

    With ``known_names_only=True``, event names outside the canonical
    vocabulary (:data:`repro.obs.vocab.TRACE_EVENT_NAMES`) are also
    reported — the conformance mode the obs gates use on traces our own
    engines produced.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["trace must be a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, raw in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(raw, dict):
            errors.append(f"{where} must be an object")
            continue
        ph = raw.get("ph")
        if ph not in ("X", "i", "M"):
            errors.append(f"{where}.ph must be 'X', 'i', or 'M', got {ph!r}")
            continue
        if not isinstance(raw.get("name"), str) or not raw.get("name"):
            errors.append(f"{where}.name must be a non-empty string")
        elif known_names_only and ph != "M" \
                and not is_trace_event_name(raw["name"]):
            errors.append(f"{where}.name {raw['name']!r} is not in the "
                          f"canonical event vocabulary")
        if not isinstance(raw.get("tid"), int):
            errors.append(f"{where}.tid must be an integer")
        if ph == "M":
            continue
        if not isinstance(raw.get("ts"), (int, float)):
            errors.append(f"{where}.ts must be numeric")
        if ph == "X" and not isinstance(raw.get("dur"), (int, float)):
            errors.append(f"{where}.dur must be numeric for complete events")
        if "args" in raw and not isinstance(raw["args"], dict):
            errors.append(f"{where}.args must be an object")
    return errors


# ---------------------------------------------------------------------------
# Interval arithmetic (the substrate of every derived figure)
# ---------------------------------------------------------------------------


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of (start, end) intervals, sorted and coalesced."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _total(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def _intersect(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Intersection of two merged interval lists (two-pointer sweep)."""
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            out.append((start, end))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _outstanding_io(events: list[TraceEvent]) -> list[tuple[float, float]]:
    """Merged intervals during which at least one page read is in flight.

    A request is outstanding from its ``read.submit`` instant (matched by
    the ``req`` arg) to the end of its ``read.service`` slice; a service
    event without a matching submit counts from its own start.
    """
    submits: dict[object, float] = {}
    for event in events:
        if event.name == "read.submit" and "req" in event.args:
            submits.setdefault(event.args["req"], event.ts)
    intervals: list[tuple[float, float]] = []
    for event in events:
        if event.name != "read.service" or event.dur is None:
            continue
        start = submits.get(event.args.get("req"), event.ts)
        intervals.append((min(start, event.ts), event.end))
    return _merge(intervals)


def overlap_analytics(source) -> dict:
    """Derived temporal figures of one trace.

    Returns a plain dict with:

    * ``macro_overlap_ratio`` — fraction of internal-CPU time during
      which at least one SSD read was outstanding (the paper's macro
      overlap: CPU hiding I/O);
    * ``micro_overlap_ratio`` — fraction of external-CPU time (arrived
      pages being processed) with reads still outstanding;
    * ``io_outstanding_time`` / ``internal_cpu_time`` /
      ``external_cpu_time`` — the underlying interval totals;
    * ``span`` — last event end minus first event start;
    * ``track_utilization`` — per track, work-event busy time over the
      trace span;
    * ``event_counts`` — events per name.
    """
    events = _as_events(source)
    counts: dict[str, int] = {}
    for event in events:
        counts[event.name] = counts.get(event.name, 0) + 1
    if not events:
        return {
            "macro_overlap_ratio": 0.0,
            "micro_overlap_ratio": 0.0,
            "io_outstanding_time": 0.0,
            "internal_cpu_time": 0.0,
            "external_cpu_time": 0.0,
            "span": 0.0,
            "track_utilization": {},
            "event_counts": counts,
        }
    t0 = min(event.ts for event in events)
    t1 = max(event.end for event in events)
    io = _outstanding_io(events)
    internal = _merge(
        [(e.ts, e.end) for e in events if e.name == "internal" and e.dur]
    )
    external = _merge(
        [(e.ts, e.end) for e in events
         if e.name in EXTERNAL_CPU_EVENTS and e.dur]
    )
    internal_time = _total(internal)
    external_time = _total(external)
    span = t1 - t0
    busy: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        if event.name in WORK_EVENTS and event.dur:
            busy.setdefault(event.track, []).append((event.ts, event.end))
    utilization = {
        track: (_total(_merge(intervals)) / span if span > 0 else 0.0)
        for track, intervals in sorted(busy.items())
    }
    return {
        "macro_overlap_ratio": (
            _total(_intersect(internal, io)) / internal_time
            if internal_time > 0 else 0.0
        ),
        "micro_overlap_ratio": (
            _total(_intersect(external, io)) / external_time
            if external_time > 0 else 0.0
        ),
        "io_outstanding_time": _total(io),
        "internal_cpu_time": internal_time,
        "external_cpu_time": external_time,
        "span": span,
        "track_utilization": utilization,
        "event_counts": counts,
    }


def fold_trace_analytics(report, source) -> dict:
    """Compute :func:`overlap_analytics` and land it in *report*'s derived
    figures (``macro_overlap_ratio``, ``micro_overlap_ratio``,
    ``track_utilization``, ``io_outstanding_time``, ``trace_span``,
    ``trace_events``).  Returns the analytics dict."""
    analytics = overlap_analytics(source)
    report.derive("macro_overlap_ratio", analytics["macro_overlap_ratio"])
    report.derive("micro_overlap_ratio", analytics["micro_overlap_ratio"])
    report.derive("io_outstanding_time", analytics["io_outstanding_time"])
    report.derive("track_utilization", analytics["track_utilization"])
    report.derive("trace_span", analytics["span"])
    report.derive("trace_events", sum(analytics["event_counts"].values()))
    return analytics


# ---------------------------------------------------------------------------
# ASCII Gantt
# ---------------------------------------------------------------------------


def ascii_gantt(source, *, width: int = 64) -> str:
    """Render the trace as a per-track Gantt chart for terminals.

    Each row is one track; a column is ``span / width`` seconds.  ``█``
    marks a column more than half covered by work events, ``▏`` a touched
    column, ``·`` idle time.  Instant markers are overlaid as ``!`` for
    fault/recovery events.  The right margin shows each track's busy
    percentage of the trace span.
    """
    events = _as_events(source)
    timed = [e for e in events if e.dur is not None or e.ts >= 0]
    if not timed:
        return "(empty trace)"
    t0 = min(e.ts for e in timed)
    t1 = max(e.end for e in timed)
    span = t1 - t0
    if span <= 0:
        return "(trace has no extent)"
    tracks: list[str] = []
    for event in events:
        if event.track not in tracks:
            tracks.append(event.track)
    label_width = max(len(track) for track in tracks)
    step = span / width
    lines = [
        f"trace span {span:.6f}s  ({width} cols, {step:.2e}s/col)"
    ]
    for track in tracks:
        work = _merge(
            [(e.ts - t0, e.end - t0) for e in events
             if e.track == track and e.name in WORK_EVENTS and e.dur]
        )
        row = []
        for col in range(width):
            lo, hi = col * step, (col + 1) * step
            covered = _total(_intersect(work, [(lo, hi)]))
            if covered >= 0.5 * step:
                row.append("█")
            elif covered > 0:
                row.append("▏")
            else:
                row.append("·")
        for event in events:
            if (event.track == track and event.dur is None
                    and event.name.startswith(("fault.", "recovery."))):
                col = min(width - 1, max(0, int((event.ts - t0) / step)))
                row[col] = "!"
        busy = _total(work) / span * 100.0
        lines.append(f"{track:<{label_width}} |{''.join(row)}| {busy:5.1f}%")
    return "\n".join(lines)
