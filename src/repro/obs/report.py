"""RunReport: one serializable artifact per run, with a stable schema.

Everything an engine measures — the metrics registry, the phase events
its span tree is derived from, any derived figures
(``overhead_vs_ideal``) — lands in one :class:`RunReport`
that serializes to JSON (one report per file), appends to JSONL (one
report per line, the trajectory format ``BENCH_*.json`` files use), and
renders an ASCII summary for terminals.

The schema is versioned and validated by :func:`validate_report_dict`;
``benchmarks/check_report_schema.py`` runs that validation over every
``BENCH_*.json`` so drift fails the tier-1 tests instead of silently
breaking run-to-run comparisons.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EventTracer, span_tree

__all__ = ["RunReport", "SCHEMA_NAME", "SCHEMA_VERSION", "validate_report_dict"]

SCHEMA_NAME = "repro.obs/run-report"
SCHEMA_VERSION = 1


class RunReport:
    """A run's metrics, phase events, metadata, and derived figures.

    Phase time is recorded only as complete events on ``self.tracer``, a
    wall-clock :class:`~repro.obs.trace.EventTracer`: :meth:`span` times
    a ``with`` body on the calling thread's track, and the simulated
    engine writes its timeline onto ``sim/…`` lanes with explicit
    timestamps.  :attr:`spans` nests those events into the tree.
    """

    def __init__(
        self,
        label: str = "run",
        *,
        meta: dict | None = None,
        registry: MetricsRegistry | None = None,
        derived: dict | None = None,
    ):
        self.label = label
        self.meta: dict = dict(meta or {})
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = EventTracer.wall()
        self.derived: dict = dict(derived or {})
        # Set by from_dict: a deserialized report keeps its stored
        # metrics and span tree verbatim.
        self._snapshot_override: dict | None = None
        self._stored_spans: list[dict] | None = None

    @property
    def spans(self) -> list[dict]:
        """The serialized span tree (see :func:`repro.obs.trace.span_tree`)."""
        if self._stored_spans is not None:
            return self._stored_spans
        return span_tree(self.tracer)

    # -- recording shortcuts -------------------------------------------------

    def span(self, name: str, **attrs):
        return self.tracer.slice(name, **attrs)

    def counter(self, name: str, **labels):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels):
        return self.registry.histogram(name, **labels)

    def derive(self, name: str, value) -> None:
        """Record a derived figure (a number computed from the raw metrics)."""
        self.derived[name] = value

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "label": self.label,
            "meta": self.meta,
            "metrics": self.registry.snapshot(),
            "spans": self.spans,
            "derived": self.derived,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        validate_report_dict(data)
        report = cls(
            data.get("label", "run"),
            meta=data.get("meta", {}),
            derived=data.get("derived", {}),
        )
        report._snapshot_override = data["metrics"]
        report._stored_spans = data["spans"]
        return report

    def metrics_snapshot(self) -> dict:
        """The metrics as plain dicts (live registry or deserialized)."""
        if self._snapshot_override is not None:
            return self._snapshot_override
        return self.registry.snapshot()

    def counter_value(self, key: str) -> int:
        """Look up a serialized counter by its formatted key."""
        return self.metrics_snapshot()["counters"].get(key, 0)

    def to_json(self, indent: int | None = 2) -> str:
        payload = self.to_dict()
        payload["metrics"] = self.metrics_snapshot()
        return json.dumps(payload, indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    def append_jsonl(self, path: str | Path) -> Path:
        """Append this report as one line — the trajectory format."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=None) + "\n")
        return path

    # -- presentation --------------------------------------------------------

    def summary(self, *, max_rows: int = 40) -> str:
        """ASCII summary: meta, derived figures, counters, span tree."""
        from repro.util.tables import format_table

        sections: list[str] = [f"RunReport: {self.label}"]
        if self.meta:
            rows = sorted((k, str(v)) for k, v in self.meta.items())
            sections.append(format_table(["meta", "value"], rows))
        if self.derived:
            rows = [(k, v) for k, v in sorted(self.derived.items())]
            sections.append(format_table(["derived", "value"], rows))
        metrics = self.metrics_snapshot()
        if metrics["counters"]:
            rows = sorted(metrics["counters"].items())[:max_rows]
            sections.append(format_table(["counter", "value"], rows))
        if metrics["gauges"]:
            rows = sorted(metrics["gauges"].items())[:max_rows]
            sections.append(format_table(["gauge", "value"], rows))
        if metrics["histograms"]:
            rows = [
                (key, summary["count"], summary["mean"],
                 summary.get("p50", 0.0), summary.get("p95", 0.0),
                 summary["p99"])
                for key, summary in sorted(metrics["histograms"].items())
            ][:max_rows]
            sections.append(
                format_table(
                    ["histogram", "count", "mean", "p50", "p95", "p99"], rows
                )
            )
        tree = self._render_spans()
        if tree:
            sections.append("span tree (wall s / simulated s):\n" + tree)
        chart = self._phase_chart()
        if chart:
            sections.append(chart)
        return "\n\n".join(sections)

    def _render_spans(self, *, max_lines: int = 60) -> str:
        lines: list[str] = []

        def render(span: dict, depth: int) -> None:
            if len(lines) >= max_lines:
                return
            wall, sim = span.get("wall_elapsed"), span.get("sim_elapsed")
            wall = "-" if wall is None else f"{wall:.4f}"
            sim = "-" if sim is None else f"{sim:.4f}"
            attrs = ""
            if span.get("attrs"):
                inner = ", ".join(f"{k}={v}" for k, v in sorted(span["attrs"].items()))
                attrs = f"  [{inner}]"
            lines.append(f"{'  ' * depth}{span['name']}: {wall} / {sim}{attrs}")
            for child in span.get("children", []):
                render(child, depth + 1)

        for root in self.spans:
            render(root, 0)
        if len(lines) >= max_lines:
            lines.append("... (span tree truncated)")
        return "\n".join(lines)

    def _phase_chart(self) -> str | None:
        """Bar chart of simulated seconds per phase, if any.

        Collapses leaf spans by name, so per-iteration fill /
        internal-triangulation / external-triangulation spans sum
        into one bar per phase.
        """
        from repro.analysis.ascii_chart import bar_chart

        totals: dict[str, float] = {}
        for span in _walk(self.spans):
            if span.get("children") or not span.get("sim_elapsed"):
                continue
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["sim_elapsed"]
        if not totals:
            return None
        return bar_chart(list(totals), list(totals.values()),
                         unit="s", title="simulated seconds by phase")


def _walk(spans: list[dict]):
    """Yield every serialized span in *spans*, depth first."""
    for span in spans:
        yield span
        yield from _walk(span.get("children", []))


def validate_report_dict(data: dict) -> None:
    """Raise ``ValueError`` describing every way *data* violates the schema."""
    errors: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            errors.append(message)

    expect(isinstance(data, dict), "report must be a JSON object")
    if not isinstance(data, dict):
        raise ValueError("; ".join(errors))
    expect(data.get("schema") == SCHEMA_NAME,
           f"schema must be {SCHEMA_NAME!r}, got {data.get('schema')!r}")
    expect(isinstance(data.get("version"), int),
           "version must be an integer")
    if isinstance(data.get("version"), int):
        expect(data["version"] <= SCHEMA_VERSION,
               f"version {data['version']} is newer than supported "
               f"{SCHEMA_VERSION}")
    expect(isinstance(data.get("label"), str) and data.get("label"),
           "label must be a non-empty string")
    expect(isinstance(data.get("meta"), dict), "meta must be an object")
    expect(isinstance(data.get("derived"), dict), "derived must be an object")

    metrics = data.get("metrics")
    expect(isinstance(metrics, dict), "metrics must be an object")
    if isinstance(metrics, dict):
        for section in ("counters", "gauges", "histograms"):
            expect(isinstance(metrics.get(section), dict),
                   f"metrics.{section} must be an object")
        counters = metrics.get("counters")
        if isinstance(counters, dict):
            for key, value in counters.items():
                expect(isinstance(value, int) and value >= 0,
                       f"counter {key!r} must be a non-negative integer")
        gauges = metrics.get("gauges")
        if isinstance(gauges, dict):
            for key, value in gauges.items():
                expect(isinstance(value, (int, float)),
                       f"gauge {key!r} must be numeric")
        histograms = metrics.get("histograms")
        if isinstance(histograms, dict):
            for key, value in histograms.items():
                expect(isinstance(value, dict) and "count" in value
                       and "mean" in value,
                       f"histogram {key!r} must carry count and mean")

    spans = data.get("spans")
    expect(isinstance(spans, list), "spans must be a list")

    def check_span(span, path: str) -> None:
        expect(isinstance(span, dict), f"{path} must be an object")
        if not isinstance(span, dict):
            return
        expect(isinstance(span.get("name"), str) and span.get("name"),
               f"{path}.name must be a non-empty string")
        for duration in ("wall_elapsed", "sim_elapsed"):
            value = span.get(duration)
            expect(value is None or isinstance(value, (int, float)),
                   f"{path}.{duration} must be numeric or null")
        children = span.get("children", [])
        expect(isinstance(children, list), f"{path}.children must be a list")
        if isinstance(children, list):
            for i, child in enumerate(children):
                check_span(child, f"{path}.children[{i}]")

    if isinstance(spans, list):
        for i, span in enumerate(spans):
            check_span(span, f"spans[{i}]")

    if errors:
        raise ValueError("invalid run report: " + "; ".join(errors))
