"""A dependency-free metrics registry: counters, gauges, histograms.

Metrics are identified by a name plus an optional set of ``key=value``
labels (``registry.counter("exec.ops", kernel="merge")``).  The
registry interns one instrument per ``(name, labels)`` pair, so every
caller incrementing ``ssd.pages_read`` — the synchronous device, the
threaded SSD's reader pool, the buffer manager's loader — lands on the
same counter.

All updates take the registry's lock: the threaded engine increments
counters from the SSD reader and callback threads concurrently with the
main thread, and the thread-safety test in ``tests/test_obs.py`` hammers
exactly that path.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.obs.vocab import is_metric_name

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`_format_key`: ``"a{k=v,l=w}"`` → ``("a", {...})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    for pair in inner.split(","):
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


class _Instrument:
    """Common identity of every metric: name, labels, shared lock."""

    kind = "instrument"

    def __init__(self, name: str, labels: LabelKey, lock: threading.Lock):
        self.name = name
        self.labels = dict(labels)
        self._lock = lock

    @property
    def key(self) -> str:
        return _format_key(self.name, _label_key(self.labels))


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey, lock: threading.Lock):
        super().__init__(name, labels, lock)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can move in either direction."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey, lock: threading.Lock):
        super().__init__(name, labels, lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Streaming distribution summary plus a bounded sample reservoir.

    Keeps exact count/sum/min/max and the first ``max_samples``
    observations for percentile estimates — enough for queue depths and
    callback latencies without unbounded memory.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, lock: threading.Lock,
                 max_samples: int = 4096):
        super().__init__(name, labels, lock)
        self.max_samples = max_samples
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            if len(self._samples) < self.max_samples:
                self._samples.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float | None:
        with self._lock:
            return self._min

    @property
    def max(self) -> float | None:
        with self._lock:
            return self._max

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples (q in 0..100)."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        rank = min(len(samples) - 1, max(0, round(q / 100 * (len(samples) - 1))))
        return samples[rank]

    def summary(self, *, samples: bool = False) -> dict:
        """Streaming statistics plus nearest-rank percentiles.

        With ``samples=True`` the retained reservoir is included under a
        ``"samples"`` key, which makes the summary *mergeable*: a peer
        registry can fold it in through :meth:`merge_summary` without
        losing percentile fidelity (up to the reservoir cap).  The
        default stays compact for run-report serialization.
        """
        with self._lock:
            retained = sorted(self._samples)
            out = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count if self._count else 0.0,
            }
            if samples:
                out["samples"] = list(self._samples)
        for q in (50, 90, 95, 99):
            if retained:
                rank = min(len(retained) - 1,
                           max(0, round(q / 100 * (len(retained) - 1))))
                out[f"p{q}"] = retained[rank]
            else:
                out[f"p{q}"] = 0.0
        return out

    def merge_summary(self, summary: Mapping) -> None:
        """Fold a serialized :meth:`summary` into this histogram.

        ``count`` / ``sum`` / ``min`` / ``max`` merge exactly.  Percentile
        fidelity needs the summary's ``"samples"`` reservoir (produced by
        ``summary(samples=True)``): the retained observations are pooled
        into this histogram's reservoir, bounded by ``max_samples``, so
        the merged percentiles equal the pooled-sample percentiles
        whenever the pooled total fits the cap.  A summary *without*
        samples still merges its exact aggregates, but contributes
        nothing to the percentile reservoir — the merged p50/p99 then
        describe only the observations that did ship samples.
        """
        count = int(summary.get("count", 0))
        if count <= 0:
            return
        lo = summary.get("min")
        hi = summary.get("max")
        with self._lock:
            self._count += count
            self._sum += float(summary.get("sum", 0.0))
            if lo is not None:
                lo = float(lo)
                self._min = lo if self._min is None else min(self._min, lo)
            if hi is not None:
                hi = float(hi)
                self._max = hi if self._max is None else max(self._max, hi)
            for value in summary.get("samples", ()):
                if len(self._samples) >= self.max_samples:
                    break
                self._samples.append(float(value))


class MetricsRegistry:
    """Interning factory and snapshot point for all instruments.

    ``strict_vocab=True`` rejects metric names outside the canonical
    vocabulary (:data:`repro.obs.vocab.METRIC_NAMES`) at interning time;
    the default stays permissive so tests and ad-hoc scripts can use
    scratch names.  The static ``obs-vocab`` lint rule enforces the same
    contract on the library's own call sites at CI time.
    """

    def __init__(self, *, strict_vocab: bool = False) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, str, LabelKey], _Instrument] = {}
        self.strict_vocab = strict_vocab

    def _get(self, cls, name: str, labels: Mapping[str, object]):
        if self.strict_vocab and not is_metric_name(name):
            raise ValueError(
                f"metric name {name!r} is not in the canonical vocabulary "
                f"(repro.obs.vocab.METRIC_NAMES)"
            )
        key = (cls.kind, name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[2], self._lock)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):  # pragma: no cover - interning guard
                raise TypeError(f"metric {name!r} already registered as "
                                f"{metric.kind}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def value(self, name: str, **labels):
        """Current value of a counter/gauge by name, or 0 if absent."""
        key_labels = _label_key(labels)
        with self._lock:
            for kind in ("counter", "gauge"):
                metric = self._metrics.get((kind, name, key_labels))
                if metric is not None:
                    break
        if metric is None:
            return 0
        return metric.value

    def instruments(self) -> Iterable[_Instrument]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self, *, histogram_samples: bool = False) -> dict:
        """Plain-dict export: ``{counters: {key: value}, gauges: ...}``.

        ``histogram_samples=True`` ships each histogram's retained
        reservoir alongside its summary so the snapshot is mergeable
        with percentile fidelity (see :meth:`merge_snapshot`); the
        process-parallel workers use this mode, run-report serialization
        keeps the compact default.
        """
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for metric in self.instruments():
            if isinstance(metric, Counter):
                counters[metric.key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.key] = metric.value
            elif isinstance(metric, Histogram):
                histograms[metric.key] = metric.summary(
                    samples=histogram_samples)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a serialized :meth:`snapshot` into this registry.

        The process-parallel engine ships worker metrics across process
        boundaries as plain snapshot dicts (a live registry holds a
        lock, which does not pickle).  Counters add, gauges take the
        snapshot's value.  Histograms merge through
        :meth:`Histogram.merge_summary`: exact ``count``/``sum``/
        ``min``/``max`` always, and full percentile fidelity when the
        snapshot was taken with ``histogram_samples=True`` (the merged
        p99 then equals the p99 of the pooled samples, up to the
        reservoir cap — the regression tests in ``tests/test_obs.py``
        pin exactly this).  A sample-free snapshot merges aggregates
        only; its observations are invisible to merged percentiles.
        """
        for key, value in snapshot.get("counters", {}).items():
            name, labels = _parse_key(key)
            self.counter(name, **labels).inc(int(value))
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = _parse_key(key)
            self.gauge(name, **labels).set(float(value))
        for key, summary in snapshot.get("histograms", {}).items():
            name, labels = _parse_key(key)
            self.histogram(name, **labels).merge_summary(summary)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s counters and gauges into this registry.

        Counters add; gauges take the other's latest value; histograms
        are merged by re-observing the retained samples.
        """
        for metric in other.instruments():
            if isinstance(metric, Counter):
                self.counter(metric.name, **metric.labels).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, **metric.labels).set(metric.value)
            elif isinstance(metric, Histogram):
                mine = self.histogram(metric.name, **metric.labels)
                with metric._lock:
                    samples = list(metric._samples)
                for sample in samples:
                    mine.observe(sample)
