"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import (
    EventTracer,
    MetricsRegistry,
    RunReport,
    configure_logging,
    get_logger,
    span_tree,
    validate_report_dict,
)
from tests.conftest import child_span, find_span


class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.value("x") == 5

    def test_interning_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("ssd.pages_read")
        b = registry.counter("ssd.pages_read")
        assert a is b
        labeled = registry.counter("ssd.pages_read", device="1")
        assert labeled is not a
        labeled.inc(2)
        assert a.value == 0 and labeled.value == 2

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_label_key_formatting(self):
        registry = MetricsRegistry()
        counter = registry.counter("triangles", phase="internal")
        assert counter.key == "triangles{phase=internal}"
        snapshot = registry.snapshot()
        assert snapshot["counters"]["triangles{phase=internal}"] == 0


class TestGauges:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.5)
        assert gauge.value == 1.5


class TestHistograms:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in [1, 2, 3, 4, 5]:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == 15
        assert histogram.mean == 3
        assert histogram.min == 1 and histogram.max == 5
        assert histogram.percentile(50) == 3
        summary = histogram.summary()
        assert summary["count"] == 5 and summary["p50"] == 3

    def test_reservoir_bounded(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("big")
        histogram.max_samples = 10
        for value in range(100):
            histogram.observe(value)
        assert histogram.count == 100
        assert len(histogram._samples) == 10

    def test_empty_percentile(self):
        histogram = MetricsRegistry().histogram("empty")
        assert histogram.percentile(99) == 0.0

    def test_empty_summary_is_all_zeros(self):
        summary = MetricsRegistry().histogram("empty").summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["min"] is None and summary["max"] is None
        assert summary["p50"] == summary["p90"] == summary["p99"] == 0.0

    def test_single_sample_percentile_is_that_sample(self):
        histogram = MetricsRegistry().histogram("one")
        histogram.observe(7.5)
        for q in (0, 1, 50, 99, 100):
            assert histogram.percentile(q) == 7.5

    def test_percentile_rejects_out_of_range(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(1.0)
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(-1)
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(100.5)

    def test_overflowed_reservoir_keeps_exact_extremes(self):
        """Past max_samples, percentiles degrade to the retained prefix
        but count/sum/min/max stay exact."""
        histogram = MetricsRegistry().histogram("big")
        histogram.max_samples = 8
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == sum(range(100))
        assert histogram.min == 0.0 and histogram.max == 99.0
        # Percentiles come from the first 8 observations (0..7) only.
        assert histogram.percentile(100) == 7.0
        assert histogram.percentile(0) == 0.0


class TestSnapshotMerge:
    """Cross-process histogram merging — the percentile-fidelity audit.

    The process-parallel engine ships worker metrics as snapshot dicts
    and folds them into the parent registry with ``merge_snapshot``.
    Counters and gauges merge trivially; histogram percentiles only
    survive the trip when the snapshot ships each histogram's sample
    reservoir (``histogram_samples=True``).  These tests pin both the
    exact-fidelity path and the documented lossiness of the compact
    (sample-free) path.
    """

    @staticmethod
    def _worker_snapshot(base: float, n: int = 100, *, samples: bool):
        registry = MetricsRegistry()
        histogram = registry.histogram("parallel.chunk.elapsed")
        for value in range(n):
            histogram.observe(base + value)
        return registry.snapshot(histogram_samples=samples)

    def test_merge_with_samples_matches_pooled_percentiles(self):
        parent = MetricsRegistry()
        pooled: list[float] = []
        for base in (0.0, 100.0, 200.0):
            parent.merge_snapshot(self._worker_snapshot(base, samples=True))
            pooled.extend(base + v for v in range(100))
        merged = parent.histogram("parallel.chunk.elapsed")
        reference = MetricsRegistry().histogram("reference")
        for value in pooled:
            reference.observe(value)
        assert merged.count == reference.count == 300
        assert merged.sum == reference.sum
        assert merged.min == 0.0 and merged.max == 299.0
        # 300 pooled samples fit the 4096-slot reservoir, so the merged
        # percentiles are *exactly* the pooled-sample percentiles — in
        # particular p99 lands in the last worker's range instead of
        # collapsing to the first worker's.
        for q in (50, 90, 95, 99):
            assert merged.percentile(q) == reference.percentile(q)
        assert merged.percentile(99) >= 200.0

    def test_merge_without_samples_keeps_exact_aggregates_only(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(self._worker_snapshot(0.0, samples=False))
        merged = parent.histogram("parallel.chunk.elapsed")
        # Exact streaming aggregates always survive...
        assert merged.count == 100
        assert merged.sum == sum(range(100))
        assert merged.min == 0.0 and merged.max == 99.0
        # ...but a sample-free summary contributes nothing to the
        # percentile reservoir (the documented lossy mode): percentiles
        # describe only sources that shipped samples — here, none.
        assert merged.percentile(99) == 0.0
        assert merged.summary()["p99"] == 0.0

    def test_merge_pooling_respects_reservoir_cap(self):
        parent = MetricsRegistry()
        capped = parent.histogram("parallel.chunk.elapsed")
        capped.max_samples = 50
        for base in (0.0, 1000.0):
            parent.merge_snapshot(self._worker_snapshot(base, samples=True))
        assert capped.count == 200  # exact even past the cap
        assert len(capped._samples) == 50
        assert capped.max == 1099.0

    def test_counters_add_and_gauges_overwrite(self):
        parent = MetricsRegistry()
        parent.counter("parallel.ops").inc(5)
        worker = MetricsRegistry()
        worker.counter("parallel.ops").inc(7)
        worker.gauge("buffer.resident").set(3.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.value("parallel.ops") == 12
        assert parent.value("buffer.resident") == 3.0


class TestThreadSafety:
    def test_concurrent_counter_updates_are_exact(self):
        """The SSD callback thread and main thread update one counter."""
        registry = MetricsRegistry()
        counter = registry.counter("ssd.pages_read")
        histogram = registry.histogram("ssd.queue.depth")
        per_thread, threads = 5000, 8

        def work():
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(1.0)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value == per_thread * threads
        assert histogram.count == per_thread * threads

    def test_spans_from_other_threads_do_not_corrupt_nesting(self):
        tracer = EventTracer.wall()
        done = threading.Event()

        def other():
            with tracer.slice("other-thread"):
                pass
            done.set()

        with tracer.slice("main"):
            thread = threading.Thread(target=other)
            thread.start()
            done.wait(5)
            thread.join()
            with tracer.slice("child"):
                pass
        tree = span_tree(tracer)
        main = find_span(tree, "main")
        assert child_span(main, "child") is not None
        assert child_span(main, "other-thread") is None  # its own root
        assert find_span(tree, "other-thread") in tree


class TestSpans:
    """The span tree derived from a tracer's complete events."""

    def test_nested_wall_timing(self):
        tracer = EventTracer.wall()
        with tracer.slice("outer"):
            with tracer.slice("inner"):
                time.sleep(0.01)
        outer = find_span(span_tree(tracer), "outer")
        inner = child_span(outer, "inner")
        assert inner is not None
        assert inner["wall_elapsed"] >= 0.01
        assert outer["wall_elapsed"] >= inner["wall_elapsed"]
        assert outer["sim_elapsed"] is None

    def test_simulated_spans_fill_sim_elapsed(self):
        tracer = EventTracer.wall()
        tracer.complete("fill", 0.0, 1.0, track="sim/run")
        tracer.complete("external", 1.0, 2.5, track="sim/run")
        tracer.complete("simulate", 0.0, 3.5, track="sim/run")
        tracer.complete("fill", 0.0, 0.25, track="MainThread")
        sim, wall = span_tree(tracer)
        assert sim["name"] == "simulate"
        assert (sim["sim_elapsed"], sim["wall_elapsed"]) == (3.5, None)
        assert [(c["name"], c["sim_elapsed"]) for c in sim["children"]] == \
            [("fill", 1.0), ("external", 2.5)]
        assert (wall["wall_elapsed"], wall["sim_elapsed"]) == (0.25, None)

    def test_shared_start_longer_event_is_the_parent(self):
        tracer = EventTracer.wall()
        tracer.complete("long", 1.0, 2.0, track="t")
        tracer.complete("short", 1.0, 0.5, track="t")
        tracer.complete("next", 3.0, 1.0, track="t")
        tree = span_tree(tracer)
        assert [span["name"] for span in tree] == ["long", "next"]
        assert [c["name"] for c in tree[0]["children"]] == ["short"]

    def test_overlap_on_separate_tracks_does_not_nest(self):
        """Two phases running at once stay roots on their own lanes."""
        tracer = EventTracer.wall()
        tracer.complete("internal-triangulation", 1.0, 2.0,
                        track="sim/internal")
        tracer.complete("external-triangulation", 1.0, 3.0,
                        track="sim/external")
        tree = span_tree(tracer)
        assert [span["name"] for span in tree] == \
            ["internal-triangulation", "external-triangulation"]
        assert all(not span["children"] for span in tree)

    def test_instants_are_ignored(self):
        tracer = EventTracer.wall()
        tracer.instant("buffer.hit", ts=0.5, track="t")
        tracer.complete("fill", 0.0, 1.0, track="t")
        assert [span["name"] for span in span_tree(tracer)] == ["fill"]

    def test_attrs_round_trip(self):
        report = RunReport("attrs")
        with report.span("phase", index=3, plugin="edge-iterator"):
            pass
        restored = RunReport.from_json(report.to_json())
        span = find_span(restored.spans, "phase")
        assert span["attrs"] == {"index": 3, "plugin": "edge-iterator"}

    def test_callback_thread_span_after_main_tree_closed(self):
        """A late span from a callback thread becomes its own root.

        The threaded SSD's callback thread can outlive the main thread's
        span tree (e.g. a read completing right at the barrier): opening
        a span there must not crash or graft onto the closed tree.
        """
        tracer = EventTracer.wall()
        with tracer.slice("run"):
            pass  # main tree opened and closed

        errors: list[BaseException] = []

        def late_callback():
            try:
                with tracer.slice("read.callback", pid=42):
                    pass
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        worker = threading.Thread(target=late_callback)
        worker.start()
        worker.join()
        assert not errors
        tree = span_tree(tracer)
        assert [span["name"] for span in tree] == ["run", "read.callback"]
        assert child_span(find_span(tree, "run"), "read.callback") is None

    def test_thread_local_stacks_do_not_cross_nest(self):
        """A span opened on another thread while the main span is still
        open must not nest under it — nesting is per track."""
        tracer = EventTracer.wall()
        started = threading.Event()
        release = threading.Event()

        def worker():
            with tracer.slice("worker-span"):
                started.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        with tracer.slice("main-span"):
            thread.start()
            assert started.wait(timeout=5)
            release.set()
            thread.join()
        tree = span_tree(tracer)
        assert child_span(find_span(tree, "main-span"), "worker-span") is None
        assert {span["name"] for span in tree} == {"main-span", "worker-span"}


class TestRunReport:
    def make_report(self) -> RunReport:
        report = RunReport("unit", meta={"dataset": "LJ"})
        report.counter("ssd.pages_read").inc(7)
        report.counter("triangles", phase="internal").inc(3)
        report.gauge("run.elapsed_simulated").set(0.5)
        report.histogram("ssd.queue.depth").observe(2)
        with report.span("run-opt"):
            report.tracer.complete("simulate", 0.0, 0.5, track="sim/run")
        report.derive("overhead_vs_ideal", 1.04)
        return report

    def test_json_round_trip(self):
        report = self.make_report()
        text = report.to_json()
        restored = RunReport.from_json(text)
        assert restored.label == "unit"
        assert restored.meta == {"dataset": "LJ"}
        assert restored.derived["overhead_vs_ideal"] == 1.04
        assert restored.counter_value("ssd.pages_read") == 7
        assert restored.counter_value("triangles{phase=internal}") == 3
        assert find_span(restored.spans, "simulate")["sim_elapsed"] == 0.5
        # Serializing the deserialized report is the identity.
        assert restored.to_json() == text

    def test_jsonl_append(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        self.make_report().append_jsonl(path)
        self.make_report().append_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_report_dict(json.loads(line))

    def test_summary_renders(self):
        text = self.make_report().summary()
        assert "RunReport: unit" in text
        assert "ssd.pages_read" in text
        assert "overhead_vs_ideal" in text
        assert "run-opt" in text

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="schema"):
            validate_report_dict({"schema": "wrong"})
        payload = json.loads(self.make_report().to_json())
        payload["metrics"]["counters"]["bad"] = -1
        with pytest.raises(ValueError, match="non-negative"):
            validate_report_dict(payload)
        payload = json.loads(self.make_report().to_json())
        payload["spans"][0]["name"] = ""
        with pytest.raises(ValueError, match="name"):
            validate_report_dict(payload)


class TestLogging:
    def test_get_logger_namespaces(self):
        assert get_logger("repro.core.engine").name == "repro.core.engine"
        assert get_logger("obs").name == "repro.obs"

    def test_configure_is_idempotent(self):
        root = configure_logging(1)
        handlers = list(root.handlers)
        root = configure_logging(2)
        assert root.handlers == handlers
        import logging

        assert root.level == logging.DEBUG
        configure_logging(0)


class TestVocabClosure:
    """The profiler / perf-history names are vocabulary members, and the
    emitters stay within the vocabulary under a strict registry."""

    def test_new_names_are_in_the_vocabulary(self):
        from repro.obs import is_metric_name

        for name in ("profile.samples", "profile.overhead", "perf.ingested"):
            assert is_metric_name(name), name

    def test_stack_sampler_emits_vocabulary_names_only(self):
        from repro.obs import StackSampler

        registry = MetricsRegistry(strict_vocab=True)
        sampler = StackSampler(interval=0.01, registry=registry)
        sampler.sample_once()
        sampler.start()
        sampler.stop()
        snapshot = registry.snapshot()
        assert "profile.samples" in snapshot["counters"]
        assert "profile.overhead" in snapshot["gauges"]

    def test_history_ingest_emits_vocabulary_names_only(self, tmp_path):
        from repro.obs import PerfHistory

        registry = MetricsRegistry(strict_vocab=True)
        history = PerfHistory(tmp_path / "hist.jsonl")
        record = history.ingest({"derived": {"elapsed_simulated": 0.5}},
                                bench="b", git_rev="r", registry=registry)
        assert record is not None
        assert registry.counter("perf.ingested").value == 1


class TestStackSampler:
    def test_sample_once_records_this_thread(self):
        from repro.obs import StackSampler, collapsed_text

        sampler = StackSampler(interval=0.01)
        taken = sampler.sample_once()
        assert taken >= 1
        stacks = sampler.collapsed()
        assert stacks, "no stacks captured"
        text = collapsed_text(stacks)
        # Frames are module:function, root-first, ';'-joined.
        assert "test_obs:test_sample_once_records_this_thread" in text

    def test_disabled_sampler_is_inert(self):
        from repro.obs import StackSampler

        sampler = StackSampler(enabled=False)
        sampler.start()
        sampler.stop()
        assert sampler.samples == 0
        assert sampler.collapsed() == {}

    def test_live_sampler_accumulates_and_stops(self):
        from repro.obs import StackSampler

        sampler = StackSampler(interval=0.001)
        sampler.start()
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline and sampler.samples == 0:
            sum(range(1000))
        sampler.stop()
        assert sampler.samples > 0
        assert sampler.overhead_seconds >= 0.0
        after = sampler.samples
        time.sleep(0.02)
        assert sampler.samples == after, "sampler kept running after stop"

    def test_speedscope_validator_flags_drift(self):
        from repro.obs import StackSampler, to_speedscope, validate_speedscope

        sampler = StackSampler(interval=0.01)
        sampler.sample_once()
        doc = to_speedscope(sampler.collapsed(), name="unit",
                            unit="samples")
        assert validate_speedscope(doc) == []
        broken = json.loads(json.dumps(doc))
        broken["profiles"][0]["weights"].append(1)
        assert any("weights" in error
                   for error in validate_speedscope(broken))
