"""The traced run: spans around the calls into each layer's public functions.

Every round probes every layer on the workload's graph, so each per-layer
metric is measured on every workload; only the layers the workload's
timed call goes through feed its end-to-end metrics (see README.md).
A round is

* ``bench.setup``: ``graph.io.read``, ``graph.ordering.choose``,
  ``graph.ordering.relabel``, ``storage.pack``;
* ``bench.exec``: ``source.open``, ``kernel.bind``, ``run_range`` count
  only then collecting, then the sink emit loop;
* ``bench.parallel``: ``SharedCSR.publish`` and close, ``plan_chunks``,
  in-process ``count_chunk`` per planned chunk, ``triangulate_parallel``
  with 1 and with 2 workers;
* ``bench.disk``: ``run_opt`` with timing wrappers around the
  ``EdgeIteratorPlugin`` methods, ``simulate``, the 6-core replay;
* the timed call untraced, and traced (``bench.call``), in alternating
  order, for ``obs.trace_overhead``.

Root spans are the benchmark's own (``bench.*``); all others are layer
spans, whose self times over the roots' time give ``obs.trace_coverage``.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import ExitStack

import numpy as np

from check import check_count, check_listing, shm_segments
from repro.core import (OPTConfig, buffer_pages_for_ratio, make_store,
                        run_opt, triangulate_disk)
from repro.core.plugins import EdgeIteratorPlugin
from repro.exec.engine import run_range
from repro.exec.registry import make_kernel, make_source
from repro.graph.io import read_edge_list
from repro.graph.ordering import apply_ordering, choose_ordering
from repro.memory.base import CollectSink
from repro.parallel.chunks import default_chunk_count, plan_chunks
from repro.parallel.engine import count_chunk, triangulate_parallel
from repro.parallel.shm import SharedCSR
from repro.sim import DEFAULT_COST_MODEL, simulate
from spans import Recorder
from workloads import (BUFFER_RATIO, PAGE_SIZE, WORKERS, Input, Workload,
                       fidelity)

#: Layer span around the traced timed call, per workload.
CALL_SPANS = {
    "lj-list": "exec.edge_iterator",
    "twitter-count-2w": "parallel.triangulate_parallel",
    "yahoo-disk": "core.triangulate_disk",
}


class TimedEdgeIterator(EdgeIteratorPlugin):
    """``EdgeIteratorPlugin`` whose public methods tally their time and calls."""

    PHASES = ("candidates", "internal", "external")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(self.PHASES, 0.0)
        self.calls = dict.fromkeys(self.PHASES, 0)

    def _tally(self, phase: str, started: float) -> None:
        self.seconds[phase] += time.perf_counter() - started
        self.calls[phase] += 1

    def candidates_for_record(self, ctx, record):
        started = time.perf_counter()
        try:
            return super().candidates_for_record(ctx, record)
        finally:
            self._tally("candidates", started)

    def internal_ops_for_page(self, ctx, records):
        started = time.perf_counter()
        try:
            return super().internal_ops_for_page(ctx, records)
        finally:
            self._tally("internal", started)

    def external_ops_for_record(self, ctx, record):
        started = time.perf_counter()
        try:
            return super().external_ops_for_record(ctx, record)
        finally:
            self._tally("external", started)


class TracedRun:
    """Probes, their outputs' checks, and the per-layer readout."""

    def __init__(self, workload: Workload, path: str,
                 ref: dict[str, np.ndarray], run_id: str):
        self.workload = workload
        self.path = path
        self.ref = ref
        self.rec = Recorder(run_id)
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.facts: list[dict] = []

    def _verify(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")

    # -- probes --------------------------------------------------------------

    def setup(self) -> Input:
        span = self.rec.span
        with span("bench.setup"):
            with span("graph.io.read"):
                graph = read_edge_list(self.path)
            with span("graph.ordering.choose"):
                chosen = choose_ordering(graph)
            ordering = chosen if self.workload.ordering == "auto" \
                else self.workload.ordering
            with span("graph.ordering.relabel"):
                ordered, mapping = apply_ordering(graph, ordering)
            with span("storage.pack"):
                store = make_store(ordered, PAGE_SIZE)
        return Input(ordered, mapping, store)

    def exec_layer(self, inp: Input) -> dict:
        span = self.rec.span
        source = make_source("memory", inp.graph)
        kernel = make_kernel("hash")
        sink = CollectSink()
        with span("bench.exec"):
            with ExitStack() as stack:
                with span("exec.open"):
                    handle = stack.enter_context(source.open())
                with span("exec.bind"):
                    binding = kernel.bind(handle.num_vertices)
                n = handle.num_vertices
                with span("exec.count"):
                    _, ops, _ = run_range(handle, binding, 0, n, False)
                with span("exec.collect"):
                    _, _, groups = run_range(handle, binding, 0, n, True)
            with span("exec.emit"):
                for u, v, ws in groups:
                    sink.emit(u, v, list(ws))
        self._verify("exec listing",
                     check_listing(self.ref, sink.triangles, inp.mapping))
        return {"exec_ops": ops, "groups": len(groups)}

    def parallel_layer(self, inp: Input) -> dict:
        span = self.rec.span
        graph = inp.graph
        before = shm_segments()
        with span("bench.parallel"):
            with span("parallel.publish"):
                with SharedCSR.publish(graph):
                    pass
            with span("parallel.plan"):
                chunks = plan_chunks(graph, default_chunk_count(graph, WORKERS))
            compute = []
            with span("parallel.chunk_compute"):
                for lo, hi in chunks:
                    with span("parallel.count_chunk") as chunk:
                        count_chunk(graph.indptr, graph.indices, lo, hi)
                    compute.append(chunk["end"] - chunk["start"])
            with span("parallel.run_1w"):
                one = triangulate_parallel(graph, workers=1)
            with span("parallel.run_2w"):
                two = triangulate_parallel(graph, workers=WORKERS)
        leaked = len(shm_segments() - before)
        self._verify("parallel 1 worker", check_count(self.ref, one.triangles))
        self._verify("parallel 2 workers", check_count(self.ref, two.triangles))
        self._verify("parallel shm", f"{leaked} /dev/shm segments left"
                     if leaked else None)
        per_worker = [0.0] * two.extra["workers"]
        for index, worker in enumerate(two.extra["parallel"].executed_by):
            per_worker[worker] += compute[index]
        return {"imbalance": max(per_worker) / statistics.fmean(per_worker),
                "steals": two.extra["steals"], "shm_leaked": leaked}

    def disk_layer(self, inp: Input) -> dict:
        span = self.rec.span
        plugin = TimedEdgeIterator()
        config = OPTConfig.even_split(
            buffer_pages_for_ratio(inp.store, BUFFER_RATIO), plugin=plugin)
        sink = CollectSink()
        with span("bench.disk"):
            with span("core.run_opt"):
                trace = run_opt(inp.store, config, sink=sink)
            with span("sim.simulate"):
                sim = simulate(trace, DEFAULT_COST_MODEL, cores=1, serial=True)
            with span("sim.replay"):
                figures = fidelity(inp.graph, trace, inp.store, sim.elapsed)
        self._verify("disk listing",
                     check_listing(self.ref, sink.triangles, inp.mapping))
        hits = trace.total_fill_buffered + sum(
            it.external_buffered for it in trace.iterations)
        return {
            "figures": figures,
            "plugin_s": dict(plugin.seconds),
            "plugin_calls": dict(plugin.calls),
            "pages": inp.store.num_pages,
            "device_reads": trace.total_device_reads,
            "hit_ratio": hits / (hits + trace.total_device_reads),
            "iterations": len(trace.iterations),
            "candidate_ops": trace.total_candidate_ops,
            "internal_ops": sum(it.internal_ops for it in trace.iterations),
            "external_ops": sum(it.external_ops for it in trace.iterations),
            "parallel_fraction": sim.parallel_fraction,
        }

    def timed_call(self, inp: Input, traced: bool) -> dict:
        """The workload's timed call, bare or inside its layer span."""
        gc.collect()
        started = time.perf_counter()
        if not traced:
            result, sink = self.workload.call(inp)
        else:
            with self.rec.span("bench.call"), \
                    self.rec.span(CALL_SPANS[self.workload.name]):
                if self.workload.disk:
                    sink = CollectSink()
                    result = triangulate_disk(
                        inp.store, plugin=TimedEdgeIterator(),
                        buffer_ratio=BUFFER_RATIO, sink=sink)
                else:
                    result, sink = self.workload.call(inp)
        (self.traced if traced else self.untraced).append(
            time.perf_counter() - started)
        what = "traced call" if traced else "call"
        self._verify(what, check_count(self.ref, result.triangles)
                     if sink is None
                     else check_listing(self.ref, sink.triangles, inp.mapping))
        return {"triangles": result.triangles, "eq3_ops": result.cpu_ops}

    # -- the run -------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Rounds of every probe until *seconds* would be exceeded (min 1)."""
        started = time.perf_counter()
        while True:
            self.rec.round = len(self.facts)
            inp = self.setup()
            facts = {"exec": self.exec_layer(inp),
                     "parallel": self.parallel_layer(inp),
                     "disk": self.disk_layer(inp),
                     "num_edges": inp.graph.num_edges}
            order = (False, True) if self.rec.round % 2 == 0 else (True, False)
            for traced in order:
                facts["call"] = self.timed_call(inp, traced)
            self.facts.append(facts)
            spent = time.perf_counter() - started
            if spent + spent / len(self.facts) > seconds:
                return

    def metrics(self) -> dict[str, float]:
        per_round = self.rec.per_round()

        def med(name: str) -> float:
            return statistics.median(per_round[name])

        last = self.facts[-1]
        disk, ex = last["disk"], last["exec"]
        rounds = len(self.facts)
        listing = statistics.median(
            per_round["exec.collect"][i] - per_round["exec.count"][i]
            + per_round["exec.emit"][i] for i in range(rounds))
        kernel_s = med("exec.count")
        exec_ns = kernel_s / ex["exec_ops"] * 1e9
        core_ops = disk["candidate_ops"] + disk["internal_ops"] \
            + disk["external_ops"]
        run_opt_s = med("core.run_opt")
        chunk_compute_s = med("parallel.chunk_compute")
        wall = statistics.median(self.untraced)
        predicted = last["call"]["eq3_ops"] * exec_ns * 1e-9
        self_times = self.rec.self_times()
        layer_self = sum(self_times[s["id"]] for s in self.rec.spans
                         if not s["name"].startswith("bench."))
        roots = sum(s["end"] - s["start"] for s in self.rec.spans
                    if s["parent"] is None)
        plugin = {f"core.plugin.{phase}_s": statistics.median(
                      f["disk"]["plugin_s"][phase] for f in self.facts)
                  for phase in TimedEdgeIterator.PHASES}
        plugin.update({f"core.plugin.{phase}_calls": disk["plugin_calls"][phase]
                       for phase in TimedEdgeIterator.PHASES})
        # run_range invokes the kernel once per oriented edge.
        pairs = last["num_edges"]
        return {
            "graph.io.read_s": med("graph.io.read"),
            "graph.ordering.choose_s": med("graph.ordering.choose"),
            "graph.ordering.relabel_s": med("graph.ordering.relabel"),
            "storage.pack_s": med("storage.pack"),
            "storage.pages": disk["pages"],
            "storage.device_reads": disk["device_reads"],
            "storage.buffer_hit_ratio": disk["hit_ratio"],
            "core.run_opt_s": run_opt_s,
            "core.iterations": disk["iterations"],
            **plugin,
            "core.candidate_ops": disk["candidate_ops"],
            "core.internal_ops": disk["internal_ops"],
            "core.external_ops": disk["external_ops"],
            "core.ns_per_op": run_opt_s / core_ops * 1e9,
            "sim.simulate_s": med("sim.simulate"),
            "sim.parallel_fraction": disk["parallel_fraction"],
            "exec.kernel_s": kernel_s,
            "exec.listing_s": listing,
            "exec.ns_per_op": exec_ns,
            "exec.pairs": pairs,
            "exec.groups": ex["groups"],
            "exec.useful_pair_ratio": ex["groups"] / pairs,
            "parallel.publish_s": med("parallel.publish"),
            "parallel.plan_s": med("parallel.plan"),
            "parallel.chunk_compute_s": chunk_compute_s,
            "parallel.wall_1w_s": med("parallel.run_1w"),
            "parallel.speedup_2w": med("parallel.run_1w") / med("parallel.run_2w"),
            "parallel.overhead_s": med("parallel.run_2w") - chunk_compute_s / 2,
            "parallel.chunk_imbalance": statistics.median(
                f["parallel"]["imbalance"] for f in self.facts),
            "parallel.steals": statistics.median(
                f["parallel"]["steals"] for f in self.facts),
            "parallel.shm_leaked": sum(f["parallel"]["shm_leaked"]
                                       for f in self.facts),
            "obs.trace_overhead": statistics.median(self.traced) / wall - 1,
            "obs.trace_coverage": layer_self / roots,
            "calib.predicted_s": predicted,
            "calib.residual": abs(wall - predicted) / wall,
        }

    def invariants(self) -> dict:
        """Deterministic figures, comparable with the untraced run's."""
        last = self.facts[-1]
        return {**last["call"], **last["disk"]["figures"]}
