"""Command-line interface: ``opt-repro`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Produce a synthetic graph (R-MAT, Erdős–Rényi, Holme–Kim, BA) as an
    edge-list or binary file.
``triangulate``
    Run any method — disk-based OPT variants, baselines, or in-memory
    iterators — over an input file or a named dataset stand-in and print
    the result summary.
``datasets``
    List the built-in dataset stand-ins with their (generated) statistics.
``metrics``
    Compute triangle-derived network metrics for a graph.

Observability: ``triangulate --report out.json`` captures the run as a
:class:`~repro.obs.RunReport` (phase spans, SSD/buffer counters, and the
derived ``overhead_vs_ideal``); ``report --run out.json`` pretty-prints
one.  ``triangulate --trace out.trace.json`` additionally records the
run's causal event timeline (Chrome trace_event JSON — load it in
Perfetto or ``chrome://tracing``): simulated time for the disk-based
methods, wall time for ``--method opt-threaded``.  ``trace
out.trace.json`` summarizes a saved trace as overlap analytics plus an
ASCII Gantt chart.  ``triangulate --telemetry out.jsonl`` streams live
tick records (counter rates, gauges, histogram percentiles, per-worker
heartbeats) to a JSONL file while the run is going — simulated clock for
the disk-based methods (byte-deterministic), wall clock for
``opt-threaded`` / ``opt-parallel`` — and ``top out.jsonl`` renders that
stream as a live ASCII dashboard (``--once`` for a single frame,
``--format prom`` for Prometheus text exposition).  The global
``--verbose`` / ``--quiet`` flags configure the ``repro.*`` logger
hierarchy.

Robustness: ``triangulate --fault-kind transient --fault-rate 0.2``
injects a seeded :class:`~repro.storage.faults.FaultPlan` into the
disk-based methods (recovery per ``--max-retries``), and
``--checkpoint ckpt.json`` commits each completed iteration so an
interrupted run resumes without re-listing triangles — see
``docs/robustness.md``.

Static analysis: ``lint`` runs the project-specific AST rules (lockset
checker, sim-purity, obs-vocabulary conformance, ...) over the tree —
the same gate as ``python -m repro.lint``; see
``docs/static-analysis.md``.

Performance attribution: ``profile`` runs a method with the
cost-attribution table enabled and renders where the Eq. 3 operations go
— ``--format table`` (ASCII, ops share per ``(phase, kernel, source,
degree-bucket)`` cell), ``collapsed`` (flame-graph collapsed stacks), or
``speedscope`` (a speedscope.app-loadable JSON document).  ``--sample``
additionally runs the wall stack sampler and reports its overhead.
``perf`` maintains the cross-run history index: ``perf ingest`` appends
``BENCH_*.json`` headlines, ``perf trend`` prints sparkline
trajectories, ``perf check`` exits non-zero on a regression against the
best-of-history baseline — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.obs import configure_logging
from repro.graph import datasets, generators
from repro.graph.io import (
    read_adjacency,
    read_binary,
    read_edge_list,
    write_binary,
    write_edge_list,
)
from repro.graph.ordering import apply_ordering
from repro.util.tables import format_table

__all__ = ["main"]


def _load_graph(args) -> "object":
    if args.dataset:
        graph = datasets.load(args.dataset)
    else:
        path = Path(args.input)
        suffixes = "".join(path.suffixes)
        if path.suffix == ".bin":
            graph = read_binary(path)
        elif ".adj" in suffixes:
            graph = read_adjacency(path)
        else:
            graph = read_edge_list(path)
    if getattr(args, "ordering", "degree") != "natural":
        graph, _ = apply_ordering(graph, args.ordering)
    return graph


def _cmd_generate(args) -> int:
    if args.model == "rmat":
        graph = generators.rmat(args.vertices, args.edges, seed=args.seed)
    elif args.model == "erdos-renyi":
        graph = generators.erdos_renyi(args.vertices, args.edges, seed=args.seed)
    elif args.model == "holme-kim":
        graph = generators.holme_kim(args.vertices, args.attach, args.triad,
                                     seed=args.seed)
    else:
        graph = generators.barabasi_albert(args.vertices, args.attach,
                                           seed=args.seed)
    path = Path(args.output)
    if path.suffix == ".bin":
        write_binary(graph, path)
    else:
        write_edge_list(graph, path)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges to {path}")
    return 0


def _build_fault_plan(args):
    """A (plan, policy) pair from the triangulate fault flags, or Nones."""
    from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy

    if not args.fault_kind:
        return None, None
    specs = [
        FaultSpec(kind, rate=args.fault_rate, delay=args.fault_delay)
        for kind in args.fault_kind
    ]
    plan = FaultPlan(specs, seed=args.fault_seed)
    policy = RetryPolicy(max_retries=args.max_retries)
    return plan, policy


def _cmd_triangulate(args) -> int:
    from repro.baselines import cc_ds, cc_seq, graphchi_tri, mgt
    from repro.core import RunCheckpoint, make_store, triangulate_disk
    from repro.memory import edge_iterator, forward, matrix_count, vertex_iterator
    from repro.obs import EventTracer, RunReport, write_chrome_trace
    from repro.sim import CostModel

    graph = _load_graph(args)
    cost = CostModel()
    method = args.method
    report = None
    if args.report:
        report = RunReport(method, meta={
            "source": args.dataset or args.input,
            "method": method,
            "ordering": getattr(args, "ordering", "degree"),
        })
    traced_methods = ("opt", "opt-vi", "mgt", "opt-threaded", "opt-parallel")
    fault_methods = ("opt", "opt-vi", "mgt", "opt-threaded")
    tracer = None
    if args.trace:
        if method not in traced_methods:
            print("error: --trace applies to the disk-based and parallel "
                  "methods (opt, opt-vi, mgt, opt-threaded, opt-parallel) "
                  "only", file=sys.stderr)
            return 1
        # Disk methods replay on the deterministic simulated clock; the
        # threaded and process-parallel engines record real timelines in
        # wall time.
        tracer = (EventTracer.wall()
                  if method in ("opt-threaded", "opt-parallel")
                  else EventTracer.sim())
    telemetry = None
    telemetry_stream = None
    if args.telemetry:
        if method not in traced_methods:
            print("error: --telemetry applies to the disk-based and parallel "
                  "methods (opt, opt-vi, mgt, opt-threaded, opt-parallel) "
                  "only", file=sys.stderr)
            return 1
        from repro.obs import TelemetrySampler

        telemetry_path = Path(args.telemetry)
        if str(telemetry_path.parent) not in ("", "."):
            telemetry_path.parent.mkdir(parents=True, exist_ok=True)
        # Stream ticks live (one flushed JSON line each) so a concurrent
        # `opt-repro top out.jsonl` can follow the run as it goes.  The
        # disk-based methods sample on the simulated clock at iteration
        # boundaries (byte-deterministic stream); the threaded and
        # process-parallel engines sample in wall time.
        telemetry_stream = telemetry_path.open("w", encoding="utf-8")
        telemetry = TelemetrySampler(
            clock=("wall" if method in ("opt-threaded", "opt-parallel")
                   else "sim"),
            stream=telemetry_stream,
        )
    fault_plan, retry_policy = _build_fault_plan(args)
    if fault_plan and method not in fault_methods:
        print("error: --fault-kind applies to the disk-based methods "
              "(opt, opt-vi, mgt, opt-threaded) only", file=sys.stderr)
        return 1
    if args.checkpoint and method not in ("opt", "opt-vi", "mgt"):
        print("error: --checkpoint applies to the disk-based "
              "methods (opt, opt-vi, mgt) only", file=sys.stderr)
        return 1
    checkpoint = None
    if args.checkpoint:
        ckpt_path = Path(args.checkpoint)
        if ckpt_path.exists():
            checkpoint = RunCheckpoint.load(ckpt_path)
            print(f"resuming from checkpoint {ckpt_path} "
                  f"({len(checkpoint.committed())} committed iterations)")
        else:
            checkpoint = RunCheckpoint()
    if method in ("opt", "opt-vi", "mgt"):
        plugin = {"opt": "edge-iterator", "opt-vi": "vertex-iterator",
                  "mgt": "mgt"}[method]
        store = make_store(graph, args.page_size)
        ideal_cpu_ops = None
        if report is not None:
            # The paper's ideal cost uses the in-memory EdgeIterator≻ op
            # count (Fig. 3a's reference), so the report's
            # overhead_vs_ideal is computed against the same baseline.
            ideal_cpu_ops = edge_iterator(graph).cpu_ops
        result = triangulate_disk(store, plugin=plugin,
                                  buffer_ratio=args.buffer_ratio,
                                  cost=cost, cores=args.cores,
                                  report=report, ideal_cpu_ops=ideal_cpu_ops,
                                  fault_plan=fault_plan,
                                  retry_policy=retry_policy,
                                  checkpoint=checkpoint,
                                  trace=tracer, telemetry=telemetry)
        if checkpoint is not None:
            path = checkpoint.save(args.checkpoint)
            print(f"wrote checkpoint to {path}")
    elif method == "opt-threaded":
        import tempfile

        from repro.core import triangulate_threaded

        store = make_store(graph, args.page_size)
        buffer_pages = max(2, int(round(store.num_pages * args.buffer_ratio)))
        with tempfile.TemporaryDirectory(prefix="opt-threaded-") as tmp:
            result = triangulate_threaded(store, tmp,
                                          buffer_pages=buffer_pages,
                                          page_size=args.page_size,
                                          report=report,
                                          fault_plan=fault_plan,
                                          retry_policy=retry_policy,
                                          trace=tracer,
                                          telemetry=telemetry)
    elif method == "opt-parallel":
        from repro.parallel import triangulate_parallel

        result = triangulate_parallel(graph, workers=args.workers,
                                      report=report, trace=tracer,
                                      telemetry=telemetry)
    elif method in ("cc-seq", "cc-ds", "graphchi"):
        from repro.core import buffer_pages_for_ratio, make_store as _ms

        store = _ms(graph, args.page_size)
        pages = buffer_pages_for_ratio(store, args.buffer_ratio)
        if method == "cc-seq":
            result = cc_seq(graph, buffer_pages=pages, page_size=args.page_size,
                            cost=cost)
        elif method == "cc-ds":
            result = cc_ds(graph, buffer_pages=pages, page_size=args.page_size,
                           cost=cost)
        else:
            result = graphchi_tri(graph, buffer_pages=pages,
                                  page_size=args.page_size, cost=cost,
                                  cores=args.cores)
    elif method == "compose":
        from repro.errors import ConfigurationError
        from repro.exec import compose

        try:
            engine = compose(args.source, args.kernel, args.executor,
                             graph=graph, workers=args.workers,
                             page_size=args.page_size)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result = engine.run(report=report)
        method = f"compose:{engine.describe()}"
    else:
        runner = {"edge-iterator": edge_iterator,
                  "vertex-iterator": vertex_iterator,
                  "forward": forward,
                  "matrix": matrix_count}[method]
        result = runner(graph)

    elapsed_label = ("elapsed (wall s)"
                     if method in ("opt-threaded", "opt-parallel")
                     or method.startswith("compose:")
                     else "elapsed (simulated s)")
    rows = [
        ("triangles", result.triangles),
        ("cpu ops", result.cpu_ops),
        ("pages read", result.pages_read),
        ("pages written", result.pages_written),
        ("iterations", result.iterations),
        (elapsed_label, result.elapsed),
    ]
    print(format_table(["measure", "value"], rows,
                       title=f"{method} on {args.dataset or args.input}"))
    if telemetry is not None:
        telemetry.finish()
        telemetry_stream.close()
        print(f"wrote {len(telemetry)} telemetry samples to {args.telemetry}")
    if tracer is not None:
        path = write_chrome_trace(args.trace, tracer)
        print(f"wrote {len(tracer)} trace events to {path} "
              f"(open in Perfetto / chrome://tracing)")
    if fault_plan is not None:
        counts = fault_plan.log.counts()
        fault_rows = sorted(counts.items()) or [("(no faults fired)", 0)]
        print(format_table(["event", "count"], fault_rows,
                           title="Fault injection summary"))
    if report is not None:
        if "report" not in result.extra:
            # Baselines and in-memory methods don't record internally yet;
            # export their result counters through the same schema.
            report.counter("triangles", phase="total").inc(result.triangles)
            report.counter("cpu.ops").inc(result.cpu_ops)
            report.counter("io.pages_read").inc(result.pages_read)
            report.counter("io.pages_written").inc(result.pages_written)
            report.counter("io.pages_buffered").inc(result.pages_buffered)
            report.gauge("run.elapsed_simulated").set(result.elapsed)
        path = report.write_json(args.report)
        print(f"wrote run report to {path}")
    return 0


def _cmd_layout(args) -> int:
    from repro.preprocess import build_store_external

    work_dir = args.work_dir or str(Path(args.output) / "work")
    store, _mapping, stats = build_store_external(
        args.input,
        work_dir,
        page_size=args.page_size,
        chunk_edges=args.chunk_edges,
        degree_order=not args.natural_order,
    )
    pages_path, index_path = store.save(args.output)
    rows = [
        ("vertices", stats.num_vertices),
        ("edges", stats.num_edges),
        ("phase-1 runs", stats.runs_phase1),
        ("phase-2 runs", stats.runs_phase2),
        ("pages", stats.num_pages),
    ]
    print(format_table(["measure", "value"], rows,
                       title=f"packed {args.input} -> {pages_path}"))
    return 0


def _cmd_cliques(args) -> int:
    from repro.memory import count_cliques

    graph = _load_graph(args)
    result = count_cliques(graph, args.k)
    print(format_table(
        ["measure", "value"],
        [("k", args.k), (f"{args.k}-cliques", result.triangles),
         ("cpu ops", result.cpu_ops)],
        title=f"{args.k}-clique count",
    ))
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import verify_methods

    graph = _load_graph(args)
    report = verify_methods(graph, page_size=args.page_size,
                            buffer_pages=args.buffer_pages,
                            include_threaded=not args.skip_threaded)
    rows = sorted(report.counts.items())
    print(format_table(["method", "triangles"], rows,
                       title="Cross-method verification"))
    if report.consistent:
        print(f"\nall {len(report.counts)} methods agree: "
              f"{report.expected:,} triangles")
        return 0
    print(f"\nDISAGREEMENT: {report.disagreements()}")
    return 1


def _cmd_bench(args) -> int:
    import time

    from repro.experiments import experiment_names, run_experiment

    if args.list:
        for name in experiment_names():
            print(name)
        return 0
    names = args.experiments or experiment_names()
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        print(f"error: unknown experiment(s) {', '.join(unknown)}; "
              f"available: {', '.join(experiment_names())}", file=sys.stderr)
        return 1
    results_dir = Path(args.results_dir) if args.results_dir else None
    if results_dir:
        results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        start = time.perf_counter()
        result = run_experiment(name)
        wall = time.perf_counter() - start
        print(f"\n{'=' * 72}\n{result.text}\n{'-' * 72}")
        print(f"{name}: {len(result.checks)} claims verified in {wall:.1f}s")
        if results_dir:
            (results_dir / f"{name}.txt").write_text(result.text + "\n",
                                                     encoding="utf-8")
    return 0


def _cmd_report(args) -> int:
    if args.run:
        import json

        from repro.obs import RunReport

        try:
            text = Path(args.run).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            payloads = [json.loads(text)]  # one report per file
        except json.JSONDecodeError:
            # JSONL trajectory: one report per line.
            try:
                payloads = [json.loads(line)
                            for line in filter(None, map(str.strip,
                                                         text.splitlines()))]
            except json.JSONDecodeError as exc:
                print(f"error: {args.run}: not JSON or JSONL: {exc}",
                      file=sys.stderr)
                return 1
        if not payloads:
            print(f"error: {args.run}: contains no reports", file=sys.stderr)
            return 1
        for payload in payloads:
            try:
                report = RunReport.from_dict(payload)
            except ValueError as exc:
                print(f"error: {args.run}: {exc}", file=sys.stderr)
                return 1
            print(report.summary())
            print()
        return 0
    from repro.analysis.report import build_report

    text = build_report(args.results_dir, args.output)
    if args.output:
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs import (
        ascii_gantt,
        from_chrome_trace,
        overlap_analytics,
        validate_chrome_trace,
    )

    try:
        payload = json.loads(Path(args.trace_file).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.trace_file}: not JSON: {exc}", file=sys.stderr)
        return 1
    errors = validate_chrome_trace(payload)
    if errors:
        print(f"error: {args.trace_file}: not a valid Chrome trace:",
              file=sys.stderr)
        for err in errors[:10]:
            print(f"  - {err}", file=sys.stderr)
        return 1
    events = from_chrome_trace(payload)
    stats = overlap_analytics(events)
    rows = [
        ("events", stats["event_counts"] and sum(stats["event_counts"].values())),
        ("span (s)", stats["span"]),
        ("macro overlap ratio", stats["macro_overlap_ratio"]),
        ("micro overlap ratio", stats["micro_overlap_ratio"]),
        ("I/O outstanding (s)", stats["io_outstanding_time"]),
        ("internal CPU (s)", stats["internal_cpu_time"]),
        ("external CPU (s)", stats["external_cpu_time"]),
    ]
    print(format_table(["measure", "value"], rows,
                       title=f"trace {args.trace_file}"))
    util_rows = sorted(stats["track_utilization"].items())
    if util_rows:
        print(format_table(["track", "busy fraction"], util_rows,
                           title="Per-track utilization"))
    print()
    print(ascii_gantt(events, width=args.width))
    return 0


def _cmd_top(args) -> int:
    import time

    from repro.obs import expose_text, read_telemetry_jsonl, render_top

    path = Path(args.telemetry_file)

    def frame(ticks: list[dict]) -> str:
        if args.format == "prom":
            return expose_text(ticks[-1]) if ticks else ""
        return render_top(ticks, width=args.width)

    if args.once:
        try:
            ticks = read_telemetry_jsonl(path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(frame(ticks))
        return 0
    # Follow mode: re-read the stream, redraw when a new tick lands, and
    # exit when the producer writes its final tick (or on Ctrl-C).  The
    # file may not exist yet — the run could still be starting up.
    last_seq = None
    try:
        while True:
            try:
                ticks = read_telemetry_jsonl(path)
            except OSError:
                ticks = []
            if ticks:
                seq = ticks[-1].get("seq")
                if seq != last_seq:
                    last_seq = seq
                    print("\x1b[2J\x1b[H", end="")
                    print(frame(ticks))
                if ticks[-1].get("final"):
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint

    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.rules:
        argv += ["--rules", args.rules]
    if args.root:
        argv += ["--root", args.root]
    if args.list_rules:
        argv.append("--list-rules")
    if args.jobs != 1:
        argv += ["--jobs", str(args.jobs)]
    if args.graph:
        argv += ["--graph", args.graph]
    if args.strict_ignores:
        argv.append("--strict-ignores")
    if args.expire_baselines:
        argv.append("--expire-baselines")
    return run_lint(argv)


def _cmd_datasets(args) -> int:
    rows = []
    for name in datasets.dataset_names():
        spec = datasets.DATASETS[name]
        graph = datasets.load(name)
        rows.append((name, graph.num_vertices, graph.num_edges,
                     spec.paper_vertices, spec.paper_edges))
    print(format_table(
        ["dataset", "|V| (stand-in)", "|E| (stand-in)", "|V| (paper)", "|E| (paper)"],
        rows, title="Dataset stand-ins"))
    return 0


def _cmd_metrics(args) -> int:
    from repro.graph.metrics import (
        global_clustering_coefficient,
        per_vertex_triangles,
        transitivity,
    )

    graph = _load_graph(args)
    triangles = int(per_vertex_triangles(graph).sum()) // 3
    rows = [
        ("vertices", graph.num_vertices),
        ("edges", graph.num_edges),
        ("triangles", triangles),
        ("clustering coefficient", global_clustering_coefficient(graph)),
        ("transitivity", transitivity(graph)),
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs import (
        Attribution,
        StackSampler,
        collapsed_text,
        render_attribution,
        to_speedscope,
        write_speedscope,
    )

    graph = _load_graph(args)
    attribution = Attribution()
    method = args.method
    sampler = None
    if args.sample:
        sampler = StackSampler(interval=args.sample_interval)
        sampler.start()
    try:
        if method in ("opt", "opt-vi", "mgt"):
            from repro.core import make_store, triangulate_disk

            plugin = {"opt": "edge-iterator", "opt-vi": "vertex-iterator",
                      "mgt": "mgt"}[method]
            store = make_store(graph, args.page_size)
            result = triangulate_disk(store, plugin=plugin,
                                      buffer_ratio=args.buffer_ratio,
                                      attribution=attribution)
        elif method == "opt-parallel":
            from repro.parallel import triangulate_parallel

            result = triangulate_parallel(graph, workers=args.workers,
                                          attribution=attribution)
        else:  # compose
            from repro.errors import ConfigurationError
            from repro.exec import compose

            try:
                engine = compose(args.source, args.kernel, args.executor,
                                 graph=graph, workers=args.workers,
                                 page_size=args.page_size)
            except ConfigurationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            result = engine.run(attribution=attribution)
            method = f"compose:{engine.describe()}"
    finally:
        if sampler is not None:
            sampler.stop()

    # Without --sample the flame output weights stacks by Eq. 3 op
    # charges (byte-deterministic); with it, by wall stack samples.
    stacks = sampler.collapsed() if sampler is not None \
        else attribution.collapsed()
    unit = "none"
    title = f"{method} on {args.dataset or args.input}"

    def _emit(text: str) -> None:
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
            print(f"wrote {args.format} profile to {args.output}")
        else:
            print(text)

    if args.format == "table":
        _emit(render_attribution(attribution))
        summary = (f"{title}: {result.triangles} triangles, "
                   f"{attribution.total_ops} attributed ops over "
                   f"{len(attribution)} cells")
        if sampler is not None:
            summary += (f"; {sampler.samples} wall samples @ "
                        f"{args.sample_interval * 1000:.1f}ms "
                        f"({sampler.overhead_seconds:.4f}s sampler overhead)")
        print(summary)
    elif args.format == "collapsed":
        _emit(collapsed_text(stacks))
    else:  # speedscope
        doc = to_speedscope(stacks, name=title, unit=unit)
        out = args.output or "profile.speedscope.json"
        path = write_speedscope(out, doc)
        print(f"wrote speedscope profile to {path} "
              f"(open at https://www.speedscope.app)")
    return 0


def _cmd_perf(args) -> int:
    import json as _json
    import subprocess

    from repro.obs import MetricsRegistry, PerfHistory, render_trend
    from repro.obs.history import bench_name_of

    history = PerfHistory(args.index)
    if args.perf_command == "ingest":
        rev = args.rev
        if rev is None:
            try:
                out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                     capture_output=True, text=True,
                                     timeout=10)
                rev = out.stdout.strip() if out.returncode == 0 else ""
            except (OSError, subprocess.TimeoutExpired):
                rev = ""
            rev = rev or "unknown"
        registry = MetricsRegistry()
        ingested = skipped = 0
        for report in args.reports:
            path = Path(report)
            if not path.exists():
                print(f"error: {path}: does not exist", file=sys.stderr)
                return 1
            record = history.ingest_file(path, git_rev=rev,
                                         registry=registry)
            if record is None:
                skipped += 1
                print(f"skipped   {path.name}")
            else:
                ingested += 1
                print(f"ingested  {record.bench}  {record.metric}="
                      f"{record.value:.6f}s @ {record.git_rev}")
        print(f"{ingested} ingested, {skipped} skipped -> {args.index}")
        return 0
    if args.perf_command == "trend":
        benches = args.benches or history.benches()
        if not benches:
            print(f"no history in {args.index}; run `perf ingest` first")
            return 0
        for bench in benches:
            print(render_trend(history, bench))
        return 0
    # check
    fresh = Path(args.fresh)
    if not fresh.exists():
        print(f"error: {fresh}: does not exist", file=sys.stderr)
        return 1
    text = fresh.read_text(encoding="utf-8")
    try:
        payload = _json.loads(text)
    except _json.JSONDecodeError:
        # JSONL trajectory: judge the final report.
        lines = [ln for ln in text.splitlines() if ln.strip()]
        payload = _json.loads(lines[-1])
    verdict = history.check(payload, bench=bench_name_of(fresh),
                            against=args.against, threshold=args.threshold)
    status = verdict["status"]
    if status in ("no-headline", "no-history"):
        print(f"{status}: {verdict['bench']} (nothing to compare)")
        return 0
    print(f"{status:10s}{verdict['bench']}  {verdict['metric']}: "
          f"{verdict['against']}-of-history {verdict['baseline']:.6f}s "
          f"(@ {verdict['baseline_rev']}) -> {verdict['fresh']:.6f}s "
          f"(x{verdict['ratio']:.3f}, limit x{1 + verdict['threshold']:.2f})")
    return 1 if status == "regressed" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opt-repro",
        description="OPT overlapped & parallel triangulation (SIGMOD'14 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more repro.* logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less repro.* logging (errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("--model", choices=["rmat", "erdos-renyi", "holme-kim",
                                         "barabasi-albert"], default="rmat")
    gen.add_argument("--vertices", type=int, required=True)
    gen.add_argument("--edges", type=int, default=0)
    gen.add_argument("--attach", type=int, default=4)
    gen.add_argument("--triad", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    def add_input_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", help="edge-list (.txt) or binary (.bin) graph")
        group.add_argument("--dataset", help="named stand-in (LJ, ORKUT, ...)")
        p.add_argument("--ordering",
                       choices=["natural", "degree", "reverse-degree",
                                "random", "degeneracy", "locality", "auto"],
                       default="degree",
                       help="vertex-id relabeling applied after load; "
                            "'auto' measures the Eq. 3 bill of each "
                            "candidate and picks the cheapest")

    tri = sub.add_parser("triangulate", help="run a triangulation method")
    add_input_args(tri)
    tri.add_argument("--method", default="opt",
                     choices=["opt", "opt-vi", "mgt", "opt-threaded",
                              "opt-parallel", "cc-seq", "cc-ds",
                              "graphchi", "edge-iterator", "vertex-iterator",
                              "forward", "matrix", "compose"])
    # Axis choices mirror repro.exec.registry (SOURCES / KERNELS /
    # EXECUTORS); the scenario matrix asserts they stay in sync so the
    # parser never imports the engine stack just to print --help.
    tri.add_argument("--source", default="memory",
                     choices=["memory", "shm", "disk"],
                     help="graph source for --method compose: heap CSR, "
                          "POSIX shared-memory CSR, or paged disk store")
    tri.add_argument("--kernel", default="hash",
                     choices=["hash", "merge", "gallop", "bitmap"],
                     help="intersection kernel for --method compose "
                          "(hash charges the paper's Eq. 3 probe count; "
                          "merge and gallop charge measured comparisons; "
                          "bitmap is an alias of hash)")
    tri.add_argument("--executor", default="serial",
                     choices=["serial", "threaded", "process"],
                     help="execution strategy for --method compose; "
                          "'process' requires --source shm")
    tri.add_argument("--buffer-ratio", type=float, default=0.15)
    tri.add_argument("--page-size", type=int, default=4096)
    tri.add_argument("--cores", type=int, default=1)
    tri.add_argument("--workers", type=int, default=2,
                     help="process count for --method opt-parallel (the "
                          "shared-memory work-stealing engine)")
    tri.add_argument("--report", default=None, metavar="OUT.json",
                     help="write the run's observability report (RunReport "
                          "JSON: phase spans, counters, overhead_vs_ideal)")
    tri.add_argument("--trace", default=None, metavar="TRACE.json",
                     help="write the run's causal event timeline as Chrome "
                          "trace_event JSON (Perfetto-loadable); simulated "
                          "clock for opt/opt-vi/mgt, wall clock for "
                          "opt-threaded and opt-parallel")
    tri.add_argument("--telemetry", default=None, metavar="OUT.jsonl",
                     help="stream live telemetry tick records (counter "
                          "rates, gauges, histogram percentiles, worker "
                          "heartbeats) to this JSONL file; follow it with "
                          "'top OUT.jsonl'.  Simulated clock for opt/opt-vi/"
                          "mgt (byte-deterministic), wall clock for "
                          "opt-threaded and opt-parallel")
    tri.add_argument("--fault-kind", action="append", default=[],
                     choices=["latency", "transient", "torn"],
                     help="inject seeded storage faults of this kind into the "
                          "disk-based methods (repeatable)")
    tri.add_argument("--fault-rate", type=float, default=0.1,
                     help="per-page probability of each injected fault kind")
    tri.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the fault plan (same seed, same faults)")
    tri.add_argument("--fault-delay", type=float, default=0.002,
                     help="injected latency in seconds (latency faults)")
    tri.add_argument("--max-retries", type=int, default=3,
                     help="retry budget before a fault becomes terminal")
    tri.add_argument("--checkpoint", default=None, metavar="CKPT.json",
                     help="commit each completed iteration here; an existing "
                          "file resumes the run (replaying committed output)")
    tri.set_defaults(func=_cmd_triangulate)

    lay = sub.add_parser("layout",
                         help="pack an edge-list file into a page store "
                              "(out-of-core, external sort)")
    lay.add_argument("--input", required=True)
    lay.add_argument("--output", required=True,
                     help="directory receiving graph.pages + graph.idx.npz")
    lay.add_argument("--work-dir", default=None)
    lay.add_argument("--page-size", type=int, default=4096)
    lay.add_argument("--chunk-edges", type=int, default=65536)
    lay.add_argument("--natural-order", action="store_true",
                     help="skip the degree-based relabeling")
    lay.set_defaults(func=_cmd_layout)

    clq = sub.add_parser("cliques", help="count k-cliques")
    add_input_args(clq)
    clq.add_argument("--k", type=int, default=4)
    clq.set_defaults(func=_cmd_cliques)

    ver = sub.add_parser("verify", help="cross-check all methods on one graph")
    add_input_args(ver)
    ver.add_argument("--page-size", type=int, default=1024)
    ver.add_argument("--buffer-pages", type=int, default=8)
    ver.add_argument("--skip-threaded", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="run paper-reproduction experiments")
    ben.add_argument("experiments", nargs="*",
                     help="experiment ids (e.g. fig6 table4); default: all")
    ben.add_argument("--list", action="store_true",
                     help="list available experiments")
    ben.add_argument("--results-dir", default=None,
                     help="also write each table to <dir>/<id>.txt")
    ben.set_defaults(func=_cmd_bench)

    rep = sub.add_parser("report",
                         help="assemble benchmark results into markdown, or "
                              "pretty-print a RunReport JSON (--run)")
    rep.add_argument("--results-dir", default="benchmarks/results")
    rep.add_argument("--output", default=None)
    rep.add_argument("--run", default=None, metavar="REPORT.json",
                     help="pretty-print a RunReport JSON/JSONL file instead")
    rep.set_defaults(func=_cmd_report)

    trc = sub.add_parser("trace",
                         help="summarize a saved event trace: overlap "
                              "analytics and an ASCII Gantt chart")
    trc.add_argument("trace_file", metavar="TRACE.json",
                     help="Chrome trace_event JSON written by "
                          "triangulate --trace")
    trc.add_argument("--width", type=int, default=72,
                     help="Gantt chart width in columns")
    trc.set_defaults(func=_cmd_trace)

    top = sub.add_parser("top",
                         help="live ASCII dashboard over a --telemetry "
                              "JSONL stream (worker progress bars, ETA, "
                              "hit-rate sparkline, hottest counter rates)")
    top.add_argument("telemetry_file", metavar="TELEMETRY.jsonl",
                     help="tick stream written by triangulate --telemetry "
                          "(may still be growing)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame from the current ticks "
                          "and exit (no follow loop)")
    top.add_argument("--format", choices=["live", "prom"], default="live",
                     help="'live' ASCII dashboard or 'prom' Prometheus "
                          "text exposition of the latest tick")
    top.add_argument("--interval", type=float, default=0.5,
                     help="follow-mode poll interval in seconds")
    top.add_argument("--width", type=int, default=72,
                     help="dashboard width in columns")
    top.set_defaults(func=_cmd_top)

    lnt = sub.add_parser("lint",
                         help="project-specific static analysis (lockset, "
                              "sim-purity, obs-vocabulary, ...)")
    lnt.add_argument("paths", nargs="*", default=["src/repro"],
                     help="files or directories to lint (default: src/repro)")
    lnt.add_argument("--format", choices=["text", "json"], default="text")
    lnt.add_argument("--baseline", default=None, metavar="FILE")
    lnt.add_argument("--write-baseline", action="store_true")
    lnt.add_argument("--rules", default=None, metavar="ID[,ID...]")
    lnt.add_argument("--root", default=None, metavar="DIR")
    lnt.add_argument("--list-rules", action="store_true")
    lnt.add_argument("--jobs", type=int, default=1, metavar="N")
    lnt.add_argument("--graph", choices=["json", "dot"], default=None)
    lnt.add_argument("--strict-ignores", action="store_true")
    lnt.add_argument("--expire-baselines", action="store_true")
    lnt.set_defaults(func=_cmd_lint)

    ds = sub.add_parser("datasets", help="list dataset stand-ins")
    ds.set_defaults(func=_cmd_datasets)

    met = sub.add_parser("metrics", help="triangle-derived network metrics")
    add_input_args(met)
    met.set_defaults(func=_cmd_metrics)

    pro = sub.add_parser("profile",
                         help="run a method with cost attribution: where do "
                              "the Eq. 3 ops go, by (phase, kernel, source, "
                              "degree bucket)")
    add_input_args(pro)
    pro.add_argument("--method", default="compose",
                     choices=["opt", "opt-vi", "mgt", "opt-parallel",
                              "compose"],
                     help="attribution-instrumented engine to profile")
    pro.add_argument("--source", default="memory",
                     choices=["memory", "shm", "disk"],
                     help="graph source for --method compose")
    pro.add_argument("--kernel", default="hash",
                     choices=["hash", "merge", "gallop", "bitmap"],
                     help="intersection kernel for --method compose")
    pro.add_argument("--executor", default="serial",
                     choices=["serial", "threaded", "process"],
                     help="execution strategy for --method compose")
    pro.add_argument("--buffer-ratio", type=float, default=0.15)
    pro.add_argument("--page-size", type=int, default=4096)
    pro.add_argument("--workers", type=int, default=2,
                     help="worker count for opt-parallel / threaded / "
                          "process executors")
    pro.add_argument("--format", choices=["table", "collapsed", "speedscope"],
                     default="table",
                     help="ASCII table, flame-graph collapsed stacks, or a "
                          "speedscope.app JSON document")
    pro.add_argument("--output", default=None, metavar="OUT",
                     help="write the rendered profile here instead of stdout "
                          "(speedscope default: profile.speedscope.json)")
    pro.add_argument("--sample", action="store_true",
                     help="also run the wall-clock stack sampler; collapsed/"
                          "speedscope output then weights stacks by wall "
                          "samples instead of op charges")
    pro.add_argument("--sample-interval", type=float, default=0.005,
                     help="sampler period in seconds (default 5ms)")
    pro.set_defaults(func=_cmd_profile)

    perf = sub.add_parser("perf",
                          help="cross-run perf history: ingest BENCH "
                               "reports, print trends, check regressions")
    perf.add_argument("--index", default="perf_history.jsonl",
                      help="append-only history JSONL index path")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    ping = perf_sub.add_parser("ingest",
                               help="append BENCH report headline metrics")
    ping.add_argument("reports", nargs="+", metavar="BENCH.json",
                      help="BENCH_*.json report files")
    ping.add_argument("--rev", default=None,
                      help="git revision label (default: current HEAD)")
    ptre = perf_sub.add_parser("trend",
                               help="sparkline trajectory per bench")
    ptre.add_argument("benches", nargs="*",
                      help="bench names (default: all indexed)")
    pchk = perf_sub.add_parser("check",
                               help="fail on regression vs history baseline")
    pchk.add_argument("fresh", metavar="BENCH.json",
                      help="fresh report to judge")
    pchk.add_argument("--threshold", type=float, default=0.20,
                      help="allowed slowdown fraction (default 0.20)")
    pchk.add_argument("--against", choices=["best", "latest"],
                      default="best",
                      help="baseline: best-of-history or latest ingest")
    perf.set_defaults(func=_cmd_perf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
