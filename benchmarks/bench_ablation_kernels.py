"""Ablation — intersection kernels (real wall-clock micro-benchmark).

Unlike the simulated experiments, this one measures actual Python wall
time: EdgeIterator≻ over the LJ stand-in with each kernel of
:data:`repro.exec.registry.KERNELS` (hash, merge, gallop, and bitmap,
an alias of hash).  All kernels
must produce identical triangle counts; the reported op counts follow
each kernel's own measure — and the hash kernel's bill must equal the
closed-form Eq. 3 cost :func:`repro.graph.ordering.ordering_op_cost`.

The sweep also emits ``BENCH_ablation_kernels.json`` for the CI
regression gate: its headline (``derived.elapsed_simulated``) is the
hash kernel's Eq. 3 bill priced at the cost model's per-op time, a
machine-independent figure ``compare_reports.py`` can diff at a strict
threshold.
"""

from __future__ import annotations

import time

import numpy as np

from _helpers import COST, emit_bench_report, once, prepared, report
from repro.exec.registry import KERNELS
from repro.graph.ordering import ordering_op_cost
from repro.memory import edge_iterator
from repro.obs import RunReport
from repro.util.tables import format_table


def sweep():
    graph, _store, reference = prepared("LJ")
    rows = {}
    for kernel in KERNELS:
        start = time.perf_counter()
        result = edge_iterator(graph, kernel=kernel)
        wall = time.perf_counter() - start
        assert result.triangles == reference.triangles
        rows[kernel] = (result.triangles, result.cpu_ops, wall)
    return rows, ordering_op_cost(graph, np.arange(graph.num_vertices))


def test_ablation_kernels(benchmark):
    results, eq3_ops = once(benchmark, sweep)
    rows = [
        (kernel, triangles, ops, f"{wall * 1e3:.1f}")
        for kernel, (triangles, ops, wall) in results.items()
    ]
    report(
        "ablation_kernels",
        format_table(
            ["kernel", "triangles", "charged ops", "wall (ms)"],
            rows,
            title="Ablation: intersection kernels on LJ (identical "
                  "results, different constants)",
        ),
    )
    counts = {triangles for triangles, _, _ in results.values()}
    assert len(counts) == 1
    # The hash kernel's charge is exactly the paper's Eq. 3 bill, here
    # in its closed form over the edge array.
    assert results["hash"][1] == eq3_ops

    obs = RunReport("ablation-kernels-LJ", meta={
        "dataset": "LJ",
        "engine": "exec.compose",
        "kernels": list(KERNELS),
    })
    for kernel, (triangles, ops, wall) in results.items():
        obs.counter("exec.triangles", kernel=kernel).inc(triangles)
        obs.counter("exec.ops", kernel=kernel).inc(ops)
        obs.derive(f"wall_{kernel}", wall)
    total_wall = sum(wall for _, _, wall in results.values())
    obs.gauge("run.elapsed_wall").set(total_wall)
    # Deterministic headline: the hash kernel's Eq. 3 bill priced per-op,
    # so the CI gate diffs op-count regressions, not runner-to-runner
    # wall noise.
    obs.derive("elapsed_simulated", results["hash"][1] * COST.op_time)
    emit_bench_report("ablation_kernels", obs)
