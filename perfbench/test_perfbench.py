"""The benchmark's own tests: metric names, determinism, seeds, bare checkout.

    python -m pytest perfbench -q

Each test runs ``perfbench/run.py`` end to end with a one-second budget,
so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Figures that must repeat exactly across runs and trace modes.
INVARIANTS = ("triangles", "eq3_ops", "sim_elapsed_s", "overhead_vs_ideal",
              "sim_speedup_6c")

_runs: dict[tuple[str, int, int, int], tuple[dict, dict]] = {}


def bench(workload: str, trace: int, seed: int | None = None,
          repeat: int = 0) -> tuple[dict, dict]:
    """``(last stdout line, full record)`` of one run, memoized per key."""
    key = (workload, trace, seed if seed is not None else -1, repeat)
    if key not in _runs:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seconds", "1", "--trace", str(trace)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=180, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record_path = next(line.split(" ", 1)[1] for line in lines
                           if line.startswith("record "))
        record = json.loads(Path(record_path).read_text(encoding="utf-8"))
        _runs[key] = (result, record)
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units_match_benchmark_json(workload, trace):
    result, record = bench(workload, trace)
    expected = {metric["name"]: metric["unit"] for metric in
                SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert set(record["environment"]) >= {
        "nproc", "cpu_model", "python", "numpy", "git_commit", "seed",
        "loadavg_before", "loadavg_after"}


def test_default_seed_has_no_errors():
    result, _ = bench("lj-list", 0)
    assert result["metrics"]["correct_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_figures_repeat_exactly(workload):
    _, first = bench(workload, 0)
    _, second = bench(workload, 0, repeat=1)
    _, traced = bench(workload, 1)
    for name in INVARIANTS:
        assert first["invariants"][name] == second["invariants"][name], name
        assert first["invariants"][name] == traced["invariants"][name], name


def test_traced_run_writes_spans():
    _, record = bench("lj-list", 1)
    spans = json.loads(Path(record["spans"]).read_text(encoding="utf-8"))
    names = {span["name"] for span in spans["spans"]}
    assert {"graph.io.read", "exec.count", "parallel.run_2w", "core.run_opt",
            "sim.simulate", "bench.call"} <= names
    for span in spans["spans"]:
        assert span["end"] >= span["start"]
        assert span["run_id"] == spans["run_id"]


def test_other_seed_changes_the_input_and_still_checks_out():
    default, default_record = bench("lj-list", 0)
    other, other_record = bench("lj-list", 0, seed=7)
    assert other["correct"] and other["failed"] == 0, other_record["failures"]
    assert other_record["environment"]["seed"] == 7
    assert (other_record["invariants"]["triangles"]
            != default_record["invariants"]["triangles"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
