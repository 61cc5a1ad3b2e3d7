"""The measured process: set-up, the closed loop or the traced run.

Started by ``run.py`` with only the edge-list file and the reference, so
its memory high-water mark is the program's (plus its forked workers),
not the input generator's or scipy's.  Writes its findings as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
import traceback

import numpy as np

from check import check_count, check_listing, shm_segments
from layers import TracedRun
from workloads import WORKLOADS, Input, Workload, disk_run, fidelity, setup

MIN_REPS = 3
#: Speed-probe time that defines the reference speed: about its median on
#: the 2-core Xeon host of the first baseline.
REFERENCE_PROBE_S = 0.05


def tail(walls: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 21 samples that percentile would lie below the
    median, so the upper median is taken instead; ``beyond`` says how
    many samples exceed the value reported.
    """
    ordered = sorted(walls)
    index = max(len(ordered) - 11, len(ordered) // 2)
    return {"value": ordered[index],
            "percentile": 100.0 * (index + 1) / len(ordered),
            "samples": len(ordered), "beyond": len(ordered) - 1 - index}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def attempt(workload: Workload, inp: Input, ref) -> tuple[float, object, str | None]:
    """One timed call, checked outside the timed region."""
    gc.collect()
    before = shm_segments()
    started = time.perf_counter()
    try:
        result, sink = workload.call(inp)
    # A failed repetition is counted, not fatal.  # lint: ignore[error-types]
    except Exception:
        return time.perf_counter() - started, None, traceback.format_exc(limit=4)
    wall = time.perf_counter() - started
    error = (check_count(ref, result.triangles) if sink is None
             else check_listing(ref, sink.triangles, inp.mapping))
    leaked = shm_segments() - before
    if error is None and leaked:
        error = f"{len(leaked)} /dev/shm segments left behind"
    return wall, result, error


class SpeedProbe:
    """A fixed mix of small numpy calls, dict updates and tuple sorts.

    It shares no code with the program, so no change to the program can
    move it, while the host's speed moves it and the program alike.  On
    a shared host that speed drifts by tens of percent within a minute;
    scaling each sample by the probe times around it cancels the drift.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.rows = [np.sort(rng.choice(1000, 30, replace=False))
                     for _ in range(200)]

    def __call__(self) -> float:
        started = time.perf_counter()
        for i in range(3000):
            np.intersect1d(self.rows[i % 200], self.rows[i * 7 % 200],
                           assume_unique=True)
        counts: dict[int, int] = {}
        for i in range(100000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        for i in range(20000):
            tuple(sorted((i, i * 3 % 101, i * 7 % 13)))
        return time.perf_counter() - started


def closed_loop(workload: Workload, path: str, ref, seconds: float) -> dict:
    """Repetitions of set-up then the timed call, until *seconds* would pass.

    The speed probe runs before and after each set-up and each call.
    Each of their times is scaled by ``REFERENCE_PROBE_S`` over the mean
    of the two probe times around it: seconds at the reference speed.
    """
    probe = SpeedProbe()
    probe()  # warm-up
    speeds = [probe()]
    reps: list[dict] = []
    failures: list[str] = []
    # The latest input and result, and the first run's op count.  Earlier
    # ones are dropped so that memory does not grow with the repetitions.
    last: dict = {}

    def scale() -> float:
        """Reference over mean probe time around the segment just timed."""
        speeds.append(probe())
        return 2 * REFERENCE_PROBE_S / (speeds[-2] + speeds[-1])

    def repetition() -> dict:
        last.pop("inp", None)
        last.pop("result", None)
        gc.collect()
        started = time.perf_counter()
        inp = last["inp"] = setup(workload, path)
        rep = {"setup": time.perf_counter() - started, "wall": None}
        rep["setup_scale"] = scale()
        wall, result, error = attempt(workload, inp, ref)
        rep["wall_scale"] = scale()
        if result is not None:
            first = last.setdefault("ops", result.cpu_ops)
            if error is None and result.cpu_ops != first:
                error = f"op count {result.cpu_ops} != first run's {first}"
            last["result"] = result
            rep["wall"] = wall
        if error is not None:
            failures.append(error)
        return rep

    repetition()  # warm-up: checked, not timed
    started = time.perf_counter()
    while True:
        reps.append(repetition())
        spent = time.perf_counter() - started
        if len(reps) >= MIN_REPS and spent + spent / len(reps) > seconds:
            break
    attempted = len(reps) + 1
    rss = peak_rss_mb()
    if "result" not in last:
        raise SystemExit("the last repetition failed:\n" + failures[-1])
    inp, result, ops = last["inp"], last["result"], last["ops"]
    disk = result if workload.disk else disk_run(inp.graph)
    figures = fidelity(inp.graph, disk.extra["trace"], disk.extra["store"],
                       disk.elapsed)
    walls = [rep["wall"] * rep["wall_scale"] for rep in reps
             if rep["wall"] is not None]
    setups = [rep["setup"] * rep["setup_scale"] for rep in reps]
    wall_s = statistics.median(walls)
    tail_info = tail(walls)
    return {
        "metrics": {
            "wall_s": wall_s,
            "wall_tail_s": tail_info["value"],
            "edges_per_s": inp.graph.num_edges / wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "correct_ratio": (attempted - len(failures)) / attempted,
            "eq3_ops": ops,
            **figures,
        },
        "attempted": attempted,
        "failures": failures,
        "detail": {
            "invariants": {"triangles": result.triangles, "eq3_ops": ops,
                           **figures},
            "tail": tail_info,
            "unscaled_wall_s": statistics.median(
                rep["wall"] for rep in reps if rep["wall"] is not None),
            "unscaled_setup_s": statistics.median(rep["setup"] for rep in reps),
            "repetitions": reps,
            "probe_s": speeds,
            "vertices": inp.graph.num_vertices,
            "edges": inp.graph.num_edges,
        },
    }


def traced(workload: Workload, path: str, ref, seconds: float,
           spans_path: str, run_id: str) -> dict:
    run = TracedRun(workload, path, ref, run_id)
    run.run(seconds)
    run.rec.write(spans_path)
    return {
        "metrics": run.metrics(),
        "attempted": run.attempted,
        "failures": run.failures,
        "detail": {"invariants": run.invariants(), "rounds": len(run.facts),
                   "spans": spans_path},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--ref", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="traced run: where to write the spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    with np.load(args.ref) as data:
        ref = dict(data)
    if args.spans:
        outcome = traced(workload, args.input, ref, args.seconds, args.spans,
                         args.run_id)
    else:
        outcome = closed_loop(workload, args.input, ref, args.seconds)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)


if __name__ == "__main__":
    main()
