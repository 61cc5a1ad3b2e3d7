"""Graph in, triangles out: the repository's benchmark.

    python3 perfbench/run.py --workload lj-list --seed 41 --seconds 30 --trace 0

Run from the repository root.  Generates the workload's graph from the
seed, writes it as an edge-list file, computes the independent reference,
then starts the measured process (``worker.py``) on that file alone.
``--trace 0`` measures the timed call in a closed loop and prints the
end-to-end metrics; ``--trace 1`` makes the traced run and prints the
per-layer metrics.  The last line of standard output is the result as
JSON; the full record, with the environment stamp, goes to
``.perfbench_work/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
#: Every run must end within this many seconds.
DEADLINE = 175.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code measured
    where no git metadata is at hand."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def measure(argv: list[str], deadline: float) -> int:
    """Run the measured process in its own session; kill it all on overrun."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    process = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                               cwd=ROOT, env=env, start_new_session=True)
    try:
        return process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: the measured process overran its deadline",
              file=sys.stderr)
        return -1
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(
        description="Graph-in, triangles-out wall time of one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the dataset stand-in's)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the closed loop or traced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"] for metric in
             spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    from check import reference
    from repro.graph.io import write_edge_list
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    stamp = environment(seed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{seed}-trace{args.trace}"

    import numpy as np

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        edges = os.path.join(tmp, "edges.txt")
        write_edge_list(workload.generate(seed), edges)
        ref_path = os.path.join(tmp, "reference.npz")
        np.savez(ref_path, **reference(edges))
        out = os.path.join(tmp, "outcome.json")
        argv = ["--workload", workload.name, "--input", edges,
                "--ref", ref_path, "--seconds", str(args.seconds),
                "--out", out]
        if args.trace:
            argv += ["--spans", str(results / f"spans-{name}.json"),
                     "--run-id", f"{name}-{os.getpid()}"]
        code = measure(argv, started + DEADLINE)
        if code != 0:
            print(f"perfbench: the measured process failed (exit {code})",
                  file=sys.stderr)
            return 1
        with open(out, encoding="utf-8") as handle:
            outcome = json.load(handle)
    stamp["loadavg_after"] = os.getloadavg()

    measured = outcome["metrics"]
    if set(measured) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(measured) ^ set(units))}", file=sys.stderr)
        return 1
    metrics = {key: {"value": measured[key], "unit": units[key]}
               for key in units}
    failed = len(outcome["failures"])
    record = {"workload": workload.name, "trace": args.trace,
              "environment": stamp, "metrics": metrics,
              "attempted": outcome["attempted"], "failed": failed,
              "failures": outcome["failures"][:5], **outcome["detail"]}
    with open(results / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for key, metric in metrics.items():
        print(f"{key:32} {metric['value']:>16.6g} {metric['unit']}")
    detail = outcome["detail"]
    if "tail" in detail:
        tail = detail["tail"]
        print(f"wall_tail_s is p{tail['percentile']:.1f} of {tail['samples']} "
              f"samples, {tail['beyond']} beyond it")
        print(f"unscaled medians: wall {detail['unscaled_wall_s']:.6g} s, "
              f"set-up {detail['unscaled_setup_s']:.6g} s")
    for reason in outcome["failures"][:5]:
        print(f"FAILED: {reason}")
    print("environment " + json.dumps(stamp))
    print(f"record {results / (name + '.json')}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": outcome["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
