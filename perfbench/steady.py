"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--traced]

Runs `perfbench/run.py --trace 0` RUNS times (none with `--runs 0`) on
every workload of BENCHMARK.json, seeds 1 to RUNS, with its
`run_seconds`.  For every end-to-end metric it prints the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`), the
spread (Q3 - Q1) / median, and that spread as a share of the metric's
bound, plus the share of failed experiment runs and the wall time of the
runs.  With --traced it also makes one traced run per workload (seed 1)
and prints each
layer's time as a share of the traced `run_s`, with the call counts.  It
starts with the machine, the numpy and scipy versions (and the OpenBLAS
builds and thread counts of the first run) and the line count of `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    """(report, comment lines, wall seconds) of one benchmark run."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1], time.monotonic() - start


def environment():
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return [f"machine: {cpu}, nproc {len(os.sched_getaffinity(0))}, "
            f"Python {platform.python_version()}",
            f"numpy {numpy.__version__}, scipy {scipy.__version__}",
            f"src/ lines: {src_lines}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    for line in environment():
        print(line)
    if args.runs:
        print(f"run_seconds {seconds}, {args.runs} runs per workload, "
              f"seeds 1..{args.runs}")
        print(f"{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} "
              f"{'q3':>10s} {'spread':>8s} {'bound':>6s} {'/bound':>7s}")
    for workload in workloads if args.runs else []:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        reports = [report for report, _notes, _wall in runs]
        if workload == workloads[0]:
            print(next(n for n in runs[0][1] if n.startswith("# openblas")))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in reports]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:16s} {name:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:8.4f} {bound:6.2f} {spread / bound:7.3f}")
        attempted = sum(r["attempted"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        correct = all(r["correct"] for r in reports)
        walls = [wall for _report, _notes, wall in runs]
        print(f"{workload:16s} failed {failed}/{attempted} experiment runs, "
              f"correct {correct}, wall {min(walls):.1f}-{max(walls):.1f} s per run")

    if args.traced:
        for workload in workloads:
            report, _notes, _wall = run_once(workload, 1, seconds, 1)
            metrics = {k: v["value"] for k, v in report["metrics"].items()}
            result = ROOT / ".perfbench-out" / workload / "seed1" / "traced" / "result.json"
            run_s = json.loads(result.read_text(encoding="utf-8"))["run_s"]
            print(f"\n{workload} traced: correct {report['correct']}, run_s {run_s:.3f} s, "
                  f"tracing overhead {metrics['trace.overhead_s']:.3f} s")
            for name, value in metrics.items():
                if name.endswith(".s") and value > 0:
                    calls = metrics.get(name[:-2] + ".calls")
                    count = f", {calls} calls" if calls is not None else ""
                    print(f"  {name[:-2]:40s} {value:8.3f} s {100 * value / run_s:5.1f}%{count}")
                elif not name.endswith(".s") and not name.endswith(".calls") and value:
                    print(f"  {name:40s} {value}")


if __name__ == "__main__":
    main()
