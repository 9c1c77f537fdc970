"""Benchmark of smearlab's experiment runs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; smearlab is imported from its `src/`.
Each experiment run ("round") is one `smearlab.harness.run` in a fresh
process (worker.py), the way `smearlab run <config>` does it, on a config
made from the workload and the seed (workloads.py).  Its outputs are
checked against computations made apart from smearlab (checks.py); a round
fails when the process exits nonzero or a check rejects its output.  A run
is `correct` only if no round and no set-up-only process failed.

--trace 0: one set-up-only process and every round measure `setup_s`.  Rounds run back to back for S seconds: another
round starts while it is expected to end within S seconds of the first
one's start, and there are always at least two.  Prints the medians of
`run_s`, `setup_s` and `peak_rss_mb` over the rounds.

--trace 1: one untraced round, then one traced round (spans.py) of the
same config.  Prints the per-layer metrics that BENCHMARK.json lists,
from the traced round, and the tracing overhead (traced minus untraced
`run_s`), and requires both rounds' `curve.csv` and `summary.json` to be
byte-identical.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Outputs, the config,
per-round timings and the spans go under `.perfbench-out/` in the
checkout.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
MIN_ROUNDS = 2
# Every process started here is killed once the run has lasted this long,
# so the benchmark ends within 180 s even if smearlab hangs.
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def child_env():
    """Environment of a worker: smearlab from src/, BLAS threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    def __init__(self, workload, seed, deadline):
        self.cfg = workloads.config(workload, seed)
        self.deadline = deadline
        self.dir = OUT / workload / f"seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2) + "\n", encoding="utf-8")
        self.env = child_env()

    def spawn(self, name, *flags):
        """Start worker.py once; (exit code, its result or None, peak RSS MB)."""
        out = self.dir / name
        out.mkdir()
        result_path = out / "result.json"
        with open(out / "stderr.txt", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(self.cfg_path),
                 str(out), str(result_path), repr(t0), *flags],
                env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            # block in wait4 (it reports the child's peak RSS); a timer
            # kills the child at the deadline
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (out / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"{name}: worker exited {code}\n{tail}", file=sys.stderr)
            return code, None, None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if Path(result["smearlab"]).resolve() != (ROOT / "src" / "smearlab").resolve():
            print(f"{name}: smearlab was imported from {result['smearlab']}", file=sys.stderr)
            return 1, None, None
        return code, result, usage.ru_maxrss / 1024.0

    def round(self, name, ref, *flags):
        """One checked experiment run; (result or None, peak RSS MB, problems)."""
        code, result, rss = self.spawn(name, *flags)
        if result is None:
            return None, None, [f"exit code {code}"]
        problems = checks.check(self.cfg, str(self.dir / name), ref)
        for p in problems:
            print(f"{name}: check failed: {p}", file=sys.stderr)
        return result, rss, problems


def measure(runner, seconds):
    ref = checks.reference(runner.cfg)
    _code, probe, _rss = runner.spawn("setup", "--setup-only")
    correct = probe is not None
    setup = [probe["setup_s"]] if correct else []

    run_s, rss, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result, peak, problems = runner.round(f"round{attempted}", ref)
        attempted += 1
        failed += bool(problems)
        correct = correct and not problems
        if result is not None:
            run_s.append(result["run_s"])
            setup.append(result["setup_s"])
            rss.append(peak)
            openblas = result["openblas"]
        now = time.monotonic()
        if now > runner.deadline or (attempted >= MIN_ROUNDS
                                     and now - start + (now - began) > seconds):
            break
    if not run_s:
        return None
    print(f"# rounds {attempted}, run_s {run_s}, setup_s {setup}, peak_rss_mb {rss}")
    print(f"# openblas {openblas}")
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return correct, attempted, failed, metrics


def measure_traced(runner):
    ref = checks.reference(runner.cfg)
    plain, _rss, problems_plain = runner.round("plain", ref)
    traced, _rss, problems_traced = runner.round(
        "traced", ref, "--trace", f"{runner.dir.parent.name}-{runner.dir.name}")
    if plain is None or traced is None:
        return None
    identical = all(
        filecmp.cmp(runner.dir / "plain" / f, runner.dir / "traced" / f, shallow=False)
        for f in ("curve.csv", "summary.json"))
    if not identical:
        print("traced outputs differ from untraced ones", file=sys.stderr)
    overhead = traced["run_s"] - plain["run_s"]
    output_bytes = sum((runner.dir / "traced" / f).stat().st_size
                       for f in ("curve.csv", "summary.json"))
    print(f"# untraced run_s {plain['run_s']}, traced run_s {traced['run_s']}")
    print(f"# openblas {traced['openblas']}")
    print(f"# spans in {runner.dir / 'traced' / 'trace.json'}")
    measured = {"trace.overhead_s": overhead, "harness.output_bytes": output_bytes}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for m in spec["per_layer"]:
        value = measured.get(m["name"], spans.metric(traced["layers"], m["name"]))
        if value is None:
            print(f"no layer records per-layer metric {m['name']}", file=sys.stderr)
            return None
        metrics[m["name"]] = (value, m["unit"])
    failed = bool(problems_plain) + bool(problems_traced)
    return not failed and identical, 2, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "smearlab" / "__init__.py").is_file():
        print(f"no smearlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, started + DEADLINE_S)
    if args.trace:
        outcome = measure_traced(runner)
    else:
        outcome = measure(runner, args.seconds)
    if outcome is None:
        print("no round ran to its end; nothing to report", file=sys.stderr)
        return 1
    correct, attempted, failed, metrics = outcome
    report = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (runner.dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                            encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
