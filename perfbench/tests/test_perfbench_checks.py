"""Tests of the benchmark's output checks, oracles and tracer.

The oracles must agree with smearlab on 6-site instances of the workloads,
and every check must reject an output with one value scaled by 1 + 1e-6,
a flipped verdict or a missing file.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from smearlab import harness  # noqa: E402

SCALE = 1.0 + 1e-6


def small(workload):
    """A desk-size instance of a workload's config."""
    cfg = workloads.config(workload, 7)
    if cfg["experiment"] == "lr":
        cfg["graph"]["n"] = 6
    elif cfg["experiment"] == "cluster":
        cfg["graph"]["n"] = 6
        cfg["distances"] = [1, 2, 3]
    elif cfg["experiment"] == "lppl":
        cfg["graph"]["n"] = 6
        cfg["distances"] = [1, 2, 3, 4, 5]
    elif cfg["experiment"] == "flow":
        # a coarse grid puts the integrator floor above the smaller betas
        cfg["s_steps"] = 40
        cfg["betas"] = [0.9, 0.7]
    elif cfg["experiment"] == "qhe":
        cfg["J"] = [0.2, 0.1]
    return cfg


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{workload: (cfg, output dir, reference)} from real smearlab runs."""
    out = {}
    for workload in workloads.WORKLOADS:
        cfg = small(workload)
        path = tmp_path_factory.mktemp(workload)
        cfg_path = path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        harness.run(str(cfg_path), out_dir=str(path / "out"))
        out[workload] = (cfg, path / "out", checks.reference(cfg))
    return out


def corrupt(src, dst, edit):
    """Copy a run's outputs to dst and apply edit(header, rows, summary)."""
    shutil.copytree(src, dst)
    header, rows, summary = checks.read_outputs(dst)
    edit(rows, summary)
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in rows]
    (dst / "curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (dst / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return dst


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_accepts_smearlab_output(runs, workload):
    cfg, out, ref = runs[workload]
    assert checks.check(cfg, out, ref) == []


@pytest.mark.parametrize("workload", ["lr-chain9", "cluster-ring10", "lppl-chain11"])
def test_oracle_agrees_with_smearlab_on_six_sites(runs, workload):
    cfg, out, ref = runs[workload]
    _header, rows, summary = checks.read_outputs(out)
    if cfg["experiment"] == "lr":
        pairs = [(r[1], v) for r, v in zip(rows, ref["commutator"]) if v > checks.RESOLVED]
        assert len(pairs) >= 3
    elif cfg["experiment"] == "cluster":
        pairs = [(r[1], ref["correlation"][int(r[0])]) for r in rows]
        pairs.append((summary["gap"], ref["gap"]))
    else:
        pairs = [(r[1], ref["response"][int(r[0])]) for r in rows]
    for ours, oracle in pairs:
        # ten times inside the tolerance the benchmark applies
        assert abs(ours - oracle) <= 0.1 * (checks.ORACLE_RTOL * oracle + checks.ORACLE_ATOL)


def _values_checked(cfg, rows):
    """Row indices whose value the check resolves to 1e-6: not the smallest
    commutators of the first time steps, nor flow errors below the
    integrator floor."""
    floor = checks.FIT_FLOOR["flow"] if cfg["experiment"] == "flow" else checks.RESOLVED
    return [i for i, r in enumerate(rows) if r[1] > floor]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_rejects_one_scaled_curve_value(runs, tmp_path, workload):
    cfg, out, ref = runs[workload]
    _header, rows, _summary = checks.read_outputs(out)
    indices = _values_checked(cfg, rows)
    assert indices
    for i in indices:
        def edit(rows, summary, i=i):
            rows[i][1] *= SCALE
        bad = corrupt(out, tmp_path / f"scaled{i}", edit)
        assert checks.check(cfg, bad, ref), f"row {i} scaled by 1 + 1e-6 passed"


@pytest.mark.parametrize("workload, key", [
    ("cluster-ring10", "gap"),
    ("lppl-chain11", "fit.rate"),
    ("flow-chain6", "fit.rate"),
    ("qhe-torus3", "points.0.trace"),
])
def test_check_rejects_one_scaled_summary_value(runs, tmp_path, workload, key):
    cfg, out, ref = runs[workload]

    def edit(rows, summary):
        *path, last = key.split(".")
        node = summary
        for part in path:
            node = node[int(part)] if part.isdigit() else node[part]
        node[last] *= SCALE

    assert checks.check(cfg, corrupt(out, tmp_path / "bad", edit), ref)


@pytest.mark.parametrize("workload", ["lr-chain9", "cluster-ring10"])
def test_check_rejects_one_scaled_bound(runs, tmp_path, workload):
    cfg, out, ref = runs[workload]

    def edit(rows, summary):
        rows[-1][2] *= SCALE

    assert checks.check(cfg, corrupt(out, tmp_path / "bad", edit), ref)


@pytest.mark.parametrize("workload, key", [
    ("lr-chain9", ("verdict", "holds")),
    ("cluster-ring10", ("verdict", "holds")),
    ("flow-chain6", ("monotone_decreasing_above_floor",)),
    ("qhe-torus3", ("monotone_residual_decreasing",)),
])
def test_check_rejects_flipped_verdict(runs, tmp_path, workload, key):
    cfg, out, ref = runs[workload]

    def edit(rows, summary):
        node = summary
        for part in key[:-1]:
            node = node[part]
        node[key[-1]] = not node[key[-1]]

    assert checks.check(cfg, corrupt(out, tmp_path / "bad", edit), ref)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("name", ["curve.csv", "summary.json"])
def test_check_rejects_missing_file(runs, tmp_path, workload, name):
    cfg, out, ref = runs[workload]
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    (bad / name).unlink()
    assert checks.check(cfg, bad, ref)


def _worker(cfg_path, out, *flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(cfg_path),
                    str(out), str(out / "result.json"), "0", *flags],
                   env=env, check=True, timeout=120)
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def test_traced_flow_counts_calls_through_imported_names(tmp_path):
    cfg = dict(workloads.config("flow-chain6", 3), s_steps=10)
    cfg["graph"] = {"kind": "chain", "n": 4}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    _worker(cfg_path, plain)
    layers = _worker(cfg_path, traced, "--trace", "test")["layers"]
    for name in ("curve.csv", "summary.json"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    value = functools.partial(spans.metric, layers)
    # 21 distinct s; the almost flows and the exact control each keep a cache
    assert value("spectra.diagonalize.calls") == 42
    assert value("interaction.hamiltonian.calls") == 42
    assert value("flow.generator.calls") == 5 * 10 * 3
    assert value("interaction.hamiltonian_derivative.calls") == 5 * 10 * 3
    assert value("flow.integrate_flow.s") > value("flow.generator.s") > 0.0
    columns = json.loads((traced / "trace.json").read_text(encoding="utf-8"))["spans"]
    assert len(columns["start"]) == len(columns["end"]) == len(columns["parent"])


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lr-chain9", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = spans.Tracer("test").layers()
    measured_by_run = {"trace.overhead_s", "harness.output_bytes"}
    for m in spec["per_layer"]:
        assert m["name"] in measured_by_run or spans.metric(layers, m["name"]) is not None, m


@pytest.mark.parametrize("crash", ["setup", "round0", "round1"])
def test_one_crashed_process_makes_the_run_incorrect(monkeypatch, tmp_path, crash):
    """A worker that exits nonzero once, with every other process fine."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run.checks, "reference", lambda cfg: None)
    monkeypatch.setattr(run.checks, "check", lambda cfg, out, ref: [])
    runner = run.Runner("cluster-ring10", 1, time.monotonic() + 60)

    def spawn(name, *flags):
        (runner.dir / name).mkdir()
        if name.startswith("round"):
            time.sleep(0.6)  # two rounds outlast the one-second run
        if name == crash:
            return 1, None, None
        return 0, {"setup_s": 0.5, "run_s": 0.1, "openblas": {}}, 100.0

    runner.spawn = spawn
    correct, attempted, failed, metrics = run.measure(runner, 1)
    assert not correct
    assert (attempted, failed) == (2, int(crash.startswith("round")))
    assert metrics["run_s"][0] == 0.1
