"""Runner-level tests: exponential fits against hand-computed curves, the
CSV/JSON output contract, end-to-end runs of every experiment driver on
desk-size instances, byte-level determinism, and the CLI exit codes."""

import filecmp
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from smearlab import harness
from smearlab.cli import main as cli_main
from smearlab.config import ExperimentConfig, validate_config
from smearlab.errors import (
    AssumptionError,
    BoundViolationError,
    FitError,
    SchemaError,
)
from smearlab.harness import DecayCurve, fit_exponential, run, write_csv, write_summary
from smearlab.interaction import tfim
from smearlab.lattice import build_chain
from smearlab.spectra import diagonalize, lowest_k, split_spectrum


# ---------------------------------------------------------------- fitting

def test_fit_recovers_pure_exponential():
    xs = np.arange(1.0, 7.0)
    fit = fit_exponential(DecayCurve(xs, 3.0 * np.exp(-0.7 * xs)))
    assert abs(fit.rate - 0.7) < 1e-9
    assert abs(fit.prefactor - 3.0) < 1e-9
    assert fit.r_squared > 1.0 - 1e-9
    assert fit.n_used == 6


def test_fit_constant_curve_has_rate_zero():
    fit = fit_exponential(DecayCurve([0.0, 1.0, 2.0], [0.5, 0.5, 0.5]))
    assert abs(fit.rate) < 1e-12
    assert fit.r_squared == 1.0
    assert abs(fit.prefactor - 0.5) < 1e-12


def test_fit_floor_filtering():
    curve = DecayCurve([1.0, 2.0, 3.0, 4.0], [1e-3, 1e-5, 1e-16, 1e-16])
    # only the first two points sit above the 1e-14 floor
    fit = fit_exponential(curve, min_points=2)
    assert fit.n_used == 2
    assert abs(fit.rate - np.log(100.0)) < 1e-9
    assert fit.r_squared == 1.0
    with pytest.raises(FitError, match="2 points above floor 1e-14, need 3"):
        fit_exponential(curve)
    assert issubclass(FitError, AssumptionError)


def test_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        DecayCurve([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        DecayCurve([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        DecayCurve([0.0, 1.0], [1.0, np.nan])
    with pytest.raises(ValueError, match="equal length"):
        DecayCurve([0.0, 1.0], [1.0, 2.0, 3.0])
    curve = DecayCurve([0.0, 1.0, 2.0], [1.0, 0.5, 0.1], floor=0.3)
    assert fit_exponential(curve, min_points=2).n_used == 2


# ---------------------------------------------------------------- output files

def test_csv_format(tmp_path):
    path = str(tmp_path / "curve.csv")
    write_csv(path, ("x", "value"), [(1, 0.1), (2, 3.0)])
    content = open(path, encoding="utf-8").read()
    lines = content.split("\n")
    assert lines[0] == "x,value"
    # 17 significant digits, integers printed as integers
    assert lines[1] == "1,0.10000000000000001"
    assert lines[2] == "2,3"
    assert content.endswith("\n") and "\r" not in content


def test_csv_rejects_bools_and_ragged_rows(tmp_path):
    path = str(tmp_path / "curve.csv")
    with pytest.raises(TypeError, match="booleans"):
        write_csv(path, ("x", "value"), [(1, True)])
    with pytest.raises(ValueError, match="row width"):
        write_csv(path, ("x", "value"), [(1.0, 2.0, 3.0)])


def test_summary_serializes_numpy_types(tmp_path):
    path = str(tmp_path / "summary.json")
    write_summary(path, {"b": np.float64(0.5), "a": np.arange(3),
                         "flag": np.bool_(True), "n": np.int64(7)})
    text = open(path, encoding="utf-8").read()
    data = json.loads(text)
    assert data == {"a": [0, 1, 2], "b": 0.5, "flag": True, "n": 7}
    # keys are sorted so repeated runs produce identical bytes
    assert text.index('"a"') < text.index('"b"') < text.index('"flag"')
    assert text.endswith("\n")


# ---------------------------------------------------------------- run()

def lr_config(**over):
    cfg = {
        "experiment": "lr",
        "graph": {"kind": "chain", "n": 4},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0,
        "site_b": 3,
        "times": {"start": 0.0, "stop": 1.0, "num": 5},
    }
    cfg.update(over)
    return validate_config(cfg)


def test_run_lr_end_to_end(tmp_path):
    out = str(tmp_path / "lr")
    res = run(lr_config(), out_dir=out)
    assert res.csv_path == os.path.join(out, "curve.csv")
    assert res.summary["experiment"] == "lr"
    assert res.summary["verdict"]["holds"] is True
    assert res.summary["distance"] == 3
    lines = open(res.csv_path, encoding="utf-8").read().strip().split("\n")
    assert lines[0] == "x,value,bound,margin"
    assert len(lines) == 6
    # margin column is bound minus measured
    for row in lines[1:]:
        t, v, b, m = map(float, row.split(","))
        assert abs((b - v) - m) < 1e-15


def test_run_accepts_config_path(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "experiment": "liouvillian", "n_qubits": 2, "n_samples": 2,
        "betas": [0.5], "seed": 3,
    }), encoding="utf-8")
    res = run(str(cfgfile), out_dir=str(tmp_path / "o"))
    assert res.summary["verdict"]["holds"] is True
    assert res.summary["seed"] == 3
    assert res.summary["max_relative_deviation"] <= 1e-6


def test_run_is_byte_deterministic(tmp_path):
    cfg = validate_config({"experiment": "liouvillian", "n_qubits": 2,
                           "n_samples": 3, "betas": [0.5, 1.0], "seed": 7})
    a = run(cfg, out_dir=str(tmp_path / "a"))
    b = run(cfg, out_dir=str(tmp_path / "b"))
    c = run(cfg, out_dir=str(tmp_path / "c"), threads=2)
    assert filecmp.cmp(a.csv_path, b.csv_path, shallow=False)
    assert filecmp.cmp(a.summary_path, b.summary_path, shallow=False)
    # worker threads must not change the output bytes
    assert filecmp.cmp(a.csv_path, c.csv_path, shallow=False)
    assert filecmp.cmp(a.summary_path, c.summary_path, shallow=False)


def test_run_rejects_bad_sites_and_threads(tmp_path):
    with pytest.raises(SchemaError, match="site_b must be < 4 sites"):
        run(lr_config(site_b=9), out_dir=str(tmp_path / "x"))
    with pytest.raises(SchemaError, match="threads must be >= 1"):
        run(lr_config(), out_dir=str(tmp_path / "y"), threads=0)
    loc = validate_config({
        "experiment": "locality",
        "graph": {"kind": "chain", "n": 5},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0, "distances": [7], "betas": [0.5],
    })
    with pytest.raises(SchemaError, match="no site at distance 7"):
        run(loc, out_dir=str(tmp_path / "z"))


def test_run_locality_holds(tmp_path):
    cfg = validate_config({
        "experiment": "locality",
        "graph": {"kind": "chain", "n": 5},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0, "distances": [2, 3], "betas": [0.5],
    })
    res = run(cfg, out_dir=str(tmp_path / "loc"))
    assert res.summary["verdict"]["holds"] is True
    assert res.summary["verdict"]["min_margin"] > 0


def test_run_flow_fits_decay(tmp_path):
    cfg = validate_config({
        "experiment": "flow",
        "graph": {"kind": "chain", "n": 4},
        "model": {"kind": "tfim", "j": 1.0,
                  "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}},
        "split": {"rule": "lowest_k", "k": 1},
        "betas": [0.9, 0.7],
        "observable": {"site": 1, "op": "x"},
        "s_steps": 100,
        "exact_control": False,
    })
    res = run(cfg, out_dir=str(tmp_path / "flow"))
    fit = res.summary["fit"]
    assert fit["rate"] > 0 and fit["n_used"] == 2
    assert res.summary["floor"] == 1e-12
    assert res.summary["monotone_decreasing_above_floor"] is True
    assert "exact_control_error" not in res.summary
    # the field ramps up from g = 2, so the gap is smallest at s = 0
    sd0 = diagonalize(tfim(build_chain(4), 1.0, 2.0).hamiltonian())
    assert res.summary["min_gap_along_path"] == split_spectrum(sd0, lowest_k(1)).gap
    rows = open(res.csv_path, encoding="utf-8").read().strip().split("\n")[1:]
    xs = [float(r.split(",")[0]) for r in rows]
    assert xs == sorted(xs) and abs(xs[0] - 0.9**-2) < 1e-12


def test_run_flow_too_few_points_above_floor(tmp_path):
    # a single beta can never support a two-point fit
    cfg = validate_config({
        "experiment": "flow",
        "graph": {"kind": "chain", "n": 4},
        "model": {"kind": "tfim", "j": 1.0,
                  "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}},
        "split": {"rule": "lowest_k", "k": 1},
        "betas": [0.3],
        "observable": {"site": 1, "op": "x"},
        "s_steps": 40,
        "exact_control": False,
    })
    with pytest.raises(FitError, match="need 2"):
        run(cfg, out_dir=str(tmp_path / "flow"))


def test_run_lppl_records_sites(tmp_path):
    cfg = validate_config({
        "experiment": "lppl",
        "graph": {"kind": "chain", "n": 6},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1},
        "perturbation": {"site": 0, "strength": 0.3},
        "distances": [2, 3, 4],
    })
    res = run(cfg, out_dir=str(tmp_path / "lppl"))
    assert res.summary["observable_sites"] == [2, 3, 4]
    assert res.summary["fit"]["rate"] > 0
    assert res.summary["fit"]["r_squared"] > 0.9


def test_run_lppl_reports_path_health_byte_identically(tmp_path):
    cfg = validate_config({
        "experiment": "lppl",
        "graph": {"kind": "chain", "n": 8},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1},
        "perturbation": {"site": 0, "strength": 0.3},
        "distances": [2, 3, 4],
    })
    one = run(cfg, out_dir=str(tmp_path / "one"))
    two = run(cfg, out_dir=str(tmp_path / "two"))
    assert filecmp.cmp(one.summary_path, two.summary_path, shallow=False)
    assert 1.0 < one.summary["min_gap_along_path"] < 4.0
    assert 0.0 < one.summary["max_patch_residual"] <= 1e-12


def test_run_lppl_decay_sweep(tmp_path):
    # perturbation response over seven separations on the n = 12 chain
    cfg = validate_config({
        "experiment": "lppl",
        "graph": {"kind": "chain", "n": 12},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1},
        "perturbation": {"site": 0, "strength": 0.3},
        "distances": [2, 3, 4, 5, 6, 7, 8],
    })
    res = run(cfg, out_dir=str(tmp_path / "sweep"))
    rows = open(res.csv_path, encoding="utf-8").read().strip().split("\n")[1:]
    assert len(rows) == 7
    assert [r.split(",")[0] for r in rows] == ["2", "3", "4", "5", "6", "7", "8"]
    assert res.summary["fit"]["rate"] > 0


def test_run_cluster_bounds_hold(tmp_path):
    cfg = validate_config({
        "experiment": "cluster",
        "graph": {"kind": "ring", "n": 6},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1},
        "site_a": 0,
        "distances": [1, 2, 3],
        "n_state_samples": 2,
    })
    res = run(cfg, out_dir=str(tmp_path / "cl"), seed=3)
    assert res.summary["verdict"]["holds"] is True
    assert res.summary["max_identity_defect"] <= 1e-10
    assert res.summary["fit"]["rate"] > 0
    assert res.summary["gap"] > 0


def test_run_qhe_free_point_is_trivial(tmp_path):
    cfg = validate_config({"experiment": "qhe", "L": 3, "J": 0.0})
    res = run(cfg, out_dir=str(tmp_path / "qhe"))
    pt = res.summary["points"][0]
    assert pt["trace"] == 0.0
    assert pt["residual"] == 0.0
    assert pt["gap"] == 1.0
    rows = open(res.csv_path, encoding="utf-8").read().strip().split("\n")[1:]
    assert rows == ["0,0"]


def test_run_qhe_phase_grid_is_trivial_at_zero_flux(tmp_path):
    cfg = validate_config({"experiment": "qhe", "L": 3, "J": [0.2],
                           "phi_grid": [0.0, 2 * math.pi]})
    res = run(cfg, out_dir=str(tmp_path / "qhe"))
    zero, full = res.summary["z_phase"]
    assert (zero["phi"], full["phi"]) == (0.0, 2 * math.pi)
    assert zero["patch_commutator"] <= 1e-12
    assert zero["det_residual"] <= 1e-12
    assert full["patch_commutator"] < 1e-8
    assert full["det_residual"] < 0.05


def test_failed_verdict_still_writes_files(tmp_path, monkeypatch):
    def stub(params, rng, mapper):
        rows = [(0.0, 1.0), (1.0, 2.0)]
        return ("x", "value"), rows, {"verdict": {"holds": False,
                                                  "min_margin": -0.5}}

    monkeypatch.setitem(harness._DRIVERS, "lr", stub)
    out = tmp_path / "bad"
    with pytest.raises(BoundViolationError, match="min margin"):
        run(ExperimentConfig(kind="lr", params={}), out_dir=str(out))
    # both artifacts must exist for post-mortem inspection
    assert (out / "curve.csv").exists()
    data = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert data["verdict"]["holds"] is False


# ---------------------------------------------------------------- CLI

def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_success(tmp_path, capsys):
    cfg = write_config(tmp_path, "ok.json", {
        "experiment": "liouvillian", "n_qubits": 2, "n_samples": 2,
        "betas": [0.5],
    })
    code = cli_main(["run", cfg, "--out", str(tmp_path / "o"), "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].endswith("curve.csv") and out[1].endswith("summary.json")
    assert os.path.exists(out[0]) and os.path.exists(out[1])


def test_cli_seed_override_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "ok.json", {
        "experiment": "liouvillian", "n_qubits": 2, "n_samples": 2,
        "betas": [0.5], "seed": 1,
    })
    assert cli_main(["run", cfg, "--out", str(tmp_path / "p"), "--seed", "9"]) == 0
    assert cli_main(["run", cfg, "--out", str(tmp_path / "q"), "--seed", "9"]) == 0
    assert filecmp.cmp(str(tmp_path / "p" / "curve.csv"),
                       str(tmp_path / "q" / "curve.csv"), shallow=False)


def test_cli_schema_error_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"experiment": "lr", "oops": 1})
    assert cli_main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli_main(["run", str(tmp_path / "missing.json")]) == 2


def test_cli_refuses_config_larger_than_memory(tmp_path, capsys):
    # one dense operator on 20 sites takes 16 * 4^20 B = 16 TiB; the run
    # must stop at the schema stage, before anything of that size exists
    cfg = write_config(tmp_path, "big.json", {
        "experiment": "lppl",
        "graph": {"kind": "chain", "n": 20},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1},
        "perturbation": {"site": 0, "strength": 0.3},
        "distances": [2, 3],
    })
    tracemalloc.start()
    try:
        code = cli_main(["run", cfg, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert peak < 10e6
    assert not (tmp_path / "o").exists()


def _flow_config(n, s_steps):
    return {
        "experiment": "flow",
        "graph": {"kind": "chain", "n": n},
        "model": {"kind": "tfim", "j": 1.0,
                  "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}},
        "split": {"rule": "lowest_k", "k": 1},
        "betas": [0.9, 0.7, 0.55, 0.45],
        "observable": {"site": 1, "op": "x"},
        "s_steps": s_steps,
    }


def test_cli_refuses_flow_whose_caches_exceed_memory(tmp_path, capsys, monkeypatch):
    # pin physical memory to 7 GiB, whatever the machine running the test has
    sysconf = os.sysconf
    pages = 7 * 2**30 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )

    def must_not_run(params, rng, mapper):
        raise AssertionError("the flow started instead of being refused")

    monkeypatch.setitem(harness._DRIVERS, "flow", must_not_run)
    # 401 cached real (H, V) pairs of 16 MiB plus 201 complex unitaries of
    # 16 MiB: 9.4 GiB
    cfg = write_config(tmp_path, "flow10.json", _flow_config(10, 200))
    tracemalloc.start()
    try:
        code = cli_main(["run", cfg, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert peak < 10e6
    assert not (tmp_path / "o").exists()
    # a chain of 9 needs 2.4 GiB, a chain of 6 with 400 steps 75 MiB, and
    # other experiments one dense operator: all are accepted
    for params in (_flow_config(9, 200), _flow_config(6, 400)):
        harness._refuse_oversized("flow", validate_config(params).params)
    harness._refuse_oversized("lppl", {"graph": {"kind": "chain", "n": 12}})


def test_cli_assumption_error_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "thin.json", {
        "experiment": "flow",
        "graph": {"kind": "chain", "n": 4},
        "model": {"kind": "tfim", "j": 1.0,
                  "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}},
        "split": {"rule": "lowest_k", "k": 1},
        "betas": [0.3],
        "observable": {"site": 1, "op": "x"},
        "s_steps": 40,
        "exact_control": False,
    })
    assert cli_main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "assumption failure" in capsys.readouterr().err


def test_cli_bound_violation_exits_4(tmp_path, capsys, monkeypatch):
    def stub(params, rng, mapper):
        return ("x", "value"), [(0.0, 1.0)], {"verdict": {"holds": False,
                                                          "min_margin": -1.0}}

    monkeypatch.setitem(harness._DRIVERS, "lr", stub)
    cfg = write_config(tmp_path, "viol.json", {
        "experiment": "lr",
        "graph": {"kind": "chain", "n": 4},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0, "site_b": 3,
        "times": {"start": 0.0, "stop": 1.0, "num": 5},
    })
    assert cli_main(["run", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "bound violation" in capsys.readouterr().err
