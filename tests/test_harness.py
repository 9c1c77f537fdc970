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
from smearlab.algebra import pauli_string
from smearlab.cli import main as cli_main
from smearlab.config import ExperimentConfig, validate_config
from smearlab.errors import (
    AssumptionError,
    BoundViolationError,
    FitError,
    SchemaError,
)
from smearlab.flow import exact_flow_intertwining
from smearlab.harness import DecayCurve, fit_exponential, run, write_csv, write_summary
from smearlab.interaction import TrigRampPath, tfim
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
    assert filecmp.cmp(a.csv_path, b.csv_path, shallow=False)
    assert filecmp.cmp(a.summary_path, b.summary_path, shallow=False)


def test_run_rejects_bad_sites(tmp_path):
    with pytest.raises(SchemaError, match="site_b must be < 4 sites"):
        run(lr_config(site_b=9), out_dir=str(tmp_path / "x"))
    loc = validate_config({
        "experiment": "locality",
        "graph": {"kind": "chain", "n": 5},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0, "distances": [7], "betas": [0.5],
    })
    with pytest.raises(SchemaError, match="no site at distance 7"):
        run(loc, out_dir=str(tmp_path / "z"))


_CHAIN6 = {"graph": {"kind": "chain", "n": 6}, "model": {"kind": "tfim", "j": 1.0, "g": 2.0}}
_SITE_SEARCHES = {
    "locality": {"site_a": 0, "betas": [0.5]},
    "lppl": {"split": {"rule": "lowest_k", "k": 1},
             "perturbation": {"site": 0, "strength": 0.3}},
    "cluster": {"split": {"rule": "lowest_k", "k": 1}, "site_a": 0},
}


@pytest.mark.parametrize("kind", sorted(_SITE_SEARCHES))
def test_unreachable_distance_exits_2_for_every_kind(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, "far.json", {
        "experiment": kind, **_CHAIN6, **_SITE_SEARCHES[kind], "distances": [2, 7]})
    assert cli_main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "no site at distance 7 from sites [0]" in capsys.readouterr().err


_CHAIN4_RAMP = {"graph": {"kind": "chain", "n": 4},
                "model": {"kind": "tfim", "j": 1.0,
                          "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}}}
_GAPPED = {
    "flow": {**_CHAIN4_RAMP, "betas": [0.9], "observable": {"site": 1, "op": "x"},
             "s_steps": 4},
    "lppl": {**_CHAIN4_RAMP, "perturbation": {"site": 0, "strength": 0.3},
             "distances": [1, 2]},
    "cluster": {**_CHAIN6, "site_a": 0, "distances": [1, 2]},
    "qhe": {"L": 3, "J": [0.2]},
}


@pytest.mark.parametrize("kind", sorted(_GAPPED))
def test_split_floor_reaches_every_driver(tmp_path, kind):
    # every realized gap here is below 3, so a floor of 100 must stop the run
    cfg = validate_config({"experiment": kind, **_GAPPED[kind],
                           "split": {"rule": "lowest_k", "k": 1, "min_gap": 100.0}})
    with pytest.raises(AssumptionError, match="below the configured minimum 1.000e[+]02"):
        run(cfg, out_dir=str(tmp_path / kind))


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
    assert "transport_defect" not in res.summary
    # the field ramps up from g = 2, so the gap is smallest at s = 0
    sd0 = diagonalize(tfim(build_chain(4), 1.0, 2.0).hamiltonian())
    assert res.summary["min_gap_along_path"] == split_spectrum(sd0, lowest_k(1)).gap
    rows = open(res.csv_path, encoding="utf-8").read().strip().split("\n")[1:]
    xs = [float(r.split(",")[0]) for r in rows]
    assert xs == sorted(xs) and abs(xs[0] - 0.9**-2) < 1e-12


def test_run_flow_reports_the_exact_control_transport_defect(tmp_path):
    params = dict(_flow_config(4, 40), betas=[0.9, 0.7])
    cfg = validate_config(params)
    a = run(cfg, out_dir=str(tmp_path / "a"))
    errors, defect = exact_flow_intertwining(
        tfim(build_chain(4), 1.0, TrigRampPath(2.0, 3.0)), lowest_k(1),
        [pauli_string("x", (1,)).embed(4)], s_steps=40)
    assert a.summary["exact_control_error"] == float(errors.max())
    assert a.summary["transport_defect"] == defect
    assert 0.0 < a.summary["transport_defect"] < 1e-8


_HEALTH_RUNS = {
    "lr": ({"experiment": "lr", **_CHAIN6, "site_a": 0, "site_b": 4,
            "times": {"start": 0.0, "stop": 1.0, "num": 5}}, "residual"),
    "locality": ({"experiment": "locality", **_CHAIN6, "site_a": 0, "distances": [2, 3],
                  "betas": [0.5]}, "residual"),
    "flow": ({**_CHAIN4_RAMP, "experiment": "flow", "split": {"rule": "lowest_k", "k": 1},
              "betas": [0.9, 0.7, 0.55], "observable": {"site": 1, "op": "x"},
              "s_steps": 40}, "transport_defects"),
}


@pytest.mark.parametrize("kind", sorted(_HEALTH_RUNS))
def test_summaries_state_their_numerical_health_alike_twice(tmp_path, kind):
    # lr and locality: max ||H v - E v|| over the whole eigenbasis; the
    # flow: ||W^dagger W - 1|| of each beta's final block, beside x
    params, key = _HEALTH_RUNS[kind]
    cfg = validate_config(params)
    one, two = (run(cfg, out_dir=str(tmp_path / name)) for name in ("one", "two"))
    assert filecmp.cmp(one.summary_path, two.summary_path, shallow=False)
    health = one.summary[key]
    if kind == "flow":
        assert len(health) == len(params["betas"])
        assert all(0.0 < d < 1e-8 for d in health)
    else:
        assert 0.0 <= health <= 1e-12


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
    # the health of the patch eigenvectors, ||H V0 - V0 E0||, is deterministic
    assert res.summary["patch_residual"] <= 1e-12
    again = run(cfg, out_dir=str(tmp_path / "again"), seed=3)
    assert again.summary == res.summary


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


def test_run_qhe_phase_grid_diagonalizes_three_times(tmp_path, monkeypatch):
    # H, the upper and the right dressed charge: one eigh per charge
    # sector each, C(9, k) states at charge k, however many angles the
    # grid holds
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw))
    cfg = validate_config({"experiment": "qhe", "L": 3, "J": [0.2],
                           "phi_grid": [0.0, 1.0, 2 * math.pi]})
    res = run(cfg, out_dir=str(tmp_path / "qhe"))
    assert len(res.summary["z_phase"]) == 3
    assert calls == [(math.comb(9, k),) * 2 for k in range(10)] * 3


def test_failed_verdict_still_writes_files(tmp_path, monkeypatch):
    def stub(params, rng):
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
    capsys.readouterr()
    # json reads the NaN literal; the schema refuses it before the run
    nan = write_config(tmp_path, "nan.json", {
        "experiment": "liouvillian", "n_qubits": 2, "betas": [float("nan")],
    })
    assert cli_main(["run", nan, "--out", str(tmp_path / "o")]) == 2
    assert "betas[0] must be finite" in capsys.readouterr().err
    ok = write_config(tmp_path, "ok.json", {"experiment": "liouvillian"})
    assert cli_main(["run", ok, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_has_no_threads_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, "ok.json", {"experiment": "liouvillian"})
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", cfg, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_refuses_config_larger_than_memory(tmp_path, capsys):
    # one dense operator on 20 sites takes 16 * 4^20 B = 16 TiB; the run
    # must stop at the schema stage, before anything of that size exists
    cfg = write_config(tmp_path, "big.json", {
        "experiment": "lppl",
        "graph": {"kind": "chain", "n": 20},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "window", "lo": -30.0, "hi": -20.0},
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

    def must_not_run(params, rng):
        raise AssertionError("the flow started instead of being refused")

    monkeypatch.setitem(harness._DRIVERS, "flow", must_not_run)
    # three real (H, V) pairs of 1 GiB and the generator's temporaries: 19 GiB
    cfg = write_config(tmp_path, "flow13.json", _flow_config(13, 400))
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
    # a chain of 9 at 200 steps needs 76 MiB, a chain of 6 at 400 steps
    # 1.2 MiB, and a dense lppl on a chain of 12 1.5 GiB: all are accepted
    for params in (_flow_config(9, 200), _flow_config(6, 400)):
        harness._refuse_oversized("flow", validate_config(params).params)
    harness._refuse_oversized("lppl", {"graph": {"kind": "chain", "n": 12}})


def test_flow_is_sized_by_its_eigenvalue_cache(monkeypatch):
    sysconf = os.sysconf
    pages = 7 * 2**30 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )

    def flow(n, s_steps, split=None):
        return validate_config(dict(_flow_config(n, s_steps),
                                    **({"split": split} if split else {}))).params

    # 304 B per entry for the three points of one RK4 step and the
    # generator, plus 16 B per entry of each beta's current dim x p block:
    # 4.75 GiB on a chain of 12 at 400 steps, 19 GiB on 13
    harness._refuse_oversized("flow", flow(12, 400))
    with pytest.raises(SchemaError, match="GiB"):
        harness._refuse_oversized("flow", flow(13, 400))
    # a window may hold up to dim - 1 levels, and its blocks are counted at
    # that width: 0.36 GiB on a chain of 10 at 200 steps, 0.30 GiB under
    # k = 1; both are admitted, since only the current blocks are kept
    harness._refuse_oversized("flow", flow(10, 200))
    harness._refuse_oversized("flow", flow(10, 200, {"rule": "window", "lo": -20.0,
                                                     "hi": -10.0}))


def test_flow_admits_a_chain_of_10_at_400_steps(monkeypatch):
    sysconf = os.sysconf
    memory = {"bytes": 7 * 2**30}
    monkeypatch.setattr(os, "sysconf", lambda name: (
        memory["bytes"] // sysconf("SC_PAGE_SIZE") if name == "SC_PHYS_PAGES"
        else sysconf(name)))
    params = validate_config(_flow_config(10, 400)).params
    # a cache of all 801 points the RK4 steps visit made 12.8 GiB; three of
    # them, the generator and four betas' blocks make 0.30 GiB
    harness._refuse_oversized("flow", params)
    memory["bytes"] = 256 * 2**20
    with pytest.raises(SchemaError, match="GiB"):
        harness._refuse_oversized("flow", params)


def test_lppl_under_lowest_k_is_sized_by_its_sparse_route(monkeypatch):
    sysconf = os.sysconf
    pages = 7 * 2**30 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )

    def lppl(n, split):
        return validate_config({
            "experiment": "lppl", "graph": {"kind": "chain", "n": n},
            "model": {"kind": "tfim", "j": 1.0, "g": 2.0}, "split": split,
            "perturbation": {"site": 0, "strength": 0.3}, "distances": [2, 3],
        }).params

    # a chain of 15: 30 terms of 2^15 sparse entries, 90 MiB at 96 B each
    harness._refuse_oversized("lppl", lppl(15, {"rule": "lowest_k", "k": 1}))
    # the dense rules hold a 16 GiB matrix there, and a chain of 30 overflows
    # the sparse route too
    for n, split in ((15, {"rule": "window", "lo": -30.0, "hi": -20.0}),
                     (15, {"rule": "largest_gap_below", "energy": 0.0}),
                     (30, {"rule": "lowest_k", "k": 1})):
        with pytest.raises(SchemaError, match="GiB"):
            harness._refuse_oversized("lppl", lppl(n, split))


def test_lr_is_sized_by_its_isometry_route(monkeypatch):
    sysconf = os.sysconf
    pages = 7 * 2**30 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )

    def lr(n):
        return validate_config({
            "experiment": "lr", "graph": {"kind": "chain", "n": n},
            "model": {"kind": "tfim", "j": 1.0, "g": 2.0}, "site_a": 0, "site_b": 4,
            "times": {"start": 0.0, "stop": 1.0, "num": 5},
        }).params

    # 112 B per entry of a 4^n matrix: 1.75 GiB on 12 sites, 28 GiB on 14;
    # one dense complex matrix (4 GiB) would let the 14 sites through
    harness._refuse_oversized("lr", lr(12))
    with pytest.raises(SchemaError, match="GiB"):
        harness._refuse_oversized("lr", lr(14))


def test_cluster_and_locality_are_sized_by_their_routes(monkeypatch):
    sysconf = os.sysconf
    pages = 7 * 2**30 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )
    tfim_model = {"kind": "tfim", "j": 1.0, "g": 2.0}

    def cluster(n):
        return validate_config({
            "experiment": "cluster", "graph": {"kind": "ring", "n": n},
            "model": tfim_model, "split": {"rule": "lowest_k", "k": 1},
            "site_a": 0, "distances": [2, 3],
        }).params

    def locality(n):
        return validate_config({
            "experiment": "locality", "graph": {"kind": "chain", "n": n},
            "model": tfim_model, "site_a": 0, "distances": [2, 3], "betas": [0.5],
        }).params

    # 48 B per entry: 3 GiB on a ring of 13, 12 GiB on 14; one dense complex
    # matrix (4 GiB) would let the 14 sites through
    harness._refuse_oversized("cluster", cluster(13))
    with pytest.raises(SchemaError, match="GiB"):
        harness._refuse_oversized("cluster", cluster(14))
    # 176 B per entry: 2.75 GiB on a chain of 12, 11 GiB on 13 (1 GiB before)
    harness._refuse_oversized("locality", locality(12))
    with pytest.raises(SchemaError, match="GiB"):
        harness._refuse_oversized("locality", locality(13))


def test_qhe_is_sized_by_what_it_holds(monkeypatch):
    sysconf = os.sysconf
    memory = {"bytes": 7 * 2**30}
    monkeypatch.setattr(os, "sysconf", lambda name: (
        memory["bytes"] // sysconf("SC_PAGE_SIZE") if name == "SC_PHYS_PAGES"
        else sysconf(name)))

    def qhe(L):
        return validate_config({"experiment": "qhe", "L": L, "J": [0.2]}).params

    # 160 B per entry of the charge blocks, C(2n, n) of them, n = L^2, and
    # no dense H: 7.8 MB on the 3 x 3 torus, 90 GiB on the 4 x 4 one
    harness._refuse_oversized("qhe", qhe(3))
    with pytest.raises(SchemaError, match="GiB"):
        harness._refuse_oversized("qhe", qhe(4))
    # the 3 x 3 torus needs 160 C(18, 9) B: one page less is refused
    need = 160 * math.comb(18, 9)
    page = sysconf("SC_PAGE_SIZE")
    memory["bytes"] = -(-need // page) * page
    harness._refuse_oversized("qhe", qhe(3))
    memory["bytes"] -= page
    with pytest.raises(SchemaError, match="GiB"):
        harness._refuse_oversized("qhe", qhe(3))


_TFIM = {"kind": "tfim", "j": 1.0, "g": 2.0}
_BOTTOM = {"rule": "lowest_k", "k": 1}
_SMALL_RUNS = {
    "lr": {"experiment": "lr", "graph": {"kind": "chain", "n": 8}, "model": _TFIM,
           "site_a": 0, "site_b": 4, "times": {"start": 0.0, "stop": 1.0, "num": 5}},
    "cluster": {"experiment": "cluster", "graph": {"kind": "ring", "n": 8}, "model": _TFIM,
                "split": _BOTTOM, "site_a": 0, "op_a": "y", "op_b": "y",
                "distances": [2, 3, 4], "n_state_samples": 3},
    "locality": {"experiment": "locality", "graph": {"kind": "chain", "n": 8},
                 "model": _TFIM, "site_a": 0, "distances": [2, 3], "betas": [0.5]},
    "lppl": {"experiment": "lppl", "graph": {"kind": "chain", "n": 10}, "model": _TFIM,
             "split": _BOTTOM, "perturbation": {"site": 0, "strength": 0.3},
             "distances": [2, 3, 4]},
    "lppl-dense": {"experiment": "lppl", "graph": {"kind": "chain", "n": 8}, "model": _TFIM,
                   "split": {"rule": "largest_gap_below", "energy": -8.0},
                   "perturbation": {"site": 0, "strength": 0.3}, "distances": [2, 3, 4]},
    "flow": {**_flow_config(7, 40), "betas": [0.9, 0.7]},
    # a patch of half the spectrum (minimum gap 0.265 along the path)
    "flow-window": {**_flow_config(6, 20), "split": {"rule": "window", "lo": -100.0,
                                                     "hi": 0.0}},
    "qhe": {"experiment": "qhe", "L": 3, "J": [0.2]},
    "liouvillian": {"experiment": "liouvillian", "n_qubits": 3, "n_samples": 1,
                    "betas": [0.5]},
}


@pytest.mark.parametrize("name", sorted(_SMALL_RUNS))
def test_traced_peak_stays_within_the_counted_bytes(tmp_path, name):
    # tracemalloc sees every numpy array but not the LAPACK workspace, so
    # this is a floor under the count: it catches an array a count forgot.
    # The quadrature oracle's lazy import is module code, not matrices.
    import scipy.integrate  # noqa: F401

    cfg = validate_config(_SMALL_RUNS[name])
    tracemalloc.start()
    try:
        run(cfg, out_dir=str(tmp_path / name))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= harness._needed_bytes(cfg.kind, cfg.params)


@pytest.mark.parametrize("name", ["cluster", "locality", "lr"])
def test_verdicts_show_the_slack_they_hold_by(tmp_path, name):
    # lr's margin at t = 0 is rounding noise about a bound of exactly 0
    res = run(validate_config(_SMALL_RUNS[name]), out_dir=str(tmp_path / name))
    verdict = res.summary["verdict"]
    assert verdict["slack"] == 1e-12
    assert verdict["holds"] is True
    assert verdict["holds"] == (verdict["min_margin"] >= -verdict["slack"])


def test_run_locality_solves_no_commutator_at_full_dimension(tmp_path, monkeypatch):
    sizes = []
    for name in ("eigvalsh", "eigh"):
        wrapped = getattr(np.linalg, name)

        def counted(a, *args, _wrapped=wrapped, _name=name, **kwargs):
            sizes.append((_name, a.shape[0]))
            return _wrapped(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    cfg = validate_config({
        "experiment": "locality",
        "graph": {"kind": "chain", "n": 6},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0, "op_b": "y", "distances": [2, 3], "betas": [0.5, 0.7],
    })
    res = run(cfg, out_dir=str(tmp_path / "loc"))
    assert res.summary["verdict"]["holds"] is True
    # nothing is solved at dimension 64: H, flip-even, is diagonalized as
    # its two spin-flip sectors of dimension 32, and each of the four norms
    # is one Gram matrix of dimension 32
    assert [s for s in sizes if s[1] == 64] == []
    assert sizes.count(("eigh", 32)) == 2
    assert sizes.count(("eigvalsh", 32)) == 4


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
    def stub(params, rng):
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
