"""Strict-schema tests: every malformed config must be rejected with an
error that names the offending key, and valid configs must round-trip with
the documented defaults filled in."""

import json

import pytest

from smearlab.config import EXPERIMENT_KINDS, load_config, validate_config
from smearlab.errors import SchemaError


def lr_config(**over):
    cfg = {
        "experiment": "lr",
        "graph": {"kind": "chain", "n": 6},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0,
        "site_b": 4,
        "times": {"start": 0.0, "stop": 1.5, "num": 5},
    }
    cfg.update(over)
    return cfg


def flow_config(**over):
    cfg = {
        "experiment": "flow",
        "graph": {"kind": "chain", "n": 4},
        "model": {"kind": "tfim", "j": 1.0,
                  "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}},
        "split": {"rule": "lowest_k", "k": 1},
        "betas": [0.9, 0.7],
        "observable": {"site": 1, "op": "x"},
    }
    cfg.update(over)
    return cfg


def test_minimal_lr_defaults():
    cfg = validate_config(lr_config())
    assert cfg.kind == "lr"
    assert cfg.seed == 0
    assert cfg.out is None
    assert cfg.params["b"] == 0.5
    assert cfg.params["b_prime"] == 1.0
    assert cfg.params["op_a"] == "x"
    assert cfg.params["op_b"] == "x"
    assert cfg.params["times"] == {"start": 0.0, "stop": 1.5, "num": 5}


def test_top_level_structure():
    with pytest.raises(SchemaError, match="must be a JSON object"):
        validate_config([1, 2, 3])
    with pytest.raises(SchemaError, match=r"\['experiment'\]"):
        validate_config({"seed": 1})
    with pytest.raises(SchemaError, match="must be one of"):
        validate_config(lr_config(experiment="warp"))
    # every advertised kind has a parser
    for kind in EXPERIMENT_KINDS:
        assert isinstance(kind, str)


def test_unknown_and_missing_keys_are_named():
    with pytest.raises(SchemaError, match=r"unknown keys \['extra'\]"):
        validate_config(lr_config(extra=1))
    bad = lr_config()
    del bad["times"]
    with pytest.raises(SchemaError, match=r"missing required keys \['times'\]"):
        validate_config(bad)
    with pytest.raises(SchemaError, match=r"observable: unknown keys"):
        validate_config(flow_config(observable={"site": 1, "op": "x", "w": 2}))


def test_booleans_are_not_numbers():
    with pytest.raises(SchemaError, match="seed must be an integer"):
        validate_config(lr_config(seed=True))
    with pytest.raises(SchemaError, match=r"betas\[0\] must be a number"):
        validate_config(flow_config(betas=[True]))
    # a bool is not a valid coefficient path either
    with pytest.raises(SchemaError, match="model.j must be a JSON object"):
        validate_config(lr_config(model={"kind": "tfim", "j": True, "g": 2.0}))


def test_seed_threads_out():
    # old configs carry threads: 1, which is accepted and kept nowhere
    cfg = validate_config(lr_config(seed=11, threads=1, out="results"))
    assert (cfg.seed, cfg.out) == (11, "results")
    assert not hasattr(cfg, "threads")
    with pytest.raises(SchemaError, match="seed must be >= 0"):
        validate_config(lr_config(seed=-1))
    for threads in (2, 0, True, 1.0):
        with pytest.raises(SchemaError, match="threads must be 1, runs are serial"):
            validate_config(lr_config(threads=threads))
    with pytest.raises(SchemaError, match="out must be a string"):
        validate_config(lr_config(out=3))


def test_velocity_pair_order_is_enforced():
    err = None
    try:
        validate_config(lr_config(b=1.0, b_prime=0.5))
    except SchemaError as exc:
        err = str(exc)
    assert err is not None
    assert "b=1.0" in err and "b_prime=0.5" in err
    # equality is rejected too
    with pytest.raises(SchemaError, match="b < config.b_prime"):
        validate_config(lr_config(b=0.5, b_prime=0.5))
    cfg = validate_config(lr_config(b=0.3, b_prime=0.9))
    assert (cfg.params["b"], cfg.params["b_prime"]) == (0.3, 0.9)


def test_graph_parsing():
    with pytest.raises(SchemaError, match="graph.kind must be one of"):
        validate_config(lr_config(graph={"kind": "tree", "n": 4}))
    with pytest.raises(SchemaError, match="graph.n must be >= 2"):
        validate_config(lr_config(graph={"kind": "chain", "n": 1}))
    with pytest.raises(SchemaError, match="graph.n must be >= 3"):
        validate_config(lr_config(graph={"kind": "ring", "n": 2}))
    with pytest.raises(SchemaError, match="graph.lx must be >= 3"):
        validate_config(lr_config(graph={"kind": "torus", "lx": 2}))
    # torus takes lx/ly, not n, and ly defaults to lx
    with pytest.raises(SchemaError, match="graph: unknown keys"):
        validate_config(lr_config(graph={"kind": "torus", "lx": 3, "n": 9}))
    cfg = validate_config(lr_config(graph={"kind": "torus", "lx": 3}))
    assert cfg.params["graph"] == {"kind": "torus", "lx": 3, "ly": 3}


def test_model_parsing():
    with pytest.raises(SchemaError, match="model.kind must be one of"):
        validate_config(lr_config(model={"kind": "spins", "j": 1.0, "g": 2.0}))
    with pytest.raises(SchemaError, match=r"missing required keys \['g'\]"):
        validate_config(lr_config(model={"kind": "tfim", "j": 1.0}))
    cfg = validate_config(lr_config(
        model={"kind": "xy_charge", "j": 0.2, "h": 1.0}))
    assert cfg.params["model"]["kind"] == "xy_charge"


def test_coefficient_paths():
    poly = {"kind": "poly", "coeffs": [0.0, 1.0]}
    cfg = validate_config(lr_config(model={"kind": "tfim", "j": poly, "g": 2.0}))
    assert cfg.params["model"]["j"] == {"kind": "poly", "coeffs": [0.0, 1.0]}
    ramp = {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}
    cfg = validate_config(lr_config(model={"kind": "tfim", "j": 1.0, "g": ramp}))
    assert cfg.params["model"]["g"]["stop"] == 3.0
    with pytest.raises(SchemaError, match="model.g.kind must be one of"):
        validate_config(lr_config(
            model={"kind": "tfim", "j": 1.0, "g": {"kind": "spline"}}))
    with pytest.raises(SchemaError, match=r"model.j.coeffs\[1\] must be a number"):
        validate_config(lr_config(
            model={"kind": "tfim", "j": {"kind": "poly", "coeffs": [0.0, True]},
                   "g": 2.0}))


def test_split_parsing():
    with pytest.raises(SchemaError, match="split.rule must be one of"):
        validate_config(flow_config(split={"rule": "median"}))
    with pytest.raises(SchemaError, match="split.k must be >= 1"):
        validate_config(flow_config(split={"rule": "lowest_k", "k": 0}))
    with pytest.raises(SchemaError, match="split.lo < split.hi"):
        validate_config(flow_config(split={"rule": "window", "lo": 1.0, "hi": 1.0}))
    with pytest.raises(SchemaError, match="split.min_gap must be positive"):
        validate_config(flow_config(
            split={"rule": "lowest_k", "k": 1, "min_gap": 0.0}))
    cfg = validate_config(flow_config(split={"rule": "lowest_k", "k": 2}))
    assert cfg.params["split"] == {"rule": "lowest_k", "k": 2, "min_gap": 1e-8}
    cfg = validate_config(flow_config(
        split={"rule": "largest_gap_below", "energy": 1.5, "min_gap": 1e-6}))
    assert cfg.params["split"]["energy"] == 1.5


def test_time_grid():
    with pytest.raises(SchemaError, match="times.start must be >= 0"):
        validate_config(lr_config(times={"start": -0.5, "stop": 1.0, "num": 5}))
    with pytest.raises(SchemaError, match="times.start < times.stop"):
        validate_config(lr_config(times={"start": 1.0, "stop": 1.0, "num": 5}))
    with pytest.raises(SchemaError, match="times.num must be >= 2"):
        validate_config(lr_config(times={"start": 0.0, "stop": 1.0, "num": 1}))


def test_pauli_labels():
    with pytest.raises(SchemaError, match="op_a must be one of"):
        validate_config(lr_config(op_a="w"))
    cfg = validate_config(lr_config(op_a="z", op_b="y"))
    assert (cfg.params["op_a"], cfg.params["op_b"]) == ("z", "y")


def test_number_lists():
    with pytest.raises(SchemaError, match="betas must be a list"):
        validate_config(flow_config(betas=[]))
    with pytest.raises(SchemaError, match="must not contain duplicates"):
        validate_config(flow_config(betas=[0.5, 0.5]))
    with pytest.raises(SchemaError, match=r"betas\[1\] must be positive"):
        validate_config(flow_config(betas=[0.5, -0.7]))


@pytest.mark.parametrize("config, key", [
    (flow_config(betas=[float("nan")]), r"betas\[0\]"),
    (flow_config(betas=[0.5, float("inf")]), r"betas\[1\]"),
    ({"experiment": "qhe", "L": 3, "J": float("nan")}, "J"),
    ({"experiment": "qhe", "L": 3, "J": [0.1, float("nan")]}, r"J\[1\]"),
    (lr_config(times={"start": 0.0, "stop": float("inf"), "num": 5}), "times.stop"),
    (lr_config(model={"kind": "tfim", "j": float("-inf"), "g": 2.0}), "model.j"),
    (flow_config(split={"rule": "window", "lo": float("nan"), "hi": 1.0}), "split.lo"),
])
def test_non_finite_numbers_are_refused(config, key):
    with pytest.raises(SchemaError, match=f"^{key} must be finite"):
        validate_config(config)


def test_distances_strictly_increasing():
    base = {
        "experiment": "locality",
        "graph": {"kind": "chain", "n": 8},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "site_a": 0,
        "betas": [0.5],
    }
    with pytest.raises(SchemaError, match="distances must be strictly increasing"):
        validate_config({**base, "distances": [3, 2]})
    with pytest.raises(SchemaError, match="distances must be strictly increasing"):
        validate_config({**base, "distances": [2, 2]})
    with pytest.raises(SchemaError, match=r"distances\[0\] must be >= 1"):
        validate_config({**base, "distances": [0, 1]})
    cfg = validate_config({**base, "distances": [2, 3, 5]})
    assert cfg.params["distances"] == [2, 3, 5]


def test_liouvillian_defaults():
    cfg = validate_config({"experiment": "liouvillian"})
    assert cfg.params == {"n_qubits": 3, "n_samples": 10,
                          "betas": [0.5, 1.0, 2.0]}
    with pytest.raises(SchemaError, match="n_qubits must be >= 1"):
        validate_config({"experiment": "liouvillian", "n_qubits": 0})
    # the dense quadrature oracle stops at 6 qubits
    assert validate_config({"experiment": "liouvillian",
                            "n_qubits": 6}).params["n_qubits"] == 6
    with pytest.raises(SchemaError, match=r"n_qubits must be <= 6 \(got 7\)"):
        validate_config({"experiment": "liouvillian", "n_qubits": 7})


def test_flow_defaults_and_exact_control():
    cfg = validate_config(flow_config())
    assert cfg.params["s_steps"] == 200
    assert cfg.params["exact_control"] is True
    assert cfg.params["observable"] == {"site": 1, "op": "x"}
    with pytest.raises(SchemaError, match="exact_control must be a boolean"):
        validate_config(flow_config(exact_control=1))
    with pytest.raises(SchemaError, match="s_steps must be >= 2"):
        validate_config(flow_config(s_steps=1))


def test_lppl_parsing():
    base = {
        "experiment": "lppl",
        "graph": {"kind": "chain", "n": 8},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1},
        "perturbation": {"site": 0, "strength": 0.3},
        "distances": [2, 3, 4],
    }
    cfg = validate_config(base)
    assert cfg.params["perturbation"] == {"site": 0, "op": "z", "strength": 0.3}
    assert cfg.params["observable_op"] == "z"
    with pytest.raises(SchemaError, match="perturbation.site must be >= 0"):
        validate_config({**base, "perturbation": {"site": -1, "strength": 0.3}})
    with pytest.raises(SchemaError, match=r"missing required keys \['strength'\]"):
        validate_config({**base, "perturbation": {"site": 0}})


def test_cluster_defaults():
    base = {
        "experiment": "cluster",
        "graph": {"kind": "ring", "n": 8},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1},
        "site_a": 0,
        "distances": [2, 3, 4],
    }
    cfg = validate_config(base)
    assert cfg.params["op_a"] == "z"
    assert cfg.params["op_b"] == "z"
    assert cfg.params["n_state_samples"] == 5
    with pytest.raises(SchemaError, match="n_state_samples must be >= 0"):
        validate_config({**base, "n_state_samples": -1})


def test_qhe_parsing():
    cfg = validate_config({"experiment": "qhe", "L": 3, "J": 0.2})
    assert cfg.params["L"] == 3
    assert cfg.params["j_values"] == [0.2]
    assert cfg.params["h"] == 1.0
    assert cfg.params["beta"] is None
    assert cfg.params["strip_width"] is None
    assert cfg.params["phi_grid"] is None
    assert cfg.params["split"] == {"rule": "lowest_k", "k": 1, "min_gap": 1e-8}

    cfg = validate_config({"experiment": "qhe", "L": 3, "J": [0.2, 0.1, 0.05],
                           "beta": 0.6, "phi_grid": [0.0, 6.28]})
    assert cfg.params["j_values"] == [0.2, 0.1, 0.05]
    assert cfg.params["beta"] == 0.6

    with pytest.raises(SchemaError, match="L must be >= 3"):
        validate_config({"experiment": "qhe", "L": 2, "J": 0.2})
    with pytest.raises(SchemaError, match="J must be >= 0"):
        validate_config({"experiment": "qhe", "L": 3, "J": -0.1})
    with pytest.raises(SchemaError, match="J entries must be >= 0"):
        validate_config({"experiment": "qhe", "L": 3, "J": [0.2, -0.1]})
    with pytest.raises(SchemaError, match="h must be positive"):
        validate_config({"experiment": "qhe", "L": 3, "J": 0.2, "h": 0.0})
    with pytest.raises(SchemaError, match="strip_width must be >= 1"):
        validate_config({"experiment": "qhe", "L": 3, "J": 0.2, "strip_width": 0})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(lr_config(seed=5)), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.kind == "lr" and cfg.seed == 5

    with pytest.raises(SchemaError, match="cannot read config file"):
        load_config(str(tmp_path / "missing.json"))

    bad = tmp_path / "bad.json"
    bad.write_text("{не json", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_config(str(bad))
