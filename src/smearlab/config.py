"""Strict JSON configuration schema for the experiment runner.

Every run is described by one JSON object.  Validation is strict: unknown
keys are rejected, every constraint violation names the offending key, and
nothing is coerced silently.  The parsed result is plain data; the runner
builds graphs, models, and split rules from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import SchemaError

__all__ = ["ExperimentConfig", "load_config", "validate_config", "seed_value",
           "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = ("lr", "liouvillian", "locality", "flow", "lppl", "cluster", "qhe")

_PAULI_LABELS = ("x", "y", "z")


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    out: str | None = None
    params: dict = field(default_factory=dict)


def load_config(path):
    """Read and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    return validate_config(data)


def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object")
    return obj


def _check_keys(obj, where, required, optional=()):
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing required keys {missing}")


def _number(value, where, minimum=None, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError(f"{where} must be finite (got {value})")
    if positive and value <= 0:
        raise SchemaError(f"{where} must be positive (got {value})")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where} must be >= {minimum} (got {value})")
    return value


def _integer(value, where, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where} must be >= {minimum} (got {value})")
    if maximum is not None and value > maximum:
        raise SchemaError(f"{where} must be <= {maximum} (got {value})")
    return value


def _string(value, where, choices=None):
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string")
    if choices is not None and value not in choices:
        raise SchemaError(f"{where} must be one of {list(choices)} (got {value!r})")
    return value


def _number_list(value, where, positive=False):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where} must be a list with at least one entry")
    out = [_number(v, f"{where}[{i}]", positive=positive) for i, v in enumerate(value)]
    if len(set(out)) != len(out):
        raise SchemaError(f"{where} must not contain duplicates")
    return out


def _integer_list(value, where, minimum=None):
    """A non-empty, strictly increasing list of integers."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where} must be a non-empty list")
    out = [_integer(v, f"{where}[{i}]", minimum=minimum) for i, v in enumerate(value)]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise SchemaError(f"{where} must be strictly increasing")
    return out


def _parse_path_value(value, where):
    """A coefficient is a number, a polynomial in s, or a smooth ramp."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, where)
    obj = _require_mapping(value, where)
    kind = _string(obj.get("kind"), f"{where}.kind", ("poly", "trig_ramp"))
    if kind == "poly":
        _check_keys(obj, where, ("kind", "coeffs"))
        coeffs = _number_list(obj["coeffs"], f"{where}.coeffs")
        return {"kind": "poly", "coeffs": coeffs}
    _check_keys(obj, where, ("kind", "start", "stop"))
    return {
        "kind": "trig_ramp",
        "start": _number(obj["start"], f"{where}.start"),
        "stop": _number(obj["stop"], f"{where}.stop"),
    }


def _parse_graph(obj):
    obj = _require_mapping(obj, "graph")
    kind = _string(obj.get("kind"), "graph.kind", ("chain", "ring", "torus"))
    if kind == "torus":
        _check_keys(obj, "graph", ("kind", "lx"), ("ly",))
        lx = _integer(obj["lx"], "graph.lx", minimum=3)
        ly = _integer(obj.get("ly", lx), "graph.ly", minimum=3)
        return {"kind": "torus", "lx": lx, "ly": ly}
    _check_keys(obj, "graph", ("kind", "n"))
    n = _integer(obj["n"], "graph.n", minimum=3 if kind == "ring" else 2)
    return {"kind": kind, "n": n}


def _parse_model(obj):
    obj = _require_mapping(obj, "model")
    kind = _string(obj.get("kind"), "model.kind", ("tfim", "xy_charge"))
    if kind == "tfim":
        _check_keys(obj, "model", ("kind", "j", "g"))
        return {
            "kind": "tfim",
            "j": _parse_path_value(obj["j"], "model.j"),
            "g": _parse_path_value(obj["g"], "model.g"),
        }
    _check_keys(obj, "model", ("kind", "j", "h"))
    return {
        "kind": "xy_charge",
        "j": _parse_path_value(obj["j"], "model.j"),
        "h": _parse_path_value(obj["h"], "model.h"),
    }


def _parse_split(obj):
    obj = _require_mapping(obj, "split")
    rule = _string(obj.get("rule"), "split.rule",
                   ("lowest_k", "window", "largest_gap_below"))
    out = {"rule": rule}
    if rule == "lowest_k":
        _check_keys(obj, "split", ("rule", "k"), ("min_gap",))
        out["k"] = _integer(obj["k"], "split.k", minimum=1)
    elif rule == "window":
        _check_keys(obj, "split", ("rule", "lo", "hi"), ("min_gap",))
        out["lo"] = _number(obj["lo"], "split.lo")
        out["hi"] = _number(obj["hi"], "split.hi")
        if out["hi"] <= out["lo"]:
            raise SchemaError("split.lo < split.hi is required")
    else:
        _check_keys(obj, "split", ("rule", "energy"), ("min_gap",))
        out["energy"] = _number(obj["energy"], "split.energy")
    out["min_gap"] = _number(obj.get("min_gap", 1e-8), "split.min_gap", positive=True)
    return out


def _parse_time_grid(obj):
    obj = _require_mapping(obj, "times")
    _check_keys(obj, "times", ("start", "stop", "num"))
    start = _number(obj["start"], "times.start", minimum=0.0)
    stop = _number(obj["stop"], "times.stop")
    if stop <= start:
        raise SchemaError("times.start < times.stop is required")
    num = _integer(obj["num"], "times.num", minimum=2)
    return {"start": start, "stop": stop, "num": num}


def _parse_pauli(value, where, default=None):
    if value is None:
        return default
    return _string(value, where, _PAULI_LABELS)


def _lr_velocity_pair(obj, where):
    b = _number(obj.get("b", 0.5), f"{where}.b", positive=True)
    b_prime = _number(obj.get("b_prime", 1.0), f"{where}.b_prime", positive=True)
    if b >= b_prime:
        raise SchemaError(f"{where}.b < {where}.b_prime is required "
                          f"(got b={b}, b_prime={b_prime})")
    return b, b_prime


_COMMON_OPTIONAL = ("seed", "out", "threads")


def seed_value(value):
    """The RNG seed, from a config or an override: an integer >= 0."""
    return _integer(value, "seed", minimum=0)


def validate_config(data):
    data = _require_mapping(data, "config")
    if "experiment" not in data:
        raise SchemaError("config: missing required keys ['experiment']")
    kind = _string(data["experiment"], "experiment", EXPERIMENT_KINDS)

    seed = seed_value(data.get("seed", 0))
    # Old configs carry `threads`; runs are serial, so only 1 is legal.
    threads = data.get("threads", 1)
    if type(threads) is not int or threads != 1:
        raise SchemaError(f"threads must be 1, runs are serial (got {threads!r})")
    out = None if "out" not in data else _string(data["out"], "out")

    parser = _KIND_PARSERS[kind]
    params = parser(data)
    return ExperimentConfig(kind=kind, seed=seed, out=out, params=params)


def _parse_lr(data):
    _check_keys(data, "config",
                ("experiment", "graph", "model", "site_a", "site_b", "times"),
                _COMMON_OPTIONAL + ("op_a", "op_b", "b", "b_prime"))
    graph = _parse_graph(data["graph"])
    b, b_prime = _lr_velocity_pair(data, "config")
    return {
        "graph": graph,
        "model": _parse_model(data["model"]),
        "site_a": _integer(data["site_a"], "site_a", minimum=0),
        "site_b": _integer(data["site_b"], "site_b", minimum=0),
        "op_a": _parse_pauli(data.get("op_a"), "op_a", "x"),
        "op_b": _parse_pauli(data.get("op_b"), "op_b", "x"),
        "times": _parse_time_grid(data["times"]),
        "b": b,
        "b_prime": b_prime,
    }


def _parse_liouvillian(data):
    _check_keys(data, "config", ("experiment",),
                _COMMON_OPTIONAL + ("n_qubits", "n_samples", "betas"))
    return {
        "n_qubits": _integer(data.get("n_qubits", 3), "n_qubits", minimum=1,
                             maximum=6),
        "n_samples": _integer(data.get("n_samples", 10), "n_samples", minimum=1),
        "betas": _number_list(data.get("betas", [0.5, 1.0, 2.0]), "betas",
                              positive=True),
    }


def _parse_locality(data):
    _check_keys(data, "config",
                ("experiment", "graph", "model", "site_a", "distances", "betas"),
                _COMMON_OPTIONAL + ("op_a", "op_b", "b", "b_prime"))
    b, b_prime = _lr_velocity_pair(data, "config")
    return {
        "graph": _parse_graph(data["graph"]),
        "model": _parse_model(data["model"]),
        "site_a": _integer(data["site_a"], "site_a", minimum=0),
        "distances": _integer_list(data["distances"], "distances", minimum=1),
        "betas": _number_list(data["betas"], "betas", positive=True),
        "op_a": _parse_pauli(data.get("op_a"), "op_a", "x"),
        "op_b": _parse_pauli(data.get("op_b"), "op_b", "x"),
        "b": b,
        "b_prime": b_prime,
    }


def _parse_flow(data):
    _check_keys(data, "config",
                ("experiment", "graph", "model", "split", "betas", "observable"),
                _COMMON_OPTIONAL + ("s_steps", "exact_control"))
    obs = _require_mapping(data["observable"], "observable")
    _check_keys(obs, "observable", ("site", "op"))
    exact = data.get("exact_control", True)
    if not isinstance(exact, bool):
        raise SchemaError("exact_control must be a boolean")
    return {
        "graph": _parse_graph(data["graph"]),
        "model": _parse_model(data["model"]),
        "split": _parse_split(data["split"]),
        "betas": _number_list(data["betas"], "betas", positive=True),
        "observable": {
            "site": _integer(obs["site"], "observable.site", minimum=0),
            "op": _parse_pauli(obs["op"], "observable.op"),
        },
        "s_steps": _integer(data.get("s_steps", 200), "s_steps", minimum=2),
        "exact_control": exact,
    }


def _parse_lppl(data):
    _check_keys(data, "config",
                ("experiment", "graph", "model", "split", "perturbation",
                 "distances"),
                _COMMON_OPTIONAL + ("observable_op",))
    pert = _require_mapping(data["perturbation"], "perturbation")
    _check_keys(pert, "perturbation", ("site", "strength"), ("op",))
    return {
        "graph": _parse_graph(data["graph"]),
        "model": _parse_model(data["model"]),
        "split": _parse_split(data["split"]),
        "perturbation": {
            "site": _integer(pert["site"], "perturbation.site", minimum=0),
            "op": _parse_pauli(pert.get("op"), "perturbation.op", "z"),
            "strength": _number(pert["strength"], "perturbation.strength"),
        },
        "distances": _integer_list(data["distances"], "distances", minimum=1),
        "observable_op": _parse_pauli(data.get("observable_op"),
                                      "observable_op", "z"),
    }


def _parse_cluster(data):
    _check_keys(data, "config",
                ("experiment", "graph", "model", "split", "site_a", "distances"),
                _COMMON_OPTIONAL + ("op_a", "op_b", "n_state_samples"))
    return {
        "graph": _parse_graph(data["graph"]),
        "model": _parse_model(data["model"]),
        "split": _parse_split(data["split"]),
        "site_a": _integer(data["site_a"], "site_a", minimum=0),
        "distances": _integer_list(data["distances"], "distances", minimum=1),
        "op_a": _parse_pauli(data.get("op_a"), "op_a", "z"),
        "op_b": _parse_pauli(data.get("op_b"), "op_b", "z"),
        "n_state_samples": _integer(data.get("n_state_samples", 5),
                                    "n_state_samples", minimum=0),
    }


def _parse_qhe(data):
    _check_keys(data, "config", ("experiment", "L", "J"),
                _COMMON_OPTIONAL + ("h", "beta", "strip_width", "phi_grid",
                                    "split"))
    L = _integer(data["L"], "L", minimum=3)
    j_raw = data["J"]
    if isinstance(j_raw, list):
        j_values = _number_list(j_raw, "J", positive=False)
        if any(j < 0 for j in j_values):
            raise SchemaError("J entries must be >= 0")
    else:
        j_values = [_number(j_raw, "J", minimum=0.0)]
    out = {
        "L": L,
        "j_values": j_values,
        "h": _number(data.get("h", 1.0), "h", positive=True),
        "beta": (None if "beta" not in data
                 else _number(data["beta"], "beta", positive=True)),
        "strip_width": (None if "strip_width" not in data
                        else _integer(data["strip_width"], "strip_width",
                                      minimum=1)),
        "phi_grid": (None if "phi_grid" not in data
                     else _number_list(data["phi_grid"], "phi_grid")),
        "split": _parse_split(data.get("split", {"rule": "lowest_k", "k": 1})),
    }
    return out


_KIND_PARSERS = {
    "lr": _parse_lr,
    "liouvillian": _parse_liouvillian,
    "locality": _parse_locality,
    "flow": _parse_flow,
    "lppl": _parse_lppl,
    "cluster": _parse_cluster,
    "qhe": _parse_qhe,
}
