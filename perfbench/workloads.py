"""The benchmark's workloads: one smearlab experiment config each.

Every config is built from the workload name and the seed passed to the
benchmark command; the seed is written into the config (it drives the
sampled patch states of `cluster`; the other experiments draw no random
numbers).  Every config keeps `threads: 1`.
"""

from __future__ import annotations

import copy

_TFIM = {"kind": "tfim", "j": 1.0, "g": 2.0}
_BOTTOM = {"rule": "lowest_k", "k": 1}

_BASE = {
    "lr-chain9": {
        "experiment": "lr",
        "graph": {"kind": "chain", "n": 9},
        "model": _TFIM,
        "site_a": 0,
        "site_b": 4,
        "op_a": "x",
        "op_b": "x",
        "times": {"start": 0.0, "stop": 1.5, "num": 20},
    },
    "cluster-ring10": {
        "experiment": "cluster",
        "graph": {"kind": "ring", "n": 10},
        "model": _TFIM,
        "split": _BOTTOM,
        "site_a": 0,
        "op_a": "z",
        "op_b": "z",
        "distances": [2, 3, 4, 5],
        "n_state_samples": 5,
    },
    "lppl-chain11": {
        "experiment": "lppl",
        "graph": {"kind": "chain", "n": 11},
        "model": _TFIM,
        "split": _BOTTOM,
        "perturbation": {"site": 0, "op": "z", "strength": 0.3},
        "observable_op": "z",
        "distances": [2, 3, 4, 5, 6, 7, 8],
    },
    "flow-chain6": {
        "experiment": "flow",
        "graph": {"kind": "chain", "n": 6},
        "model": {"kind": "tfim", "j": 1.0,
                  "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}},
        "split": _BOTTOM,
        "betas": [0.9, 0.7, 0.55, 0.45],
        "observable": {"site": 1, "op": "x"},
        "s_steps": 400,
        "exact_control": True,
    },
    "qhe-torus3": {
        "experiment": "qhe",
        "L": 3,
        "J": [0.2, 0.1, 0.05],
        "h": 1.0,
    },
}

WORKLOADS = tuple(_BASE)


def config(workload, seed):
    """The smearlab config of `workload` for the given seed."""
    if workload not in _BASE:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    cfg = copy.deepcopy(_BASE[workload])
    cfg["seed"] = int(seed)
    cfg["threads"] = 1
    return cfg
