"""Spans around smearlab's public functions, recorded from outside.

`Tracer.install()` replaces each function in `LAYERS` by a wrapper that
records a span (layer, start, end, parent span) per call.  A function is
replaced wherever callers look its name up: in the module that defines it
and in every smearlab module that imported it by name (`flow`, `qhe` and
`harness` import `diagonalize` and `schatten_norm` that way).  Methods are
replaced on their class.  Spans stay in memory until `write()`.

The tracer assumes one thread, which holds because every benchmark config
keeps `threads: 1`.
"""

from __future__ import annotations

import functools
from array import array
import json
import sys
import time

# (layer, defining module, attribute path).  Several entries may share a
# layer; `harness.write` covers both output writers.
LAYERS = (
    ("config.load_config", "smearlab.config", "load_config"),
    ("interaction.hamiltonian", "smearlab.interaction", "Interaction.hamiltonian"),
    ("interaction.hamiltonian_derivative", "smearlab.interaction",
     "Interaction.hamiltonian_derivative"),
    ("algebra.embed", "smearlab.algebra", "embed"),
    ("algebra.schatten_norm", "smearlab.algebra", "schatten_norm"),
    ("algebra.schatten_norm.svd", "smearlab.algebra", "svdvals"),
    ("algebra.conditional_expectation", "smearlab.algebra", "conditional_expectation"),
    ("spectra.diagonalize", "smearlab.spectra", "diagonalize"),
    ("spectra.to_eigenbasis", "smearlab.spectra", "SpectralData.to_eigenbasis"),
    ("spectra.from_eigenbasis", "smearlab.spectra", "SpectralData.from_eigenbasis"),
    ("dynamics.evolve", "smearlab.dynamics", "evolve"),
    ("filtering.almost_inverse_liouvillian", "smearlab.filtering",
     "almost_inverse_liouvillian"),
    ("filtering.gaussian_kernel", "smearlab.filtering", "gaussian_kernel"),
    ("filtering.erf_step_kernel", "smearlab.filtering", "erf_step_kernel"),
    ("clustering.decompose_correlation", "smearlab.clustering", "decompose_correlation"),
    ("flow.integrate_flow", "smearlab.flow", "integrate_flow"),
    ("flow.generator", "smearlab.flow", "FlowGenerator.__call__"),
    ("flow.eigencache", "smearlab.flow", "EigenCache.at"),
    ("qhe.charge_conservation_defect", "smearlab.qhe", "charge_conservation_defect"),
    ("qhe.flux_unitary", "smearlab.qhe", "flux_unitary"),
    ("qhe.transport_operator", "smearlab.qhe", "transport_operator"),
    ("harness.write", "smearlab.harness", "write_csv"),
    ("harness.write", "smearlab.harness", "write_summary"),
)

# A per-layer metric of BENCHMARK.json is named `<layer>.calls` or
# `<layer>.s`, except these.  Times are inclusive: a layer's time is the
# wall time of its outermost calls.
RENAMED = {
    "algebra.schatten_norm.svd_calls": ("algebra.schatten_norm.svd", "calls"),
    "flow.eigencache.lookups": ("flow.eigencache", "calls"),
}


def metric(layers, name):
    """Value of per-layer metric `name` in `Tracer.layers()` output, or
    None if no layer records it."""
    layer, field = RENAMED.get(name) or name.rpartition(".")[::2]
    return layers.get(layer, {}).get(field)


class Tracer:
    """Records one span per call of every wrapped function.

    Spans live in flat arrays rather than one Python object each, so that
    a run with 10^5 calls adds no work for the garbage collector.
    """

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.layer_names = sorted({layer for layer, _m, _p in LAYERS})
        self.layer = array("i")  # index into layer_names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the enclosing span, or -1
        self.outermost = array("b")  # 1 if no span of the same layer encloses it
        self._stack = []
        self._open = [0] * len(self.layer_names)

    def wrap(self, layer, fn):
        code = self.layer_names.index(layer)
        layers, starts, ends, parents, outermost = (
            self.layer, self.start, self.end, self.parent, self.outermost)
        stack, opened = self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(code)
            parents.append(stack[-1] if stack else -1)
            outermost.append(opened[code] == 0)
            ends.append(0.0)
            opened[code] += 1
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                opened[code] -= 1

        return traced

    def install(self):
        """Wrap every function of LAYERS; smearlab must be imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "smearlab" or name.startswith("smearlab.")]
        for layer, module, path in LAYERS:
            owner = sys.modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            traced = self.wrap(layer, original)
            if classes:
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)

    def layers(self):
        """{layer: {"calls": n, "s": inclusive seconds}} for every layer."""
        stats = {name: {"calls": 0, "s": 0.0} for name in self.layer_names}
        for code, start, end, outer in zip(self.layer, self.start, self.end,
                                           self.outermost):
            entry = stats[self.layer_names[code]]
            entry["calls"] += 1
            if outer:
                entry["s"] += end - start
        return stats

    def write(self, path):
        """All spans as columns, with the per-layer totals."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id,
                       "layer_names": self.layer_names,
                       "spans": {"layer": self.layer.tolist(),
                                 "start": self.start.tolist(),
                                 "end": self.end.tolist(),
                                 "parent": self.parent.tolist()},
                       "layers": self.layers()}, fh)
