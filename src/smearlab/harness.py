"""Experiment runner: builds models from a validated configuration, drives
the numerical experiments, and writes the results.

Every run emits two files into the output directory:

* ``curve.csv`` with header ``x,value`` or ``x,value,bound,margin``; all
  floats carry 17 significant digits.
* ``summary.json`` with fits, verdicts, and echoed parameters.

Runs are serial and deterministic: for a fixed config and seed the random
draws, the grid order and so the output bytes are fixed.  A failed
inequality check still writes both files, then surfaces as
BoundViolationError.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import (commutator_norm, involution_isometries, pauli_string,
                      random_hermitian, schatten_norm)
from .clustering import cluster_experiment
from .config import ExperimentConfig, load_config, seed_value
from .dynamics import lr_experiment, make_lr_params
from .errors import BoundViolationError, FitError, SchemaError
from .filtering import (_GRID_NODES, almost_inverse_liouvillian, almost_inverse_quadrature,
                        locality_bound)
from .flow import (
    automorphic_equivalence_experiment,
    exact_flow_intertwining,
    lppl_experiment,
)
from .interaction import PolyPath, TrigRampPath, tfim, xy_charge
from .lattice import Region, build_chain, build_ring, build_torus
from . import spectra
from .qhe import qhe_experiment
from .spectra import diagonalize, largest_gap_below, lowest_k, window

__all__ = [
    "DecayCurve",
    "ExpFit",
    "fit_exponential",
    "write_csv",
    "write_summary",
    "RunResult",
    "run",
]


@dataclass
class DecayCurve:
    """A measured nonnegative curve against a strictly increasing abscissa.

    Values at or below `floor` are treated as numerically zero (integrator
    or roundoff limited) and excluded from fits.
    """

    xs: np.ndarray
    values: np.ndarray
    floor: float = 1e-14

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.values.shape:
            raise ValueError("xs and values must be 1-D of equal length")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("abscissa must be strictly increasing")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("curve values must be finite and nonnegative")


@dataclass
class ExpFit:
    rate: float
    prefactor: float
    r_squared: float
    n_used: int


def fit_exponential(curve, min_points=3):
    """Least-squares fit of value = C e^{-c x} using points above the floor.

    Positive rate means decay.  Constant samples give rate 0 with R^2 = 1.
    """
    mask = curve.values > curve.floor
    n_used = int(mask.sum())
    if n_used < min_points:
        raise FitError(
            f"{n_used} points above floor {curve.floor:g}, need {min_points}"
        )
    x = curve.xs[mask]
    y = np.log(curve.values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return ExpFit(rate=-float(slope), prefactor=float(np.exp(intercept)),
                  r_squared=r2, n_used=n_used)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        raise TypeError("booleans do not belong in the CSV")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(path, header, rows):
    """Header row is mandatory; floats get 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_summary(path, summary):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonify(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunResult:
    csv_path: str
    summary_path: str
    summary: dict


def run(config, out_dir=None, seed=None):
    """Execute one configured experiment and write curve.csv + summary.json.

    `config` is an ExperimentConfig or a path to a JSON file.  Explicit
    arguments override the values stored in the config.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    seed = config.seed if seed is None else seed_value(seed)
    _refuse_oversized(config.kind, config.params)
    out = out_dir or config.out or f"{config.kind}-results"
    os.makedirs(out, exist_ok=True)

    rng = np.random.default_rng(seed)
    header, rows, summary = _DRIVERS[config.kind](config.params, rng)

    summary = {"experiment": config.kind, "seed": seed,
               "params": config.params, **summary}
    csv_path = os.path.join(out, "curve.csv")
    summary_path = os.path.join(out, "summary.json")
    write_csv(csv_path, header, rows)
    write_summary(summary_path, summary)

    verdict = summary.get("verdict")
    if verdict is not None and not verdict["holds"]:
        raise BoundViolationError(
            f"{config.kind}: checked inequality violated "
            f"(min margin {verdict['min_margin']:.3e})"
        )
    return RunResult(csv_path, summary_path, summary)


def _refuse_oversized(kind, params):
    """SchemaError when `_needed_bytes` exceeds physical memory."""
    need = _needed_bytes(kind, params)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise SchemaError(f"{kind} on {_site_count(params)} sites needs {need / 2**30:.3g} "
                          f"GiB of matrices; physical memory is {have / 2**30:.3g} GiB")


def _site_count(params):
    g = params.get("graph", {})
    return (g.get("n") or g.get("lx", 0) * g.get("ly", 0) or params.get("L", 0) ** 2
            or params.get("n_qubits", 0))


def _needed_bytes(kind, params):
    """Bytes of the matrices a run holds at once, counted from its config
    as bytes per entry of a 4^n matrix.  Each count comes from traced peaks
    (tracemalloc, and the growth of the peak RSS, which also sees the
    LAPACK workspace of `eigh`):
    - liouvillian, 96 at each of the 641 nodes of the quadrature oracle:
      the complex samples, their cumulative integral and the temporaries
      of the Simpson rules; 84 to 89 traced on 3 to 5 qubits, 84 of RSS
      growth on 6.
    - lr, 112: H, its eigenvectors, A's blocks in that basis, B's isometries;
      49.5 (flip sectors) to 89.8 (one sector) traced on chains of 8 to 10.
    - cluster, 48: H and its eigenvectors, written in place from the
      momentum and spin-flip sectors; A and B act on their supports.  18.4
      to 25.8 traced for x, y and z on rings of 8 to 10, 29 to 34 of RSS
      growth on 10 and 11 (with the two flip sectors).
    - locality, 176: the filtered A beside H, its eigenvectors and the
      kernel; 121 to 145 traced on chains of 8 to 10, up to 154 of RSS
      growth on chains of 10 and 11.
    - qhe, 160 per entry of its charge blocks, sum_k C(n, k)^2 = C(2n, n)
      of them: H's blocks, their eigenvectors, the dressed charge and its
      eigenvectors, W, lower^dagger W, the defect and the strip operator's
      blocks; 89 to 138 traced on the 3 x 3 and 3 x 4 tori, 323 MB of RSS on 3 x 4.
    - flow, 304: a real H and its eigenvectors at each of the three
      points of one RK4 step, which all betas share, and 256 for the
      generator's temporaries and the `eigh` workspace (41 to 47 traced
      above the three points and the blocks, 117 to 172 of RSS growth in
      all, chains of 8 and 9 at 40 and 100 steps); plus each beta's
      transported dim x p block, 16 B per entry, with p = k under
      `lowest_k` and p = dim - 1 under the other rules, whose patch size
      the config does not fix.  Only the current block is kept, so
      nothing grows with `s_steps`.
    - lppl under a dense split rule, 96: H(s), its eigenvectors and the
      two endpoint splits; 56.5 to 58.5 traced on chains of 8 to 10, 74
      to 79 of RSS growth on 10 and 11.
    - lppl under `lowest_k` holds no dense matrix: the Lanczos basis,
      `KRYLOV_CAP` vectors of 2^n entries in H's dtype (complex with a
      sigma^y perturbation), and 72 per entry of the sparse H, whose terms
      (one per edge, one per site and the perturbation) hold 2^n entries
      each; beside the basis 39.4 to 49.5 traced on TFIM chains of 14
      down to 10 sites (55.9 to 65.7 with sigma^y), with it 67.9 to 89.5,
      and 75.1 to 85.0 of RSS growth on chains of 13 to 16.
    """
    n = _site_count(params)
    if kind == "lppl" and params.get("split", {}).get("rule") == "lowest_k":
        item = 16 if "y" in params["perturbation"]["op"] else 8  # bytes per entry of H
        return 2**n * (72 * (len(_build_graph(params["graph"]).edges) + n + 1) + spectra.KRYLOV_CAP * item)
    if kind == "flow":
        split = params["split"]
        p = split["k"] if split["rule"] == "lowest_k" else 2**n - 1
        return 304 * 4**n + 16 * 2**n * p * len(params["betas"])
    if kind == "liouvillian":
        return 96 * _GRID_NODES * 4**n
    if kind == "qhe":
        return 160 * math.comb(2 * n, n)
    return {"lr": 112, "cluster": 48, "locality": 176, "lppl": 96}[kind] * 4**n


def _build_graph(spec):
    if spec["kind"] == "chain":
        return build_chain(spec["n"])
    if spec["kind"] == "ring":
        return build_ring(spec["n"])
    return build_torus(spec["lx"], spec["ly"])


def _path_of(value):
    if isinstance(value, dict):
        if value["kind"] == "poly":
            return PolyPath(value["coeffs"])
        return TrigRampPath(value["start"], value["stop"])
    return float(value)


def _build_model(spec, graph):
    if spec["kind"] == "tfim":
        return tfim(graph, _path_of(spec["j"]), _path_of(spec["g"]))
    return xy_charge(graph, _path_of(spec["j"]), _path_of(spec["h"]))


def _build_rule(spec):
    """The split rule of a validated `split` object, with its gap floor."""
    floor = spec["min_gap"]
    if spec["rule"] == "lowest_k":
        return lowest_k(spec["k"], min_gap=floor)
    if spec["rule"] == "window":
        return window(spec["lo"], spec["hi"], min_gap=floor)
    return largest_gap_below(spec["energy"], min_gap=floor)


def _check_site(site, n, name):
    if site >= n:
        raise SchemaError(f"{name} must be < {n} sites (got {site})")
    return site


def _run_lr(params, rng):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    site_a = _check_site(params["site_a"], n, "site_a")
    site_b = _check_site(params["site_b"], n, "site_b")
    phi = _build_model(params["model"], graph)
    sd = diagonalize(phi.hamiltonian(0.0))

    A = pauli_string(params["op_a"], (site_a,))
    B = pauli_string(params["op_b"], (site_b,))
    X = Region(graph, (site_a,))
    Y = Region(graph, (site_b,))
    lrp = make_lr_params(phi, params["b"], params["b_prime"])
    tg = params["times"]
    times = np.linspace(tg["start"], tg["stop"], tg["num"])

    res = lr_experiment(sd, lrp, A, B, X, Y, times)
    rows = [
        (float(t), float(m), float(bd), float(bd - m))
        for t, m, bd in zip(res.times, res.measured, res.bounds)
    ]
    summary = {
        "velocity": lrp.velocity,
        "distance": graph.distance(site_a, site_b),
        "residual": sd.residual(),
        "verdict": {"holds": res.holds, "min_margin": res.min_margin, "slack": res.slack},
    }
    return ("x", "value", "bound", "margin"), rows, summary


_ORACLE_TOL = 1e-6
# a margin may fall this far below 0 by rounding alone; verdicts write it
_SLACK = 1e-12


def _run_liouvillian(params, rng):
    n = params["n_qubits"]
    dim = 2**n
    draws = [
        (random_hermitian(dim, rng, norm=1.0), random_hermitian(dim, rng, norm=1.0))
        for _ in range(params["n_samples"])
    ]
    betas = params["betas"]
    rels = []
    for H, A in draws:
        sd = diagonalize(H)
        for beta in betas:
            ref = almost_inverse_liouvillian(sd, beta, A)
            quad = almost_inverse_quadrature(H, beta, A)
            scale = max(schatten_norm(ref, np.inf), 1e-30)
            rels.append(schatten_norm(ref - quad, np.inf) / scale)
    rows = list(enumerate(rels))
    worst = max(rels)
    summary = {
        "n_qubits": n,
        "betas": betas,
        "tolerance": _ORACLE_TOL,
        "max_relative_deviation": worst,
        "verdict": {"holds": worst <= _ORACLE_TOL,
                    "min_margin": _ORACLE_TOL - worst},
    }
    return ("x", "value"), rows, summary


def _run_locality(params, rng):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    site_a = _check_site(params["site_a"], n, "site_a")
    origin = Region(graph, (site_a,))
    Bs = [(d, involution_isometries(pauli_string(params["op_b"], (origin.site_at(d),)), n))
          for d in params["distances"]]
    phi = _build_model(params["model"], graph)
    sd = diagonalize(phi.hamiltonian(0.0))
    A = pauli_string(params["op_a"], (site_a,)).embed(n)
    lrp = make_lr_params(phi, params["b"], params["b_prime"])

    rows, margins = [], []
    for beta in params["betas"]:
        filtered = almost_inverse_liouvillian(sd, beta, A)
        for d, B in Bs:
            measured = commutator_norm(filtered, B)
            grid_inf, _closed = locality_bound(lrp, beta, d, 1, 1.0, 1.0)
            rows.append((d, float(measured), float(grid_inf),
                         float(grid_inf - measured)))
            margins.append(grid_inf - measured)
    worst = float(min(margins))
    summary = {
        "betas": params["betas"],
        "velocity": lrp.velocity,
        "residual": sd.residual(),
        "verdict": {"holds": worst >= -_SLACK, "min_margin": worst, "slack": _SLACK},
    }
    return ("x", "value", "bound", "margin"), rows, summary


_FLOW_FLOOR = 1e-12


def _run_flow(params, rng):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    phi = _build_model(params["model"], graph)
    rule = _build_rule(params["split"])
    obs = params["observable"]
    A = pauli_string(obs["op"], (_check_site(obs["site"], n, "observable.site"),))

    xs, values, path_gap, defects = automorphic_equivalence_experiment(
        phi, rule, A, params["betas"], s_steps=params["s_steps"]
    )
    curve = DecayCurve(xs, values, floor=_FLOW_FLOOR)
    # Gapped desk-scale paths decay so fast in beta^{-2} that the pinned
    # grids often leave only two points above the floor; a two-point fit
    # still pins the sign of the slope.
    fit = fit_exponential(curve, min_points=2)
    above = values[values > _FLOW_FLOOR]
    monotone = bool(np.all(np.diff(above) < 0))

    summary = {
        "fit": asdict(fit),
        "floor": _FLOW_FLOOR,
        "min_gap_along_path": path_gap,
        "monotone_decreasing_above_floor": monotone,
        "transport_defects": defects,
    }
    if params["exact_control"]:
        errors, defect = exact_flow_intertwining(phi, rule, [A], s_steps=params["s_steps"])
        summary["exact_control_error"] = float(errors.max())
        summary["transport_defect"] = defect
    rows = [(float(x), float(v)) for x, v in zip(xs, values)]
    return ("x", "value"), rows, summary


def _run_lppl(params, rng):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    base = _build_model(params["model"], graph)
    pert = params["perturbation"]
    _check_site(pert["site"], n, "perturbation.site")
    pert_op = pauli_string(pert["op"], (pert["site"],))
    strength_path = PolyPath([0.0, pert["strength"]])
    rule = _build_rule(params["split"])

    def builder(site):
        return pauli_string(params["observable_op"], (site,))

    xs, values, sites, path_gap, residual = lppl_experiment(
        base, pert_op, strength_path, params["distances"], builder, rule
    )
    fit = fit_exponential(DecayCurve(xs, values))
    rows = [(int(d), float(v)) for d, v in zip(params["distances"], values)]
    summary = {
        "fit": asdict(fit),
        "floor": 1e-14,
        "max_patch_residual": residual,
        "min_gap_along_path": path_gap,
        "observable_sites": sites,
    }
    return ("x", "value"), rows, summary


def _run_cluster(params, rng):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    site_a = _check_site(params["site_a"], n, "site_a")
    phi = _build_model(params["model"], graph)
    rule = _build_rule(params["split"])
    origin = Region(graph, (site_a,))
    placements = {d: origin.site_at(d) for d in params["distances"]}

    def builder(site):
        label = params["op_a"] if site == site_a else params["op_b"]
        return pauli_string(label, (site,))

    records, split = cluster_experiment(
        phi, rule, site_a, builder, placements,
        n_state_samples=params["n_state_samples"], rng=rng,
    )

    rows, margins, defects = [], [], []
    for r in records:
        decs = [r.ground] + r.sampled
        for dec in decs:
            defects.append(dec.identity_defect)
            margins.append(dec.bound_ii - abs(dec.term_ii))
            margins.append(dec.bound_iii - abs(dec.term_iii))
        g = r.ground
        bound = abs(g.term_i) + g.bound_ii + g.bound_iii
        rows.append((r.distance, float(r.measured), float(bound),
                     float(bound - r.measured)))

    curve = DecayCurve([r.distance for r in records],
                       [r.measured for r in records])
    fit = fit_exponential(curve)
    worst_margin = float(min(margins))
    worst_defect = float(max(defects))
    holds = worst_margin >= -_SLACK and worst_defect <= 1e-10
    summary = {
        "gap": split.gap,
        "betas": {str(r.distance): r.beta for r in records},
        "fit": asdict(fit),
        "max_identity_defect": worst_defect,
        "patch_residual": split.spectral_data.residual(split.idx0),
        "verdict": {"holds": holds, "min_margin": worst_margin, "slack": _SLACK},
    }
    return ("x", "value", "bound", "margin"), rows, summary


_QHE_POINT_KEYS = ("coupling", "gap", "trace", "nearest_integer", "residual",
                   "factorization_residual", "split_residual", "dressing_defect",
                   "bare_defect")


def _run_qhe(params, rng):
    L = params["L"]
    rule = _build_rule(params["split"])
    beta = params["beta"] if params["beta"] is not None else float(L) ** -0.5

    points = qhe_experiment(
        L, params["j_values"], h=params["h"], beta=beta,
        strip_width=params["strip_width"], rule=rule, phi_grid=params["phi_grid"],
    )
    rows = [(float(p.coupling), float(p.residual)) for p in points]

    by_coupling = sorted(points, key=lambda p: -p.coupling)
    resid = [p.residual for p in by_coupling]
    monotone = len(resid) >= 2 and all(b < a for a, b in zip(resid, resid[1:]))

    summary = {
        "beta": beta,
        "strips_disjoint": points[0].strips_disjoint if points else None,
        "points": [{k: getattr(p, k) for k in _QHE_POINT_KEYS} for p in points],
        "monotone_residual_decreasing": monotone,
    }

    if params["phi_grid"]:
        summary["z_phase"] = [asdict(z) for z in points[0].z_phase]
    return ("x", "value"), rows, summary


_DRIVERS = {
    "lr": _run_lr,
    "liouvillian": _run_liouvillian,
    "locality": _run_locality,
    "flow": _run_flow,
    "lppl": _run_lppl,
    "cluster": _run_cluster,
    "qhe": _run_qhe,
}
