"""Experiment runner: builds models from a validated configuration, drives
the numerical experiments, and writes the results.

Every run emits two files into the output directory:

* ``curve.csv`` with header ``x,value`` or ``x,value,bound,margin``; all
  floats carry 17 significant digits.
* ``summary.json`` with fits, verdicts, and echoed parameters.

Runs are deterministic for a fixed seed: random draws happen in a fixed
order before any concurrent work, results are keyed by grid index, and
output assembly is single-threaded.  A failed inequality check still
writes both files, then surfaces as BoundViolationError.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import commutator_norm, pauli_string, random_hermitian, schatten_norm
from .clustering import cluster_experiment
from .config import ExperimentConfig, load_config
from .dynamics import EvolutionSpec, lr_experiment, make_lr_params
from .errors import BoundViolationError, FitError, SchemaError
from .filtering import almost_inverse_liouvillian, locality_bound
from .flow import (
    automorphic_equivalence_experiment,
    exact_flow_intertwining,
    lppl_experiment,
)
from .interaction import PolyPath, TrigRampPath, tfim, xy_charge
from .lattice import Region, build_chain, build_ring, build_torus
from .qhe import (
    ChargeGeometry,
    dressed_charge,
    flux_unitary,
    qhe_experiment,
    region_charge,
    z_phase_operator,
)
from .spectra import (
    diagonalize,
    largest_gap_below,
    lowest_k,
    split_spectrum,
    window,
)

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

    def as_dict(self):
        return {
            "rate": self.rate,
            "prefactor": self.prefactor,
            "r_squared": self.r_squared,
            "n_used": self.n_used,
        }


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
    if ss_tot <= 1e-300:
        r2 = 1.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
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


def run(config, out_dir=None, seed=None, threads=None):
    """Execute one configured experiment and write curve.csv + summary.json.

    `config` is an ExperimentConfig or a path to a JSON file.  Explicit
    arguments override the values stored in the config.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    seed = config.seed if seed is None else int(seed)
    threads = config.threads if threads is None else int(threads)
    if threads < 1:
        raise SchemaError("threads must be >= 1")
    _refuse_oversized(config.kind, config.params)
    out = out_dir or config.out or f"{config.kind}-results"
    os.makedirs(out, exist_ok=True)

    rng = np.random.default_rng(seed)
    driver = _DRIVERS[config.kind]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            header, rows, summary = driver(config.params, rng, ex.map)
    else:
        header, rows, summary = driver(config.params, rng, map)

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
    """SchemaError when the dense 2^n x 2^n matrices a run holds at once
    exceed physical memory.

    Most experiments are sized by one complex matrix, 16 * 4^n bytes.  A flow
    keeps a real H and its real eigenvectors (8 * 4^n bytes each) at each of
    the 2 s_steps + 1 points its RK4 steps visit, plus the s_steps + 1
    complex unitaries (16 * 4^n bytes each) of one integration.
    """
    g = params.get("graph", {})
    n = g.get("n") or g.get("lx", 0) * g.get("ly", 0) or params.get("L", 0) ** 2
    need = 16 * 4**n * (3 * params["s_steps"] + 2 if kind == "flow" else 1)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise SchemaError(f"{kind} on {n} sites needs {need / 2**30:.3g} GiB of dense "
                          f"matrices; physical memory is {have / 2**30:.3g} GiB")


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
    if spec["rule"] == "lowest_k":
        return lowest_k(spec["k"])
    if spec["rule"] == "window":
        return window(spec["lo"], spec["hi"])
    return largest_gap_below(spec["energy"])


def _check_site(site, n, name):
    if site >= n:
        raise SchemaError(f"{name} must be < {n} sites (got {site})")
    return site


def _site_at_distance(graph, origin, d):
    candidates = [x for x in graph.sites() if graph.distance(origin, x) == d]
    if not candidates:
        raise SchemaError(f"no site at distance {d} from site {origin}")
    return min(candidates)


def _embed_observable(label, site, n):
    op = pauli_string(label, (site,))
    return op.embed(n)


def _run_lr(params, rng, mapper):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    site_a = _check_site(params["site_a"], n, "site_a")
    site_b = _check_site(params["site_b"], n, "site_b")
    phi = _build_model(params["model"], graph)
    sd = diagonalize(phi.hamiltonian(0.0))
    spec = EvolutionSpec.spectral(sd)

    A = pauli_string(params["op_a"], (site_a,))
    B = pauli_string(params["op_b"], (site_b,))
    X = Region(graph, (site_a,))
    Y = Region(graph, (site_b,))
    lrp = make_lr_params(phi, params["b"], params["b_prime"])
    tg = params["times"]
    times = np.linspace(tg["start"], tg["stop"], tg["num"])

    res = lr_experiment(spec, lrp, A, B, X, Y, times)
    rows = [
        (float(t), float(m), float(bd), float(bd - m))
        for t, m, bd in zip(res.times, res.measured, res.bounds)
    ]
    summary = {
        "velocity": lrp.velocity,
        "distance": graph.distance(site_a, site_b),
        "verdict": {"holds": res.holds, "min_margin": res.min_margin},
    }
    return ("x", "value", "bound", "margin"), rows, summary


_ORACLE_TOL = 1e-6


def _run_liouvillian(params, rng, mapper):
    n = params["n_qubits"]
    if n > 6:
        raise SchemaError("n_qubits must be <= 6 for the dense oracle")
    dim = 2**n
    draws = [
        (random_hermitian(dim, rng, norm=1.0), random_hermitian(dim, rng, norm=1.0))
        for _ in range(params["n_samples"])
    ]
    betas = params["betas"]
    tasks = [(i, beta) for i in range(len(draws)) for beta in betas]

    def one(task):
        i, beta = task
        H, A = draws[i]
        sd = diagonalize(H)
        ref = almost_inverse_liouvillian(sd, beta, A)
        quad = almost_inverse_liouvillian(sd, beta, A, method="quadrature")
        scale = max(schatten_norm(ref, np.inf), 1e-30)
        return schatten_norm(ref - quad, np.inf) / scale

    rels = list(mapper(one, tasks))
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


def _run_locality(params, rng, mapper):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    site_a = _check_site(params["site_a"], n, "site_a")
    phi = _build_model(params["model"], graph)
    sd = diagonalize(phi.hamiltonian(0.0))
    A = _embed_observable(params["op_a"], site_a, n)
    lrp = make_lr_params(phi, params["b"], params["b_prime"])

    pairs = [(d, _site_at_distance(graph, site_a, d)) for d in params["distances"]]
    Bs = [(d, _embed_observable(params["op_b"], site_b, n)) for d, site_b in pairs]
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
        "verdict": {"holds": worst >= -1e-12, "min_margin": worst},
    }
    return ("x", "value", "bound", "margin"), rows, summary


_FLOW_FLOOR = 1e-12


def _run_flow(params, rng, mapper):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    phi = _build_model(params["model"], graph)
    rule = _build_rule(params["split"])
    min_gap = params["split"]["min_gap"]
    obs = params["observable"]
    A = _embed_observable(obs["op"], _check_site(obs["site"], n, "observable.site"), n)

    xs, values, path_gap = automorphic_equivalence_experiment(
        phi, rule, A, params["betas"], s_steps=params["s_steps"], min_gap=min_gap
    )
    curve = DecayCurve(xs, values, floor=_FLOW_FLOOR)
    # Gapped desk-scale paths decay so fast in beta^{-2} that the pinned
    # grids often leave only two points above the floor; a two-point fit
    # still pins the sign of the slope.
    fit = fit_exponential(curve, min_points=2)
    above = values[values > _FLOW_FLOOR]
    monotone = bool(np.all(np.diff(above) < 0))

    summary = {
        "fit": fit.as_dict(),
        "floor": _FLOW_FLOOR,
        "min_gap_along_path": path_gap,
        "monotone_decreasing_above_floor": monotone,
    }
    if params["exact_control"]:
        errors, _ = exact_flow_intertwining(
            phi, rule, [A], s_steps=params["s_steps"], min_gap=min_gap
        )
        summary["exact_control_error"] = float(errors.max())
    rows = [(float(x), float(v)) for x, v in zip(xs, values)]
    return ("x", "value"), rows, summary


def _run_lppl(params, rng, mapper):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    base = _build_model(params["model"], graph)
    pert = params["perturbation"]
    _check_site(pert["site"], n, "perturbation.site")
    pert_op = pauli_string(pert["op"], (pert["site"],))
    strength_path = PolyPath([0.0, pert["strength"]])
    rule = _build_rule(params["split"])
    min_gap = params["split"]["min_gap"]

    def builder(site):
        return pauli_string(params["observable_op"], (site,))

    xs, values, sites, path_gap, residual = lppl_experiment(
        base, pert_op, strength_path, params["distances"], builder, rule,
        min_gap=min_gap,
    )
    fit = fit_exponential(DecayCurve(xs, values))
    rows = [(int(d), float(v)) for d, v in zip(params["distances"], values)]
    summary = {
        "fit": fit.as_dict(),
        "floor": 1e-14,
        "max_patch_residual": residual,
        "min_gap_along_path": path_gap,
        "observable_sites": sites,
    }
    return ("x", "value"), rows, summary


def _run_cluster(params, rng, mapper):
    graph = _build_graph(params["graph"])
    n = graph.n_sites
    site_a = _check_site(params["site_a"], n, "site_a")
    phi = _build_model(params["model"], graph)
    rule = _build_rule(params["split"])
    min_gap = params["split"]["min_gap"]
    placements = {
        d: _site_at_distance(graph, site_a, d) for d in params["distances"]
    }

    def builder(site):
        label = params["op_a"] if site == site_a else params["op_b"]
        return pauli_string(label, (site,))

    records, split = cluster_experiment(
        phi, rule, site_a, builder, placements, min_gap=min_gap,
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
    holds = worst_margin >= -1e-12 and worst_defect <= 1e-10
    summary = {
        "gap": split.gap,
        "betas": {str(r.distance): r.beta for r in records},
        "fit": fit.as_dict(),
        "max_identity_defect": worst_defect,
        "verdict": {"holds": holds, "min_margin": worst_margin},
    }
    return ("x", "value", "bound", "margin"), rows, summary


def _run_qhe(params, rng, mapper):
    L = params["L"]
    rule = _build_rule(params["split"])
    min_gap = params["split"]["min_gap"]
    beta = params["beta"] if params["beta"] is not None else float(L) ** -0.5

    points = qhe_experiment(
        L, params["j_values"], h=params["h"], beta=beta,
        strip_width=params["strip_width"], rule=rule, min_gap=min_gap,
        mapper=mapper,
    )
    rows = [(float(p.coupling), float(p.residual)) for p in points]

    by_coupling = sorted(points, key=lambda p: -p.coupling)
    resid = [p.residual for p in by_coupling]
    monotone = len(resid) >= 2 and all(b < a for a, b in zip(resid, resid[1:]))

    summary = {
        "beta": beta,
        "strips_disjoint": points[0].strips_disjoint if points else None,
        "points": [
            {
                "coupling": p.coupling,
                "gap": p.gap,
                "trace": p.trace,
                "nearest_integer": p.nearest_integer,
                "residual": p.residual,
                "factorization_residual": p.factorization_residual,
                "split_residual": p.split_residual,
                "dressing_defect": p.dressing_defect,
                "bare_defect": p.bare_defect,
            }
            for p in points
        ],
        "monotone_residual_decreasing": monotone,
    }

    if params["phi_grid"]:
        geometry = ChargeGeometry(L, strip_width=params["strip_width"])
        model = xy_charge(geometry.graph, params["j_values"][0], params["h"])
        sd = diagonalize(model.hamiltonian(0.0))
        split = split_spectrum(sd, rule, min_gap=min_gap)
        q_upper = region_charge(geometry.graph, geometry.upper_half)
        q_right = region_charge(geometry.graph, geometry.right_half)
        fact = flux_unitary(dressed_charge(sd, q_upper, beta=beta), geometry)
        qbar_right = dressed_charge(sd, q_right, beta=beta)
        z_rows = []
        for ang in params["phi_grid"]:
            z = z_phase_operator(fact.lower, qbar_right, geometry, ang, det_split=split)
            z_rows.append({
                "phi": ang,
                "patch_commutator": z.patch_commutator,
                "det_residual": z.det_residual,
            })
        summary["z_phase"] = z_rows
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
