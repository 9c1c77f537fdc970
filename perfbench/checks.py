"""Checks on the outputs of one smearlab run, made apart from smearlab.

`reference(cfg)` computes what can be computed independently for a config:
Hamiltonians are built here from 2x2 Pauli matrices with `np.kron` and
`scipy.sparse.kron`, ground states come from `scipy.sparse.linalg.eigsh`
and time evolution from `scipy.linalg.expm`.  Nothing here imports
smearlab.  `check(cfg, out_dir, ref)` reads `curve.csv` and
`summary.json` and returns a list of problems; an empty list means the
output passed.

Besides the oracle comparisons, every check ties the two files to each
other (curve columns against summary fields, fitted rates against a refit
of the curve), so that a single changed number in either file is caught.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import eigsh

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}

# Agreement with an independent oracle: relative, plus an absolute term
# about 30 times the largest difference seen (3e-14).  Every value above
# RESOLVED therefore shows a change by a factor 1 + 1e-6; smaller values,
# such as the commutator at the first time steps, are checked to ATOL.
ORACLE_RTOL = 1e-7
ORACLE_ATOL = 1e-12
RESOLVED = 1e-5
# Agreement between two numbers smearlab wrote about the same quantity.
SELF_RTOL = 1e-9
# The floors below which smearlab's decay fits ignore curve points.
FIT_FLOOR = {"flow": 1e-12}
DEFAULT_FLOOR = 1e-14


class OutputError(Exception):
    """An output file is missing or cannot be read."""


def read_outputs(out_dir):
    """(header, rows, summary) of one run; rows are lists of floats."""
    csv_path = os.path.join(out_dir, "curve.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        raise OutputError(str(exc)) from exc
    if not table:
        raise OutputError("curve.csv is empty")
    try:
        rows = [[float(v) for v in row] for row in table[1:]]
    except ValueError as exc:
        raise OutputError(f"curve.csv: {exc}") from exc
    return table[0], rows, summary


# ------------------------------------------------------------ model oracles

def _edges(graph):
    n = graph["n"]
    edges = [(i, i + 1) for i in range(n - 1)]
    if graph["kind"] == "ring":
        edges.append((n - 1, 0))
    return edges


def _distance(graph, a, b):
    d = abs(a - b)
    return min(d, graph["n"] - d) if graph["kind"] == "ring" else d


def _site_at(graph, origin, d):
    return min(x for x in range(graph["n"]) if _distance(graph, origin, x) == d)


def _dense_site(op, site, n):
    """`op` on `site` of n two-level sites, site 0 the leftmost factor."""
    return np.kron(np.kron(np.eye(2**site), op), np.eye(2 ** (n - site - 1)))


def _sparse_site(op, site, n):
    return sp.kron(sp.kron(sp.identity(2**site), sp.csr_matrix(op)),
                   sp.identity(2 ** (n - site - 1)), format="csr")


def _tfim(graph, model, site_op):
    """-J sum Z_a Z_b - g sum X_x with constant couplings."""
    n = graph["n"]
    z = [site_op(_PAULI["z"], x, n) for x in range(n)]
    H = -model["g"] * site_op(_PAULI["x"], 0, n)
    for x in range(1, n):
        H = H - model["g"] * site_op(_PAULI["x"], x, n)
    for a, b in _edges(graph):
        H = H - model["j"] * (z[a] @ z[b])
    return H


def _z_diagonal(site, n):
    """Diagonal of Z on `site` in the computational basis."""
    bits = (np.arange(2**n) >> (n - 1 - site)) & 1
    return 1.0 - 2.0 * bits


def _lowest(H, k=2):
    """The k lowest eigenpairs of a sparse symmetric H, ascending.

    The start vector is a fixed random one, so that no symmetry sector of
    H is missed and the result does not depend on the benchmark seed.
    """
    v0 = np.random.default_rng(12345).standard_normal(H.shape[0])
    vals, vecs = eigsh(H, k=k, which="SA", v0=v0, tol=0.0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _lr_times(cfg):
    t = cfg["times"]
    return np.linspace(t["start"], t["stop"], t["num"])


def _lr_reference(cfg):
    """||[e^{iHt} A e^{-iHt}, B]|| at every time of the grid.

    U(t) advances by one expm step per grid interval; the norm is the
    largest |eigenvalue| of the Hermitian i[A(t), B].
    """
    n = cfg["graph"]["n"]
    H = _tfim(cfg["graph"], cfg["model"], _dense_site)
    A = _dense_site(_PAULI[cfg["op_a"]], cfg["site_a"], n)
    B = _dense_site(_PAULI[cfg["op_b"]], cfg["site_b"], n)
    times = _lr_times(cfg)
    U = expm(1j * times[0] * H)
    step = expm(1j * (times[1] - times[0]) * H)
    values = []
    for _t in times:
        At = U @ A @ U.conj().T
        values.append(float(np.abs(np.linalg.eigvalsh(1j * (At @ B - B @ At))).max()))
        U = step @ U
    return {"commutator": values}


def _cluster_reference(cfg):
    graph, n = cfg["graph"], cfg["graph"]["n"]
    energies, vecs = _lowest(_tfim(graph, cfg["model"], _sparse_site))
    psi = vecs[:, 0]
    a = cfg["site_a"]
    za = _z_diagonal(a, n)
    corr = {}
    for d in cfg["distances"]:
        zb = _z_diagonal(_site_at(graph, a, d), n)
        prob = psi * psi
        corr[d] = abs(prob @ (za * zb) - (prob @ za) * (prob @ zb))
    return {"gap": float(energies[1] - energies[0]), "correlation": corr}


def _lppl_reference(cfg):
    graph, n = cfg["graph"], cfg["graph"]["n"]
    pert = cfg["perturbation"]
    H0 = _tfim(graph, cfg["model"], _sparse_site)
    H1 = H0 + pert["strength"] * _sparse_site(_PAULI[pert["op"]], pert["site"], n)
    psi0 = _lowest(H0)[1][:, 0]
    psi1 = _lowest(H1)[1][:, 0]
    response, sites = {}, {}
    for d in cfg["distances"]:
        x = _site_at(graph, pert["site"], d)
        z = _z_diagonal(x, n)
        sites[d] = x
        response[d] = abs(psi1**2 @ z - psi0**2 @ z)
    return {"response": response, "sites": sites}


_REFERENCES = {
    "lr": _lr_reference,
    "cluster": _cluster_reference,
    "lppl": _lppl_reference,
}


def reference(cfg):
    """Independent computations for a config ({} where the check uses
    properties of the output only)."""
    make = _REFERENCES.get(cfg["experiment"])
    return make(cfg) if make else {}


# ------------------------------------------------------------------ checks

def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * abs(b) + atol


def _refit(xs, values, floor):
    """Least-squares rate and R^2 of log(value) against x above the floor."""
    xs, values = np.asarray(xs), np.asarray(values)
    keep = values > floor
    x, y = xs[keep], np.log(values[keep])
    A = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - float((resid**2).sum()) / ss_tot
    return -float(slope), min(1.0, max(0.0, r2))


def _check_fit(problems, summary, xs, values, floor, min_r2=None):
    fit = summary.get("fit", {})
    rate, r2 = _refit(xs, values, floor)
    if not _close(fit.get("rate", math.nan), rate, SELF_RTOL, 1e-12):
        problems.append(f"fit rate {fit.get('rate')} disagrees with a refit of the curve ({rate})")
    if not _close(fit.get("r_squared", math.nan), r2, SELF_RTOL, 1e-12):
        problems.append(f"fit R^2 {fit.get('r_squared')} disagrees with a refit ({r2})")
    if not fit.get("rate", 0.0) > 0.0:
        problems.append(f"fitted rate {fit.get('rate')} is not positive")
    if min_r2 is not None and not fit.get("r_squared", 0.0) >= min_r2:
        problems.append(f"fit R^2 {fit.get('r_squared')} below {min_r2}")


def _check_header(problems, header, expected):
    if header != list(expected):
        problems.append(f"curve.csv header {header} is not {list(expected)}")
        return False
    return True


def _check_bound_columns(problems, rows):
    for x, value, bound, margin in rows:
        if not value <= bound + 1e-12:
            problems.append(f"x={x}: value {value} exceeds bound {bound}")
        if not _close(margin, bound - value, 1e-12, 1e-15):
            problems.append(f"x={x}: margin {margin} is not bound - value")


def _check_verdict(problems, summary):
    verdict = summary.get("verdict", {})
    if verdict.get("holds") is not True:
        problems.append(f"verdict does not hold: {verdict}")


def _check_lr(cfg, header, rows, summary, ref):
    problems = []
    if not _check_header(problems, header, ("x", "value", "bound", "margin")):
        return problems
    times = _lr_times(cfg)
    xs = np.array([r[0] for r in rows])
    if xs.shape != times.shape or not np.allclose(xs, times, rtol=1e-14, atol=0.0):
        return problems + ["time grid differs from the config"]
    values = [r[1] for r in rows]
    if not values[0] <= 1e-12:
        problems.append(f"commutator at t=0 is {values[0]}, above 1e-12")
    _check_bound_columns(problems, rows)
    for t, value, expected in zip(times, values, ref["commutator"]):
        if not _close(value, expected, ORACLE_RTOL, ORACLE_ATOL):
            problems.append(f"t={t}: commutator {value} != oracle {expected}")
    _check_verdict(problems, summary)
    margin = summary.get("verdict", {}).get("min_margin", math.nan)
    if not _close(margin, min(r[3] for r in rows), 1e-12, 1e-15):
        problems.append(f"min_margin {margin} is not the smallest margin in the curve")
    return problems


def _check_cluster(cfg, header, rows, summary, ref):
    problems = []
    if not _check_header(problems, header, ("x", "value", "bound", "margin")):
        return problems
    distances = cfg["distances"]
    if [r[0] for r in rows] != [float(d) for d in distances]:
        return problems + ["distances differ from the config"]
    gap = ref["gap"]
    if not _close(summary.get("gap", math.nan), gap, ORACLE_RTOL):
        problems.append(f"gap {summary.get('gap')} != oracle {gap}")
    betas = summary.get("betas", {})
    for (d, value, _bound, _margin) in rows:
        d = int(d)
        expected = ref["correlation"][d]
        if not _close(value, expected, ORACLE_RTOL, ORACLE_ATOL):
            problems.append(f"d={d}: correlation {value} != oracle {expected}")
        beta = betas.get(str(d), math.nan)
        if not _close(beta, gap / (2.0 * math.sqrt(d)), ORACLE_RTOL):
            problems.append(f"d={d}: beta {beta} is not gap/(2 sqrt d)")
    _check_bound_columns(problems, rows)
    _check_verdict(problems, summary)
    defect = summary.get("max_identity_defect", math.inf)
    if not defect <= 1e-10:
        problems.append(f"identity defect {defect} above 1e-10")
    _check_fit(problems, summary, distances, [r[1] for r in rows],
               DEFAULT_FLOOR, min_r2=0.9)
    return problems


def _check_lppl(cfg, header, rows, summary, ref):
    problems = []
    if not _check_header(problems, header, ("x", "value")):
        return problems
    distances = cfg["distances"]
    if [r[0] for r in rows] != [float(d) for d in distances]:
        return problems + ["distances differ from the config"]
    for d, value in rows:
        expected = ref["response"][int(d)]
        if not _close(value, expected, ORACLE_RTOL, ORACLE_ATOL):
            problems.append(f"d={int(d)}: response {value} != oracle {expected}")
    if summary.get("observable_sites") != [ref["sites"][d] for d in distances]:
        problems.append(f"observable sites {summary.get('observable_sites')} are not the expected ones")
    _check_fit(problems, summary, distances, [r[1] for r in rows],
               DEFAULT_FLOOR, min_r2=0.9)
    return problems


def _check_flow(cfg, header, rows, summary, ref):
    problems = []
    if not _check_header(problems, header, ("x", "value")):
        return problems
    xs = [1.0 / b**2 for b in sorted(cfg["betas"], reverse=True)]
    if not np.allclose([r[0] for r in rows], xs, rtol=1e-14, atol=0.0):
        return problems + ["x is not 1/beta^2 of the configured betas"]
    values = np.array([r[1] for r in rows])
    control = summary.get("exact_control_error", math.inf)
    if not control <= 1e-6:
        problems.append(f"exact_control_error {control} above 1e-6")
    floor = FIT_FLOOR["flow"]
    above = values[values > floor]
    if not (above.size >= 2 and np.all(np.diff(above) < 0)):
        problems.append("almost-flow error is not decreasing above the floor")
    if summary.get("monotone_decreasing_above_floor") is not True:
        problems.append("summary does not report a monotone decrease")
    _check_fit(problems, summary, xs, values, floor)
    return problems


def _check_qhe(cfg, header, rows, summary, ref):
    problems = []
    if not _check_header(problems, header, ("x", "value")):
        return problems
    points = summary.get("points", [])
    if [p.get("coupling") for p in points] != [float(j) for j in cfg["J"]]:
        return problems + ["couplings differ from the config"]
    if rows != [[p["coupling"], p["residual"]] for p in points]:
        problems.append("curve.csv rows differ from the summary points")
    if len({p["nearest_integer"] for p in points}) != 1:
        problems.append("nearest integer differs between couplings")
    for p in points:
        if not _close(p["residual"], abs(p["trace"] - p["nearest_integer"]), 1e-12, 1e-15):
            problems.append(f"J={p['coupling']}: residual is not |trace - nearest integer|")
        # On this model the ground state is the empty product state, an
        # eigenstate of the bare charge, so both defects are exactly 0 and
        # only "never worse" can hold.
        if not p["dressing_defect"] <= p["bare_defect"]:
            problems.append(f"J={p['coupling']}: dressing increases the patch defect")
    by_j = sorted(points, key=lambda p: -p["coupling"])
    if not by_j[0]["residual"] <= 0.05:
        problems.append(f"residual {by_j[0]['residual']} at J={by_j[0]['coupling']} above 0.05")
    resid = [p["residual"] for p in by_j]
    if not all(b < a for a, b in zip(resid, resid[1:])):
        problems.append("residual does not decrease strictly as J shrinks")
    if summary.get("monotone_residual_decreasing") is not True:
        problems.append("summary does not report a decreasing residual")
    return problems


_CHECKS = {
    "lr": _check_lr,
    "cluster": _check_cluster,
    "lppl": _check_lppl,
    "flow": _check_flow,
    "qhe": _check_qhe,
}


def check(cfg, out_dir, ref):
    """Problems found in the outputs of `cfg` under `out_dir` ([] if none)."""
    try:
        header, rows, summary = read_outputs(out_dir)
    except OutputError as exc:
        return [f"unreadable output: {exc}"]
    if summary.get("experiment") != cfg["experiment"] or summary.get("seed") != cfg["seed"]:
        return ["summary names another experiment or seed"]
    try:
        return _CHECKS[cfg["experiment"]](cfg, header, rows, summary, ref)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
