"""Acceptance gate: thirteen end-to-end checks at the advertised tolerances.

Each check prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them live) and asserts the same condition, so the suite fails loudly
if any criterion regresses.  The checks run on desk-size instances; the
whole module finishes in a few minutes, dominated by the n = 10..12
spin-chain diagonalizations.
"""

import filecmp
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import smearlab
from smearlab.algebra import pauli_string, random_hermitian, schatten_norm
from smearlab.clustering import cluster_experiment
from smearlab.dynamics import EvolutionSpec, lr_experiment, make_lr_params
from smearlab.filtering import (
    almost_inverse_liouvillian,
    lemma36_check,
    locality_bound,
    prop34_check,
)
from smearlab.flow import (
    automorphic_equivalence_experiment,
    exact_flow_intertwining,
    localize_generator,
    lppl_experiment,
)
from smearlab.harness import DecayCurve, fit_exponential
from smearlab.interaction import PolyPath, TrigRampPath, tfim
from smearlab.lattice import Region, build_chain, build_ring
from smearlab.qhe import qhe_experiment
from smearlab.spectra import diagonalize, lowest_k, split_spectrum


def _report(num, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}{suffix}", flush=True)
    assert passed, f"criterion {num}: {status}{suffix}"


@pytest.fixture(scope="module")
def static8():
    """Static gapped chain shared by the reconstruction-bound checks."""
    phi = tfim(build_chain(8), 1.0, 2.0)
    sd = diagonalize(phi.hamiltonian(0.0))
    split = split_spectrum(sd, lowest_k(1))
    return sd, split


@pytest.fixture(scope="module")
def chain10():
    """Static chain shared by the propagation checks."""
    graph = build_chain(10)
    phi = tfim(graph, 1.0, 2.0)
    sd = diagonalize(phi.hamiltonian(0.0))
    return graph, phi, sd


@pytest.fixture(scope="module")
def path6():
    """Gapped parameter path shared by the flow checks."""
    return tfim(build_chain(6), 1.0, TrigRampPath(2.0, 3.0))


def test_criterion_01_filter_annihilates_patch_pinching():
    t0 = time.time()
    phi = tfim(build_chain(6), 1.0, 2.0)
    sd = diagonalize(phi.hamiltonian(0.0))
    P = split_spectrum(sd, lowest_k(1)).projector
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        A = random_hermitian(sd.dim, rng, norm=1.0)
        pinched = P @ A @ P
        for beta in (0.5, 1.0):
            err = schatten_norm(almost_inverse_liouvillian(sd, beta, pinched),
                                np.inf)
            worst = max(worst, err / schatten_norm(A, np.inf))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"worst ratio {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_spectral_matches_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        H = random_hermitian(8, rng, norm=1.0)
        A = random_hermitian(8, rng, norm=1.0)
        sd = diagonalize(H)
        for beta in (0.5, 1.0, 2.0):
            ref = almost_inverse_liouvillian(sd, beta, A)
            quad = almost_inverse_liouvillian(sd, beta, A, method="quadrature")
            rel = schatten_norm(ref - quad, np.inf) / max(
                schatten_norm(ref, np.inf), 1e-30)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(2, ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_reconstruction_bound_and_rate(static8):
    sd, split = static8
    rng = np.random.default_rng(3)
    P = split.projector
    R = random_hermitian(sd.dim, rng, norm=1.0)
    A = P @ R @ (np.eye(sd.dim) - P)
    A = A / schatten_norm(A, np.inf)

    betas = np.array([0.4, 0.5, 0.65, 0.8, 1.0])
    all_hold = True
    lhs = []
    for beta in betas:
        res = prop34_check(sd, split, beta, A)
        all_hold = all_hold and res.holds()
        lhs.append(res.lhs[np.inf])
    slope = np.polyfit(betas**-2.0, np.log(lhs), 1)[0]
    target = -split.gap**2 / 4.0
    rel = abs(slope - target) / abs(target)

    # the two-level closed form saturates the bound exactly
    sd2 = diagonalize(np.diag([0.0, 1.7]))
    split2 = split_spectrum(sd2, lowest_k(1))
    A2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    res2 = prop34_check(sd2, split2, 0.8, A2)
    sat = max(abs(v - res2.rhs) for v in res2.lhs.values())

    ok = all_hold and rel <= 0.15 and sat <= 1e-12
    _report(3, ok, f"slope {slope:.4f} vs {target:.4f} "
                   f"(rel {rel:.1%}), two-level defect {sat:.1e}")


def test_criterion_04_commutator_bound(static8):
    sd, split = static8
    rng = np.random.default_rng(4)
    P = split.projector
    R = random_hermitian(sd.dim, rng, norm=1.0)
    A = P @ R @ (np.eye(sd.dim) - P)
    A = A / schatten_norm(A, np.inf)

    all_hold = True
    for beta in (0.4, 0.5, 0.65, 0.8, 1.0):
        all_hold = all_hold and lemma36_check(sd, split, beta, A).holds()

    sd2 = diagonalize(np.diag([0.0, 1.7]))
    split2 = split_spectrum(sd2, lowest_k(1))
    A2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    res2 = lemma36_check(sd2, split2, 0.8, A2)
    sat = max(abs(v - res2.rhs) for v in res2.lhs.values())

    ok = all_hold and sat <= 1e-12
    _report(4, ok, f"two-level defect {sat:.1e}")


def test_criterion_05_propagation_bound(chain10):
    t0 = time.time()
    graph, phi, sd = chain10
    spec = EvolutionSpec.spectral(sd)
    lrp = make_lr_params(phi, 0.5, 1.0)
    times = np.linspace(0.0, 1.5, 20)
    all_hold = True
    min_margin = np.inf
    for d in (3, 4, 5):
        A = pauli_string("x", (0,))
        B = pauli_string("x", (d,))
        res = lr_experiment(spec, lrp, A, B, Region(graph, (0,)),
                            Region(graph, (d,)), times)
        all_hold = all_hold and res.holds
        min_margin = min(min_margin, res.min_margin)
    elapsed = time.time() - t0
    ok = all_hold and elapsed < 300.0
    _report(5, ok, f"min margin {min_margin:.1e}, {elapsed:.0f}s")


def test_criterion_06_filtered_commutator_locality(chain10):
    graph, phi, sd = chain10
    lrp = make_lr_params(phi, 0.5, 1.0)
    A = pauli_string("x", (0,)).embed(graph.n_sites)
    all_hold = True
    min_ratio = np.inf
    for beta in (0.5, 0.7):
        filt = almost_inverse_liouvillian(sd, beta, A)
        for d in (3, 4, 5):
            B = pauli_string("x", (d,)).embed(graph.n_sites)
            measured = schatten_norm(filt @ B - B @ filt, np.inf)
            grid_inf, _ = locality_bound(lrp, beta, d, 1, 1.0, 1.0)
            all_hold = all_hold and measured <= grid_inf
            min_ratio = min(min_ratio, grid_inf / measured)
    _report(6, all_hold, f"min bound/measured {min_ratio:.1f}x")


def test_criterion_07_exact_flow_intertwines(path6):
    n = path6.n_sites
    observables = [
        pauli_string("x", (0,)).embed(n),
        pauli_string("y", (1,)).embed(n),
        pauli_string("z", (2,)).embed(n),
        pauli_string("xx", (3, 4)).embed(n),
        pauli_string("zz", (2, 3)).embed(n),
    ]
    errors, _ = exact_flow_intertwining(path6, lowest_k(1), observables,
                                        s_steps=200)
    worst = float(errors.max())
    _report(7, worst <= 1e-6, f"worst intertwining error {worst:.1e}")


def test_criterion_08_almost_flow_error_decays(path6):
    A = pauli_string("zz", (2, 3)).embed(path6.n_sites)
    xs, values, _gap = automorphic_equivalence_experiment(
        path6, lowest_k(1), A, [0.9, 0.7, 0.55, 0.45], s_steps=400)
    floor = 1e-12
    above = values[values > floor]
    monotone = above.size >= 2 and bool(np.all(np.diff(above) < 0))
    fit = fit_exponential(DecayCurve(xs, values, floor=floor), min_points=2)
    ok = monotone and fit.rate > 0 and fit.r_squared >= 0.85
    _report(8, ok, f"rate {fit.rate:.2f}, R^2 {fit.r_squared:.4f}, "
                   f"{above.size}/{values.size} above floor")


def test_criterion_09_perturbation_response_is_local():
    t0 = time.time()
    base = tfim(build_chain(12), 1.0, 2.0)
    perturbation = pauli_string("z", (0,))

    def builder(site):
        return pauli_string("z", (site,))

    xs, values, _sites, _gap, _residual = lppl_experiment(
        base, perturbation, PolyPath([0.0, 0.3]), list(range(2, 9)),
        builder, lowest_k(1))
    fit = fit_exponential(DecayCurve(xs, values))
    elapsed = time.time() - t0
    ok = fit.rate > 0 and fit.r_squared >= 0.9 and elapsed < 600.0
    _report(9, ok, f"rate {fit.rate:.4f}, R^2 {fit.r_squared:.4f}, "
                   f"{elapsed:.0f}s")


def test_criterion_10_generator_localizes():
    graph = build_chain(8)
    phi = tfim(graph, 1.0, TrigRampPath(2.0, 3.0))
    sd = diagonalize(phi.hamiltonian(0.5))
    loc = localize_generator(sd, 0.7, phi.derivative_snapshot(0.5), graph)
    residual = loc.resummation_residual
    shells = loc.max_shell_norms
    tail_ok = bool(np.all(np.diff(shells[1:]) <= 0))
    ok = residual <= 1e-10 and tail_ok
    _report(10, ok, f"residual {residual:.1e}, "
                    f"shell tail {shells[1]:.2f}..{shells[-1]:.1e}")


def test_criterion_11_correlations_cluster():
    graph = build_ring(12)
    phi = tfim(graph, 1.0, 2.0)

    def builder(site):
        return pauli_string("z", (site,))

    placements = {d: d for d in range(2, 7)}
    records, split = cluster_experiment(phi, lowest_k(1), 0, builder,
                                        placements,
                                        rng=np.random.default_rng(11))
    defects, margins = [], []
    beta_rule = True
    for r in records:
        beta_rule = beta_rule and abs(
            r.beta - split.gap / (2.0 * np.sqrt(r.distance))) < 1e-12
        for dec in [r.ground] + r.sampled:
            defects.append(dec.identity_defect)
            margins.append(dec.bound_ii - abs(dec.term_ii))
            margins.append(dec.bound_iii - abs(dec.term_iii))
    curve = DecayCurve([r.distance for r in records],
                       [r.measured for r in records])
    fit = fit_exponential(curve)
    ok = (max(defects) <= 1e-10 and min(margins) >= -1e-12 and beta_rule
          and fit.rate > 0 and fit.r_squared >= 0.9)
    _report(11, ok, f"max defect {max(defects):.1e}, "
                    f"min margin {min(margins):.3f}, rate {fit.rate:.4f}, "
                    f"R^2 {fit.r_squared:.4f}")


def test_criterion_12_transport_quantization():
    t0 = time.time()
    free = qhe_experiment(3, [0.0])
    points = qhe_experiment(3, [0.2, 0.1, 0.05])
    residual = {p.coupling: p.residual for p in points}
    elapsed = time.time() - t0
    ok = (free[0].trace == 0.0
          and residual[0.2] <= 0.05
          and residual[0.2] > residual[0.1] > residual[0.05]
          and elapsed < 300.0)
    _report(12, ok, f"free trace {free[0].trace!r}, "
                    f"residuals {residual[0.2]:.1e} > {residual[0.1]:.1e} "
                    f"> {residual[0.05]:.1e}, {elapsed:.0f}s")


def test_criterion_13_runs_are_byte_identical(tmp_path):
    # Start the CLI from the source tree this test imported, not from
    # whatever console script happens to be installed.
    env = dict(os.environ)
    src = str(Path(smearlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({
        "experiment": "liouvillian",
        "n_qubits": 3,
        "n_samples": 5,
        "betas": [0.5, 1.0],
        "seed": 11,
    }), encoding="utf-8")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "smearlab", "run", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            _report(13, False, f"exit {proc.returncode}: {proc.stderr.strip()}")
        outs.append(out)
    same_csv = filecmp.cmp(str(outs[0] / "curve.csv"),
                           str(outs[1] / "curve.csv"), shallow=False)
    same_summary = filecmp.cmp(str(outs[0] / "summary.json"),
                               str(outs[1] / "summary.json"), shallow=False)
    _report(13, same_csv and same_summary,
            f"curve.csv identical: {same_csv}, "
            f"summary.json identical: {same_summary}")
