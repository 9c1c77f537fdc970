"""Spectral flows: generators, transport, localization, decay experiments."""

import math
import tracemalloc

import numpy as np
import pytest

from smearlab.algebra import (
    LocalOperator,
    is_hermitian,
    operator_norm,
    pauli_string,
    random_hermitian,
)
from smearlab.errors import AssumptionError
from smearlab.filtering import almost_inverse_liouvillian
from smearlab.flow import (
    EigenCache,
    FlowGenerator,
    automorphic_equivalence_experiment,
    exact_flow_intertwining,
    integrate_flow,
    localize_generator,
    lppl_experiment,
    sup_poly_exp,
    tail_geom,
)
from smearlab.interaction import (
    PolyPath,
    TrigRampPath,
    custom_model,
    local_perturbation,
    tfim,
)
from smearlab.lattice import build_chain
from smearlab.spectra import diagonalize, lowest_k, patch_expectation, split_spectrum

PAULI_Y = pauli_string("y", (0,)).matrix


def two_level_path():
    # H(s) = diag(0, 1) + s sx / 10 on a single site
    g = build_chain(1)
    return custom_model(
        g,
        [
            ("i", (0,), 0.5),
            ("z", (0,), -0.5),
            ("x", (0,), [0.0, 0.1]),
        ],
    )


def test_generator_kind_validation():
    phi = tfim(build_chain(2), 1.0, 2.0)
    with pytest.raises(ValueError):
        FlowGenerator(phi, "adiabatic")
    with pytest.raises(ValueError):
        FlowGenerator(phi, "exact")
    with pytest.raises(ValueError):
        FlowGenerator(phi, "almost")
    with pytest.raises(ValueError):
        FlowGenerator(phi, "modulated", beta=1.0)


def test_constant_path_gives_zero_generator():
    phi = tfim(build_chain(3), 1.0, 2.0)
    gen = FlowGenerator(phi, "almost", beta=0.7)
    assert operator_norm(gen(0.3)) < 1e-14
    # and the flow is the identity map
    res = integrate_flow(gen, np.linspace(0, 1, 11))
    A = pauli_string("z", (1,)).embed(3)
    assert operator_norm(res.transported(A) - A) < 1e-12


def test_commuting_derivative_gives_zero_almost_generator():
    # with g = 0 only the mutually commuting ZZ terms vary: the derivative
    # commutes with H(s), its filtered image is patch-diagonal, k(0) = 0
    phi = tfim(build_chain(3), PolyPath([1.0, 0.5]), 0.0)
    gen = FlowGenerator(phi, "almost", beta=0.8)
    assert operator_norm(gen(0.4)) < 1e-12


def test_two_level_generator_closed_forms():
    phi = two_level_path()
    for beta in (0.6, 1.0):
        gen = FlowGenerator(phi, "almost", beta=beta)
        K = gen(0.0)
        c = 0.1 * (1.0 - math.exp(-1.0 / (4.0 * beta**2)))
        assert np.allclose(K, c * PAULI_Y, atol=1e-12)
    gen_exact = FlowGenerator(phi, "exact", split_rule=lowest_k(1))
    assert np.allclose(gen_exact(0.0), 0.1 * PAULI_Y, atol=1e-12)


def test_generator_is_hermitian_along_path():
    phi = tfim(build_chain(3), 1.0, TrigRampPath(1.2, 2.0))
    for kind, kwargs in (
        ("exact", {"split_rule": lowest_k(1)}),
        ("almost", {"beta": 0.7}),
    ):
        gen = FlowGenerator(phi, kind, **kwargs)
        for s in (0.1, 0.5, 0.9):
            assert is_hermitian(gen(s), tol=1e-10)


def test_integrate_flow_unitarity_and_phase_oracle():
    # constant generator K: V(s) = e^{i K s}, checked against expm
    from scipy.linalg import expm

    phi = two_level_path()
    gen = FlowGenerator(phi, "almost", beta=1.0)
    K = gen(0.0)

    class _const:
        def __init__(self, phi):
            self.phi = phi

        def __call__(self, s):
            return K

    grid = np.linspace(0, 1, 51)
    res = integrate_flow(_const(phi), grid)
    assert operator_norm(res.unitaries[-1] - expm(1j * K)) < 1e-10
    assert res.final_unitarity_defect < 1e-12


def test_exact_flow_intertwines_patch_states():
    g = build_chain(4)
    phi = tfim(g, 1.0, TrigRampPath(1.2, 2.0))
    rng = np.random.default_rng(2)
    obs = []
    for site in (0, 1, 3):
        M = random_hermitian(2, rng, norm=1.0)
        obs.append(LocalOperator((site,), M).embed(4))
    errors, result = exact_flow_intertwining(phi, lowest_k(1), obs, s_steps=100)
    assert errors.max() < 1e-8
    assert result.final_unitarity_defect < 1e-8


def test_automorphic_error_decreases_with_filter_sharpness():
    g = build_chain(4)
    phi = tfim(g, 1.0, TrigRampPath(1.2, 2.0))
    A = pauli_string("x", (1,)).embed(4)
    xs, vals, _gap = automorphic_equivalence_experiment(
        phi, lowest_k(1), A, [0.9, 0.5], s_steps=100
    )
    # xs is beta^{-2} ascending
    assert xs[0] == pytest.approx(0.9**-2)
    assert xs[1] == pytest.approx(0.5**-2)
    assert vals[0] > vals[1] > 0
    # both errors are genuine signal, not integrator floor
    assert vals[1] > 1e-10


def test_automorphic_experiment_checks_the_gap_along_the_whole_path():
    # g(s) = 2 - 15 s (1 - s)(1 - 2s)^2: the gap is 2.511 at s = 0, 0.5 and
    # 1 but dips to 0.796 near s = 0.85, between the old check points
    g = PolyPath([2.0, -15.0, 75.0, -120.0, 60.0])
    phi = tfim(build_chain(4), 1.0, g)
    A = pauli_string("z", (0,)).embed(4)
    with pytest.raises(AssumptionError, match="spectral gap"):
        automorphic_equivalence_experiment(
            phi, lowest_k(1), A, [1.0], s_steps=20, min_gap=1.5
        )


@pytest.mark.parametrize(
    "field",
    [
        TrigRampPath(2.0, 3.0),
        # dips between s = 0.5 and 1, so the minimum is at an interior point
        PolyPath([2.0, -15.0, 75.0, -120.0, 60.0]),
    ],
    ids=["ramp", "interior-dip"],
)
def test_automorphic_experiment_returns_the_minimum_gap_along_the_path(field):
    phi = tfim(build_chain(4), 1.0, field)
    A = pauli_string("x", (1,)).embed(4)
    _xs, _vals, path_gap = automorphic_equivalence_experiment(
        phi, lowest_k(1), A, [0.7], s_steps=20
    )
    # the RK4 steps visit the 21 grid points and the 20 midpoints; the flow
    # keys them by s rounded to 12 decimals, which moves the last bits
    gaps = [
        split_spectrum(diagonalize(phi.hamiltonian(s)), lowest_k(1)).gap
        for s in np.linspace(0.0, 1.0, 41)
    ]
    assert path_gap == pytest.approx(min(gaps), rel=1e-12, abs=0.0)


def test_modulated_flow_with_large_cutoff_matches_almost():
    g = build_chain(4)
    phi = tfim(g, 1.0, TrigRampPath(1.2, 2.0))
    X = g.region([0])
    cache = EigenCache(phi)
    alm = FlowGenerator(phi, "almost", beta=0.6, cache=cache)
    mod = FlowGenerator(
        phi, "modulated", beta=0.6, region=X, ell=g.diameter + 1, cache=cache
    )
    for s in (0.2, 0.7):
        assert operator_norm(mod(s) - alm(s)) < 1e-12
    # a small cutoff widens far terms and changes the generator
    mod_small = FlowGenerator(
        phi, "modulated", beta=0.6, region=X, ell=1, cache=cache
    )
    assert operator_norm(mod_small(0.5) - alm(0.5)) > 1e-6


def test_localized_generator_resums_exactly():
    g = build_chain(5)
    phi = tfim(g, 1.0, TrigRampPath(2.0, 3.0))
    sd = diagonalize(phi.hamiltonian(0.5))
    loc = localize_generator(sd, 0.7, phi.derivative_snapshot(0.5), g)
    assert loc.resummation_residual < 1e-10
    ref = almost_inverse_liouvillian(sd, 0.7, phi.hamiltonian_derivative(0.5))
    assert operator_norm(loc.assemble() - ref) < 1e-10
    # shell norms fall beyond the first fattening
    msn = loc.max_shell_norms
    assert np.all(np.diff(msn[1:]) <= 1e-12)
    # every stored term is supported on its region: conditional
    # expectation onto the region leaves it unchanged
    from smearlab.algebra import conditional_expectation

    for sites, mat in loc.terms.items():
        proj = conditional_expectation(mat, sites, 5)
        assert operator_norm(proj - mat) < 1e-10


def test_localize_trivial_cases():
    g = build_chain(3)
    sd0 = diagonalize(np.zeros((8, 8)))
    phi = tfim(g, PolyPath([1.0, 1.0]), 0.0)
    # H = 0: the filter kernel vanishes identically
    loc = localize_generator(sd0, 0.5, phi.derivative_snapshot(0.0), g)
    assert operator_norm(loc.assemble()) < 1e-14
    assert loc.resummation_residual < 1e-14
    # terms commuting with H: filtered image is zero as well
    sdg = diagonalize(phi.hamiltonian(0.0))
    loc2 = localize_generator(sdg, 0.5, phi.derivative_snapshot(0.0), g)
    assert operator_norm(loc2.assemble()) < 1e-12


def test_sup_poly_exp_dominates_grid():
    r = np.linspace(0, 60, 30001)
    assert sup_poly_exp(1.0, 1.0) == pytest.approx(1.0 / math.e)
    for p, c in ((1.0, 1.0), (2.0, 0.7), (3.5, 1.9)):
        brute = np.max(r**p * np.exp(-c * r))
        assert sup_poly_exp(p, c) >= brute - 1e-12
    with pytest.raises(ValueError):
        sup_poly_exp(0.0, 1.0)
    with pytest.raises(ValueError):
        sup_poly_exp(1.0, -1.0)


def test_tail_geom_dominates_series():
    for c, L in ((1.0, 3), (0.5, 0), (2.0, 4.3)):
        n0 = math.ceil(L)
        series = sum(math.exp(-c * n) for n in range(n0, n0 + 2000))
        assert tail_geom(c, L) >= series
    # explicit value at (1, 3)
    assert tail_geom(1.0, 3.0) == pytest.approx(math.e * math.exp(-3.0))
    with pytest.raises(ValueError):
        tail_geom(0.0, 1.0)


def test_lppl_zero_perturbation_is_flat():
    g = build_chain(5)
    base = tfim(g, 1.0, 2.0)
    xs, vals, sites, _gap, _residual = lppl_experiment(
        base,
        pauli_string("z", (0,)),
        PolyPath([0.0]),
        [1, 2, 3],
        lambda s: pauli_string("z", (s,)),
        lowest_k(1),
    )
    assert np.all(vals <= 1e-12)
    assert sites == [1, 2, 3]


def test_lppl_commuting_perturbation_is_flat():
    # pure transverse field with a field perturbation: every H(s) shares
    # one eigenbasis, so the patch state never moves
    g = build_chain(4)
    base = tfim(g, 0.0, 2.0)
    xs, vals, _sites, _gap, _residual = lppl_experiment(
        base,
        pauli_string("x", (0,)),
        PolyPath([0.0, 0.3]),
        [1, 2, 3],
        lambda s: pauli_string("x", (s,)),
        lowest_k(1),
    )
    assert np.all(vals <= 1e-12)


def test_lppl_matches_the_dense_route_along_the_path():
    # a non-diagonal observable contracted on its support gives the dense
    # embedded expectation, and the path gap is the minimum over 21 points
    n = 6
    base = tfim(build_chain(n), 1.0, 2.0)
    pert, path = pauli_string("z", (0,)), PolyPath([0.0, 0.3])
    _, vals, sites, path_gap, residual = lppl_experiment(
        base, pert, path, [1, 2, 3], lambda s: pauli_string("x", (s,)), lowest_k(1))
    phi = local_perturbation(base, pert, path)
    splits = [split_spectrum(diagonalize(phi.hamiltonian(s)), lowest_k(1))
              for s in np.linspace(0.0, 1.0, 21)]
    for x, value in zip(sites, vals):
        A = pauli_string("x", (x,)).embed(n)
        w0, w1 = (patch_expectation(split, A) for split in (splits[0], splits[-1]))
        assert value == pytest.approx(abs(w1 - w0), abs=1e-12)
    assert path_gap == pytest.approx(min(split.gap for split in splits), abs=1e-12)
    assert 0.0 < residual <= 1e-12


def test_lppl_lowest_k_never_goes_dense(monkeypatch):
    # one dense H on 14 sites alone would take 2.1 GB
    import smearlab.flow as flow
    import smearlab.spectra as spectra

    calls = []
    for module in (flow, spectra):
        monkeypatch.setattr(module, "diagonalize",
                            lambda H: calls.append("diagonalize"))
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **kw: calls.append("eigh") or eigh(*a, **kw))
    tracemalloc.start()
    try:
        _, vals, _, path_gap, residual = lppl_experiment(
            tfim(build_chain(14), 1.0, 2.0), pauli_string("z", (0,)),
            PolyPath([0.0, 0.3]), [2, 5, 8], lambda s: pauli_string("z", (s,)),
            lowest_k(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 64e6
    assert np.all(np.diff(vals) < 0)
    assert path_gap > 1.0
    assert residual <= 1e-12


def test_lppl_response_decays_with_distance():
    g = build_chain(6)
    base = tfim(g, 1.0, 2.0)
    xs, vals, sites, _gap, _residual = lppl_experiment(
        base,
        pauli_string("z", (0,)),
        PolyPath([0.0, 0.3]),
        [1, 2, 3, 4],
        lambda s: pauli_string("z", (s,)),
        lowest_k(1),
    )
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(AssumptionError):
        lppl_experiment(
            base,
            pauli_string("z", (0,)),
            PolyPath([0.0, 0.3]),
            [9],
            lambda s: pauli_string("z", (s,)),
            lowest_k(1),
        )
