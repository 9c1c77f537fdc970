"""Spectral flows: generators, transport, localization, decay experiments."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array
from test_spectra import _counted_eigh

from smearlab.algebra import (
    LocalOperator,
    is_hermitian,
    operator_norm,
    pauli_string,
    random_hermitian,
)
from smearlab.errors import AssumptionError, SchemaError
from smearlab.filtering import almost_inverse_liouvillian, exact_inverse_liouvillian
from smearlab.flow import (
    EigenCache,
    FlowGenerator,
    automorphic_equivalence_experiment,
    exact_flow_intertwining,
    integrate_flow,
    localize_generator,
    lppl_experiment,
)
from smearlab.interaction import (
    Interaction,
    PolyPath,
    TrigRampPath,
    custom_model,
    local_perturbation,
    tfim,
)
from smearlab.lattice import build_chain
from smearlab.spectra import (diagonalize, lowest_k, lowest_levels, patch_expectation,
                              split_spectrum)

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
    assert operator_norm(gen(0.3) @ np.eye(8)) < 1e-14
    # and the flow is the identity map
    W = integrate_flow(gen, np.linspace(0, 1, 11), np.eye(8))
    assert operator_norm(W - np.eye(8)) < 1e-12


def test_commuting_derivative_gives_zero_almost_generator():
    # with g = 0 only the mutually commuting ZZ terms vary: the derivative
    # commutes with H(s), its filtered image is patch-diagonal, k(0) = 0
    phi = tfim(build_chain(3), PolyPath([1.0, 0.5]), 0.0)
    gen = FlowGenerator(phi, "almost", beta=0.8)
    assert operator_norm(gen(0.4) @ np.eye(8)) < 1e-12


def test_two_level_generator_closed_forms():
    phi = two_level_path()
    for beta in (0.6, 1.0):
        gen = FlowGenerator(phi, "almost", beta=beta)
        iK = gen(0.0) @ np.eye(2)
        c = 0.1 * (1.0 - math.exp(-1.0 / (4.0 * beta**2)))
        assert np.allclose(iK, 1j * c * PAULI_Y, atol=1e-12)
    gen_exact = FlowGenerator(phi, "exact", split_rule=lowest_k(1))
    assert np.allclose(gen_exact(0.0) @ np.eye(2), 1j * 0.1 * PAULI_Y, atol=1e-12)


def test_generator_is_hermitian_along_path():
    phi = tfim(build_chain(3), 1.0, TrigRampPath(1.2, 2.0))
    for kind, kwargs in (
        ("exact", {"split_rule": lowest_k(1)}),
        ("almost", {"beta": 0.7}),
    ):
        gen = FlowGenerator(phi, kind, **kwargs)
        for s in (0.1, 0.5, 0.9):
            assert is_hermitian(-1j * (gen(s) @ np.eye(8)), tol=1e-10)


def test_integrate_flow_unitarity_and_phase_oracle():
    # constant generator K: V(s) = e^{i K s}, checked against expm
    from scipy.linalg import expm

    phi = two_level_path()
    gen = FlowGenerator(phi, "almost", beta=1.0)
    iK = gen(0.0) @ np.eye(2)

    class _const:
        def __init__(self, phi):
            self.phi = phi

        def __call__(self, s):
            return iK

    grid = np.linspace(0, 1, 51)
    W = integrate_flow(_const(phi), grid, np.eye(2))
    assert operator_norm(W - expm(iK)) < 1e-10
    assert operator_norm(W.conj().T @ W - np.eye(2)) < 1e-12


def test_exact_flow_intertwines_patch_states():
    g = build_chain(4)
    phi = tfim(g, 1.0, TrigRampPath(1.2, 2.0))
    rng = np.random.default_rng(2)
    obs = []
    for site in (0, 1, 3):
        M = random_hermitian(2, rng, norm=1.0)
        obs.append(LocalOperator((site,), M).embed(4))
    errors, defect = exact_flow_intertwining(phi, lowest_k(1), obs, s_steps=100)
    assert errors.max() < 1e-8
    assert isinstance(defect, float) and defect < 1e-8


def _trajectory(gen, grid, block):
    """The block at every grid point, as `observe` sees each step land."""
    seen = []
    last = integrate_flow(gen, grid, block, lambda i, W: seen.append((i, W)))
    assert [i for i, _ in seen] == list(range(grid.size))
    assert seen[-1][1] is last
    return [W for _, W in seen]


def test_lockstep_generators_match_separate_flows():
    # each generator's block is the one it reaches alone, bit for bit
    phi = tfim(build_chain(4), 1.0, TrigRampPath(1.2, 2.0))
    gens = [FlowGenerator(phi, "almost", beta=b) for b in (0.9, 0.6)]
    grid = np.linspace(0.0, 1.0, 11)
    W0 = np.eye(phi.dim)[:, :1]
    seen = []
    blocks = integrate_flow(gens, grid, W0, lambda i, Ws: seen.append((i, Ws)))
    assert [i for i, _ in seen] == list(range(grid.size))
    assert all(W is last for W, last in zip(seen[-1][1], blocks))
    for gen, W in zip(gens, blocks):
        assert np.array_equal(W, integrate_flow(gen, grid, W0))


@pytest.mark.parametrize("kind", ["almost", "exact"])
def test_patch_block_flow_is_the_unitary_flow_on_the_patch(kind):
    # RK4 is linear in its state: the block route from W0 is the unitary
    # route applied to W0, up to rounding
    phi = tfim(build_chain(5), 1.0, TrigRampPath(1.2, 2.0))
    gen = FlowGenerator(phi, kind, beta=0.7, split_rule=lowest_k(1))
    grid = np.linspace(0.0, 1.0, 21)
    W0 = gen.split(0.0).patch_vectors()
    full = _trajectory(gen, grid, np.eye(phi.dim))
    patch = _trajectory(gen, grid, W0)
    for W, V in zip(patch, full):
        assert W.shape == W0.shape == (phi.dim, 1)
        assert np.abs(W - V @ W0).max() < 1e-12


@pytest.mark.parametrize("kind", ["almost", "exact"])
def test_real_path_keeps_the_transport_real(kind):
    phi = tfim(build_chain(4), 1.0, TrigRampPath(1.2, 2.0))
    gen = FlowGenerator(phi, kind, beta=0.7, split_rule=lowest_k(1))
    G = gen(0.5) @ np.eye(phi.dim)
    assert G.dtype == np.float64
    assert np.abs(G + G.T).max() < 1e-12
    blocks = _trajectory(gen, np.linspace(0.0, 1.0, 21), gen.split(0.0).patch_vectors())
    assert [W.dtype for W in blocks] == [np.dtype(np.float64)] * 21


def _dense_generator(phi, kind, beta, rule, region, ell):
    """s -> i K(s) as a dense matrix, by the eigenbasis maps of `filtering`;
    the modulated K is the sum over terms of I_beta with each term's width."""
    def generator(s):
        sd = diagonalize(phi.hamiltonian(s))
        if kind == "exact":
            K = exact_inverse_liouvillian(split_spectrum(sd, rule), phi.hamiltonian_derivative(s))
        elif kind == "almost":
            K = almost_inverse_liouvillian(sd, beta, phi.hamiltonian_derivative(s))
        else:
            K = 0.0
            for sites, op in phi.derivative_snapshot(s).grouped_terms(0.0):
                dist = region.distance_to(sites)
                b = beta if dist < ell else 1.0 / math.sqrt(1.0 / beta**2 + dist)
                K = K + almost_inverse_liouvillian(sd, b, op.embed(phi.n_sites))
        return 1j * K
    return generator


@pytest.mark.parametrize("kind", ["almost", "exact", "modulated"])
def test_complex_path_matches_the_dense_generator(kind):
    # a sigma^y term makes H complex: the same route runs in complex128
    g = build_chain(4)
    phi = custom_model(g, [
        ("zz", (0, 1), 1.0), ("zz", (1, 2), 0.8), ("zz", (2, 3), 1.1),
        *(("x", (i,), [1.5 + 0.1 * i, 0.6]) for i in range(4)),
        ("y", (1,), [0.0, 0.4]), ("xy", (2, 3), [0.3, -0.2]),
    ])
    args = (0.7, lowest_k(1), g.region([0]), 1)
    gen = FlowGenerator(phi, kind, *args)
    grid = np.linspace(0.0, 1.0, 21)
    W0 = gen.split(0.0).patch_vectors()
    assert np.iscomplexobj(phi.hamiltonian(0.5))
    res = _trajectory(gen, grid, W0)
    ref = _trajectory(_dense_generator(phi, kind, *args), grid, W0)
    for W, R in zip(res, ref):
        assert W.dtype == np.complex128
        assert np.abs(W - R).max() < 1e-12


def test_automorphic_error_decreases_with_filter_sharpness():
    g = build_chain(4)
    phi = tfim(g, 1.0, TrigRampPath(1.2, 2.0))
    A = pauli_string("x", (1,)).embed(4)
    xs, vals, _gap, _defects = automorphic_equivalence_experiment(
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
            phi, lowest_k(1, min_gap=1.5), A, [1.0], s_steps=20
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
    _xs, _vals, path_gap, _defects = automorphic_equivalence_experiment(
        phi, lowest_k(1), A, [0.7], s_steps=20
    )
    # the RK4 steps visit the 21 grid points and the 20 midpoints; the flow
    # keys them by s rounded to 12 decimals, which moves the last bits
    gaps = [
        split_spectrum(diagonalize(phi.hamiltonian(s)), lowest_k(1)).gap
        for s in np.linspace(0.0, 1.0, 41)
    ]
    assert path_gap == pytest.approx(min(gaps), rel=1e-12, abs=0.0)


def test_betas_step_together_through_three_eigendecompositions(monkeypatch):
    # the four betas share each distinct s: 21 grid points and 20 midpoints
    import smearlab.flow as flow

    calls, held = [], []
    diagonalize_, at = flow.diagonalize, EigenCache.at
    monkeypatch.setattr(flow, "diagonalize", lambda H: calls.append(1) or diagonalize_(H))

    def counted_at(self, s):
        sd = at(self, s)
        held.append(len(self._store))
        return sd

    monkeypatch.setattr(EigenCache, "at", counted_at)
    phi = tfim(build_chain(4), 1.0, TrigRampPath(2.0, 3.0))
    automorphic_equivalence_experiment(phi, lowest_k(1), pauli_string("x", (1,)),
                                       [0.9, 0.7, 0.55, 0.45], s_steps=20)
    assert len(calls) == 2 * 20 + 1
    assert max(held) == 3


def _traced_peaks(run, step_counts):
    peaks = []
    for s_steps in step_counts:
        tracemalloc.start()
        try:
            run(s_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_flow_memory_does_not_grow_with_the_step_count():
    # three eigendecompositions and one block per flow are held whatever
    # the step count: the four betas' almost flows on a chain of 7 and the
    # exact control on a chain of 6
    ramp = TrigRampPath(2.0, 3.0)
    A = pauli_string("x", (1,))
    almost = _traced_peaks(lambda s_steps: automorphic_equivalence_experiment(
        tfim(build_chain(7), 1.0, ramp), lowest_k(1), A, [0.9, 0.7, 0.55, 0.45],
        s_steps=s_steps), (40, 400))
    exact = _traced_peaks(lambda s_steps: exact_flow_intertwining(
        tfim(build_chain(6), 1.0, ramp), lowest_k(1), [A], s_steps=s_steps), (40, 400))
    assert almost[1] <= 1.1 * almost[0]
    assert exact[1] <= 1.1 * exact[0]


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
        assert operator_norm(mod(s) @ np.eye(16) - alm(s) @ np.eye(16)) < 1e-12
    # a small cutoff widens far terms and changes the generator
    mod_small = FlowGenerator(
        phi, "modulated", beta=0.6, region=X, ell=1, cache=cache
    )
    assert operator_norm(mod_small(0.5) @ np.eye(16) - alm(0.5) @ np.eye(16)) > 1e-6


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
    # one dense H on 14 sites alone would take 2.1 GB; the only eigh is the
    # Lanczos's on its tridiagonal, at most the size of its basis
    import smearlab.flow as flow
    import smearlab.spectra as spectra

    calls = []
    for module in (flow, spectra):
        monkeypatch.setattr(module, "diagonalize",
                            lambda H: calls.append("diagonalize"))
    sizes, _ = _counted_eigh(monkeypatch)
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
    assert 0 < max(sizes) <= spectra.KRYLOV_CAP
    assert peak < 64e6
    assert np.all(np.diff(vals) < 0)
    assert path_gap > 1.0
    assert residual <= 1e-12


def test_lppl_sweep_starts_each_point_from_the_one_before(monkeypatch):
    # warm starts must save a fifth of the products with H that cold
    # starts at the same 21 points take; each CSR H counts its products
    products = [0]

    class Counted(csr_array):
        def __matmul__(self, x):
            products[0] += 1 if np.ndim(x) == 1 else np.shape(x)[1]
            return super().__matmul__(x)

    sparse_hamiltonian = Interaction.sparse_hamiltonian
    monkeypatch.setattr(Interaction, "sparse_hamiltonian",
                        lambda self, t=0.0: Counted(sparse_hamiltonian(self, t)))
    base, pert, path = tfim(build_chain(10), 1.0, 2.0), pauli_string("z", (0,)), PolyPath([0.0, 0.3])
    lppl_experiment(base, pert, path, [2], lambda s: pauli_string("z", (s,)), lowest_k(1))
    warm, products[0] = products[0], 0
    phi = local_perturbation(base, pert, path)
    for s in np.linspace(0.0, 1.0, 21):
        lowest_levels(phi.sparse_hamiltonian(s), 1)
    assert 0 < warm <= 0.8 * products[0]


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
    with pytest.raises(SchemaError, match=r"no site at distance 9 from sites \[0\]"):
        lppl_experiment(
            base,
            pauli_string("z", (0,)),
            PolyPath([0.0, 0.3]),
            [9],
            lambda s: pauli_string("z", (s,)),
            lowest_k(1),
        )
