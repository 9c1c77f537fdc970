"""Interaction terms, coefficient paths, weighted norms, model builders."""

import math
import tracemalloc

import numpy as np
import pytest

from smearlab.algebra import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    LocalOperator,
    commutator,
    embed,
    operator_norm,
    pauli_string,
)
from smearlab.interaction import (
    Interaction,
    InteractionTerm,
    PolyPath,
    TrigRampPath,
    as_path,
    custom_model,
    interaction_norm,
    local_perturbation,
    tfim,
    xy_charge,
)
from smearlab.lattice import build_chain, build_ring, build_torus
from smearlab.qhe import region_charge
from smearlab.spectra import diagonalize


def test_poly_path_values_and_derivative():
    p = PolyPath([1.0, -2.0, 3.0])  # 1 - 2s + 3s^2
    for s in (0.0, 0.3, 1.0):
        assert p(s) == pytest.approx(1.0 - 2.0 * s + 3.0 * s**2)
        assert p.derivative(s) == pytest.approx(-2.0 + 6.0 * s)
    const = PolyPath([4.0])
    assert const.derivative(0.7) == 0.0
    with pytest.raises(ValueError):
        PolyPath([])


def test_trig_ramp_endpoints_and_flat_start():
    p = TrigRampPath(2.0, 3.0)
    assert p(0.0) == pytest.approx(2.0)
    assert p(1.0) == pytest.approx(3.0)
    assert p.derivative(0.0) == pytest.approx(0.0)
    assert p.derivative(1.0) == pytest.approx(0.0, abs=1e-15)
    assert p.derivative(0.5) == pytest.approx(np.pi / 2)
    # derivative agrees with a central difference away from the ends
    h = 1e-6
    fd = (p(0.3 + h) - p(0.3 - h)) / (2 * h)
    assert p.derivative(0.3) == pytest.approx(fd, rel=1e-8)


def test_as_path_coercion():
    assert as_path(2.5)(0.9) == 2.5
    assert as_path([0.0, 1.0])(0.25) == 0.25
    ramp = TrigRampPath(0.0, 1.0)
    assert as_path(ramp) is ramp


def test_interaction_term_requires_hermitian():
    raising = LocalOperator((0,), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        InteractionTerm(raising, 1.0)


def test_tfim_hamiltonian_n2_oracle():
    # n=2: H = -J Z(x)Z - g (X(x)1 + 1(x)X), written out by hand
    g = build_chain(2)
    phi = tfim(g, j=1.3, g=0.7)
    H = phi.hamiltonian(0.0)
    expect = -1.3 * np.kron(PAULI_Z, PAULI_Z)
    expect -= 0.7 * (np.kron(PAULI_X, np.eye(2)) + np.kron(np.eye(2), PAULI_X))
    assert np.allclose(H, expect)


def test_hamiltonian_derivative_matches_finite_difference():
    g = build_chain(3)
    phi = tfim(g, j=PolyPath([1.0, 0.5]), g=TrigRampPath(2.0, 3.0))
    s, h = 0.4, 1e-6
    fd = (phi.hamiltonian(s + h) - phi.hamiltonian(s - h)) / (2 * h)
    assert np.allclose(phi.hamiltonian_derivative(s), fd, atol=1e-7)
    # derivative snapshot freezes exactly that matrix
    snap = phi.derivative_snapshot(s)
    assert np.allclose(snap.hamiltonian(0.0), phi.hamiltonian_derivative(s))
    # trig ramp derivative vanishes at s=0, so only the J terms survive
    assert all(
        len(t.operator.sites) == 2 for t in phi.derivative_snapshot(0.0).terms
    )


@pytest.mark.parametrize(
    "phi",
    [tfim(build_ring(6), 1.3, 0.6), xy_charge(build_torus(3, 3), 0.2, 1.0)],
    ids=["ring-wrap-edge", "xy-torus3"],
)
def test_hamiltonian_is_exactly_the_sum_of_embedded_terms(phi):
    expect = np.zeros((phi.dim, phi.dim), dtype=complex)
    for term in phi.terms:
        expect += term.coefficient(0.0) * term.operator.embed(phi.n_sites)
    assert np.array_equal(phi.hamiltonian(0.0), expect)


@pytest.mark.parametrize(
    "phi",
    [
        tfim(build_ring(6), PolyPath([1.3, -0.4]), TrigRampPath(0.6, 2.0)),
        xy_charge(build_torus(3, 3), 0.2, 1.0),
        custom_model(build_chain(4), [("Y", (0,), 0.7), ("ZZ", (1, 2), 1.1),
                                      ("XY", (2, 3), PolyPath([0.5, 1.0]))]),
        # several terms share each diagonal entry, whose sum a re-sort of
        # the entries would take in another order
        local_perturbation(tfim(build_chain(9), 1.0, 2.0), pauli_string("z", (0,)),
                           PolyPath([0.0, 0.3])),
    ],
    ids=["ring-paths", "xy-torus3", "complex-chain4", "perturbed-chain9"],
)
def test_sparse_hamiltonian_matches_dense(phi):
    for t in (0.0, 0.37, 0.4):
        H = phi.hamiltonian(t)
        S = phi.sparse_hamiltonian(t)
        assert S.format == "csr"
        assert S.dtype == H.dtype
        assert np.array_equal(S.toarray(), H)


def test_a_model_without_terms_assembles_to_zeros():
    phi = tfim(build_chain(3), 1.0, 0.5).derivative_snapshot(0.2)
    assert phi.terms == ()
    for H in (phi.hamiltonian(0.0), phi.hamiltonian_derivative(0.0)):
        assert H.dtype == np.float64 and np.array_equal(H, np.zeros((8, 8)))
    S = phi.sparse_hamiltonian(0.0)
    assert S.dtype == np.float64 and S.shape == (8, 8) and S.nnz == 0


class _CountingPath(PolyPath):
    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return super().__call__(s)

    def derivative(self, s):
        self.calls += 1
        return super().derivative(s)


def test_each_distinct_path_is_evaluated_once_per_assembly():
    # a chain of 6 has 5 bonds sharing J and 6 sites sharing g
    j, g = _CountingPath([1.0, 0.5]), _CountingPath([2.0])
    phi = tfim(build_chain(6), j, g)
    for assemble in (phi.hamiltonian, phi.hamiltonian_derivative, phi.sparse_hamiltonian):
        j.calls = g.calls = 0
        assemble(0.3)
        assert (j.calls, g.calls) == (1, 1)


def test_assembly_reuses_the_term_layout(monkeypatch):
    # the first assembly lays out each term's entries; later dense, derivative
    # and sparse builds only scale and scatter them, with the same bits as
    # a fresh interaction gives
    import smearlab.interaction as interaction

    phi = tfim(build_chain(5), PolyPath([1.0, 0.5]), TrigRampPath(2.0, 3.0))
    fresh = [Interaction(phi.graph, phi.terms) for _ in range(3)]
    expect = [fresh[0].hamiltonian(0.3), fresh[1].hamiltonian_derivative(0.3),
              fresh[2].sparse_hamiltonian(0.3).toarray()]
    phi.hamiltonian(0.0)
    calls, site_index = [], interaction.site_index
    monkeypatch.setattr(interaction, "site_index",
                        lambda *a, **kw: calls.append(a) or site_index(*a, **kw))
    got = [phi.hamiltonian(0.3), phi.hamiltonian_derivative(0.3),
           phi.sparse_hamiltonian(0.3).toarray()]
    assert calls == []
    for g, e in zip(got, expect):
        assert np.array_equal(g, e)


def test_sparse_hamiltonian_reads_its_indices_from_the_layout():
    # no per-call index arithmetic: every CSR shares the entry table's
    # read-only column indices and row starts
    phi = tfim(build_chain(6), PolyPath([1.0, 0.5]), 0.7)
    a, b = phi.sparse_hamiltonian(0.0), phi.sparse_hamiltonian(0.3)
    assert np.shares_memory(a.indices, b.indices) and np.shares_memory(a.indptr, b.indptr)
    assert a.indices.dtype == a.indptr.dtype == np.int32
    with pytest.raises(ValueError):
        a.indices[0] = 1
    assert np.array_equal(b.toarray(), phi.hamiltonian(0.3))


def test_hamiltonian_assembly_holds_one_matrix():
    phi = tfim(build_chain(10), 1.0, 0.7)
    tracemalloc.start()
    H = phi.hamiltonian(0.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.25 * H.nbytes


def test_real_models_stay_real_from_terms_to_eigenvectors():
    chain = build_chain(5)
    phi = tfim(chain, 1.0, TrigRampPath(2.0, 3.0))
    H = phi.hamiltonian(0.3)
    torus = build_torus(3, 3)
    real = [
        H,
        phi.hamiltonian_derivative(0.3),
        xy_charge(torus, 0.2, 1.0).hamiltonian(),
        region_charge(torus, [0, 4, 8]),
        pauli_string("x", (1,)).embed(5),
        pauli_string("z", (3,)).embed(5),
    ]
    assert [A.dtype for A in real] == [np.float64] * len(real)
    sd = diagonalize(H)
    assert sd.vectors.dtype == np.float64
    assert sd.hamiltonian is H


def test_y_term_makes_the_hamiltonian_complex():
    specs = [("Y", (0,), 0.7), ("Z", (1,), -0.4), ("ZZ", (1, 2), 1.1),
             ("X", (2,), 0.5), ("Y", (2,), -0.3)]
    phi = custom_model(build_chain(3), specs)
    H = phi.hamiltonian()
    assert H.dtype == np.complex128
    letters = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    expect = np.zeros((8, 8), dtype=complex)
    for label, sites, c in specs:
        factors = [letters[label[sites.index(x)]] if x in sites else np.eye(2)
                   for x in range(3)]
        expect += c * np.kron(np.kron(factors[0], factors[1]), factors[2])
    assert np.array_equal(H, expect)
    sd = diagonalize(H)
    V = sd.vectors
    assert np.abs((V * sd.energies) @ V.conj().T - H).max() <= 1e-12


def test_is_constant_reads_the_paths_on_the_interval():
    g = build_chain(2)
    assert tfim(g, 1.0, 0.5).is_constant
    assert tfim(g, TrigRampPath(2.0, 2.0), PolyPath([0.5, 0.0])).is_constant
    assert not tfim(g, 1.0, PolyPath([0.5, 1.0])).is_constant
    assert not tfim(g, TrigRampPath(1.0, 2.0), 0.5).is_constant


def test_grouped_terms_sum_same_support():
    g = build_chain(2)
    spec = [("z", (0,), 1.0), ("z", (0,), PolyPath([2.0])), ("x", (1,), 1.0)]
    phi = custom_model(g, spec)
    groups = dict(
        (sites, op.matrix) for sites, op in phi.grouped_terms(0.0)
    )
    assert set(groups) == {(0,), (1,)}
    assert np.allclose(groups[(0,)], 3.0 * PAULI_Z)


def test_interaction_norm_onsite_and_ring():
    # single onsite field: ||Phi||_b = |h| (diameter 0 kills the weight)
    g1 = build_chain(1)
    phi1 = custom_model(g1, [("z", (0,), -0.8)])
    assert interaction_norm(phi1, 1.7) == pytest.approx(0.8)
    # Ising ring without field: each site touches two bonds of diameter 1,
    # each of norm |J| e^b
    ring = build_ring(6)
    phi2 = custom_model(ring, [("zz", e, 2.0) for e in ring.edges])
    for b in (0.0, 0.5, 1.0):
        assert phi2.norm(b) == pytest.approx(2 * 2.0 * np.exp(b))
    with pytest.raises(ValueError):
        interaction_norm(phi2, -0.1)


def test_interaction_norm_takes_parameter_sup():
    g = build_chain(2)
    phi = custom_model(g, [("z", (0,), PolyPath([0.0, 1.0]))])
    # coefficient grows linearly: sup over [0, 1] is at s=1
    assert phi.norm(0.3) == pytest.approx(1.0)


def test_interaction_norm_is_an_upper_bound_between_grid_points():
    # c(s) = s - s^3 peaks at s = 1/sqrt(3) with c = 2/(3 sqrt 3) = 0.3849...,
    # between the points of a uniform 21-point grid (which gives 0.3840);
    # the norm is that sup up to rounding
    phi = custom_model(build_chain(1), [("z", (0,), PolyPath([0, 1, 0, -1]))])
    assert phi.norm(0.5) == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)
    # a field ramp -(1 - cos(pi s))/2 on [0.5, 2.5] is 0.5 in size at both
    # ends and peaks at 1 at the interior integer s = 1
    g = build_chain(1)
    ramp = tfim(g, 0.0, TrigRampPath(0.0, 1.0))
    assert Interaction(g, ramp.terms, interval=(0.5, 2.5)).norm(0.5) == 1.0


def test_xy_charge_commutes_with_total_charge():
    g = build_ring(4)
    phi = xy_charge(g, j=0.7, h=1.1)
    H = phi.hamiltonian(0.0)
    n1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    Q = sum(embed(n1, (x,), 4) for x in g.sites())
    assert operator_norm(commutator(H, Q)) <= 1e-12
    # charge values are integers 0..n
    evals = np.linalg.eigvalsh(Q)
    assert np.allclose(np.round(evals), evals)


def test_xy_charge_single_particle_energies():
    # J=0 decouples the sites: spectrum = h * (number of occupied sites)
    g = build_chain(3)
    phi = xy_charge(g, j=0.0, h=0.9)
    evals = np.linalg.eigvalsh(phi.hamiltonian(0.0))
    expect = sorted(0.9 * bin(k).count("1") for k in range(8))
    assert np.allclose(np.sort(evals), expect)


def test_local_perturbation_switches_on():
    g = build_chain(4)
    base = tfim(g, 1.0, 2.0)
    pert = local_perturbation(base, pauli_string("z", (0,)), PolyPath([0.0, 0.3]))
    assert np.allclose(pert.hamiltonian(0.0), base.hamiltonian(0.0))
    diff = pert.hamiltonian(1.0) - base.hamiltonian(1.0)
    assert np.allclose(diff, 0.3 * pauli_string("z", (0,)).embed(4))


def test_term_support_must_fit_graph():
    g = build_chain(2)
    with pytest.raises(ValueError):
        Interaction(g, [InteractionTerm(pauli_string("z", (5,)), 1.0)])
