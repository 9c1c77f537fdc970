"""Diagonalization, split rules, patch states, degeneracy handling."""

import numpy as np
import pytest

from smearlab.algebra import LocalOperator, pauli_string, random_hermitian
from smearlab.errors import AssumptionError, SchemaError
from smearlab.interaction import custom_model, tfim
from smearlab.lattice import build_chain
from smearlab.spectra import (
    diagonalize,
    largest_gap_below,
    lowest_k,
    lowest_levels,
    patch_expectation,
    split_spectrum,
    window,
)


def power_iteration_extreme(H, n_iter=4000, seed=0):
    """Largest-|eigenvalue| estimate without calling an eigensolver."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(n_iter):
        w = H @ v
        v = w / np.linalg.norm(w)
    return float(np.real(v.conj() @ H @ v))


def test_diagonalize_reconstructs_and_sorts():
    rng = np.random.default_rng(2)
    H = random_hermitian(12, rng)
    sd = diagonalize(H)
    assert np.all(np.diff(sd.energies) >= 0)
    V = sd.vectors
    assert np.allclose(V @ np.diag(sd.energies) @ V.conj().T, H, atol=1e-10)
    assert np.allclose(V.conj().T @ V, np.eye(12), atol=1e-12)
    # round trip through the eigenbasis
    A = random_hermitian(12, rng)
    assert np.allclose(sd.from_eigenbasis(sd.to_eigenbasis(A)), A, atol=1e-12)
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_extreme_eigenvalue_against_power_iteration():
    rng = np.random.default_rng(4)
    H = random_hermitian(10, rng)
    # shift so the largest-|.| eigenvalue is the top one
    H = H + 3.0 * np.eye(10)
    sd = diagonalize(H)
    est = power_iteration_extreme(H)
    assert sd.energies[-1] == pytest.approx(est, abs=1e-6)


def test_frequency_table_and_diagonal_input():
    sd = diagonalize(np.diag([0.0, 1.0, 3.0]))
    omega = sd.frequency_table()
    assert omega.shape == (3, 3)
    assert omega[2, 0] == pytest.approx(3.0)
    assert np.allclose(omega, -omega.T)
    # 1-D input to to_eigenbasis is the operator diag(a)
    a = np.array([1.0, 2.0, 5.0])
    assert np.allclose(sd.to_eigenbasis(a), np.diag(a))


def test_lowest_k_split_tfim():
    g = build_chain(4)
    sd = diagonalize(tfim(g, 1.0, 2.0).hamiltonian())
    split = split_spectrum(sd, lowest_k(1))
    assert split.p == 1
    assert split.width == 0.0
    assert split.gap == pytest.approx(sd.energies[1] - sd.energies[0])
    assert split.idx0.tolist() == [0]
    assert split.idx1.tolist() == list(range(1, 16))
    P = split.projector
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.trace(P).real == pytest.approx(split.p)


def test_lowest_k_never_cuts_degenerate_cluster():
    # four exactly degenerate bottom levels: lowest_k(2) must take all four
    sd = diagonalize(np.diag([0.0, 0.0, 0.0, 0.0, 2.0, 3.0]))
    split = split_spectrum(sd, lowest_k(2))
    assert split.p == 4
    assert split.gap == pytest.approx(2.0)
    with pytest.raises(AssumptionError):
        split_spectrum(diagonalize(np.zeros((3, 3))), lowest_k(2))
    with pytest.raises(AssumptionError):
        split_spectrum(sd, lowest_k(6))


def test_window_split_rules():
    sd = diagonalize(np.diag([0.0, 0.1, 1.0, 1.1, 3.0]))
    split = split_spectrum(sd, window(0.9, 1.2))
    assert split.idx0.tolist() == [2, 3]
    assert split.gap == pytest.approx(min(1.0 - 0.1, 3.0 - 1.1))
    assert split.width == pytest.approx(0.1)
    with pytest.raises(AssumptionError):
        split_spectrum(sd, window(5.0, 6.0))
    with pytest.raises(SchemaError):
        window(2.0, 1.0)


def test_largest_gap_below_rule():
    sd = diagonalize(np.diag([0.0, 0.3, 2.0, 2.2, 5.0]))
    split = split_spectrum(sd, largest_gap_below(3.0))
    # gaps below 3.0: 0.3, 1.7, 0.2 -> cut after the second level
    assert split.idx0.tolist() == [0, 1]
    assert split.gap == pytest.approx(1.7)
    with pytest.raises(AssumptionError):
        split_spectrum(sd, largest_gap_below(0.1))


def test_min_gap_enforced():
    sd = diagonalize(np.diag([0.0, 1e-4, 1.0]))
    with pytest.raises(AssumptionError):
        split_spectrum(sd, lowest_k(1), min_gap=1e-3)
    split = split_spectrum(sd, lowest_k(1), min_gap=1e-6)
    assert split.gap == pytest.approx(1e-4)


def test_distinct_count_groups_degeneracies():
    sd = diagonalize(np.diag([0.0, 0.0, 0.5, 0.5, 0.5, 2.0]))
    split = split_spectrum(sd, lowest_k(5))
    assert split.p == 5
    assert split.distinct_count() == 2


def test_patch_expectation_matches_projector_trace():
    rng = np.random.default_rng(8)
    g = build_chain(3)
    sd = diagonalize(tfim(g, 1.0, 1.5).hamiltonian())
    split = split_spectrum(sd, lowest_k(3))
    A = random_hermitian(8, rng)
    expect = np.trace(split.projector @ A) / split.p
    got = patch_expectation(split, A)
    assert got == pytest.approx(expect)
    # a local operator, applied on its support only, agrees with the dense route
    op = LocalOperator((0, 2), random_hermitian(4, rng))
    assert patch_expectation(split, op) == pytest.approx(
        patch_expectation(split, op.embed(3))
    )


def test_lowest_levels_match_the_dense_spectrum_on_a_chain_of_12():
    n = 12
    phi = tfim(build_chain(n), 1.0, 2.0)
    dense = split_spectrum(diagonalize(phi.hamiltonian()), lowest_k(1))
    sd = lowest_levels(phi.sparse_hamiltonian(), 1)
    split = split_spectrum(sd, lowest_k(1))
    assert sd.energies.size == 2
    assert np.abs(sd.energies - dense.spectral_data.energies[:2]).max() <= 1e-10
    assert sd.residual() <= 1e-12
    assert (split.p, split.gap) == (1, pytest.approx(dense.gap, abs=1e-10))
    for op in (pauli_string("z", (0,)), pauli_string("z", (5,)), pauli_string("x", (5,))):
        assert patch_expectation(split, op) == pytest.approx(
            patch_expectation(dense, op), abs=1e-10)


_COMPLEX_SPECS = [("Y", (0,), 0.7), ("ZZ", (1, 2), 1.1), ("XY", (2, 3), 0.5),
                  ("ZZ", (3, 4), 1.0), ("X", (5,), 0.3)]


@pytest.mark.parametrize(
    "phi, k, p",
    [
        (tfim(build_chain(6), 1.0, 0.0), 1, 2),
        (tfim(build_chain(6), 1.0, 0.0), 3, 12),
        (tfim(build_chain(8), 1.0, 0.0), 3, 16),
        (tfim(build_chain(8), 1.0, 0.0), 11, 16),
        (custom_model(build_chain(6), _COMPLEX_SPECS), 2, 4),
    ],
    ids=["ising6-k1", "ising6-k3", "ising8-k3", "ising8-k11", "complex6-k2"],
)
def test_lowest_levels_close_exactly_degenerate_clusters(phi, k, p):
    # the classical Ising chain of n sites has a twofold ground level and a
    # 2(n-1)-fold first excited level; one Krylov space from one start
    # vector need not hold every copy of a level
    dense = split_spectrum(diagonalize(phi.hamiltonian()), lowest_k(k))
    H = phi.sparse_hamiltonian()
    sd = lowest_levels(H, k)
    split = split_spectrum(sd, lowest_k(k))
    # eigsh restarts from random vectors when its Krylov space closes
    assert np.array_equal(sd.vectors, lowest_levels(H, k).vectors)
    assert split.p == dense.p == p
    assert sd.energies.size == p + 1
    assert split.gap == pytest.approx(dense.gap, abs=1e-10)
    assert split.width == pytest.approx(dense.width, abs=1e-10)
    # Davis-Kahan: the patch can be off by no more than residual / gap
    residual = sd.residual()
    assert residual <= 1e-9
    bound = np.sqrt(p) * residual / split.gap + 1e-13
    assert np.abs(split.projector - dense.projector).max() <= bound


def test_lowest_levels_refuse_a_cluster_that_reaches_the_top():
    # a single Ising bond: levels -1, -1, 1, 1, so level 2 has none above it
    H = tfim(build_chain(2), 1.0, 0.0).sparse_hamiltonian()
    assert lowest_levels(H, 2).energies.tolist() == pytest.approx([-1, -1, 1])
    with pytest.raises(AssumptionError):
        lowest_levels(H, 3)
