"""Correlation decomposition I + II + III on the ground patch."""

import numpy as np
import pytest

import smearlab.clustering
from smearlab.algebra import pauli_string
from smearlab.clustering import (
    ClusterDecomposition,
    cluster_experiment,
    decompose_correlation,
)
from smearlab.errors import AssumptionError
from smearlab.interaction import tfim
from smearlab.lattice import build_chain, build_ring
from smearlab.spectra import (
    SpectralData,
    diagonalize,
    lowest_k,
    split_spectrum,
    window,
)


def setup_chain(n=6, g=2.0):
    phi = tfim(build_chain(n), 1.0, g)
    sd = diagonalize(phi.hamiltonian(0.0))
    split = split_spectrum(sd, lowest_k(1))
    return phi, sd, split


def test_sum_identity_is_exact():
    phi, sd, split = setup_chain()
    ground = np.asarray(sd.vectors[:, 0], dtype=complex)
    A = pauli_string("z", (1,)).embed(6)
    B = pauli_string("z", (4,)).embed(6)
    dec = decompose_correlation(sd, split, 0.6, A, B, ground)
    assert dec.identity_defect < 1e-10
    assert abs(dec.correlation - dec.terms_sum) < 1e-10
    # the correlation here is the off-patch part of <A B>
    P = split.projector
    Pp = np.eye(64) - P
    direct = ground.conj() @ (A @ (Pp @ (B @ ground)))
    assert dec.correlation == pytest.approx(direct, abs=1e-12)


def test_diagnostic_bounds_hold_with_stated_prefactors():
    phi, sd, split = setup_chain()
    ground = np.asarray(sd.vectors[:, 0], dtype=complex)
    gamma = split.gap
    for d in (2, 3, 4):
        beta = gamma / (2.0 * np.sqrt(d))
        A = pauli_string("z", (0,)).embed(6)
        B = pauli_string("z", (d,)).embed(6)
        dec = decompose_correlation(sd, split, beta, A, B, ground)
        assert dec.bounds_hold()
        assert abs(dec.term_ii) <= dec.bound_ii
        assert abs(dec.term_iii) <= dec.bound_iii


def test_decomposition_rejects_bad_states():
    phi, sd, split = setup_chain(4)
    A = pauli_string("z", (0,)).embed(4)
    B = pauli_string("z", (3,)).embed(4)
    # not normalized
    with pytest.raises(AssumptionError):
        decompose_correlation(sd, split, 0.5, A, B, 2.0 * sd.vectors[:, 0])
    # not in the patch range
    with pytest.raises(AssumptionError):
        decompose_correlation(sd, split, 0.5, A, B, sd.vectors[:, 3])


def test_patch_must_sit_at_the_bottom():
    phi = tfim(build_chain(4), 1.0, 2.0)
    sd = diagonalize(phi.hamiltonian(0.0))
    e = sd.energies
    mid = split_spectrum(sd, window(e[2] - 1e-9, e[3] + 1e-9))
    A = pauli_string("z", (0,)).embed(4)
    with pytest.raises(AssumptionError):
        decompose_correlation(sd, mid, 0.5, A, A, sd.vectors[:, 2])


def test_cluster_experiment_records_and_decay():
    phi = tfim(build_ring(8), 1.0, 2.0)
    placements = {d: d for d in (2, 3, 4)}
    records, split = cluster_experiment(
        phi,
        lowest_k(1),
        0,
        lambda s: pauli_string("z", (s,)),
        placements,
        rng=np.random.default_rng(5),
    )
    assert [r.distance for r in records] == [2, 3, 4]
    gamma = split.gap
    for rec in records:
        assert rec.beta == pytest.approx(gamma / (2.0 * np.sqrt(rec.distance)))
        assert rec.ground.identity_defect < 1e-10
        assert rec.ground.bounds_hold()
        for dec in rec.sampled:
            assert dec.identity_defect < 1e-10
            assert dec.bounds_hold()
        assert rec.max_measured >= rec.measured
    meas = [r.measured for r in records]
    assert meas[0] > meas[1] > meas[2] > 0


def test_experiment_matches_direct_decomposition():
    phi = tfim(build_chain(5), 1.0, 2.0)
    records, split = cluster_experiment(
        phi,
        lowest_k(1),
        0,
        lambda s: pauli_string("z", (s,)),
        {3: 3},
        n_state_samples=2,
        rng=np.random.default_rng(9),
    )
    sd = split.spectral_data
    ground = np.asarray(sd.vectors[:, 0], dtype=complex)
    A = pauli_string("z", (0,)).embed(5)
    B = pauli_string("z", (3,)).embed(5)
    direct = decompose_correlation(
        sd, split, records[0].beta, A, B, ground
    )
    assert records[0].ground.correlation == pytest.approx(direct.correlation)
    assert records[0].ground.term_i == pytest.approx(direct.term_i)


def _count_calls(monkeypatch, owner, name, log):
    wrapped = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(name)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_experiment_decomposes_and_transforms_once_per_placement(monkeypatch):
    phi = tfim(build_ring(8), 1.0, 2.0)
    log = []
    _count_calls(monkeypatch, smearlab.clustering, "decompose_correlation", log)
    _count_calls(monkeypatch, SpectralData, "to_eigenbasis", log)
    records, _ = cluster_experiment(
        phi,
        lowest_k(1),
        0,
        lambda s: pauli_string("z", (s,)),
        {d: d for d in (1, 2, 3, 4)},
        rng=np.random.default_rng(5),
    )
    assert [len(r.sampled) for r in records] == [5] * 4
    assert log.count("decompose_correlation") == 4
    assert log.count("to_eigenbasis") == 8


def test_stacked_states_match_single_state_calls():
    # a two-fold ground patch (the ordered doublet at small field), so the
    # sampled states differ from the ground state by more than a phase
    phi = tfim(build_chain(6), 1.0, 0.5)
    sd = diagonalize(phi.hamiltonian(0.0))
    split = split_spectrum(sd, lowest_k(2))
    assert split.p == 2
    rng = np.random.default_rng(3)
    C = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    states = split.patch_vectors() @ (C / np.linalg.norm(C, axis=0))
    A = pauli_string("x", (1,)).embed(6)
    B = pauli_string("z", (4,)).embed_diagonal(6)
    beta = split.gap / 3.0
    stacked = decompose_correlation(sd, split, beta, A, B, states, 1.0, 2.0)
    assert len(stacked) == 6
    for j, dec in enumerate(stacked):
        single = decompose_correlation(sd, split, beta, A, B, states[:, j], 1.0, 2.0)
        assert isinstance(single, ClusterDecomposition)
        for name in ("term_i", "term_ii", "term_iii", "correlation",
                     "bound_ii", "bound_iii", "identity_defect"):
            assert abs(getattr(dec, name) - getattr(single, name)) < 1e-12
