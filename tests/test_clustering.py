"""Correlation decomposition I + II + III on the ground patch."""

import math

import numpy as np
import pytest

import smearlab.clustering
from smearlab.algebra import PAULI_X, PAULI_Z, LocalOperator, pauli_string
from smearlab.clustering import (
    ClusterDecomposition,
    cluster_experiment,
    decompose_correlation,
)
from smearlab.config import validate_config
from smearlab.errors import AssumptionError
from smearlab.filtering import erf_step_kernel
from smearlab.harness import run
from smearlab.interaction import custom_model, tfim
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
    A = pauli_string("z", (1,))
    B = pauli_string("z", (4,))
    dec = decompose_correlation(sd, split, 0.6, A, B, ground)
    assert dec.identity_defect < 1e-10
    assert abs(dec.correlation - dec.terms_sum) < 1e-10
    # the correlation here is the off-patch part of <A B>
    P = split.projector
    Pp = np.eye(64) - P
    direct = ground.conj() @ (A.embed(6) @ (Pp @ (B.embed(6) @ ground)))
    assert dec.correlation == pytest.approx(direct, abs=1e-12)


def test_diagnostic_bounds_hold_with_stated_prefactors():
    phi, sd, split = setup_chain()
    ground = np.asarray(sd.vectors[:, 0], dtype=complex)
    gamma = split.gap
    for d in (2, 3, 4):
        beta = gamma / (2.0 * np.sqrt(d))
        A = pauli_string("z", (0,))
        B = pauli_string("z", (d,))
        dec = decompose_correlation(sd, split, beta, A, B, ground)
        assert dec.bounds_hold()
        assert abs(dec.term_ii) <= dec.bound_ii
        assert abs(dec.term_iii) <= dec.bound_iii


def test_decomposition_rejects_bad_states():
    phi, sd, split = setup_chain(4)
    A = pauli_string("z", (0,))
    B = pauli_string("z", (3,))
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
    A = pauli_string("z", (0,))
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
    A = pauli_string("z", (0,))
    B = pauli_string("z", (3,))
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


def test_experiment_decomposes_once_per_placement_and_transforms_nothing(monkeypatch):
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
    assert log.count("to_eigenbasis") == 0


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
    A = pauli_string("x", (1,))
    B = LocalOperator((4,), 2.0 * PAULI_Z)
    beta = split.gap / 3.0
    stacked = decompose_correlation(sd, split, beta, A, B, states)
    assert len(stacked) == 6
    for j, dec in enumerate(stacked):
        single = decompose_correlation(sd, split, beta, A, B, states[:, j])
        assert isinstance(single, ClusterDecomposition)
        for name in ("term_i", "term_ii", "term_iii", "correlation",
                     "bound_ii", "bound_iii", "identity_defect"):
            assert abs(getattr(dec, name) - getattr(single, name)) < 1e-12


def dense_decomposition(sd, split, beta, A, B, states, norm_a=1.0, norm_b=1.0):
    """Oracle: every contraction on the full eigenbasis transforms of A and
    B and the full kernel matrix K[m, n] = ghat_beta(E_n - E_m)."""
    e = sd.energies
    mask = split.patch_mask()
    W = sd.vectors.conj().T @ states
    A_t = sd.to_eigenbasis(A)
    B_t = sd.to_eigenbasis(B)
    J = erf_step_kernel(e[None, :] - e[:, None], beta, split.gap) * A_t
    BW = B_t @ W
    JBW = J @ BW
    ABW = A_t @ (BW * (~mask)[:, None])

    def dots(X):
        return np.einsum("ij,ij->j", W.conj(), X)

    term_ii = dots(B_t @ (J @ W))
    term_i = dots(JBW) - term_ii
    term_iii = dots((ABW - JBW) * mask[:, None])
    correlation = dots(ABW)
    defect = np.abs(correlation - (term_i + term_ii + term_iii))
    gamma = split.gap
    envelope = (split.distinct_count() / math.sqrt(math.pi) * (beta / gamma)
                * math.exp(-((gamma / beta) ** 2) / 64.0) * norm_a * norm_b)
    return [
        ClusterDecomposition(*map(complex, terms), 4.0 * envelope, 6.0 * envelope,
                             float(f))
        for *terms, f in zip(term_i, term_ii, term_iii, correlation, defect)
    ]


def _patch_states(split, count, rng):
    C = rng.standard_normal((split.p, count)) + 1j * rng.standard_normal((split.p, count))
    return split.patch_vectors() @ (C / np.linalg.norm(C, axis=0))


def _observables(site_a, site_b):
    """(A, B) pairs covering x, y and z, one B scaled to norm 2."""
    pairs = [(pauli_string(a, (site_a,)), pauli_string(b, (site_b,)))
             for a, b in ("zz", "xx", "yy", "xz", "yx")]
    return pairs + [(pauli_string("y", (site_a,)), LocalOperator((site_b,), 2.0 * PAULI_X))]


def _assert_matches_oracle(sd, split, A, B, states):
    gamma = split.gap
    n = round(math.log2(sd.dim))
    for beta in (gamma / 2.0, gamma / (2.0 * math.sqrt(3.0))):
        got = decompose_correlation(sd, split, beta, A, B, states)
        want = dense_decomposition(sd, split, beta, A.embed(n), B.embed(n), states,
                                   A.norm(), B.norm())
        assert len(got) == len(want) == states.shape[1]
        for g, w in zip(got, want):
            for name in ("term_i", "term_ii", "term_iii", "correlation",
                         "bound_ii", "bound_iii", "identity_defect"):
                assert abs(getattr(g, name) - getattr(w, name)) < 1e-12, name


def test_patch_columns_match_dense_oracle_on_a_ring_with_diagonal_observables():
    n = 8
    sd = diagonalize(tfim(build_ring(n), 1.0, 2.0).hamiltonian(0.0))
    split = split_spectrum(sd, lowest_k(1))
    states = np.column_stack([sd.vectors[:, 0], _patch_states(split, 3, np.random.default_rng(1))])
    for site_b in (2, 4):
        for A, B in _observables(0, site_b):
            _assert_matches_oracle(sd, split, A, B, states)


def test_patch_columns_match_dense_oracle_for_a_dense_a_on_a_doublet():
    n = 6
    sd = diagonalize(tfim(build_chain(n), 1.0, 0.5).hamiltonian(0.0))
    split = split_spectrum(sd, lowest_k(2))
    assert split.p == 2
    states = _patch_states(split, 4, np.random.default_rng(2))
    for A, B in _observables(1, 4):
        _assert_matches_oracle(sd, split, A, B, states)


def test_patch_columns_match_dense_oracle_with_complex_eigenvectors():
    n = 6
    chain = build_chain(n)
    phi = custom_model(chain, [("zz", edge, -1.0) for edge in chain.edges]
                       + [(label, (x,), h) for x in range(n)
                          for label, h in (("x", -1.5), ("y", -0.7))])
    sd = diagonalize(phi.hamiltonian(0.0))
    assert np.iscomplexobj(sd.vectors)
    split = split_spectrum(sd, lowest_k(1))
    states = np.column_stack([sd.vectors[:, 0], _patch_states(split, 2, np.random.default_rng(3))])
    for A, B in _observables(0, 3):
        _assert_matches_oracle(sd, split, A, B, states)


@pytest.mark.parametrize("label", ["x", "y"])
def test_cluster_run_with_x_and_y_observables_embeds_nothing(tmp_path, monkeypatch, label):
    # A and B meet the eigenvectors only through LocalOperator.apply
    import smearlab.algebra

    def refused(*args, **kwargs):
        raise AssertionError("an observable was embedded")

    for owner, name in ((smearlab.algebra, "embed"), (LocalOperator, "embed")):
        monkeypatch.setattr(owner, name, refused)
    cfg = validate_config({
        "experiment": "cluster", "graph": {"kind": "ring", "n": 6},
        "model": {"kind": "tfim", "j": 1.0, "g": 2.0},
        "split": {"rule": "lowest_k", "k": 1}, "site_a": 0, "op_a": label, "op_b": label,
        "distances": [1, 2, 3], "n_state_samples": 2,
    })
    res = run(cfg, out_dir=str(tmp_path / "cl"), seed=3)
    assert res.summary["verdict"]["holds"] is True
